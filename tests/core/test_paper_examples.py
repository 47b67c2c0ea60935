"""End-to-end checks against the paper's worked examples.

Cell coordinates differ from the paper's figures because our TIP layout is
a documented substitute (DESIGN.md §4), so these tests assert the
*structural* facts the examples illustrate rather than exact cell ids.
"""

import pytest

from repro.codes import make_code
from repro.core import FBFCache, PriorityDictionary, generate_plan


class TestFigure1:
    def test_tip_p5_is_a_six_disk_array(self):
        """Paper Figure 1: 'Encoding of TIP-code (P = 5)' on 6 disks."""
        layout = make_code("tip", 5)
        assert layout.num_disks == 6
        assert layout.rows == 4

    def test_faulty_chunks_have_multiple_recovery_directions(self):
        """Paper: each chunk can be shared by *up to* three chain directions.

        In RDP-style constructions each column misses exactly one diagonal
        and one anti-diagonal, so every data cell has at least two
        directions and most have all three.
        """
        layout = make_code("tip", 5)
        dir_counts = [
            len({c.direction for c in layout.chains_for(cell)})
            for cell in layout.data_cells
        ]
        assert min(dir_counts) >= 2
        assert sum(1 for n in dir_counts if n == 3) > len(dir_counts) / 2

    def test_star_cells_always_have_three_directions(self):
        """With adjusters, every STAR data cell reaches all three directions."""
        layout = make_code("star", 5)
        for cell in layout.data_cells:
            assert len({c.direction for c in layout.chains_for(cell)}) == 3


class TestFigure2:
    """Typical vs FBF chain selection for TIP (P=5)."""

    def test_fbf_scheme_fetches_fewer_chunks(self):
        layout = make_code("tip", 5)
        failed = [(r, 0) for r in range(4)]
        typical = generate_plan(layout, failed, "typical")
        fbf = generate_plan(layout, failed, "fbf")
        assert fbf.unique_reads < typical.unique_reads


class TestFigure3AndTableIII:
    """Five contiguous failed chunks on disk 0, TIP (P=7, n=8)."""

    @pytest.fixture
    def priorities(self):
        layout = make_code("tip", 7)
        plan = generate_plan(layout, [(r, 0) for r in range(5)], "fbf")
        return PriorityDictionary(plan)

    def test_three_priority_levels_populated(self, priorities):
        hist = priorities.histogram()
        assert hist[3] >= 1
        assert hist[2] >= 1
        assert hist[1] >= 10

    def test_priority_one_dominates(self, priorities):
        """Table III: most fetched chunks are referenced only once."""
        hist = priorities.histogram()
        assert hist[1] > hist[2] + hist[3]

    def test_small_high_priority_set(self, priorities):
        """Table III shows exactly 1 priority-3 and 2 priority-2 chunks; our
        substitute layout yields the same order of magnitude."""
        hist = priorities.histogram()
        assert hist[3] <= 3
        assert hist[2] <= 5


class TestTableII:
    def test_reduced_io_interpretation(self):
        """A chunk shared by k chains saves k-1 disk reads if held: verify
        by replaying one stripe's request stream against an infinite FBF."""
        layout = make_code("tip", 7)
        plan = generate_plan(layout, [(r, 0) for r in range(5)], "fbf")
        pd = PriorityDictionary(plan)
        cache = FBFCache(capacity=10_000)
        for cell in plan.request_sequence:
            cache.request(cell, priority=pd.lookup(cell))
        saved = cache.stats.hits
        expected_savings = sum(
            count - 1 for count in plan.chain_share_count.values()
        )
        assert saved == expected_savings == plan.total_requests - plan.unique_reads


class TestHeadlineClaim:
    def test_fbf_beats_all_baselines_at_small_cache(self):
        """The abstract's claim, at one representative configuration."""
        from repro.cache import PAPER_BASELINES, make_policy
        from repro.workloads import ErrorTraceConfig, generate_errors
        from repro.engine import simulate_cache_trace

        layout = make_code("tip", 7)
        errors = generate_errors(layout, ErrorTraceConfig(n_errors=40, seed=3))
        fbf = simulate_cache_trace(
            layout, errors, policy="fbf", capacity_blocks=48, workers=8
        )
        for baseline in PAPER_BASELINES:
            base = simulate_cache_trace(
                layout, errors, policy=baseline, capacity_blocks=48, workers=8
            )
            assert fbf.hit_ratio >= base.hit_ratio, baseline
            assert fbf.disk_reads <= base.disk_reads, baseline
