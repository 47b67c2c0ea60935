"""The fork-join replay against its reference, the DES.

Hypothesis samples a backend, a trace, a registry policy, a cache size,
the SOR width, the chunk size and timings that force same-instant ties
across entry types; :class:`~repro.engine.forkjoin.ForkJoinGroup` must
reproduce every simulated field of :func:`~repro.engine.run_timed_replay`'s
report, per-disk ``disk_stats`` included, or raise the DES's error (a
non-zero cache with fewer blocks than the SOR workers that run).  Every
configuration outside the model must be refused, so that its caller
takes the DES.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.lru import LRUCache
from repro.cache.registry import available_policies
from repro.engine import EnginePlan, RecoveryStep, make_backend, run_timed_replay
from repro.engine.forkjoin import ForkJoinGroup, eligible
from repro.sim import SimConfig, TopologySpec
from repro.utils import parse_size

BACKEND_SPECS = (
    ("tip", 5),
    ("tip", 7),
    ("hdd1", 5),
    ("star", 5),
    ("triple-star", 5),
    ("lrc(12,2,2)", 0),
)

TIMINGS = (
    (),  # the paper's 0.5 ms hit, 10 ms disk and 10 us of XOR per chunk
    (("hit_time", 0.010),),  # a hit costs a disk access
    (("hit_time", 5e-5), ("xor_time_per_chunk", 1e-5)),  # 5 chunks of XOR = a hit
    (("hit_time", 0.0), ("xor_time_per_chunk", 0.0)),  # zero delays take the lane
)


def _outcome(run, *args):
    """A report's simulated fields, or the ValueError the run raised."""
    try:
        return run(*args).simulated_dict()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _des(backend, events, config):
    return _outcome(run_timed_replay, backend, events, config)


@settings(max_examples=100, deadline=None)
@given(
    spec=st.sampled_from(BACKEND_SPECS),
    scheme=st.sampled_from(("fbf", "typical", "greedy")),
    policy=st.sampled_from(sorted(available_policies())),
    n_events=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.sampled_from((0, 1, 3, 8, 64, 512, 100_000)),
    chunk=st.sampled_from(("4KB", "32KB", "1MB")),
    workers=st.integers(min_value=1, max_value=64),
    timing=st.sampled_from(TIMINGS),
)
# TIP p=7 at the paper's timings: a spare write and the next step's reads
# reach disk 7 at the same instant (t = 0.23037 s), and only the kernel's
# "due heap entries first" rule orders them as the DES does.
@example(spec=("tip", 7), scheme="fbf", policy="lru", n_events=8, seed=50,
         blocks=64, chunk="32KB", workers=2, timing=())
def test_fork_join_equals_the_des(
    spec, scheme, policy, n_events, seed, blocks, chunk, workers, timing
):
    name, p = spec
    backend = make_backend(name, p, scheme_mode=scheme)
    events = backend.generate_events(n_events, seed)
    config = SimConfig(
        policy=policy,
        cache_size=blocks * parse_size(chunk),
        chunk_size=chunk,
        workers=workers,
        scheme_mode=scheme,
        **dict(timing),
    )
    assert eligible(config)
    group = ForkJoinGroup(backend, events, config)
    assert group.has_reads
    assert _outcome(group.run, config) == _des(backend, events, config)


def test_one_group_serves_every_cell_of_its_trace():
    """Cells share the skeleton, forced-outcome flags and replays; a
    64 KB cache (2 blocks for 8 workers) is refused by both paths."""
    backend = make_backend("tip", 5)
    events = backend.generate_events(30, 3)
    base = SimConfig(workers=8)
    group = ForkJoinGroup(backend, events, base)
    for policy in ("fifo", "lru", "lfu", "arc", "fbf", "lirs"):
        for cache in ("64KB", "1MB", "64MB"):
            config = replace(base, policy=policy, cache_size=cache)
            outcome = _outcome(group.run, config)
            assert outcome == _des(backend, events, config)
            assert (cache == "64KB") == isinstance(outcome, str)
    kwargs = replace(base, policy="fbf", policy_kwargs={"demote_on_hit": False})
    assert group.run(kwargs).simulated_dict() == _des(backend, events, kwargs)
    with pytest.raises(ValueError, match="skeleton"):
        group.run(replace(base, workers=4))


def test_an_all_forced_cell_still_checks_its_kwargs():
    """Only stepped workers get a policy, but a cell whose workers are all
    forced still builds one, so an unknown kwarg raises the DES's error."""
    backend = make_backend("star", 5)
    events = backend.generate_events(4, 0)
    config = SimConfig(
        workers=4, cache_size="256KB", policy="lru",
        policy_kwargs={"no_such_kwarg": 1},
    )
    group = ForkJoinGroup(backend, events, config)
    # No substream reuses a block, so every worker's outcome is forced.
    assert group._distinct == [len(bids) for bids, _ in group.substreams]
    with pytest.raises(TypeError) as des:
        run_timed_replay(backend, events, config)
    with pytest.raises(TypeError) as fork_join:
        group.run(config)
    assert str(fork_join.value) == str(des.value)
    assert "no_such_kwarg" in str(des.value)


def test_table4_overhead_times_each_shape_once():
    backend = make_backend("tip", 7)
    events = backend.generate_events(40, 9)
    config = SimConfig(workers=4)
    group = ForkJoinGroup(backend, events, config)
    report = group.run(config)
    des = run_timed_replay(backend, events, config)
    assert len(group.plan_samples) == len(events) - des.plan_cache_hits
    assert report.overhead_mean_s > 0
    assert report.overhead_total_s == sum(group.plan_samples)


INELIGIBLE = (
    {"disk_model": "hdd"},
    {"disk_scheduler": "sstf"},
    {"parallel_chain_reads": False},
    {"topology": TopologySpec()},
    {"sanitize": True},
    {"verify_payloads": True},
    {"response_quantiles": True},
    {"respect_arrival_times": True},
    {"policy": "no-such-policy"},
    {"hit_time": -1.0},
)


@pytest.mark.parametrize("change", INELIGIBLE, ids=lambda c: next(iter(c)))
def test_configurations_outside_the_model_are_refused(change):
    backend = make_backend("tip", 5)
    events = backend.generate_events(6, 1)
    config = replace(SimConfig(workers=2, cache_size="256KB"), **change)
    assert not eligible(config)
    with pytest.raises(ValueError, match="fork-join"):
        ForkJoinGroup(backend, events, config).run(config)


def test_a_policy_factory_is_refused():
    assert eligible(SimConfig())
    assert not eligible(SimConfig(), policy_factory=LRUCache)


class _EmptyStepBackend:
    """A TIP backend whose plans end with a step that reads nothing."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def build_plan(self, event) -> EnginePlan:
        plan = self._inner.build_plan(event)
        empty = RecoveryStep(target=plan.steps[-1].target, reads=())
        return EnginePlan(steps=plan.steps + (empty,))


def test_a_step_without_reads_is_refused():
    backend = _EmptyStepBackend(make_backend("tip", 5))
    events = backend.generate_events(6, 1)
    config = SimConfig(workers=2, cache_size="256KB")
    group = ForkJoinGroup(backend, events, config)
    assert not group.has_reads
    with pytest.raises(ValueError, match="fork-join"):
        group.run(config)
    assert run_timed_replay(backend, events, config).chunks_recovered > 0


def test_invalid_inputs_raise_like_the_des():
    backend = make_backend("tip", 5)
    with pytest.raises(ValueError, match="no events"):
        ForkJoinGroup(backend, [], SimConfig())
    events = backend.generate_events(6, 1)
    tiny_array = SimConfig(array_stripes=1)
    with pytest.raises(ValueError, match="stripe"):
        run_timed_replay(backend, events, tiny_array)
    with pytest.raises(ValueError, match="stripe"):
        ForkJoinGroup(backend, events, tiny_array)
