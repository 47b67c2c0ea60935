"""Tests for the kernel-dispatch CI gate's workload (`repro.bench.kernel_bench`).

The gate's baseline comparison is tested with the other gates in
``test_perf_gates.py``.
"""

import pytest

from repro.bench.kernel_bench import WORKLOADS, run_kernel_bench


@pytest.fixture(scope="module")
def payload():
    # One round keeps the wall-clock measurement cheap; its speedup is
    # noise, so only the floor check may legitimately come out False.
    return run_kernel_bench(rounds=1, n_errors=4)


class TestKernelBench:
    def test_payload_invariants_hold_at_small_scale(self, payload):
        checks = dict(payload["checks"])
        checks.pop("speedup_at_least_floor")  # wall-clock, not asserted here
        assert all(checks.values()), checks
        assert payload["kind"] == "kernel"
        assert set(payload["rows"]) == {"fig10", "fig11", "cluster"}
        names = [w["name"] for w in payload["throughput"]["workloads"]]
        assert names == [name for name, _ in WORKLOADS]
        assert payload["throughput"]["total_events"] > 0
        assert payload["aggregate"]["speedup"] > 0
        assert payload["aggregate"]["events_per_s"] > 0
        assert set(payload["manifest"]) == {
            "git_rev", "python", "numpy", "cpu_model", "nproc"
        }
        assert payload["git_rev"] == payload["manifest"]["git_rev"]

    def test_rows_carry_virtual_time_only(self, payload):
        # The wall-clock planning-overhead columns must be stripped, or
        # the bit-exact row comparison would flake across machines.
        for row in payload["rows"].values():
            assert "overhead_mean_s" not in row
            assert "overhead_total_s" not in row
            assert row["total_requests"] > 0
