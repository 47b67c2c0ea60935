"""Tests for the cluster-recovery CI gate's workload (`repro.bench.cluster_bench`).

The gate's baseline comparison is tested with the other gates in
``test_perf_gates.py``.
"""

from repro.bench import perf
from repro.bench.cluster_bench import GATE, run_cluster_bench


class TestClusterBench:
    def test_payload_invariants_hold_at_small_scale(self):
        payload = run_cluster_bench(n_errors=4)
        assert all(payload["checks"].values())
        assert len(payload["rows"]) == 8
        assert payload["aggregate"]["traffic_ratio"] > 1.0
        assert payload["manifest"]["nproc"] >= 1
        # a fresh payload's rows key the same way the gate compares them
        ok, message = perf.compare(GATE, payload, payload)
        assert ok, message
