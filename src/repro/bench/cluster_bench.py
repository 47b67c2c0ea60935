"""The cluster-recovery bench: the rack-aware scenario as a CI gate.

Runs the quick-scale ``cluster`` grid — EC decode (FBF/LRU/ARC) vs
replication on a 3-rack cluster, healthy and with a limplocked node —
plus the degenerate-topology equivalence check, and emits
``BENCH_cluster.json``.  Every number in the payload is *virtual* time
or traffic (no wall clocks), so the committed baseline is
machine-independent and CI compares rows **bit-exactly**:

* the one-node topology must reproduce the golden single-controller
  rows identically (the refactor's safety contract, DESIGN §15);
* EC recovery must move more cross-rack bytes than replication (the
  Rashmi et al. traffic asymmetry the scenario exists to show);
* the measured bottleneck must be a network link, not a disk;
* the nic-counter detector must flag exactly the limplocked node;
* every row must equal the committed baseline's row (:data:`GATE`, checked
  by :mod:`repro.bench.perf`).

Run directly: ``python -m repro.bench.cluster_bench --out BENCH_cluster.json``
or ``--check benchmarks/BENCH_cluster.json`` for the CI gate.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from ..codes import make_code
from ..sim import SimConfig, TopologySpec, run_reconstruction
from ..sim.cluster import ClusterSpec, run_cluster_recovery
from ..workloads import ErrorTraceConfig, generate_errors
from . import perf
from .experiments import QUICK

__all__ = ["GATE", "run_cluster_bench"]

#: The scenario axis: (redundancy, policy) per cluster state.
SCENARIOS = (("ec", "fbf"), ("ec", "lru"), ("ec", "arc"), ("rep", "rep"))


def _degenerate_identical(n_errors: int, seed: int) -> bool:
    """One-node topology == golden single-controller rows, bit for bit."""
    layout = make_code("tip", 7)
    errors = generate_errors(
        layout, ErrorTraceConfig(n_errors=n_errors, seed=seed)
    )
    config = SimConfig(workers=8)
    base = run_reconstruction(layout, errors, config)
    topo = run_reconstruction(
        layout, errors, replace(config, topology=TopologySpec())
    )
    return (base.simulated_dict(exclude=("cluster",))
            == topo.simulated_dict(exclude=("cluster",)))


def run_cluster_bench(n_errors: int | None = None, seed: int | None = None) -> dict:
    """Run the scenario grid + invariant checks; return the payload."""
    n_errors = QUICK.n_errors if n_errors is None else n_errors
    seed = QUICK.seed if seed is None else seed
    rows = []
    for limplock in (False, True):
        for redundancy, policy in SCENARIOS:
            spec = ClusterSpec(
                redundancy=redundancy,
                policy=policy if redundancy == "ec" else "fbf",
                n_errors=n_errors,
                seed=seed,
                workers=min(QUICK.workers, 8),
                limplock=limplock,
            )
            report = run_cluster_recovery(spec)
            row = asdict(report)
            row["cross_rack_mb"] = report.cross_rack_mb
            row["limplock_suspects"] = list(report.limplock_suspects)
            rows.append(row)

    def _rows(redundancy, limplock):
        return [r for r in rows
                if r["redundancy"] == redundancy and r["limplock"] == limplock]

    ec_cross = min(r["cross_rack_bytes"] for r in _rows("ec", False))
    rep_cross = max(r["cross_rack_bytes"] for r in _rows("rep", False))
    checks = {
        "degenerate_identical": _degenerate_identical(n_errors, seed),
        # the traffic asymmetry: decode reads k survivors where
        # replication reads one replica
        "ec_exceeds_rep_cross_rack": ec_cross > rep_cross,
        "bottleneck_is_network": all(
            "nic" in r["bottleneck"] or "uplink" in r["bottleneck"]
            for r in rows
        ),
        "limplock_detected": all(
            r["limplock_suspects"] == [1] if r["limplock"]
            else r["limplock_suspects"] == []
            for r in rows
        ),
    }
    return {
        "schema": 1,
        "kind": "cluster-recovery",
        **perf.stamp(),
        "scale": "quick",
        "n_errors": n_errors,
        "seed": seed,
        "rows": rows,
        "checks": checks,
        "aggregate": {
            "ec_min_cross_rack_bytes": ec_cross,
            "rep_max_cross_rack_bytes": rep_cross,
            "traffic_ratio": ec_cross / rep_cross if rep_cross else None,
        },
    }


def _format_summary(payload: dict) -> str:
    lines = [
        f"{'state':>8} {'mode':>5} {'policy':>7} {'hit':>8} "
        f"{'xrack(MB)':>10} {'recover(s)':>11} {'p99(s)':>8} {'bottleneck':>13}"
    ]
    for r in payload["rows"]:
        state = "limplock" if r["limplock"] else "healthy"
        lines.append(
            f"{state:>8} {r['redundancy']:>5} {r['policy']:>7} "
            f"{r['hit_ratio']:>8.4f} {r['cross_rack_mb']:>10.1f} "
            f"{r['recovery_time']:>11.3f} {r['p99_response_time']:>8.4f} "
            f"{r['bottleneck']:>13}"
        )
    ratio = payload["aggregate"]["traffic_ratio"]
    if ratio is not None:
        lines.append(f"EC moves {ratio:.2f}x replication's cross-rack bytes")
    return "\n".join(lines)


#: Every quantity is virtual time or traffic, so rows compare bit-exactly
#: with no tolerance: any drift is a determinism or behaviour regression.
GATE = perf.Gate(
    run=run_cluster_bench,
    summary=_format_summary,
    rows=lambda payload: {
        (r["redundancy"], r["policy"], r["limplock"]): r
        for r in payload["rows"]
    },
)


if __name__ == "__main__":
    raise SystemExit(perf.main(GATE))
