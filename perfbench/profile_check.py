"""Cross-check the traced per-layer split against cProfile.

    python3 perfbench/profile_check.py timed-grid --seed 1 --groups tip-7,hdd1-11

Runs the chosen (code, p) groups of a grid workload in two fresh
processes, one under the benchmark's layer wrappers and one under
cProfile, and prints each layer's share of the run by both measures.
cProfile charges a function's own time to the layer of the code that
defines it; time in builtins and the standard library goes to the layer
of their direct callers.  Its per-call cost inflates layers that make
many small calls, so shares agree only roughly.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, grids  # noqa: E402

#: (path fragment under repro/, function names or None for all, layer)
_RULES = (
    ("engine/stream.py", {"intern_stream", "_intern_python", "_intern_numpy", "extend",
                          "window"}, "engine.stream.intern"),
    ("engine/stream.py", None, "engine.grid_pass"),
    ("engine/vector.py", None, "engine.grid_pass"),
    ("engine/stackdist.py", None, "engine.stackdist"),
    ("engine/tracesim.py", None, "engine.tracesim"),
    ("engine/timed.py", None, "engine.timed"),
    ("sim/reconstruction.py", {"_worker"}, "sim.kernel"),
    ("sim/reconstruction.py", None, "engine.timed"),
    ("sim/cluster.py", {"_replica_repair"}, "sim.kernel"),
    ("sim/kernel.py", None, "sim.kernel"),
    ("sim/controller.py", None, "sim.controller"),
    ("sim/cache_sim.py", None, "sim.cache_sim"),
    ("sim/array.py", None, "sim.disk"),
    ("sim/disk.py", None, "sim.disk"),
    ("sim/topology.py", None, "sim.topology"),
    ("cache/", None, "cache"),
    ("core/fbf_cache.py", None, "cache"),
    ("core/policy.py", None, "cache"),
    ("workloads/", None, "workloads"),
    ("codes/", None, "codes"),
    ("core/", None, "codes"),
    ("engine/backend", None, "codes"),
    ("bench/", None, "bench.engine"),
    ("api/", None, "bench.engine"),
)


def layer_of(filename: str, function: str) -> str | None:
    """The layer a profiled function belongs to; None outside ``repro``."""
    path = filename.replace("\\", "/")
    if "/repro/" not in path:
        return None
    module = path.split("/repro/", 1)[1]
    for fragment, names, layer in _RULES:
        if module.startswith(fragment) and (names is None or function in names):
            return layer
    return "other"


def profile_shares(stats: pstats.Stats) -> dict:
    shares: dict[str, float] = {}
    for (filename, _, function), (_, _, own, _, callers) in stats.stats.items():
        layer = layer_of(filename, function)
        if layer is not None:
            shares[layer] = shares.get(layer, 0.0) + own
            continue
        spent = sum(c[2] for c in callers.values()) or 1.0
        for (cfile, _, cfunc), call in callers.items():
            target = layer_of(cfile, cfunc) or "other"
            shares[target] = shares.get(target, 0.0) + own * call[2] / spent
    total = sum(shares.values())
    return {k: v / total for k, v in shares.items()}


def _child(workload: str, seed: int, groups: list, out: Path) -> int:
    common.require_program()
    from repro.api.v2 import bench

    points = [p for p in grids.grid_points(workload, seed) if grids.group_key(p) in groups]
    request = bench.GridRequest(points=tuple(points), engine=bench.EngineConfig())
    profiler = cProfile.Profile()
    profiler.enable()
    bench.run_grid(request)
    profiler.disable()
    common.write_json(out, profile_shares(pstats.Stats(profiler)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=grids.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--groups", default="tip-7")
    parser.add_argument("--child-out", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    groups = args.groups.split(",")
    if args.child_out is not None:
        return _child(args.workload, args.seed, groups, args.child_out)

    common.require_program()
    base = grids.spawn_child("measure", args.workload, args.seed, False, 600.0,
                             groups=groups)
    traced = grids.spawn_child("trace", args.workload, args.seed, False, 600.0,
                               groups=groups)
    out = common.OUT_DIR / "tmp" / "profile-shares.json"
    proc = common.start([sys.executable, str(Path(__file__).resolve()), args.workload,
                         "--seed", str(args.seed), "--groups", args.groups,
                         "--child-out", str(out)])
    code = common.reap(proc, 600.0)
    if base is None or traced is None or code != 0:
        common.log("profile_check: a child process failed")
        return 1
    prof = common.read_json(out)
    self_s = traced["trace"]["self_s"]
    total = sum(self_s.values())
    traced_shares = {k: v / total for k, v in self_s.items()}
    print(f"{'layer':24s} {'traced':>8s} {'cProfile':>9s}")
    for layer in sorted(set(traced_shares) | set(prof),
                        key=lambda k: -traced_shares.get(k, 0.0)):
        print(f"{layer:24s} {traced_shares.get(layer, 0.0):8.3f} {prof.get(layer, 0.0):9.3f}")
    print(f"untraced {base['wall_s']:.2f} s; traced {traced['wall_s']:.2f} s; "
          f"groups {args.groups}; seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
