"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay-grid --seed 3 --seconds 15 --trace 0

``--trace 0`` times the workload with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` runs it again under the layer wrappers
of ``perfbench/tracer.py`` and prints the per-layer metrics.  Every line
but the last is a human-readable ``name value unit`` table; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full result file with the run manifest is written under
``.perfbench-out/``.

The exit code is 0 only when every output checked out (``error_rate``,
failed / attempted, is 0).  With no program to benchmark (no
``src/repro``) it exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, layers, settings  # noqa: E402

WORKLOADS = ("replay-grid", "timed-grid", "advise-live")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if name == "advise-live":
        from perfbench import advise

        return advise.run(seed, seconds, trace, smoke=smoke)
    from perfbench import grids

    return grids.run(name, seed, seconds, trace, smoke=smoke)


def workload_params(name: str, smoke: bool) -> dict:
    params = {key: value for key, value in vars(settings).items() if key.isupper()}
    params["smoke"] = smoke
    return params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed phase runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        common.require_program()
    except common.ProgramMissing as exc:
        common.log(str(exc))
        return 2
    # A terminated run unwinds like an interrupted one, so every process it
    # started is killed and reaped on the way out, and so is any process
    # those left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.adopt_orphans()

    t0 = time.perf_counter()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
    finally:
        stray = common.stop_descendants()
        if stray:
            common.log(f"stopped {stray} process(es) the run left running")
    catalogue = layers.PER_LAYER if args.trace else layers.END_TO_END
    measured = result.get("metrics", {})
    metrics = {}
    complete = True
    for name, unit, *_ in catalogue:
        value = measured.get(name)
        if value is None or not math.isfinite(value):
            complete = False
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    attempted = max(1, int(result.get("attempted", 0)))
    failed = int(result.get("failed", 0))
    correct = failed == 0 and complete

    document = {
        "manifest": common.manifest(args.workload, args.seed, bool(args.trace),
                                    workload_params(args.workload, args.smoke)),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "elapsed_s": time.perf_counter() - t0,
        "metrics": metrics,
        "detail": {k: v for k, v in result.items() if k != "metrics"},
    }
    out = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    common.write_json(out, document)

    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'error_rate':34s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} failed)")
    print(f"result file: {out.relative_to(common.REPO_ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
