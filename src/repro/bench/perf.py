"""One harness for the repo's CI perf gates.

Four gates hold fresh measurements to committed baselines in
``benchmarks/``: :mod:`repro.bench.kernel_bench` (the Fig. 10/11 timed
rows plus kernel dispatch speed), :mod:`repro.bench.replay_bench`
(Fig. 8's grid pass against per-point replay),
:mod:`repro.bench.cluster_bench` (the cross-rack traffic asymmetry) and
:mod:`repro.checks.bench` (simlint's warm cache).  Each keeps its
workload and checks and declares a :class:`Gate`; this module is the
only place that times, compares against a baseline, writes payloads,
stamps the run manifest and parses a gate's command line.  A gate module
ends in ``raise SystemExit(perf.main(GATE))`` and runs as
``python -m <module> [--out PATH] [--check BASELINE] ...``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy

from ..obs import emit

__all__ = ["TOLERANCE", "Gate", "best_of", "compare", "main", "stamp", "write_json"]

#: Allowed fractional regression of a ratio floor against its baseline.
TOLERANCE = 0.10


@dataclass(frozen=True)
class Gate:
    """One perf gate: its workload, its checks, and what binds a re-run.

    * ``checks`` — named pass/fail checks a payload carries or implies;
      each must hold in a fresh run, except ``baseline_checks``, which
      the committed baseline must demonstrate instead;
    * ``rows`` — keyed rows that must equal the baseline's field for
      field; a row missing on either side fails;
    * ``ratio_floors`` — aggregate ratios of two timings from one run
      (comparable across machines), held to ``1 - TOLERANCE`` times the
      baseline's;
    * ``seconds`` — groups of aggregate wall times, each group summed and
      held to the baseline's sum times ``1 + time_tolerance``, only when
      the caller passes one (raw seconds are machine-dependent);
    * ``rounds`` — the default min-of-N, or None for a gate that times
      nothing; ``run`` gets ``rounds=`` only when it is set.
    """

    run: Callable[..., dict]
    summary: Callable[[dict], str]
    checks: Callable[[dict], Mapping[str, bool]] = itemgetter("checks")
    baseline_checks: tuple[str, ...] = ()
    rows: Callable[[dict], Mapping] | None = None
    ratio_floors: tuple[str, ...] = ()
    seconds: tuple[tuple[str, ...], ...] = ()
    rounds: int | None = None


def best_of(rounds: int, *fns: Callable[[], object]) -> list[float]:
    """Min-of-``rounds`` wall time of each callable, interleaved.

    One round times every callable once, in order, so a quiet window on a
    shared machine benefits all of them, and min-of-N drops the slices a
    busy machine steals.  Garbage is collected before each call and the
    collector is paused inside it, so no collection lands in a timed
    region and no call pays for another's garbage.
    """
    best = [float("inf")] * len(fns)
    was_enabled = gc.isenabled()
    try:
        for _ in range(rounds):
            for i, fn in enumerate(fns):
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                fn()
                best[i] = min(best[i], time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp() -> dict:
    """Payload header: the git rev, and the run manifest that repeats it."""
    rev = _git_rev()
    return {
        "git_rev": rev,
        "manifest": {
            "git_rev": rev,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
        },
    }


def write_json(path: str | Path, payload: Mapping) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return out


def compare(
    gate: Gate, current: dict, baseline: dict, time_tolerance: float | None = None
) -> tuple[bool, str]:
    """Hold a fresh payload to a committed baseline: ``(ok, message)``."""
    problems = [
        f"check {name} does not hold"
        for name, ok in gate.checks(current).items()
        if not ok and name not in gate.baseline_checks
    ]
    held = gate.checks(baseline) if gate.baseline_checks else {}
    problems += [
        f"baseline does not demonstrate {name}"
        for name in gate.baseline_checks
        if not held.get(name, False)
    ]
    passed = []
    if gate.rows is not None:
        expected_rows = dict(gate.rows(baseline))
        rows = gate.rows(current)
        for key, row in rows.items():
            expected = expected_rows.pop(key, None)
            if expected is None:
                problems.append(f"row {key} missing from the baseline")
                continue
            diff = [f for f in expected if f in row and row[f] != expected[f]]
            if diff:
                problems.append(f"row {key} diverged on {', '.join(diff)}")
        problems += [f"baseline row {key} missing from the current run" for key in expected_rows]
        passed.append(f"{len(rows)} rows bit-identical")
    now, base = current["aggregate"], baseline["aggregate"]
    for key in gate.ratio_floors:
        floor = base[key] * (1.0 - TOLERANCE)
        verdict = (
            f"{key} {now[key]:.2f}x against a {floor:.2f}x floor "
            f"(baseline {base[key]:.2f}x - {TOLERANCE:.0%})"
        )
        (problems if now[key] < floor else passed).append(verdict)
    if time_tolerance is not None:
        for keys in gate.seconds:
            spent = sum(now[k] for k in keys)
            ceiling = sum(base[k] for k in keys) * (1.0 + time_tolerance)
            verdict = (
                f"{' + '.join(keys)} {spent:.3f}s against a {ceiling:.3f}s "
                f"ceiling (baseline + {time_tolerance:.0%})"
            )
            (problems if spent > ceiling else passed).append(verdict)
    if problems:
        return False, "; ".join(problems)
    return True, "; ".join(passed) or "every check holds"


def main(gate: Gate, argv: Sequence[str] | None = None) -> int:
    """A gate's command line: run, print, then ``--out`` and ``--check``.

    Exits 1 when ``--check`` fails or, without ``--check``, when the
    payload fails one of its own checks: a payload written by ``--out``
    may become the next baseline.
    """
    module = sys.modules[gate.run.__module__]  # ``__main__`` under ``-m``
    parser = argparse.ArgumentParser(
        prog=f"python -m {getattr(module.__spec__, 'name', module.__name__)}",
        description=(module.__doc__ or "").split("\n", 1)[0],
    )
    parser.add_argument("--out", metavar="PATH", help="write the payload here")
    parser.add_argument(
        "--check", metavar="BASELINE", help="compare against a committed payload"
    )
    if gate.rounds is not None:
        parser.add_argument(
            "--rounds", type=int, default=gate.rounds,
            help=f"min-of-N timing rounds (default: {gate.rounds})",
        )
    if gate.seconds:
        parser.add_argument(
            "--time-tolerance", type=float, metavar="FRACTION",
            help="also hold raw seconds to the baseline's + FRACTION "
            "(same-machine comparisons only)",
        )
    args = parser.parse_args(argv)

    payload = gate.run(rounds=args.rounds) if gate.rounds is not None else gate.run()
    checks = gate.checks(payload)
    emit(gate.summary(payload))
    for name, ok in checks.items():
        emit(f"check {name}: {'ok' if ok else 'FAILED'}")
    if args.out:
        emit(f"wrote {write_json(args.out, payload)}")
    if args.check:
        baseline = json.loads(Path(args.check).read_text(encoding="utf-8"))
        ok, message = compare(gate, payload, baseline, getattr(args, "time_tolerance", None))
    else:
        ok = all(checks.values())
        message = f"payload {'satisfies' if ok else 'fails'} its own checks"
    emit(("PASS: " if ok else "FAIL: ") + message)
    return 0 if ok else 1
