"""Helpers shared by the benchmark's workloads: processes, statistics, files."""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"
OUT_DIR = REPO_ROOT / ".perfbench-out"


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    ``src`` leads the import path, and ``REPRO_OBS`` is dropped so that
    obs stays off in grid processes whatever the caller's shell says.
    """
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


@functools.cache
def _prctl():
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl


def start(argv: list[str], stdout=None, env: dict | None = None) -> subprocess.Popen:
    """Start a child that the kernel kills if the benchmark dies first.

    Its stdout goes to our stderr unless ``stdout`` says otherwise: the
    benchmark's own stdout is reserved for its result lines.
    """
    prctl = _prctl()  # loaded before the fork, so the child only calls it
    return subprocess.Popen(
        argv, cwd=REPO_ROOT, env=child_env() if env is None else env,
        stdout=sys.stderr if stdout is None else stdout,
        preexec_fn=lambda: prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0),
    )


def adopt_orphans() -> None:
    """Become the parent of every descendant that loses its own parent.

    A process that a child starts and leaves behind then stays under this
    one, where :func:`stop_descendants` finds it.
    """
    _prctl()(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> set[int]:
    pids = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(int(pid) for pid in (task / "children").read_text().split())
        except OSError:  # the thread has ended
            pass
    return pids


def stop_descendants() -> int:
    """Kill and reap every process still under this one; returns how many."""
    stopped = 0
    while pids := _children():
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        stopped += len(pids)
    return stopped


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of a live process (``VmHWM``), in MB.

    ``ru_maxrss`` is no use here: Linux carries the parent's high-water
    mark across ``fork``/``exec`` into it, so a small child of a large
    parent would report the parent's size.
    """
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return math.nan


def reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc`` and return its exit code; kill it after ``timeout``."""
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()
    except BaseException:  # interrupted: leave no child behind, then re-raise
        proc.kill()
        proc.wait()
        raise


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def source_digest() -> str:
    """SHA-256 over every ``src`` file: identifies the code outside git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(workload: str, seed: int, trace: bool, params: dict) -> dict:
    """Run manifest carried by every result file."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": _git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "params": params,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def log(text: str) -> None:
    """Progress for humans, on stderr."""
    print(text, file=sys.stderr, flush=True)
