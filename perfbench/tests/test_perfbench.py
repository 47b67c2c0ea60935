"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.

Smoke-sized runs (``--smoke``) go through the same runner, checks and
result line as real runs, on inputs small enough to finish in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from perfbench import common, grids, hostspeed, layers, run, tracer  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_catalogue():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(layers.PER_LAYER)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric_and_passes(workload):
    code, result, err = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                             "--trace", "0", "--smoke")
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in _benchmark_json()["end_to_end"]]
    assert list(result["metrics"]) == names
    for name, entry in result["metrics"].items():
        assert entry["unit"] == layers.UNITS[name]
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", ["replay-grid", "advise-live"])
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    code, result, err = _run("--workload", workload, "--seed", "6", "--seconds", "1",
                             "--trace", "1", "--smoke")
    assert code == 0, err
    assert result["correct"]
    names = [m["name"] for m in _benchmark_json()["per_layer"]]
    assert list(result["metrics"]) == names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "replay-grid":
        assert values["engine.grid_pass.cells"] > 0 and values["sim.kernel.events"] == 0
    else:
        # The ramp sheds by design once it passes the capacity; nothing may be invalid.
        assert values["serve.evaluate.count"] > 0 and values["serve.ingest.invalid"] == 0
        assert values["serve.grid_pass.share"] > 0.5


def test_a_run_leaves_no_process_behind():
    # Orphans of the run are re-parented to this process, so any process
    # the run left running shows up among this process's children.
    common.adopt_orphans()
    code, result, err = _run("--workload", "advise-live", "--seed", "8", "--seconds", "1",
                             "--trace", "0", "--smoke")
    assert code == 0, err
    assert common.stop_descendants() == 0


def test_children_die_with_the_benchmark():
    common.adopt_orphans()
    proc = common.start([sys.executable, "-c", (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "from perfbench import common; "
        "child = common.start(['sleep', '60']); print(child.pid, flush=True); time.sleep(60)"
    ), str(ROOT)], stdout=subprocess.PIPE)
    grandchild = int(proc.stdout.readline())
    proc.stdout.close()
    proc.kill()
    proc.wait()

    def running() -> bool:
        try:
            state = Path(f"/proc/{grandchild}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            return False
        return state != "Z"

    deadline = time.monotonic() + 5
    while running() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running()
    common.stop_descendants()  # reap it: it was re-parented to this process


def test_corrupted_reference_digest_counts_failures(tmp_path, monkeypatch, capfd):
    common.require_program()
    seed = 7
    digests = {
        grids.group_key(p): "0" * 16 for p in grids.grid_points("replay-grid", seed, True)
    }
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"seeds": {str(seed): digests}}))
    monkeypatch.setattr(grids, "reference_path", lambda workload, smoke=False: reference)
    code = run.main(["--workload", "replay-grid", "--seed", str(seed), "--seconds", "1",
                     "--trace", "0", "--smoke"])
    result = json.loads(capfd.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0


class _NoGolden:
    def group(self, key):
        return None


def test_cells_missing_from_a_pass_count_as_failed():
    common.require_program()
    points = grids.grid_points("timed-grid", 3, True)
    groups = [grids.group_key(p) for p in points]
    rows = [[i] for i in range(len(points))]
    full = {"groups": groups, "rows": rows}
    reference = {key: grids.digest(group) for key, group in grids.by_group(full).items()}
    assert grids.count_failures(full, points, reference, _NoGolden()) == 0
    short = {"groups": groups, "rows": rows[:-1]}
    assert grids.count_failures(short, points, reference, _NoGolden()) > 0
    last_group = {"groups": groups, "rows": rows[: groups.index(groups[-1])]}
    assert grids.count_failures(last_group, points, reference, _NoGolden()) \
        == groups.count(groups[-1])


def test_grid_timings_are_rescaled_by_each_process_slowdown():
    probe = hostspeed.Probe()
    probe.sample(0.01)
    probe.sample(0.01)
    assert len(probe.units) == 2 and probe.seconds >= 0.02 and probe.slowdown() > 0
    passes = [{"rows": [[0]] * 4, "wall_s": 2.0, "cell_s": [0.5] * 4, "n_errors": [10] * 4,
               "setup_s": 0.4, "slowdown": 2.0}]
    raw = grids._timings(passes, passes, lambda out: 1.0)
    scaled = grids._timings(passes, passes, lambda out: out["slowdown"])
    assert scaled["cells_per_s"] == 2 * raw["cells_per_s"] == 4.0
    assert scaled["events_per_s"] == 2 * raw["events_per_s"] == 40.0
    assert scaled["latency_p50_ms"] == raw["latency_p50_ms"] / 2 == 250.0
    assert scaled["setup_s"] == raw["setup_s"] / 2 == 0.2


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, result, _ = _run("--workload", "replay-grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None


def test_self_time_excludes_nested_spans_and_generators_pass_through():
    spans = tracer.Tracer()

    def inner():
        time.sleep(0.02)
        return 3

    def process(n):
        total = 0
        for i in range(n):
            got = yield i
            total += got
        try:
            yield "boom?"
        except KeyError:
            total += 100
        return total

    wrapped_inner = tracer._wrap(spans, "inner", inner)
    wrapped_process = tracer._wrap(spans, "proc", process)

    def outer():
        time.sleep(0.02)
        return wrapped_inner()

    assert tracer._wrap(spans, "outer", outer)() == 3
    assert spans.self_s["inner"] >= 0.02
    assert 0.02 <= spans.self_s["outer"] < spans.total_s["outer"]

    gen = wrapped_process(2)
    assert next(gen) == 0
    assert gen.send(5) == 1
    assert gen.send(6) == "boom?"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError())
    assert stop.value.value == 111
    assert spans.calls["proc"] == 1 and not spans.stack
