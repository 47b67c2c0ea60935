"""The four CI perf gates through the one harness (`repro.bench.perf`).

Every case runs on the committed baselines in ``benchmarks/`` or on
copies of them with one value changed, so no workload runs here: these
tests pin what each gate checks, not what the code measures.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import cluster_bench, kernel_bench, perf, replay_bench
from repro.checks import bench as simlint_bench

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks"

GATES = {
    "kernel": kernel_bench.GATE,
    "replay": replay_bench.GATE,
    "cluster": cluster_bench.GATE,
    "simlint": simlint_bench.GATE,
}

#: Payload values that each break one fresh-run check.
BROKEN = [
    ("kernel", ("checks", "rows_obs_invariant"), False, "rows_obs_invariant"),
    ("cluster", ("checks", "limplock_detected"), False, "limplock_detected"),
    ("replay", ("groups", 0, "rows_identical"), False, "TIP_rows_identical"),
    ("replay", ("groups", 2, "numpy_rows_identical"), False, "STAR_numpy_rows_identical"),
    ("replay", ("identity", "rows_identical"), False, "identity_rows_identical"),
    ("replay", ("identity", "lru_fast_path_identical"), False,
     "identity_lru_fast_path_identical"),
    ("replay", ("shards", "within_bound"), False, "shards_within_bound"),
    ("simlint", ("files_analyzed_warm",), 1, "warm_run_analyzed_nothing"),
    ("simlint", ("errors",), 2, "no_unbaselined_errors"),
]


def _baseline(name: str) -> dict:
    return json.loads((BASELINES / f"BENCH_{name}.json").read_text(encoding="utf-8"))


def _set(payload: dict, path: tuple, value) -> dict:
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


def _drop_first_row(payload: dict) -> None:
    rows = payload["rows"]
    if isinstance(rows, dict):
        del rows[next(iter(rows))]
    else:
        del rows[0]


def _compare(name: str, current: dict, baseline: dict | None = None, **kw):
    return perf.compare(GATES[name], current, baseline or _baseline(name), **kw)


class TestDeclarations:
    def test_ratio_floors_and_seconds(self):
        assert {n: g.ratio_floors for n, g in GATES.items()} == {
            "kernel": ("speedup",),
            "replay": ("speedup", "numpy_speedup"),
            "cluster": (),
            "simlint": ("speedup",),
        }
        assert {n: g.seconds for n, g in GATES.items()} == {
            "kernel": (),
            "replay": (("batched_s", "per_point_s"),),
            "cluster": (),
            "simlint": (("cold_s",), ("warm_s",)),
        }
        assert perf.TOLERANCE == 0.10

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("kernel", {"--out", "--check", "--rounds"}),
            ("replay", {"--out", "--check", "--rounds", "--time-tolerance"}),
            ("cluster", {"--out", "--check"}),
            ("simlint", {"--out", "--check", "--rounds", "--time-tolerance"}),
        ],
    )
    def test_cli_takes_only_its_flags(self, name, flags, tmp_path):
        calls = []
        payload = _baseline(name)
        gate = replace(GATES[name], run=lambda **kw: calls.append(kw) or payload)
        argv = ["--check", str(BASELINES / f"BENCH_{name}.json")]
        argv += ["--out", str(tmp_path / "out.json")]
        if "--rounds" in flags:
            argv += ["--rounds", "1"]
        if "--time-tolerance" in flags:
            argv += ["--time-tolerance", "0.02"]
        assert perf.main(gate, argv) == 0
        assert calls == [{"rounds": 1} if "--rounds" in flags else {}]
        gone = {"--rounds", "--time-tolerance", "--tolerance", "--errors",
                "--seed", "--paths"} - flags
        for flag in sorted(gone):
            with pytest.raises(SystemExit) as exit_info:
                perf.main(gate, [flag, "1"])
            assert exit_info.value.code == 2
        assert len(calls) == 1


@pytest.mark.parametrize("name", GATES)
class TestEveryGate:
    def test_self_comparison_passes(self, name):
        payload = _baseline(name)
        ok, message = _compare(name, payload, time_tolerance=0.0)
        assert ok, message

    def test_out_only_run_exits_1_when_a_check_fails(self, name, tmp_path):
        out = tmp_path / f"BENCH_{name}.json"
        payload = _baseline(name)
        gate = replace(GATES[name], run=lambda **_: payload)
        assert perf.main(gate, ["--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == payload
        _, path, value, _ = next(case for case in BROKEN if case[0] == name)
        _set(payload, path, value)
        out.unlink()
        assert perf.main(gate, ["--out", str(out)]) == 1
        assert out.exists()  # written anyway, for inspection


@pytest.mark.parametrize("name, path, value, check", BROKEN, ids=[c[3] for c in BROKEN])
def test_failed_fresh_check_fails(name, path, value, check):
    ok, message = _compare(name, _set(_baseline(name), path, value))
    assert not ok
    assert f"check {check} does not hold" in message


FLOORS = [(n, key) for n, g in GATES.items() for key in g.ratio_floors]


@pytest.mark.parametrize("name, key", FLOORS)
def test_ratio_under_its_floor_fails(name, key):
    baseline = _baseline(name)
    current = copy.deepcopy(baseline)
    current["aggregate"][key] = baseline["aggregate"][key] * 0.91
    ok, message = _compare(name, current, baseline)
    assert ok, message
    current["aggregate"][key] = baseline["aggregate"][key] * 0.89
    ok, message = _compare(name, current, baseline)
    assert not ok
    assert f"{key} " in message and "floor" in message


@pytest.mark.parametrize(
    "name, row, field, key",
    [
        ("kernel", lambda p: p["rows"]["fig11"], "cache_hits", "fig11"),
        ("cluster", lambda p: p["rows"][0], "cross_rack_bytes", "('ec', 'fbf', False)"),
    ],
    ids=["kernel", "cluster"],
)
def test_tampered_row_fails_naming_row_and_field(name, row, field, key):
    current = _baseline(name)
    row(current)[field] += 1
    ok, message = _compare(name, current)
    assert not ok
    assert f"row {key} diverged on {field}" in message


@pytest.mark.parametrize("name", ["kernel", "cluster"])
def test_missing_row_fails_both_ways(name):
    short = _baseline(name)
    _drop_first_row(short)
    ok, message = _compare(name, short)
    assert not ok and "missing from the current run" in message
    ok, message = _compare(name, _baseline(name), short)
    assert not ok and "missing from the baseline" in message


class TestKernelFloor:
    def test_baseline_without_its_floor_fails(self):
        baseline = _set(_baseline("kernel"), ("checks", "speedup_at_least_floor"), False)
        ok, message = _compare("kernel", _baseline("kernel"), baseline)
        assert not ok
        assert "baseline does not demonstrate speedup_at_least_floor" in message

    def test_rerun_need_not_reach_the_absolute_floor(self):
        # 1.5x binds the committed baseline; a re-run is held to the
        # baseline's ratio minus the tolerance instead.
        current = _set(_baseline("kernel"), ("checks", "speedup_at_least_floor"), False)
        ok, message = _compare("kernel", current)
        assert ok, message


class TestSeconds:
    def test_replay_seconds_are_summed(self):
        baseline = _baseline("replay")
        base = baseline["aggregate"]
        current = copy.deepcopy(baseline)
        now = current["aggregate"]
        # per-point 7% over its own time, but the sum stays inside 2%
        now["per_point_s"] = base["per_point_s"] * 1.07
        now["batched_s"] = base["batched_s"] - 0.6
        ok, message = _compare("replay", current, baseline, time_tolerance=0.02)
        assert ok, message
        now["batched_s"] = base["batched_s"]
        ok, message = _compare("replay", current, baseline, time_tolerance=0.02)
        assert not ok and "batched_s + per_point_s" in message
        ok, message = _compare("replay", current, baseline)  # no tolerance given
        assert ok, message

    def test_simlint_seconds_are_checked_per_key(self):
        baseline = _baseline("simlint")
        base = baseline["aggregate"]
        current = copy.deepcopy(baseline)
        now = current["aggregate"]
        # the sum stays inside 2%, but the warm run alone is 50% slower
        now["cold_s"] = base["cold_s"] * 0.98
        now["warm_s"] = base["warm_s"] * 1.5
        assert now["cold_s"] + now["warm_s"] < (base["cold_s"] + base["warm_s"]) * 1.02
        ok, message = _compare("simlint", current, baseline, time_tolerance=0.02)
        assert not ok
        assert "warm_s " in message and "cold_s" not in message
