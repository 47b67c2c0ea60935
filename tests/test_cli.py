"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_flags(self):
        args = build_parser().parse_args(
            ["fig8", "--scale", "quick", "--errors", "10", "--cache-mbs", "1,2"]
        )
        assert args.scale == "quick" and args.errors == 10

    def test_removed_flags_are_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--quick"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig9", "--sor-workers", "2"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig9", "--workers", "auto"])

    def test_replay_backend_flags(self):
        args = build_parser().parse_args(
            ["bench", "fig8", "--stackdist", "sampled", "--shards-rate", "0.05"]
        )
        assert args.stackdist == "sampled"
        assert args.shards_rate == 0.05

    def test_replay_defaults_to_exact_stackdist(self):
        from repro.cli import _engine_config

        args = build_parser().parse_args(["bench", "fig8", "--no-cache"])
        engine = _engine_config(args, default_cache=False)
        assert engine.stackdist == "exact"

    def test_rejects_unknown_backend(self):
        # --replay-backend is gone from bench, obs and report: the grid
        # pass picks the numpy fleet or stepping per job shape.
        for command in (["bench", "fig8"], ["obs", "fig8"], ["report"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [*command, "--replay-backend", "numpy"]
                )

    def test_rejects_no_batch(self):
        # --no-batch is gone too: --check-serial builds its own
        # batch=False config for the per-point golden run.
        for command in (["bench", "fig8"], ["obs", "fig8"], ["report"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*command, "--no-batch"])

    def test_serve_has_no_engine_workers(self):
        # The advisor evaluates in-process; there is no pool to size.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "--engine-workers", "2"])
        assert info.value.code == 2


class TestServe:
    _STDIN_SERVE = [sys.executable, "-m", "repro.cli", "serve", "--code", "tip", "--p", "5",
                    "--workers", "4", "--cache-mbs", "2,8", "--stdin", "--port", "0",
                    "--metrics-port", "0"]

    def test_stdin_eof_drains_and_exits_zero(self):
        from repro.serve import SyntheticSource, record_lines

        lines = record_lines(SyntheticSource("tip", 5, chunk=12).next_batch())
        proc = subprocess.run(
            self._STDIN_SERVE, input=lines, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "'events_seen': 12" in proc.stdout

    def test_stdin_from_a_file_drains_and_exits_zero(self, tmp_path):
        # A regular file cannot join the event loop as a pipe does; it is
        # read through the same line loop, and its EOF ends the stream.
        from repro.serve import SyntheticSource, record_lines

        records = tmp_path / "records.jsonl"
        records.write_text(
            record_lines(SyntheticSource("tip", 5, chunk=12).next_batch()) + "{bad\n"
        )
        with records.open("rb") as stdin:
            proc = subprocess.run(
                self._STDIN_SERVE, stdin=stdin, capture_output=True, text=True,
                timeout=30,
            )
        assert proc.returncode == 0, proc.stderr
        assert "'accepted': 12" in proc.stdout
        assert "'invalid': 1" in proc.stdout
        assert "'events_seen': 12" in proc.stdout

    def test_unreadable_stdin_exits_two(self, tmp_path):
        with (tmp_path / "out").open("wb") as stdin:  # open for writing only
            proc = subprocess.run(
                self._STDIN_SERVE, stdin=stdin, capture_output=True, text=True,
                timeout=30,
            )
        assert proc.returncode == 2
        assert "stdin is not open for reading" in proc.stderr


class TestInfo:
    def test_prints_layout(self, capsys):
        assert main(["info", "--code", "tip", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "6 disks" in out
        assert "TIP" in out


class TestTrace:
    def test_stdout(self, capsys):
        assert main(["trace", "--errors", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# repro-fbf-trace v1")
        data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(data_lines) == 5

    def test_file_roundtrips(self, tmp_path):
        from repro.workloads import read_trace

        out = tmp_path / "t.txt"
        assert main(["trace", "--errors", "7", "--out", str(out)]) == 0
        assert len(read_trace(out)) == 7


class TestExperiments:
    def _run(self, capsys, cmd, extra=()):
        rc = main(
            [cmd, "--scale", "quick", "--errors", "6", "--workers", "2",
             "--cache-mbs", "0.25,1", *extra]
        )
        assert rc == 0
        return capsys.readouterr().out

    def test_fig8(self, capsys):
        out = self._run(capsys, "fig8")
        assert "Figure 8" in out and "fbf" in out

    def test_fig9(self, capsys):
        out = self._run(capsys, "fig9")
        assert "Figure 9" in out and "TIP" in out

    def test_table4(self, capsys):
        out = self._run(capsys, "table4")
        assert "Table IV" in out and "overhead(ms)" in out

    def test_ablation_scheme(self, capsys):
        out = self._run(capsys, "ablation-scheme")
        assert "typical" in out


class TestBench:
    _ARGS = ["--scale", "quick", "--errors", "6", "--workers", "2",
             "--cache-mbs", "0.25,1"]

    def test_writes_bench_json(self, capsys, tmp_path):
        import json

        rc = main(["bench", "fig9", *self._ARGS, "--engine-workers", "0",
                   "--no-cache", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "wall time" in out
        payload = json.loads((tmp_path / "BENCH_fig9.json").read_text())
        assert payload["experiment"] == "fig9"
        assert payload["workers"] == 0
        assert payload["n_points"] == len(payload["per_point"]) > 0
        assert payload["plan_cache_misses"] > 0

    def test_check_serial_reports_identical(self, capsys, tmp_path):
        rc = main(["bench", "fig8", *self._ARGS, "--engine-workers", "2",
                   "--no-cache", "--check-serial", "--out", str(tmp_path)])
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_warm_cache_recomputes_nothing(self, capsys, tmp_path):
        import json

        cache = tmp_path / "cache"
        args = ["bench", "fig9", *self._ARGS, "--engine-workers", "0",
                "--cache-dir", str(cache), "--out", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        payload = json.loads((tmp_path / "BENCH_fig9.json").read_text())
        assert payload["cache_misses"] == 0
        assert payload["cache_hits"] == payload["n_points"]

    def test_show_prints_report(self, capsys, tmp_path):
        rc = main(["bench", "ablation-scheme", *self._ARGS,
                   "--engine-workers", "0", "--no-cache", "--show",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "typical" in capsys.readouterr().out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])


class TestCluster:
    def test_scenario_table(self, capsys):
        assert main(["cluster", "--errors", "4"]) == 0
        out = capsys.readouterr().out
        assert "cross-rack recovery" in out
        for token in ("healthy", "limplock", "rep", "fbf", "rack0.uplink"):
            assert token in out

    def test_bench_cluster_show(self, capsys, tmp_path):
        rc = main(["bench", "cluster", "--scale", "quick", "--errors", "4",
                   "--engine-workers", "0", "--no-cache", "--show",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EC decode vs replication" in out
        assert "limplocked node" in out
        assert (tmp_path / "BENCH_cluster.json").exists()


class TestObsCommand:
    def test_summary_covers_layers(self, capsys, tmp_path):
        rc = main(["obs", "fig8", "--scale", "quick", "--errors", "6",
                   "--workers", "2", "--cache-mbs", "0.25,1",
                   "--jsonl", str(tmp_path / "obs.jsonl"),
                   "--prometheus", str(tmp_path / "obs.prom")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "observability summary" in out
        for layer in ("[kernel]", "[engine]", "[bench]"):
            assert layer in out
        assert "(no data)" not in out
        assert "engine.plan_cache" in out
        jsonl = (tmp_path / "obs.jsonl").read_text().splitlines()
        assert len(jsonl) > 3
        prom = (tmp_path / "obs.prom").read_text()
        assert "repro_bench_points" in prom

    def test_des_grid_summary_shows_the_fast_path(self, capsys):
        # The fork-join replay serves every fig10 cell without the kernel,
        # so the probe must still fill the [kernel] section.
        rc = main(["obs", "fig10", "--scale", "quick", "--errors", "6",
                   "--workers", "2", "--cache-mbs", "0.25,1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(no data)" not in out
        assert "kernel.runs" in out
        assert "bench.des.fast_rows" in out

    def test_no_kernel_probe(self, capsys):
        rc = main(["obs", "fig8", "--scale", "quick", "--errors", "6",
                   "--workers", "2", "--cache-mbs", "0.25,1",
                   "--no-kernel-probe"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(no data)" in out  # kernel section stays empty but visible

    def test_obs_left_disabled_after_run(self, capsys):
        from repro.obs import runtime

        assert main(["obs", "fig8", "--scale", "quick", "--errors", "6",
                     "--workers", "2", "--cache-mbs", "0.25,1",
                     "--no-kernel-probe"]) == 0
        assert runtime.ENABLED is False


class TestReplay:
    def test_replays_all_policies(self, capsys, tmp_path):
        trace = tmp_path / "t.trace"
        main(["trace", "--errors", "10", "--out", str(trace)])
        capsys.readouterr()
        assert main(["replay", str(trace), "--blocks", "32", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        for policy in ("fbf", "lru", "arc", "mq"):
            assert policy in out


class TestMttdl:
    def test_reports_gain(self, capsys):
        assert main(["mttdl", "--baseline-hours", "10",
                     "--improved-hours", "8.51"]) == 0
        out = capsys.readouterr().out
        assert "14.9% smaller" in out
        assert "MTTDL" in out


class TestLRC:
    def test_sweep(self, capsys):
        assert main(["lrc", "--events", "30", "--blocks", "8,32"]) == 0
        out = capsys.readouterr().out
        assert "LRC(12,2,2)" in out
        assert "fbf" in out


class TestVerify:
    def test_grid_reports_bit_exact(self, capsys):
        assert main(["verify", "--errors", "3"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out
        assert "STAR" in out and "TIP" in out


class TestRebuild:
    def test_savings_table(self, capsys):
        assert main(["rebuild", "--p", "5", "--stripes", "4",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "typical" in out and "greedy" in out
        assert "saved" in out
        assert "timed rebuild" in out
