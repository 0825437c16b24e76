"""Tests for the ``python -m repro`` command-line interface."""

import errno
import gc
import json
import socket
import warnings

import pytest

from repro.__main__ import build_parser, main
from repro.service import StateStore


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for argv in (["figures"], ["coverage"], ["overhead"], ["latency"],
                     ["treatment"], ["reconfig"], ["distributed"], ["jitter"],
                     ["toolchain"], ["rig"], ["lint"], ["metrics"], ["serve"],
                     ["all"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_figures_which_validated(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figures", "--which", "7"])

    @pytest.mark.parametrize("flag, value", [
        ("--tick-ms", "0"), ("--tick-ms", "-5"),
    ])
    def test_serve_rejects_non_positive_sizes(self, flag, value, capsys):
        # `--tick-ms 0` used to start a daemon whose ticker died on a
        # division by zero: it acked heartbeats but never detected.
        # (--run-seconds bounds the run should such a daemon start.)
        with pytest.raises(SystemExit) as stop:
            main(["serve", "--port", "0", "--http-port", "0",
                  "--run-seconds", "0.1", flag, value])
        assert stop.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["rig", "--seconds", "-1"],
        ["metrics", "rig", "--seconds", "-1"],
        ["metrics", "faulty", "--seconds", "0"],
        ["coverage", "--observation", "-1"],
        ["coverage", "--repetitions", "0"],
        ["coverage", "--workers", "-1"],
        ["latency", "--repetitions", "0"],
        ["latency", "--repetitions", "-2"],
        ["latency", "--workers", "-1"],
        ["all", "--workers", "-1"],
    ], ids=" ".join)
    def test_experiment_flags_reject_out_of_range(self, argv, capsys):
        # These used to run with empty or zero tables, or to end in a
        # ValueError traceback from deep inside the campaign.
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be" in err
        assert [line for line in err.splitlines()
                if "error:" in line] == [err.splitlines()[-1]]

    def test_serve_accepts_fractional_tick(self):
        args = build_parser().parse_args(["serve", "--tick-ms", "0.5"])
        assert args.tick_ms == 0.5

    def test_serve_shards_flag_removed(self, capsys):
        # The daemon holds one supervision table; the flag that spread
        # registrations over several is a usage error now.
        with pytest.raises(SystemExit) as stop:
            main(["serve", "--port", "0", "--http-port", "0",
                  "--run-seconds", "0.1", "--shards", "2"])
        assert stop.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_serve_standby_flag_removed(self, capsys, tmp_path):
        # Failover is a restart of `repro serve --state-dir`; the flag
        # that started a waiting second daemon is a usage error now.
        with pytest.raises(SystemExit) as stop:
            main(["serve", "--port", "0", "--http-port", "0",
                  "--run-seconds", "0.1", "--standby",
                  "--state-dir", str(tmp_path / "state")])
        assert stop.value.code == 2
        assert "--standby" in capsys.readouterr().err

    def test_serve_on_held_state_dir_is_a_usage_error(self, capsys,
                                                      tmp_path):
        state_dir = str(tmp_path / "state")
        with StateStore(state_dir) as holder:
            assert holder.take_primary()
            assert main(["serve", "--port", "0", "--http-port", "0",
                         "--run-seconds", "0.1",
                         "--state-dir", state_dir]) == 2
        captured = capsys.readouterr()
        assert "listening" not in captured.out
        assert captured.err == (f"repro serve: error: state dir {state_dir} "
                                "is held by another server\n")

    def test_serve_on_held_state_dir_leaves_telemetry_file(
            self, capsys, tmp_path):
        """The running primary's ``--telemetry`` file is not truncated
        by a second server refused its state dir, which does not leave
        the file open either."""
        state_dir = str(tmp_path / "state")
        telemetry = tmp_path / "t.jsonl"
        stream = b'{"kind": "primary.event"}\n'
        telemetry.write_bytes(stream)
        with StateStore(state_dir) as holder, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert holder.take_primary()
            code = main(["serve", "--port", "0", "--http-port", "0",
                         "--run-seconds", "0.1", "--state-dir", state_dir,
                         "--telemetry", str(telemetry)])
            gc.collect()
        assert code == 2
        assert telemetry.read_bytes() == stream
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_serve_whose_port_is_taken_writes_no_snapshot(self, capsys,
                                                          tmp_path):
        """A restart that takes its state dir but cannot bind its
        listener (the port is still taken) ends with the bind error,
        prints no banner and writes nothing into the directory."""
        state_dir = tmp_path / "state"
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            with pytest.raises(OSError) as failed:
                main(["serve", "--port", str(busy.getsockname()[1]),
                      "--http-port", "0", "--run-seconds", "5",
                      "--state-dir", str(state_dir)])
        assert failed.value.errno == errno.EADDRINUSE
        assert "listening" not in capsys.readouterr().out
        assert not (state_dir / "snapshot.json").exists()


class TestExecution:
    def test_rig_command(self, capsys):
        assert main(["rig", "--seconds", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "HIL validator" in out
        assert "can_frames" in out

    def test_jitter_command(self, capsys):
        assert main(["jitter"]) == 0
        out = capsys.readouterr().out
        assert "schedule table" in out
        assert "alarms (synchronous)" in out

    def test_toolchain_command(self, capsys):
        assert main(["toolchain"]) == 0
        out = capsys.readouterr().out
        assert "bounds_hold=True" in out
        assert "lint_ok=True" in out

    def test_single_figure(self, capsys):
        assert main(["figures", "--which", "6"]) == 0
        out = capsys.readouterr().out
        assert "collaboration of fault detection units" in out
        assert "PFC_Result" in out


class TestLintCommand:
    def seeded_defect_file(self, tmp_path):
        from repro.core import (
            FaultHypothesis,
            RunnableHypothesis,
            hypothesis_to_dict,
        )

        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "A", task="T", aliveness_period=2, min_heartbeats=3,
            arrival_period=2, max_heartbeats=2))
        hyp.allow_sequence(["A"])
        hyp.allow_flow("A", "ghost")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(hypothesis_to_dict(hyp)))
        return path

    def test_lint_default_targets_text(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "safespeed: ok" in out
        assert "safelane: ok" in out
        assert "steer-by-wire: ok" in out
        assert "0 error(s)" in out

    def test_lint_json_mode(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["reports"]) == 3
        assert all(r["ok"] for r in payload["reports"])

    def test_lint_seeded_defect_file(self, capsys, tmp_path):
        path = self.seeded_defect_file(tmp_path)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "WD201" in out  # contradictory bounds
        assert "WD102" in out  # dead transition

    def test_lint_seeded_defect_file_json(self, capsys, tmp_path):
        path = self.seeded_defect_file(tmp_path)
        assert main(["lint", "--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        codes = [d["code"] for r in payload["reports"]
                 for d in r["diagnostics"]]
        assert "WD201" in codes and "WD102" in codes

    def test_lint_missing_file_exit_2(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in capsys.readouterr().out

    def test_lint_strict_promotes_warnings(self, capsys, tmp_path):
        from repro.core import (
            FaultHypothesis,
            RunnableHypothesis,
            hypothesis_to_dict,
        )

        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "A", task="T", min_heartbeats=0, max_heartbeats=2))
        path = tmp_path / "warn.json"
        path.write_text(json.dumps(hypothesis_to_dict(hyp)))
        assert main(["lint", str(path)]) == 0
        capsys.readouterr()
        assert main(["lint", "--strict", str(path)]) == 1
        assert "WD202" in capsys.readouterr().out


class TestMetricsCommand:
    def test_prometheus_exposition_renders(self, capsys):
        assert main(["metrics", "rig", "--seconds", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE wd_hbm_check_cycles_total counter" in out
        assert "wd_hbm_cycle_duration_seconds_bucket" in out
        assert 'wd_detections_total{error_type="aliveness"} 0' in out
        # Every sample line is "name{labels} value" or a # comment.
        for line in out.splitlines():
            assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2

    def test_json_format_parses(self, capsys):
        assert main(["metrics", "rig", "--seconds", "0.5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [family["name"] for family in payload["metrics"]]
        assert "wd_hbm_check_cycles_total" in names
        assert "wd_tsi_ecu_state" in names

    def test_faulty_scenario_records_detections(self, capsys):
        assert main(["metrics", "faulty", "--seconds", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {family["name"]: family for family in payload["metrics"]}
        detections = by_name["wd_detections_total"]["series"]
        aliveness = next(s for s in detections
                         if s["labels"] == {"error_type": "aliveness"})
        assert aliveness["value"] > 0
        assert "fmf_treatments_total" in by_name

    def test_telemetry_flag_writes_jsonl(self, capsys, tmp_path):
        from repro.telemetry import KIND_DETECTION, read_jsonl

        path = tmp_path / "events.jsonl"
        assert main(["metrics", "faulty", "--seconds", "1",
                     "--telemetry", str(path)]) == 0
        capsys.readouterr()
        events = read_jsonl(path.read_text().splitlines())
        assert events
        assert all(e.schema == 1 for e in events)
        assert any(e.kind == KIND_DETECTION for e in events)

    def test_unknown_scenario_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "bogus"])
        assert excinfo.value.code == 2

    def test_unknown_format_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "rig", "--format", "yaml"])
        assert excinfo.value.code == 2

    def test_coverage_flag_writes_result_rows(self, capsys, tmp_path):
        from repro.telemetry import (
            KIND_METRICS_SNAPSHOT,
            KIND_RESULT_ROW,
            read_jsonl,
        )

        path = tmp_path / "coverage.jsonl"
        assert main(["coverage", "--telemetry", str(path)]) == 0
        capsys.readouterr()
        kinds = [e.kind for e in read_jsonl(path.read_text().splitlines())]
        assert KIND_RESULT_ROW in kinds
        assert kinds[-1] == KIND_METRICS_SNAPSHOT
