"""``repro live`` CLI tests (run / crash-test)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

FAST = ("--duration", "1.2", "--interval", "0.25", "--timeout", "0.12",
        "--rate", "60", "--seed", "7")


class TestParser:
    def test_acceptance_flags_parse(self):
        # The exact invocation from the acceptance criteria.
        args = build_parser().parse_args(
            ["live", "run", "-n", "4", "--transport", "tcp",
             "--duration", "5", "--crash-at", "2.5"])
        assert args.n == 4 and args.transport == "tcp"
        assert args.duration == 5.0 and args.crash_at == 2.5

    def test_live_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["live"])


class TestLiveRun:
    def test_run_local_exits_zero_and_reports(self, capsys, tmp_path):
        code = main(["live", "run", "-n", "3", *FAST,
                     "--run-dir", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "CONSISTENT" in out and "RESULT:             OK" in out

    def test_run_json_format(self, capsys, tmp_path):
        code = main(["live", "run", "-n", "3", *FAST, "--format", "json",
                     "--run-dir", str(tmp_path / "r")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] and payload["conformance"]["consistent"]
        assert payload["conformance"]["rounds_completed"] >= 1

    def test_crash_test_injects_and_recovers(self, capsys, tmp_path):
        code = main(["live", "crash-test", "-n", "3", "--duration", "2.2",
                     "--interval", "0.25", "--timeout", "0.12",
                     "--rate", "60", "--format", "json",
                     "--run-dir", str(tmp_path / "r")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload
        assert payload["crash"]["recovery_seconds"] >= 0
        assert payload["ok"]

    def test_invalid_config_raises_before_running(self, tmp_path):
        with pytest.raises(ValueError):
            main(["live", "run", "-n", "1",
                  "--run-dir", str(tmp_path / "r")])
