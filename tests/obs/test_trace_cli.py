"""CLI surface of the observability layer: --trace wiring, trace
report/validate subcommands, and the documented exit-code contract
(0 ok, 1 invariant/consistency failure, 2 usage)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import SCHEMA_VERSION


@pytest.fixture()
def traced_run(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    rc = main(["run", "--n", "3", "--horizon", "150", "--interval", "50",
               "--seed", "2", "--trace", "--trace-file", str(trace_file)])
    capsys.readouterr()
    assert rc == 0
    assert trace_file.exists()
    return trace_file


class TestRunTracing:
    def test_trace_file_implies_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        rc = main(["run", "--n", "3", "--horizon", "120",
                   "--trace-file", str(trace_file)])
        capsys.readouterr()
        assert rc == 0
        assert trace_file.read_text().strip()

    def test_procs_and_duration_aliases(self, tmp_path, capsys):
        # flag-convention satellite: run and live run agree on spellings
        rc = main(["run", "--procs", "3", "--duration", "120",
                   "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["n"] == 3

    def test_dashboard_streams_to_stderr(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        rc = main(["run", "--n", "3", "--horizon", "150",
                   "--trace-file", str(trace_file), "--trace-dashboard"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "events" in captured.err


class TestTraceReport:
    def test_text_report(self, traced_run, capsys):
        assert main(["trace", "report", str(traced_run)]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "tentative" in out

    def test_json_report(self, traced_run, capsys):
        assert main(["trace", "report", str(traced_run),
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["hosts"] == ["des"]
        assert any(p["phase"] == "round" for p in data["phases"])

    def test_missing_target_exits_1(self, tmp_path, capsys):
        assert main(["trace", "report", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err

    def test_invalid_event_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "trace.jsonl"
        bad.write_text(json.dumps(
            {"v": SCHEMA_VERSION, "ev": "span.wiggle", "host": "des",
             "pid": 0, "t": 0.0}) + "\n")
        assert main(["trace", "report", str(bad)]) == 1
        assert "span.wiggle" in capsys.readouterr().err


class TestTraceValidate:
    def test_valid_stream_exits_0(self, traced_run, capsys):
        assert main(["trace", "validate", str(traced_run)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_event_type_fails(self, tmp_path, capsys):
        bad = tmp_path / "trace.jsonl"
        good = {"v": SCHEMA_VERSION, "ev": "point", "host": "live",
                "pid": 1, "t": 0.5, "name": "x"}
        bad.write_text(json.dumps(good) + "\n"
                       + json.dumps({**good, "ev": "mystery"}) + "\n"
                       + json.dumps({**good, "v": 99}) + "\n")
        assert main(["trace", "validate", str(bad)]) == 1
        err = capsys.readouterr().err
        # every problem is listed, not just the first
        assert "mystery" in err and "version" in err

    def test_directory_target(self, traced_run, capsys):
        assert main(["trace", "validate", str(traced_run.parent)]) == 0
        capsys.readouterr()
