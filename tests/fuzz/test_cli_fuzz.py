"""CLI surface: ``repro fuzz`` campaigns and ``repro chaos --plan`` replay."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.fuzz import FUZZ_SCHEMA, seed_inputs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fuzz_clean_campaign_exits_zero(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "fuzz", "--iterations", "10", "--seed", "3",
        "--dir", str(tmp_path / "fz"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == FUZZ_SCHEMA
    assert report["violations_found"] == 0
    assert report["executions"] >= 10
    assert "fuzz: execs=" in err            # the live stats line
    assert (tmp_path / "fz" / "corpus").is_dir()


def test_fuzz_usage_errors_exit_two(capsys):
    code, _out, err = run_cli(capsys, "fuzz", "--budget", "0")
    assert code == 2 and "--budget" in err
    code, _out, err = run_cli(capsys, "fuzz", "--iterations", "-1")
    assert code == 2 and "--iterations" in err


def test_fuzz_mutant_campaign_finds_and_chaos_replays(tmp_path, capsys):
    fzdir = tmp_path / "fz"
    code, out, _err = run_cli(
        capsys, "fuzz", "--iterations", "40", "--seed", "0",
        "--mutate", "drop-ck-req", "--dir", str(fzdir))
    assert code == 1
    assert "VIOLATION" in out
    bundles = list((fzdir / "crashes").iterdir())
    assert len(bundles) == 1
    input_json = bundles[0] / "input.json"
    assert "repro chaos --plan" in out

    # The counterexample replays: violating under the mutation...
    code, out, _err = run_cli(capsys, "chaos", "--plan", str(input_json),
                              "--mutate", "drop-ck-req")
    assert code == 1 and "VIOLATES" in out
    # ...and healthy on the unmutated protocol (the bug is the mutation).
    code, out, _err = run_cli(capsys, "chaos", "--plan", str(input_json))
    assert code == 0 and "ok" in out


BARE_PLAN = {"seed": 5, "faults": [{"kind": "drop", "p": 0.2,
                                    "start": 5.0, "end": 20.0,
                                    "frames": ["app"]}]}


def test_chaos_replays_a_bare_fault_plan(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(BARE_PLAN))
    code, out, _err = run_cli(capsys, "chaos", "--plan", str(path),
                              "--format", "json")
    assert code == 0
    cell = json.loads(out)
    assert cell["consistent"] and not cell["truncated"]
    assert cell["violations"] == []
    assert cell["injected"].get("drop", 0) > 0

    # A bare plan takes --mutate too: same judge, same report.
    code, out, _err = run_cli(capsys, "chaos", "--plan", str(path),
                              "--mutate", "drop-ck-req", "--format", "json")
    mutated = json.loads(out)
    assert mutated["mutation"] == "drop-ck-req"
    assert code == (1 if mutated["violations"] else 0)


@pytest.mark.parametrize("shape", ["bare-plan", "fuzz-input"])
def test_chaos_plan_replay_writes_its_trace_file(tmp_path, capsys, shape):
    payload = (BARE_PLAN if shape == "bare-plan"
               else seed_inputs()[1].as_dict())
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(payload))
    trace = tmp_path / "replay.jsonl"
    code, _out, _err = run_cli(capsys, "chaos", "--plan", str(path),
                               "--mutate", "drop-ck-req",
                               "--trace-file", str(trace))
    assert code in (0, 1)
    assert trace.is_file() and trace.stat().st_size > 0
    assert main(["trace", "validate", str(trace)]) == 0


def test_chaos_cache_flags_are_gone(capsys):
    for flag in (["--no-cache"], ["--cache-dir", "d"]):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", *flag])
        assert exc.value.code == 2
    capsys.readouterr()


def test_chaos_plan_unreadable_file_exits_two(tmp_path, capsys):
    code, _out, err = run_cli(capsys, "chaos", "--plan",
                              str(tmp_path / "nope.json"))
    assert code == 2 and "cannot read plan file" in err
