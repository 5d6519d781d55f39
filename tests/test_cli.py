"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _parse_value, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


COMMON = ("--n", "4", "--horizon", "80", "--interval", "30",
          "--state-mb", "0.2", "--timeout", "10")


class TestRun:
    def test_run_default_protocol(self, capsys):
        code, out = run_cli(capsys, "run", *COMMON)
        assert code == 0
        assert "optimistic" in out
        assert "all consistent" in out

    def test_run_each_protocol(self, capsys):
        for protocol in ("chandy-lamport", "koo-toueg", "staggered",
                         "cic-bcs", "uncoordinated"):
            code, out = run_cli(capsys, "run", "--protocol", protocol,
                                *COMMON)
            assert code == 0, protocol
            assert protocol in out

    def test_run_no_verify(self, capsys):
        code, out = run_cli(capsys, "run", "--no-verify", *COMMON)
        assert code == 0
        assert "consistency" not in out

    def test_unknown_protocol_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "nope"])

    def test_report_exits_zero_when_consistent(self, capsys):
        code, out = run_cli(capsys, "run", "--report", *COMMON)
        assert code == 0
        assert "configuration" in out

    def test_orphans_fail_both_branches(self, capsys, monkeypatch):
        # Regression: --report used to return 0 before the orphan check,
        # so an inconsistent run exited successfully.
        class FakeRes:
            orphans = {1: 2}
            consistent = False

            class metrics:  # noqa: N801 - minimal RunMetrics stand-in
                @staticmethod
                def as_dict():
                    return {"protocol": "optimistic"}

        monkeypatch.setattr("repro.harness.run_experiment",
                            lambda cfg: FakeRes())
        monkeypatch.setattr("repro.metrics.render_run_report",
                            lambda res: "fake report")
        code, out = run_cli(capsys, "run", "--report", *COMMON)
        assert code == 1
        assert "fake report" in out
        code, out = run_cli(capsys, "run", *COMMON)
        assert code == 1
        assert "ORPHANS" in out


class TestCompare:
    def test_compare_two(self, capsys):
        code, out = run_cli(capsys, "compare",
                            "--protocols", "optimistic,koo-toueg",
                            "--no-cache", *COMMON)
        assert code == 0
        assert "optimistic" in out and "koo-toueg" in out
        assert "peak_pending_writers" in out

    def test_compare_unknown_protocol_errors(self, capsys):
        code = main(["compare", "--protocols", "optimistic,bogus",
                     *COMMON])
        assert code == 2

    def test_compare_jobs_matches_serial(self, capsys, tmp_path):
        argv = ("compare", "--protocols", "optimistic,staggered", *COMMON)
        code, serial_out = run_cli(capsys, *argv, "--no-cache")
        assert code == 0
        code, parallel_out = run_cli(capsys, *argv, "--jobs", "2",
                                     "--cache-dir", str(tmp_path))
        assert code == 0
        assert parallel_out == serial_out


class TestSweep:
    def test_sweep_n(self, capsys):
        code, out = run_cli(capsys, "sweep", "--param", "n",
                            "--values", "2,4", "--metric", "app_messages",
                            "--no-cache", *COMMON)
        assert code == 0
        assert "app_messages vs n" in out

    def test_sweep_float_values(self, capsys):
        code, out = run_cli(capsys, "sweep", "--param",
                            "workload_kwargs.rate", "--values", "0.5,2.0",
                            "--no-cache", *COMMON)
        assert code == 0

    def test_sweep_string_values(self, capsys):
        # Regression: string-valued params used to raise a raw ValueError
        # in value parsing (float("immediate")).
        code, out = run_cli(capsys, "sweep", "--param", "flush",
                            "--values", "immediate,at_finalize",
                            "--metric", "checkpoints", "--no-cache",
                            *COMMON)
        assert code == 0
        assert "immediate" in out and "at_finalize" in out

    def test_sweep_unknown_protocol_errors(self, capsys):
        # Regression: an unknown protocol used to escape as a KeyError
        # traceback instead of the compare-style exit 2.
        code = main(["sweep", "--param", "n", "--values", "2",
                     "--protocols", "optimistic,bogus", "--no-cache",
                     *COMMON])
        assert code == 2

    def test_sweep_unknown_param_errors(self, capsys):
        # Regression: an unknown field used to escape from the first run
        # as a dataclasses TypeError traceback.
        code = main(["sweep", "--param", "bogus_field", "--values", "2",
                     "--no-cache", *COMMON])
        assert code == 2
        assert "unknown config field 'bogus_field'" in capsys.readouterr().err

    def test_sweep_jobs_and_cache_match_serial(self, capsys, tmp_path):
        argv = ("sweep", "--param", "n", "--values", "2,3",
                "--metric", "app_messages", "--cache-dir", str(tmp_path),
                *COMMON)
        code, serial_out = run_cli(capsys, *argv)
        assert code == 0
        assert list(tmp_path.glob("*.json"))          # cache populated
        code, cached_out = run_cli(capsys, *argv, "--jobs", "2")
        assert code == 0
        assert cached_out == serial_out               # served from cache

    def test_parse_value_fallbacks(self):
        assert _parse_value("8") == 8
        assert isinstance(_parse_value("8"), int)
        assert _parse_value("-3") == -3
        assert isinstance(_parse_value("-3"), int)
        assert _parse_value("0.5") == 0.5
        assert _parse_value("immediate") == "immediate"


class TestFigures:
    @pytest.mark.parametrize("which", ["1", "2", "5", "all"])
    def test_figures(self, capsys, which):
        code, out = run_cli(capsys, "figures", which)
        assert code == 0
        if which in ("1", "all"):
            assert "S_2 orphans" in out
        if which in ("2", "all"):
            assert "Figure 2" in out
        if which in ("5", "all"):
            assert "CK_REQ" in out


class TestRecover:
    def test_recover_table(self, capsys):
        code, out = run_cli(capsys, "recover", "--fail-time", "70",
                            "--no-cache", *COMMON)
        assert code == 0
        assert "uncoordinated" in out and "optimistic" in out
        assert "total lost work" in out

    def test_recover_cache_round_trip(self, capsys, tmp_path):
        argv = ("recover", "--fail-time", "70", "--cache-dir",
                str(tmp_path), *COMMON)
        code, first = run_cli(capsys, *argv)
        assert code == 0
        assert list(tmp_path.glob("*.json"))
        code, second = run_cli(capsys, *argv)
        assert code == 0
        assert second == first


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_mentions_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for cmd in ("run", "compare", "sweep", "figures", "recover"):
            assert cmd in out

    @pytest.mark.parametrize("argv", [
        ["bench"], ["live", "bench"], ["submit", "bench"]])
    def test_removed_bench_commands_are_usage_errors(self, argv):
        # `python -m ledger` is the only producer of performance numbers.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
