"""Conformance-matrix tests: verdicts, discrimination, reporting."""

from __future__ import annotations

import pytest

from repro.chaos import MatrixReport, run_des_cell, run_live_cell, run_matrix
from repro.chaos.matrix import CellResult, _des_cell_result

#: Every violation kind the DES judge (``repro.chaos.des.run_plan``) emits.
VIOLATION_KINDS = ("orphans", "anomaly", "liveness", "stuck-status",
                   "sequence", "divergence", "recovery-incomplete",
                   "knowledge", "round-prefix")


class TestDesMatrix:
    def test_reduced_des_matrix_is_ok(self):
        report = run_matrix(kinds=("drop", "duplicate"), runtimes=("des",),
                            seed=3)
        assert report.ok
        assert len(report.cells) == 2
        for cell in report.cells:
            assert cell.runtime == "des"
            assert cell.consistent and cell.recovered
            assert sum(cell.injected.values()) > 0

    def test_des_matrix_parallel_equals_serial(self):
        serial = run_matrix(kinds=("drop", "crash"), runtimes=("des",),
                            seed=5, jobs=1)
        parallel = run_matrix(kinds=("drop", "crash"), runtimes=("des",),
                              seed=5, jobs=2)
        assert ([c.as_dict() for c in serial.cells]
                == [c.as_dict() for c in parallel.cells])


class TestDiscrimination:
    @pytest.mark.parametrize("violation", VIOLATION_KINDS)
    def test_any_judge_violation_fails_the_des_cell(self, violation):
        outcome = run_des_cell("drop", seed=3)
        assert _des_cell_result("drop", outcome).ok
        outcome["violations"] = [{"kind": violation, "detail": "seeded"}]
        if violation == "orphans":
            outcome["orphans"] = 1
        elif violation == "anomaly":
            outcome["anomalies"] = ["seeded"]
        assert not _des_cell_result("drop", outcome).ok

    def test_violation_kinds_are_the_librarys_and_the_runs(self):
        from repro.causality.properties import STATE_CHECKS, TERMINAL_CHECKS

        assert set(VIOLATION_KINDS) == (
            {p.kind for p in STATE_CHECKS + TERMINAL_CHECKS}
            | {"liveness", "recovery-incomplete"})

    def test_a_cell_that_injected_nothing_is_vacuous(self):
        from repro.chaos import single_fault_plan

        plan = single_fault_plan("drop", seed=9, p=0.0, start=0.0, end=1.0)
        cell = _des_cell_result("drop", run_des_cell("drop", seed=9,
                                                     plan=plan))
        assert cell.vacuous and not cell.ok
        assert cell.consistent and cell.error is None
        report = MatrixReport(cells=[cell], seed=9, transport="local")
        assert not report.ok
        assert "VACUOUS" in report.render()
        assert report.as_dict()["cells"][0]["vacuous"] is True

    def test_unknown_kind_fails_in_both_runtimes(self):
        report = run_matrix(kinds=("bit-flip",), runtimes=("des", "live"),
                            seed=0)
        assert not report.ok
        assert len(report.cells) == 2
        for cell in report.cells:
            assert not cell.ok
            assert "unknown fault kind" in (cell.error or "")

    def test_empty_matrix_is_not_ok(self):
        assert not MatrixReport(cells=[], seed=0, transport="local").ok


class TestReporting:
    def _report(self):
        cells = [
            CellResult(runtime="des", fault="drop", consistent=True,
                       recovered=True, injected={"drop": 3}),
            CellResult(runtime="live", fault="crash", error="boom"),
        ]
        return MatrixReport(cells=cells, seed=1, transport="local")

    def test_as_dict_round_trips_cells(self):
        d = self._report().as_dict()
        assert d["ok"] is False
        assert [c["fault"] for c in d["cells"]] == ["drop", "crash"]
        assert d["cells"][0]["ok"] is True

    def test_render_marks_failures(self):
        text = self._report().render()
        assert "drop" in text and "crash" in text
        assert "RESULT: FAIL" in text
        assert "1/2" in text


class TestLiveCells:
    def test_live_drop_cell_heals_with_resilience(self, tmp_path):
        cell = run_live_cell("drop", seed=2, transport="local",
                             duration=1.6, run_dir=tmp_path)
        assert cell.ok, cell.as_dict()
        assert cell.injected.get("drop", 0) > 0
        assert cell.detail["lost_messages"] == 0

    def test_live_drop_cell_without_retries_loses_messages(self, tmp_path):
        cell = run_live_cell("drop", seed=2, transport="local",
                             duration=1.6, retries=False, run_dir=tmp_path)
        assert not cell.ok
        assert cell.detail["lost_messages"]
