"""REP-lint audit of the harness package.

``repro.harness`` drives the deterministic simulator, so its control
flow must itself be deterministic — experiment manifests hash the
config, and a wall-clock or unseeded-random read in the sweep path
would break replicability.  Nothing in the package is exempt: it times
nothing itself (the performance ledger does that, outside ``src/``), so
it carries no per-line suppression at all.
"""

from __future__ import annotations

from pathlib import Path

from repro.verify import lint_paths

HARNESS_SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "harness"


def test_harness_package_lints_clean():
    report = lint_paths(HARNESS_SRC)
    assert report.files_checked >= 4
    assert not report.parse_errors
    assert report.clean, report.render()


def test_no_module_needs_a_suppression():
    for path in sorted(HARNESS_SRC.glob("*.py")):
        report = lint_paths(path)
        assert report.clean and not report.suppressed, path.name
