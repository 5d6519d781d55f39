"""Golden fixture tests for the REP100 analyzer pack.

Each rule REP101–REP109 has a ``tests/verify/fixtures/<rule>/`` pair:
``bad/`` is a minimal deliberately-violating tree and ``good/`` the
compliant counterpart.  The bad tests pin rule id, file, line and
message substring (so a rule that drifts to a different node or wording
fails loudly); the good tests pin the *absence* of findings, which is
what keeps the rules' exemptions (lambdas handed to executors, re-reads
after awaits, lock-protected writes, selector-call arms) honest.

The fixtures are excluded from ruff (``pyproject.toml``) — several are
intentionally broken code — and are invisible to pytest collection
(no ``test_`` filenames) and mypy (outside the ``repro`` package).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.verify import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: rule → expected findings in its bad tree, sorted by (path, line):
#: (file basename, line, message substring).
BAD_EXPECT: dict[str, list[tuple[str, int, str]]] = {
    "rep101": [("live_mod.py", 5, "blocking call time.sleep()")],
    "rep102": [("spawn.py", 5, "fire-and-forget task")],
    "rep103": [("counter.py", 8, "read before an await and is rebound")],
    "rep104": [("channel.py", 12, "await while holding"),
               ("channel.py", 16, "journal append")],
    "rep105": [("plan.py", 1,
                'fault kind "delay" (declared in WIRE_KINDS) is missing '
                'a DES injector arm')],
    "rep106": [("serialize.py", 1, "encoders stamp wire version 3"),
               ("serialize.py", 1, "skips version(s) [3]"),
               ("serialize.py", 6, "equality comparison against "
                                   "WIRE_VERSION")],
    "rep107": [("host.py", 8, 'not dominated by a journal.log("send"')],
    "rep108": [("host.py", 2, 'trace point "ctl.snd" is not in the obs '
                              'schema vocabulary')],
    "rep109": [("__init__.py", 2,
                "imports bad.repro.core.host at start-up "
                "(bad.repro.live.worker -> bad.repro.core -> "
                "bad.repro.core.host)")],
}

RULES = sorted(BAD_EXPECT)


@pytest.mark.parametrize("rule", RULES)
def test_bad_fixture_is_detected(rule):
    rid = rule.upper()
    report = lint_paths(FIXTURES / rule / "bad", select=[rid])
    assert not report.parse_errors
    expected = BAD_EXPECT[rule]
    assert len(report.findings) == len(expected), report.render()
    for finding, (fname, line, msg) in zip(report.findings, expected):
        assert finding.rule == rid
        assert finding.path.endswith(fname), finding.render()
        assert finding.line == line, finding.render()
        assert msg in finding.message, finding.render()


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_is_clean(rule):
    rid = rule.upper()
    report = lint_paths(FIXTURES / rule / "good", select=[rid])
    assert report.files_checked >= 1
    assert not report.parse_errors
    assert report.clean, report.render()


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_is_clean_under_every_rule(rule):
    # The compliant counterparts must not trade one violation for
    # another — `repro verify --lint <good-tree>` exits 0 in CI.
    report = lint_paths(FIXTURES / rule / "good")
    assert report.clean and not report.suppressed, report.render()


class TestCliExitCodes:
    """The acceptance-critical discrimination, through the real CLI."""

    @pytest.mark.parametrize("rule", RULES)
    def test_bad_tree_exits_1(self, rule, capsys):
        code = main(["verify", "--lint", str(FIXTURES / rule / "bad")])
        out = capsys.readouterr().out
        assert code == 1
        assert rule.upper() in out

    def test_good_trees_exit_0_in_one_multi_path_run(self, capsys):
        paths = [str(FIXTURES / rule / "good") for rule in RULES]
        code = main(["verify", "--lint", *paths])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out
