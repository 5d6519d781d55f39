"""Custom AST lint for the repro codebase.

See :mod:`repro.verify.lint.rules` for the core rule catalogue
(REP001–REP007), :mod:`repro.verify.lint.async_rules` and
:mod:`repro.verify.lint.contract_rules` for the REP100 concurrency and
protocol-contract analyzers (REP101–REP109), and
``docs/STATIC_ANALYSIS.md`` for the rationale behind each rule.
"""

from .engine import Finding, LintReport, lint_paths

__all__ = ["Finding", "LintReport", "lint_paths"]
