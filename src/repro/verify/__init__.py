"""Static protocol verification: determinism/layering lint + model checking.

Two engines, both offline (no simulation run needed):

* :mod:`repro.verify.lint` — AST-level rules enforcing the invariants the
  codebase *relies on* but nothing else checks: simulation determinism
  (no wall-clock, no unseeded randomness, no ``id()``-keyed or raw-set
  ordering), purity layering (the pure protocol kernel must not import
  simulation substrates), effect-handler totality, and float-equality on
  simulated time.
* :mod:`repro.verify.explore` — a bounded model checker that exhaustively
  enumerates every reachable state of the pure
  :class:`~repro.core.state_machine.OptimisticStateMachine` for small
  configurations and checks the property library every judge runs
  (:mod:`repro.causality.properties`: Theorems 1–2 and the §3.5.1
  optimization soundness) on every state.  Violations come with a
  replayable counterexample trace.

Exposed via ``repro verify`` on the command line (see :mod:`repro.cli`);
the CI workflow runs both engines as a gate.
"""

from .explore import (
    ExploreConfig,
    ExploreResult,
    Violation,
    explore,
    render_counterexample,
)
from .lint import Finding, LintReport, lint_paths

__all__ = [
    "ExploreConfig",
    "ExploreResult",
    "Finding",
    "LintReport",
    "Violation",
    "explore",
    "lint_paths",
    "render_counterexample",
]
