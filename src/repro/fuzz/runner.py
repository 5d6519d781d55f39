"""Campaign driver: budgeted, parallel, deterministic-per-seed fuzzing.

One campaign = seed corpus -> (mutate -> execute -> cover -> admit)
batches until the wall-clock budget or iteration cap runs out, or a
violation is found.  Execution fans out over the PR-2 executor
(``map_jobs`` — spawn pool, order-preserving, per-item failure capture);
mutation, coverage folding and corpus admission stay in the parent so
the campaign's decisions are a pure function of (campaign seed, outcome
sequence).

On a violation the runner shrinks the offending input
(:mod:`~repro.fuzz.shrink`), replays the minimum under an obs tracer,
and persists the counterexample bundle under ``.repro-fuzz/crashes/``
— ``input.json`` / ``plan.json`` / ``report.json`` / ``trace.jsonl``;
``input.json`` replays by ``repro chaos --plan``, the trace renders by
``repro trace report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..harness.executor import JobCancelled, JobError, map_jobs
from ..obs.profile import wall_now
from .corpus import Corpus, CorpusEntry
from .coverage import CoverageMap, coverage_tokens
from .inputs import FuzzInput, seed_inputs
from .mutate import Mutator
from .oracle import run_input, run_item
from .shrink import shrink_input

#: The report's schema tag (versioned like the other wire formats).
FUZZ_SCHEMA = "repro.fuzz/1"


@dataclass
class CampaignReport:
    """Picklable summary of one ``repro fuzz`` campaign."""

    schema: str = FUZZ_SCHEMA
    mutation: str | None = None
    seed: int = 0
    executions: int = 0
    batches: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    corpus_size: int = 0
    coverage_edges: int = 0
    coverage_curve: list[int] = field(default_factory=list)
    violations_found: int = 0
    counterexample: dict[str, Any] | None = None

    @property
    def found(self) -> bool:
        return self.violations_found > 0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form of the campaign report."""
        return {"schema": self.schema, "mutation": self.mutation,
                "seed": self.seed, "executions": self.executions,
                "batches": self.batches, "errors": self.errors,
                "elapsed_s": self.elapsed_s,
                "corpus_size": self.corpus_size,
                "coverage_edges": self.coverage_edges,
                "coverage_curve": list(self.coverage_curve),
                "violations_found": self.violations_found,
                "counterexample": self.counterexample}


def _write_counterexample(corpus: Corpus, minimal: FuzzInput,
                          outcome: dict[str, Any],
                          shrink_stats: dict[str, int],
                          mutation: str | None) -> dict[str, Any]:
    """Replay the minimum under a tracer and persist the crash bundle."""
    from ..obs import JsonlSink, Tracer

    name = f"crash-{_crash_name(minimal)}"
    report = {
        "input": minimal.as_dict(),
        "mutation": mutation,
        "violations": outcome["violations"],
        "events": outcome["events"],
        "app_delivered": outcome["app_delivered"],
        "shrink_runs": shrink_stats.get("runs", 0),
    }
    crash_dir = corpus.write_crash(name, minimal, report)
    trace_path = crash_dir / "trace.jsonl"
    tracer = Tracer([JsonlSink(trace_path)], host="des")
    try:
        run_input(minimal, mutation=mutation, tracer=tracer)
    finally:
        tracer.close()
    return {**report, "crash_dir": str(crash_dir),
            "trace": str(trace_path)}


def _crash_name(inp: FuzzInput) -> str:
    from ..chaos.plan import fault_plan_key
    return fault_plan_key(inp.plan)[:12]


def run_campaign(*, budget_s: float | None = None,
                 max_execs: int | None = None,
                 jobs: int = 1, seed: int = 0,
                 mutation: str | None = None,
                 root: str | Path = ".repro-fuzz",
                 shrink: bool = True,
                 resume: bool = False,
                 on_stats: Callable[[str], None] | None = None,
                 ) -> CampaignReport:
    """Run one fuzz campaign; see the module docstring for semantics.

    ``budget_s``/``max_execs`` may be combined; at least one must be set.
    ``resume`` reloads a previous campaign's on-disk corpus (coverage is
    rebuilt from the persisted token sets, nothing is re-run).
    """
    if budget_s is None and max_execs is None:
        raise ValueError("need a wall-clock budget and/or an"
                         " iteration cap")
    t0 = wall_now()
    corpus = Corpus(root)
    coverage = CoverageMap()
    mutator = Mutator(seed=seed)
    pick_rng = np.random.default_rng(seed + 1)
    report = CampaignReport(mutation=mutation, seed=seed)

    if resume:
        corpus.load()
        coverage.add(corpus.all_tokens())

    def over_budget() -> bool:
        if budget_s is not None and wall_now() - t0 >= budget_s:
            return True
        return max_execs is not None and report.executions >= max_execs

    def stats_line() -> str:
        elapsed = max(wall_now() - t0, 1e-9)
        return (f"fuzz: execs={report.executions}"
                f" ({report.executions / elapsed:.1f}/s)"
                f" corpus={len(corpus)} cov={len(coverage)}"
                f" crashes={report.violations_found}"
                f" t={elapsed:.1f}s")

    # Big batches amortize the spawn pool's per-wave startup cost (the
    # pool is constructed per map_jobs call); individual runs are 10–200 ms.
    batch_size = max(16, 8 * jobs)
    pending: list[tuple[FuzzInput, str]] = [
        (inp, "seed") for inp in seed_inputs()]
    violating: dict[str, Any] | None = None

    while True:
        items = [(inp.as_dict(), mutation) for inp, _ in pending]
        outcomes = map_jobs(run_item, items, jobs=jobs)
        report.batches += 1
        for (inp, _op), outcome in zip(pending, outcomes):
            if isinstance(outcome, (JobError, JobCancelled)):
                report.errors += 1
                continue
            report.executions += 1
            new = coverage.add(coverage_tokens(outcome))
            if new:
                corpus.add(CorpusEntry(input=inp, tokens=frozenset(new),
                                       new_tokens=len(new),
                                       added_iter=report.executions))
            if outcome["violations"] and violating is None:
                violating = outcome
        report.coverage_curve.append(len(coverage))
        if on_stats is not None:
            on_stats(stats_line())
        if violating is not None or over_budget():
            break
        if not corpus.entries:
            # Degenerate: nothing earned coverage (can't happen with the
            # standard seeds, but never loop without parents).
            pending = [(inp, "seed") for inp in seed_inputs()]
            continue
        pending = []
        for _ in range(batch_size):
            parent = corpus.pick(pick_rng)
            other = corpus.pick(pick_rng)
            mutant, op = mutator.mutate(parent.input, other=other.input)
            pending.append((mutant, op))

    if violating is not None:
        report.violations_found = 1
        bad = FuzzInput.from_dict(violating["input"])
        if shrink:
            minimal, shrink_stats = shrink_input(bad, mutation=mutation)
            final = run_input(minimal, mutation=mutation)
        else:
            minimal, shrink_stats = bad, {"runs": 0}
            final = violating
        report.counterexample = _write_counterexample(
            corpus, minimal, final, shrink_stats, mutation)
    report.elapsed_s = wall_now() - t0
    report.corpus_size = len(corpus)
    report.coverage_edges = len(coverage)
    if on_stats is not None:
        on_stats(stats_line())
    return report
