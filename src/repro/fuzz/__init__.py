"""repro.fuzz — coverage-guided fault-plan fuzzing.

The bounded model checker proves Theorems 1 and 2 exhaustively, but only
up to the 3-process/1-interval configuration; this package scales the
hunt to configurations BFS cannot enumerate.  Inputs are (fault plan,
workload schedule, config) triples (:mod:`~repro.fuzz.inputs`), mutated
by seeded operators (:mod:`~repro.fuzz.mutate`), and judged by the
oracle (:mod:`~repro.fuzz.oracle`), which is the chaos matrix's own DES
fault-run judge (:func:`repro.chaos.des.run_plan`; its
``PROTOCOL_MUTATIONS`` are re-exported here).  Runs that light up new
protocol-state coverage (:mod:`~repro.fuzz.coverage`) enter an on-disk corpus
(:mod:`~repro.fuzz.corpus`); violations are minimized by a
delta-debugging shrinker (:mod:`~repro.fuzz.shrink`) into replayable
counterexamples.  ``repro fuzz`` drives campaigns via
:mod:`~repro.fuzz.runner`.

Everything is deterministic: a (campaign seed, input) pair replays
byte-identically, which is what makes shrunk counterexamples artifacts
rather than anecdotes.  See docs/ROBUSTNESS.md for the corpus layout
and coverage/shrinking semantics.
"""

from ..chaos.des import PROTOCOL_MUTATIONS
from .corpus import Corpus, CorpusEntry
from .coverage import CoverageMap, coverage_signature, coverage_tokens
from .inputs import FuzzInput, WorkloadSchedule, seed_inputs
from .mutate import Mutator
from .oracle import FuzzOutcome, run_input
from .runner import FUZZ_SCHEMA, CampaignReport, run_campaign
from .shrink import shrink_input

__all__ = [
    "CampaignReport",
    "Corpus",
    "CorpusEntry",
    "CoverageMap",
    "FUZZ_SCHEMA",
    "FuzzInput",
    "FuzzOutcome",
    "Mutator",
    "PROTOCOL_MUTATIONS",
    "WorkloadSchedule",
    "coverage_signature",
    "coverage_tokens",
    "run_campaign",
    "run_input",
    "seed_inputs",
    "shrink_input",
]
