"""Causality substrate: happened-before, vector clocks, consistency checks.

This package is the library's *referee*: protocols claim their checkpoints
form consistent global checkpoints (the paper's Theorem 2); the verifier
here independently decides, from the raw trace, whether that claim holds.
"""

from .consistency import (
    CheckpointRecord,
    ConsistencyVerifier,
    Orphan,
    chain,
    complete_cuts,
    cut_orphans,
    find_orphans,
    round_latencies,
)
from .happened_before import DEFAULT_EVENT_KINDS, EventGraph
from .recovery_line import (
    IntervalMessage,
    RecoveryLineResult,
    compute_recovery_line,
    compute_recovery_line_with_logs,
    domino_depth,
)
from .vector_clock import VectorClock

__all__ = [
    "CheckpointRecord",
    "ConsistencyVerifier",
    "DEFAULT_EVENT_KINDS",
    "EventGraph",
    "IntervalMessage",
    "Orphan",
    "RecoveryLineResult",
    "VectorClock",
    "chain",
    "complete_cuts",
    "compute_recovery_line",
    "compute_recovery_line_with_logs",
    "cut_orphans",
    "domino_depth",
    "find_orphans",
    "round_latencies",
]
