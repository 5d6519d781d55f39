"""The one switch for Python's cyclic garbage collector.

Reference counting frees an object the moment its last reference goes;
the cyclic collector exists for what reference counting cannot free —
reference cycles — and it finds them by walking every tracked container,
each time a generation's allocation count passes its threshold.  Code
that allocates hundreds of thousands of long-lived containers and frees
no cycle pays for those walks and gets nothing back: a simulated run
(:func:`repro.harness.runner.run_experiment`, whose finished object
graph is a tree — see DESIGN.md "Who owns whom") and the model checker's
breadth-first search (:func:`repro.verify.explore.explore`).  Both run
inside :func:`collector_paused`; nothing else in ``src/`` switches the
collector (``tests/test_structure.py``, ``one-collector-switch``).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with the cyclic collector off, then restore the
    caller's setting — on every exit, exceptions included.

    Nesting is safe: an inner use finds the collector already off and
    leaves it off; only the outermost use that turned it off turns it
    back on.  A caller that had it off keeps it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
