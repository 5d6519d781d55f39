"""A finished run is a tree: reference counting frees it, and the cyclic
collector finds nothing in it (DESIGN.md "Who owns whom").

``run_experiment`` runs with the collector paused, so any reference cycle
a run makes is memory that nothing frees until the next collection after
it returns — and a server that runs job after job would hold several
finished runs at once.  Each case below runs with the collector off and
``gc.DEBUG_SAVEALL`` on, so that ``gc.collect()`` counts every object it
finds unreachable, and checks two points: while the run's result is
alive (nothing cyclic was made during the run) and after it is dropped
(the run's own graph has no cycle).  The seeded cycle at the end shows
that the check fires.
"""

from __future__ import annotations

import gc
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import pytest

from repro.chaos.des import cell_config, run_plan
from repro.chaos.plan import Fault, FaultPlan
from repro.harness.experiment import PROTOCOLS, ExperimentConfig
from repro.harness.runner import run_experiment

SMALL = ExperimentConfig(n=4, horizon=60.0, checkpoint_interval=20.0,
                         timeout=7.0)


@contextmanager
def _saving_all_garbage() -> Iterator[None]:
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _found() -> tuple[int, list[tuple[str, int]]]:
    """Collect; the count and the commonest types of what was found."""
    count = gc.collect()
    kinds = Counter(type(o).__qualname__ for o in gc.garbage).most_common(6)
    gc.garbage.clear()
    return count, kinds


def cyclic_garbage(run: Callable[[], Any]
                   ) -> tuple[tuple[int, list], tuple[int, list]]:
    """What the collector finds while ``run()``'s result is alive, and
    after it is dropped.  ``run`` is called once first, so that garbage
    of first imports and first-use caches is not counted."""
    run()
    with _saving_all_garbage():
        result = run()
        alive = _found()
        del result
        dropped = _found()
    return alive, dropped


def assert_no_cycles(run: Callable[[], Any]) -> None:
    alive, dropped = cyclic_garbage(run)
    assert alive[0] == 0, f"cyclic garbage made during the run: {alive}"
    assert dropped[0] == 0, f"the finished run holds cycles: {dropped}"


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_a_run_of_every_protocol_is_freed_by_reference_counting(protocol):
    assert_no_cycles(lambda: run_experiment(SMALL.derive(protocol=protocol)))


def test_a_faulted_run_plan_is_freed_by_reference_counting():
    # Every interposer at once: the chaos gate (drop, duplicate, reorder,
    # delay), the partition and failure gates, the storage wrapper, and a
    # crash with system-wide rollback.
    plan = FaultPlan(seed=0, faults=(
        Fault("drop", p=0.1, start=10.0, end=80.0, frames=("app",)),
        Fault("duplicate", p=0.1, start=10.0, end=80.0),
        Fault("reorder", p=0.2, start=10.0, end=80.0),
        Fault("delay", p=0.2, start=10.0, end=80.0, delay=2.0),
        Fault("slow-flush", p=0.5, start=5.0, end=80.0, delay=0.5),
        Fault("partition", start=20.0, end=40.0, group_a=(0, 1),
              group_b=(2, 3)),
        Fault("crash", pid=3, at=50.0),
    ))

    assert_no_cycles(lambda: run_plan(plan, cell_config(0)))


def test_a_traced_run_is_freed_by_reference_counting():
    from repro.obs import MemorySink, Tracer

    assert_no_cycles(lambda: run_experiment(
        SMALL, tracer=Tracer([MemorySink()], host="des")))


def test_a_served_sweep_job_is_freed_by_reference_counting(tmp_path):
    from repro.serve.protocol import validate_job
    from repro.serve.scheduler import Scheduler
    from repro.serve.state import JobStore

    scheduler = Scheduler(JobStore(tmp_path / "state"))
    job = validate_job({"schema": "repro.serve/1", "kind": "sweep",
                        "spec": {"param": "seed", "values": [1, 2],
                                 "protocols": ["optimistic",
                                               "chandy-lamport"],
                                 "n": 4, "horizon": 40.0}})
    runs = iter(range(2))

    def run() -> dict[str, Any]:
        # A fresh cache directory per job, so the measured job runs
        # every point instead of reading the warm-up job's results.
        scheduler.cache_dir = tmp_path / f"cache{next(runs)}"
        record = scheduler.submit(job)
        result = scheduler._run_body(record, threading.Event())
        assert result["ok"] and result["cached"] == 0
        return result

    assert_no_cycles(run)


def test_a_seeded_cycle_is_found():
    """A host that stores its own bound method is a cycle the unwiring
    at the end of the run does not know; the check must report it."""

    def seed_cycle(sim, net, storage, runtime) -> None:
        for host in runtime.hosts.values():
            host.own_method = host.on_message

    alive, dropped = cyclic_garbage(
        lambda: run_experiment(SMALL, before_run=seed_cycle))
    assert alive[0] == 0
    assert dropped[0] > 0
