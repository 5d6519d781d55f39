"""ChaosEndpoint / ChaosStorage unit tests over in-process endpoints."""

from __future__ import annotations

import asyncio

import pytest

from repro.chaos import ChaosError, Fault, FaultPlan, single_fault_plan
from repro.chaos.live import DUP_SPACING, ChaosEndpoint, chaos_storage
from repro.core.types import ControlMessage, ControlType, Piggyback, Status
from repro.live.storage import FileStableStorage
from repro.live.transport import Broker
from repro.live.wire import ack_frame, app_frame, ctl_frame, stop_frame


def run(coro):
    return asyncio.run(coro)


def app(src: int, dst: int, uid: int) -> dict:
    return app_frame(src, dst, uid, 16,
                     Piggyback(0, Status.NORMAL, frozenset()), epoch=0)


async def recv(ep) -> dict:
    return await asyncio.wait_for(ep.recv(), 1.0)


async def nothing_queued(broker: Broker, ep) -> bool:
    """No frame waits for ``ep``: a stop broadcast now is the next one."""
    broker.broadcast(stop_frame())
    return (await recv(ep))["t"] == "stop"


class TestChaosEndpoint:
    def test_drop_eats_matching_frames(self):
        async def body():
            t = Broker()
            a = ChaosEndpoint(t.endpoint(0), single_fault_plan("drop", p=1.0))
            b = t.endpoint(1)
            a.send(app(0, 1, 1))
            assert await nothing_queued(t, b)
            assert a.injected == {"drop": 1}
            # Non-matching kinds pass untouched.
            a.send(ack_frame(0, 1, [9]))
            assert await recv(b) == ack_frame(0, 1, [9])

        run(body())

    def test_frames_filter_scopes_the_fault(self):
        async def body():
            t = Broker()
            plan = single_fault_plan("drop", p=1.0, frames=("app",))
            a = ChaosEndpoint(t.endpoint(0), plan)
            b = t.endpoint(1)
            a.send(ctl_frame(0, 1, ControlMessage(ControlType.CK_END, 1), 0))
            assert (await recv(b))["t"] == "ctl"

        run(body())

    def test_duplicate_delivers_twice(self):
        async def body():
            t = Broker()
            a = ChaosEndpoint(t.endpoint(0),
                              single_fault_plan("duplicate", p=1.0))
            b = t.endpoint(1)
            a.send(app(0, 1, 7))
            first = await recv(b)
            second = await recv(b)
            assert first["uid"] == second["uid"] == 7
            assert a.injected == {"duplicate": 1}

        run(body())

    def test_delay_holds_then_delivers(self):
        async def body():
            t = Broker()
            plan = single_fault_plan("delay", p=1.0, delay=DUP_SPACING,
                                     end=60.0)
            a = ChaosEndpoint(t.endpoint(0), plan)
            b = t.endpoint(1)
            a.send(app(0, 1, 3))
            assert await nothing_queued(t, b)
            frame = await recv(b)
            assert frame["uid"] == 3

        run(body())

    def test_reorder_swaps_adjacent_frames(self):
        async def body():
            t = Broker()
            a = ChaosEndpoint(t.endpoint(0),
                              single_fault_plan("reorder", p=1.0, end=60.0))
            b = t.endpoint(1)
            a.send(app(0, 1, 1))
            a.send(app(0, 1, 2))
            got = [(await recv(b))["uid"], (await recv(b))["uid"]]
            assert got == [2, 1]

        run(body())

    def test_reorder_flushes_held_frame_at_window_end(self):
        async def body():
            t = Broker()
            a = ChaosEndpoint(t.endpoint(0),
                              single_fault_plan("reorder", p=1.0, end=0.05))
            b = t.endpoint(1)
            a.send(app(0, 1, 1))  # held, no partner ever arrives
            frame = await recv(b)
            assert frame["uid"] == 1

        run(body())

    def test_partition_parks_until_heal(self):
        async def body():
            t = Broker()
            plan = single_fault_plan("partition", end=0.08,
                                     group_a=(0,), group_b=(1,))
            a = ChaosEndpoint(t.endpoint(0), plan)
            b = t.endpoint(1)
            a.send(app(0, 1, 5))
            assert await nothing_queued(t, b)
            assert a.injected == {"partition": 1}
            frame = await recv(b)
            assert frame["uid"] == 5

        run(body())

    def test_close_cancels_held_frames(self):
        async def body():
            t = Broker()
            a = ChaosEndpoint(t.endpoint(0),
                              single_fault_plan("delay", p=1.0, delay=0.01,
                                                end=60.0))
            b = t.endpoint(1)
            a.send(app(0, 1, 1))
            a.close()
            await asyncio.sleep(0.03)
            assert await nothing_queued(t, b)
            assert t.dropped_by_cause == {}

        run(body())

    def test_invalid_plan_rejected_at_construction(self):
        async def body():
            t = Broker()
            plan = FaultPlan(faults=(Fault(kind="bit-flip"),))
            with pytest.raises(ChaosError):
                ChaosEndpoint(t.endpoint(0), plan)

        run(body())


class TestChaosStorage:
    def _plan(self, kind, **kw):
        return single_fault_plan(kind, p=1.0, **kw)

    def test_torn_write_healed_by_bounded_retry(self, tmp_path):
        st = FileStableStorage(tmp_path, 0)
        cs = chaos_storage(st, self._plan("torn-write"))
        st.write_finalized(1, {"pid": 0, "csn": 1})
        assert cs.injected["torn-write"] >= 1
        assert st.retried_writes >= 1
        # The torn tmp litter exists but the real file is intact.
        assert (st.root / "C1.json").exists()
        assert st.finalized_csns() == [1]

    def test_fsync_fail_healed_by_bounded_retry(self, tmp_path):
        st = FileStableStorage(tmp_path, 0)
        cs = chaos_storage(st, self._plan("fsync-fail"))
        st.write_tentative(1, {"csn": 1})
        assert cs.injected["fsync-fail"] >= 1
        assert st.retried_writes >= 1

    def test_slow_flush_does_not_fail_the_write(self, tmp_path):
        st = FileStableStorage(tmp_path, 0)
        cs = chaos_storage(st, self._plan("slow-flush", delay=0.001))
        st.write_tentative(1, {"csn": 1})
        assert cs.injected["slow-flush"] >= 1
        assert st.retried_writes == 0

    def test_no_storage_faults_leaves_hook_unset(self, tmp_path):
        st = FileStableStorage(tmp_path, 0)
        chaos_storage(st, single_fault_plan("drop"))
        assert st.fault_hook is None
