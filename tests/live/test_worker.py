"""The one worker body: its config file, its argv and its endpoint stack.

Both backends run :class:`repro.live.worker.Worker`; a TCP worker process
gets its whole :class:`LiveRunConfig` from ``config.json`` and five flags.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

from repro.chaos import Fault, FaultPlan
from repro.live.supervisor import worker_argv
from repro.live.transport import Broker, Endpoint
from repro.live.wire import stop_frame
from repro.live.worker import LiveRunConfig, Worker, build_endpoint, build_parser


def every_field_changed() -> LiveRunConfig:
    """A config whose every serialized field differs from its default."""
    plan = FaultPlan(seed=11, faults=(
        Fault(kind="drop", p=0.25, start=0.5, end=1.5, frames=("app",)),
        Fault(kind="delay", p=0.5, start=0.1, end=0.9, delay=0.02),
        Fault(kind="partition", start=0.2, end=0.7, group_a=(0,),
              group_b=(1, 2)),
        Fault(kind="slow-flush", p=0.1, delay=0.001),
    ))
    return LiveRunConfig(
        n=3, transport="tcp", duration=7.5, checkpoint_interval=0.3,
        timeout=0.15, workload="ring", rate=0.0, msg_size=64, seed=9,
        crash_at=2.5, crash_pid=1, stop_grace=3.0, trace=True,
        connect_timeout=4.0, connect_attempts=2, connect_wait=12.0,
        resilience=False, max_retries=3, retry_base=0.01, retry_max=0.4,
        chaos=plan)


class TestConfigFile:
    def test_every_serialized_field_round_trips(self):
        cfg = every_field_changed()
        default = LiveRunConfig()
        serialized = {f.name for f in dataclasses.fields(cfg)} - {
            "run_dir", "stop_event"}
        assert all(getattr(cfg, name) != getattr(default, name)
                   for name in serialized)
        text = cfg.to_json()
        assert set(json.loads(text)) == serialized
        back = LiveRunConfig.from_json(text)
        assert back == cfg
        assert len(back.chaos.faults) == 4

    def test_run_dir_and_stop_event_stay_with_the_supervisor(self):
        import threading

        cfg = LiveRunConfig(run_dir="somewhere", stop_event=threading.Event())
        back = LiveRunConfig.from_json(cfg.to_json())
        assert back.run_dir is None and back.stop_event is None
        assert back == dataclasses.replace(cfg, run_dir=None,
                                           stop_event=None)

    def test_no_plan_round_trips_as_none(self):
        assert LiveRunConfig.from_json(LiveRunConfig().to_json()).chaos is None


class TestWorkerArgv:
    def flags(self, argv):
        return [a for a in argv if a.startswith("--")]

    def test_argv_is_five_flags(self, tmp_path):
        argv = worker_argv(tmp_path, 4321, 2, 1, 5)
        assert argv[1:3] == ["-m", "repro.live.worker"]
        assert self.flags(argv) == ["--dir", "--pid", "--port", "--inc",
                                    "--resume-seq"]
        args = build_parser().parse_args(argv[3:])
        assert (args.dir, args.pid, args.port, args.inc, args.resume_seq) \
            == (str(tmp_path), 2, 4321, 1, 5)

    def test_first_incarnation_has_no_resume_seq(self, tmp_path):
        argv = worker_argv(tmp_path, 4321, 0, 0, None)
        assert self.flags(argv) == ["--dir", "--pid", "--port", "--inc"]
        assert build_parser().parse_args(argv[3:]).resume_seq is None


class RecordingEndpoint(Endpoint):
    """The raw endpoint under a stack: records what reaches it."""

    def __init__(self, pid: int, epoch: int) -> None:
        self.pid = pid
        self.epoch = epoch
        self.hook = None
        self.drained = 0

    def send(self, frame):
        pass

    async def recv(self):
        return None

    async def drain(self):
        self.drained += 1

    def set_pre_flush(self, hook):
        self.hook = hook

    def close(self):
        pass


class TestEndpointStack:
    def test_wrappers_forward_drain_hook_and_epoch(self, tmp_path):
        from repro.live.storage import FileStableStorage

        async def body():
            raw = RecordingEndpoint(pid=1, epoch=4)
            cfg = LiveRunConfig(
                chaos=FaultPlan(faults=(Fault(kind="drop", p=0.0),)))
            top, chaos, _store, resilient = build_endpoint(
                raw, FileStableStorage(tmp_path, 1), cfg)
            assert chaos is not None and resilient is not None
            assert top.epoch == chaos.epoch == 4

            def hook():
                pass

            top.set_pre_flush(hook)
            assert raw.hook is hook
            await top.drain()
            assert raw.drained == 1
            top.close()

        asyncio.run(body())

    def test_local_endpoints_read_the_transport_epoch(self):
        async def body():
            hub = Broker()
            assert hub.endpoint(0).epoch == 0
            hub.epoch += 1
            assert hub.endpoint(1).epoch == 1

        asyncio.run(body())


def test_a_worker_starts_finishes_and_journals_its_evidence(tmp_path):
    from repro.live.journal import worker_events

    async def body():
        hub = Broker()
        cfg = LiveRunConfig(n=2, duration=1.0, rate=100.0,
                            checkpoint_interval=0.1, timeout=0.05)
        workers = [Worker(cfg, tmp_path, pid, 0, hub.endpoint(pid))
                   for pid in range(2)]
        await asyncio.sleep(0.3)
        hub.broadcast(stop_frame())
        await asyncio.wait_for(
            asyncio.gather(*(w.task for w in workers)), timeout=5.0)
        for worker in workers:
            await worker.finish()

    asyncio.run(body())
    for events in worker_events(tmp_path).values():
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-2:] == ["stop", "chaos"]
