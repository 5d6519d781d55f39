"""Regression guard for the REP100 async-hygiene fixes in the live layer.

The REP101–REP104 rollout found and fixed real defects here:

* ``supervisor.py`` wrote ``report.json`` and the chaos plan with
  synchronous ``write_text`` inside ``async def`` (REP101) — now routed
  through ``loop.run_in_executor`` (the plan now travels in
  ``config.json``, written the same way);
* ``worker.py`` read the chaos plan synchronously (REP101) — it now reads
  ``config.json`` before its event loop starts;
* ``transport.Broker.close`` read ``self._server`` before an await and
  nulled it after (REP103 lost-update) — now take-then-null before
  suspending, which also makes concurrent double-close safe.

These tests pin the fixes by linting the shipped packages with the
concurrency rules, so a regression reintroducing a blocking call or a
cross-await race fails here before it flakes in production.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.live.wire import check_handshake, hello_frame, welcome_frame
from repro.storage.serialize import ACCEPTED_WIRE_VERSIONS, WIRE_VERSION
from repro.verify import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CONCURRENCY_RULES = ["REP101", "REP102", "REP103", "REP104"]


@pytest.mark.parametrize("package", ["live", "chaos", "obs", "harness",
                                     "serve"])
def test_runtime_packages_pass_the_concurrency_rules(package):
    # Clean *without suppressions*: every REP101–REP104 hit found during
    # the rollout was fixed (run_in_executor, take-then-null), not
    # allowed — so a finding here is a genuine regression.
    report = lint_paths(SRC / package, select=CONCURRENCY_RULES)
    assert report.files_checked >= 4
    assert report.clean, report.render()
    assert not report.suppressed


def test_live_host_satisfies_journal_before_send_dominance():
    # REP107 is the static half of the no-orphan-message argument: every
    # app-frame send in the live host is dominated by its journal append.
    report = lint_paths(SRC / "live", select=["REP107"])
    assert report.clean, report.render()


def test_tcp_broker_double_close_is_safe():
    # The REP103 fix in Broker.close (take-then-null before awaiting)
    # must make concurrent close() calls idempotent rather than
    # re-closing a server another task already started tearing down.
    from repro.live.transport import Broker

    async def scenario():
        broker = Broker()
        await broker.start()
        await asyncio.gather(broker.close(), broker.close())
        assert broker._server is None

    asyncio.run(scenario())


class TestWireVersionMembership:
    """REP106's runtime counterpart: decoders test membership, not ==."""

    def test_current_version_is_accepted(self):
        assert WIRE_VERSION in ACCEPTED_WIRE_VERSIONS
        check_handshake(hello_frame(pid=0, incarnation=0), "hello")
        check_handshake(welcome_frame(epoch=0), "welcome")

    def test_every_accepted_version_passes_the_handshake(self):
        for version in ACCEPTED_WIRE_VERSIONS:
            frame = {"t": "welcome", "v": version, "epoch": 3}
            assert check_handshake(frame, "welcome") is frame

    def test_unknown_version_is_rejected(self):
        frame = {"t": "hello", "v": 0, "pid": 1, "inc": 0}
        with pytest.raises(ValueError, match="wire version mismatch"):
            check_handshake(frame, "hello")
