"""Simulated-statistics digests: stable for a seed, different across seeds."""

import pytest

from ledger.harness import require_repro

require_repro()

from ledger import des  # noqa: E402  (needs repro importable)

DES = tuple(des._HORIZON)


def _digest(name: str, seed: int) -> str:
    result, faults, _wall = des.run_once(name, des.config(name, seed, 0.1))
    assert result.ok and not result.runtime.anomalies()
    if name == "des_faulted_verified_n16":
        assert len(faults.recovery.events) == 1
        assert faults.injector.total_injected() > 0
    return des.digest(result.sim, result.network, result.runtime)


@pytest.mark.parametrize("name", DES)
def test_digest_is_stable_across_runs_and_moves_with_the_seed(name):
    first = _digest(name, 0)
    assert _digest(name, 0) == first
    assert _digest(name, 1) != first
