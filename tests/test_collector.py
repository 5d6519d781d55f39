"""``collector_paused``: the one switch for the cyclic collector restores
the caller's setting on every exit, and nests."""

from __future__ import annotations

import gc

import pytest

from repro._collector import collector_paused


@pytest.fixture(autouse=True)
def _restore_collector():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_the_body_runs_paused_and_an_enabled_collector_comes_back():
    gc.enable()
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_caller_that_had_the_collector_off_keeps_it_off():
    gc.disable()
    with collector_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_an_exception_inside_restores_the_setting():
    gc.enable()
    with pytest.raises(RuntimeError, match="boom"):
        with collector_paused():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_nested_use_turns_it_back_on_only_at_the_outermost_exit():
    gc.enable()
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_run_experiment_pauses_the_collector_and_restores_it():
    from repro.harness.experiment import ExperimentConfig
    from repro.harness.runner import run_experiment

    seen = []

    def before_run(*_):
        seen.append(gc.isenabled())

    gc.enable()
    run_experiment(ExperimentConfig(n=3, horizon=20.0),
                   before_run=before_run)
    assert seen == [False]
    assert gc.isenabled()
