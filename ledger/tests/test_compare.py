"""compare: ok / worse / unresolved, failed_share, digests, exit code."""

import json

from ledger import compare, spec


def _metric(median, q1=None, q3=None):
    # ``value`` is what compare reads; the quartiles only settle
    # ``unresolved``.
    return {"median": median, "value": median, "n": 5,
            "q1": median if q1 is None else q1,
            "q3": median if q3 is None else q3}


def _ledger(overrides=None):
    """A ledger document where every native cell reads 100; ``overrides``
    maps ``(workload, metric)`` to another cell."""
    workloads = {}
    for wl in spec.WORKLOADS:
        metrics = {m.name: _metric(100.0) for m in spec.END_TO_END
                   if wl.name in m.native}
        info = {"digest": "d" * 64} if wl.family == "des" else {}
        workloads[wl.name] = {
            "timed": {"metrics": metrics, "failed_share": 0.0,
                      "info": info},
            "traced": {"metrics": {"trace_overhead_frac": {
                "value": 0.5, "unit": "ratio", "n": 1}}}}
    for (workload, metric), value in (overrides or {}).items():
        workloads[workload]["timed"]["metrics"][metric] = value
    return {"workloads": workloads}


def _row(lines, metric, workload):
    return next(line for line in lines
                if line.startswith(metric) and workload in line)


def test_identical_ledgers_are_ok():
    lines, failed = compare.compare(_ledger(), _ledger())
    assert not failed
    assert all(line.endswith(("ok", "same")) for line in lines[1:]
               if line and not line.startswith(("per-layer", "trace_")))


def test_slower_beyond_the_bound_is_worse_and_within_it_is_ok():
    key = ("des_ring_n64", "events_per_s")           # higher is better, 25 %
    lines, failed = compare.compare(
        _ledger(), _ledger({key: _metric(70.0)}))
    assert failed and _row(lines, *reversed(key)).endswith("worse")
    assert " 0.700 " in _row(lines, *reversed(key))
    lines, failed = compare.compare(
        _ledger(), _ledger({key: _metric(90.0)}))
    assert not failed and _row(lines, *reversed(key)).endswith("ok")
    # Faster is never worse, however far.
    assert not compare.compare(_ledger(),
                               _ledger({key: _metric(300.0)}))[1]


def test_wide_overlapping_spread_is_unresolved_not_worse():
    key = ("live_tcp_n2", "msgs_per_s")               # bound 25 %
    a = _ledger({key: _metric(100.0, 85.0, 115.0)})
    b = _ledger({key: _metric(70.0, 62.0, 90.0)})
    lines, failed = compare.compare(a, b)
    assert not failed and _row(lines, "msgs_per_s",
                               "live_tcp_n2").endswith("unresolved")
    # Same medians, tight quartiles: the runs can tell.
    b = _ledger({key: _metric(70.0, 69.0, 71.0)})
    assert compare.compare(_ledger(), b)[1]


def test_setup_has_an_absolute_floor():
    key = ("des_ring_n64", "setup_s")
    a = _ledger({key: _metric(0.5)})
    assert not compare.compare(a, _ledger({key: _metric(0.7)}))[1]
    assert compare.compare(a, _ledger({key: _metric(0.8)}))[1]


def test_failed_share_and_digest_fail_the_comparison():
    b = _ledger()
    b["workloads"]["serve_sweep"]["timed"]["failed_share"] = 0.1
    assert compare.compare(_ledger(), b)[1]
    b = _ledger()
    b["workloads"]["des_ring_n64"]["timed"]["info"]["digest"] = "e" * 64
    lines, failed = compare.compare(_ledger(), b)
    assert failed and _row(lines, "digest",
                           "des_ring_n64").endswith("DIFFERS")


def test_exit_code(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(_ledger()))
    (tmp_path / "b.json").write_text(json.dumps(_ledger({
        ("serve_sweep", "job_warm_s"): _metric(130.0)})))
    args = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert compare.main(args) == 1
    assert compare.main(args[:1] * 2) == 0
    assert "WORSE" in capsys.readouterr().out
