"""Names and counts stay inside the driver's limits; BENCHMARK.json and
baseline.json agree with the tables in ledger/spec.py."""

import json
import re

from ledger import runner, spec
from ledger.harness import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_units_and_counts():
    names = ([w.name for w in spec.WORKLOADS]
             + [m.name for m in spec.END_TO_END + spec.PER_LAYER])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(m.unit) and m.better in ("higher", "lower"), m
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert len(spec.PER_LAYER) == 72 <= 128
    for w in spec.WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why, w.name
        assert w.family in ("des", "live", "serve")
    for m in spec.END_TO_END:
        assert 0 < m.bound <= 0.25 and m.native
        assert set(m.native) <= set(spec.WORKLOAD_NAMES)
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    assert 1 <= spec.RUN_SECONDS <= 60


def test_every_workload_has_a_native_metric():
    for w in spec.WORKLOADS:
        own = [m.name for m in spec.END_TO_END
               if w.name in m.native
               and m.name not in ("setup_s", "peak_rss_mb")]
        assert own, w.name
        assert all(name in w.why for name in own), w.name


def test_benchmark_json_is_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert on_disk == spec.benchmark_json()
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_baseline_pins_a_digest_per_des_workload():
    baseline = json.loads(runner.BASELINE.read_text("utf-8"))
    des = [w.name for w in spec.WORKLOADS if w.family == "des"]
    assert sorted(baseline["digests"]) == sorted(des)
    assert all(re.fullmatch(r"[0-9a-f]{64}", d)
               for d in baseline["digests"].values())
    assert runner._pinned_digest(des[0], 0) == baseline["digests"][des[0]]
    assert runner._pinned_digest(des[0], 1) is None
