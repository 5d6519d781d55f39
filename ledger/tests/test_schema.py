"""A real pass of the cheapest workload emits the documented shape, leaves
nothing behind, and prints the driver's result object last."""

import json

from ledger import runner, schema, spec
from ledger.harness import SCRATCH_PARENT

WORKLOAD = "des_faulted_verified_n16"


def _pass(trace, tmp_path, capsys):
    detail = tmp_path / f"detail{trace}"
    detail.mkdir()
    code = runner.run_pass(WORKLOAD, 1, 0.1, bool(trace), detail)
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    record = json.loads((detail / "result.json").read_text("utf-8"))
    assert code == 0 and record["correct"]
    return last, record, detail


def test_timed_and_traced_passes_and_the_ledger_document(tmp_path, capsys):
    last, timed, _ = _pass(0, tmp_path, capsys)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == timed["attempted"] >= 3
    assert set(last["metrics"]) == {m.name for m in spec.END_TO_END}
    assert all(set(cell) == {"value", "unit"} and cell["value"] > 0
               for cell in last["metrics"].values())
    assert schema.check_pass(timed) == []
    assert timed["metrics"]["events_per_s"]["native"] is True
    assert timed["metrics"]["job_warm_s"]["native"] is False
    assert timed["metrics"]["events_per_s"]["n"] == timed["attempted"]
    assert len(timed["info"]["digest"]) == 64

    last, traced, detail = _pass(1, tmp_path, capsys)
    assert set(last["metrics"]) == {m.name for m in spec.PER_LAYER}
    assert schema.check_pass(traced) == []
    cells = traced["metrics"]
    assert cells["serve.scheduler.run_s"]["idle"] is True
    assert cells["des.trace.records"]["value"] > 0
    assert cells["chaos.des.injected"]["value"] > 0
    assert cells["recovery.rollbacks"]["value"] == 1
    run_s = cells["des.engine.run_s"]["value"]
    layers_s = sum(cell["value"] for name, cell in cells.items()
                   if name.endswith(".self_s"))
    assert abs(layers_s - run_s) <= 0.05 * run_s
    info = traced["info"]
    assert abs(info["profile_tottime_s"] - info["profiled_run_s"]) \
        <= 0.05 * info["profiled_run_s"]
    spans = [json.loads(line) for line
             in (detail / "spans.jsonl").read_text().splitlines()]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["run_experiment",
                                          "run_experiment.profiled"]
    assert sum(1 for s in spans if s["parent"] == roots[0]["id"]) == 4

    assert not SCRATCH_PARENT.exists() or not any(SCRATCH_PARENT.iterdir())

    # The --out document: the same pass records under every workload name.
    for record in (timed, traced):
        record.update(exit_code=0, stderr_lines=0)
    workloads = {}
    for w in spec.WORKLOADS:
        workloads[w.name] = {
            "why": w.why,
            "timed": json.loads(json.dumps(timed).replace(WORKLOAD, w.name)),
            "traced": json.loads(json.dumps(traced).replace(WORKLOAD,
                                                            w.name))}
    doc = runner.ledger_document(1, 0.1, timed["host"], None, workloads)
    problems = schema.check_ledger(doc)
    # Relabelled DES records carry DES nativeness; nothing else may differ.
    assert all("native" in p for p in problems), problems
    assert doc["failed_share"] == 0 and doc["attempted"] == 5 * (
        timed["attempted"] + traced["attempted"])
    del doc["workloads"]["serve_sweep"]
    assert schema.check_ledger(doc) != []


def test_a_malformed_pass_is_reported():
    assert schema.check_pass({"workload": "x"}) != []
