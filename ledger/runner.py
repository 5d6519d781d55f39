"""Run one pass in this process, or every pass in child processes.

One pass = one workload, timed (``--trace 0``) or traced (``--trace 1``).
``run_all`` runs the passes strictly one after another, each in its own
child process: clean RSS, no cache or GC state carried across workloads,
and never two timed things at once on a small box.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from . import spec, stats
from .harness import ROOT, Context, Outcome, peak_rss_mb, require_repro, scratch

PASS_SCHEMA = "ledger.pass/1"
LEDGER_SCHEMA = "ledger/1"
#: Recorded baseline of the defining PR; also pins the seed-0 digests.
BASELINE = Path(__file__).resolve().parent / "baseline.json"
#: What a pass takes on top of ``--seconds`` (imports, set-up repeats,
#: journal replay, teardown), measured; times 3 it is the hard timeout.
PASS_OVERHEAD_S = 15.0


def _pinned_digest(workload: str, seed: int) -> str | None:
    if seed != 0 or not BASELINE.is_file():
        return None
    return json.loads(BASELINE.read_text("utf-8"))["digests"].get(workload)


def _cell(m: spec.Metric, samples: list[float], value: float
          ) -> dict[str, Any]:
    """One measured metric: unit, direction, ``value``, summary."""
    return {"unit": m.unit, "better": m.better, "value": value,
            **stats.summarize(samples), "samples": list(samples)}


def _end_to_end(workload: str, out: Outcome, rss_mb: float
                ) -> dict[str, dict[str, Any]]:
    """Every end-to-end metric for one workload.

    A metric native to the workload is summarized from its own samples.
    A non-native cell carries the workload's operation time (seconds
    metrics) or operations per second (rate metrics) — see README
    "non-native cells": the driver wants every workload to print every
    metric, and these are the workload's own speed in that unit.  The
    ``value`` of a cell is the best of its samples (``stats.best``),
    except where the metric asks for the median on its native workload.
    """
    metrics: dict[str, dict[str, Any]] = {}
    for m in spec.END_TO_END:
        native = workload in m.native
        if m.name == "peak_rss_mb":
            samples = [rss_mb]
        elif native:
            samples = out.samples.get(m.name, [])
            if not out.check(bool(samples),
                             f"native metric {m.name} was not measured"):
                continue
        elif m.unit == "s":
            samples = out.op_s
        else:
            samples = [1.0 / s for s in out.op_s]
        value = (statistics.median(samples)
                 if native and m.estimate == "median"
                 else stats.best(samples, m.better))
        metrics[m.name] = {**_cell(m, samples, value),
                           "bound": m.bound, "native": native}
    return metrics


def _per_layer(family: str, out: Outcome) -> dict[str, dict[str, Any]]:
    """Every per-layer metric; layers this workload leaves idle read 0."""
    metrics: dict[str, dict[str, Any]] = {}
    for m in spec.PER_LAYER:
        samples = out.samples.get(m.name)
        if samples:
            metrics[m.name] = _cell(m, samples, statistics.median(samples))
        else:
            metrics[m.name] = {"unit": m.unit, "better": m.better,
                               "value": 0.0, "n": 0,
                               "idle": m.family not in (family, "all")}
    return metrics


def _import_family(family: str) -> tuple[Any, float]:
    """The workload module, and the wall seconds importing it (and through
    it ``repro``) took in this interpreter — part of ``setup_s``."""
    require_repro()
    t0 = time.perf_counter()
    module = importlib.import_module(f"ledger.{family}")
    return module, time.perf_counter() - t0


def setup_only(workload: str, seed: int) -> int:
    """``--setup-only``: one ``setup_s`` sample of a fresh interpreter."""
    module, import_s = _import_family(spec.workload(workload).family)
    print(repr(import_s + module.setup_sample(workload, seed)))
    return 0


def run_pass(workload: str, seed: int, seconds: float, trace: bool,
             detail_dir: Path | None) -> int:
    """One pass; prints the driver's result object as the last line."""
    wl = spec.workload(workload)
    host = stats.fingerprint()
    module, import_s = _import_family(wl.family)
    with scratch() as tmp:
        ctx = Context(workload=workload, seed=seed, seconds=seconds,
                      import_s=import_s, tmp=tmp,
                      pinned_digest=_pinned_digest(workload, seed))
        out: Outcome = module.traced(ctx) if trace else module.timed(ctx)
        if out.spans is not None and detail_dir is not None:
            out.spans.write_jsonl(detail_dir / "spans.jsonl")
    if trace:
        metrics = _per_layer(wl.family, out)
    else:
        metrics = _end_to_end(workload, out,
                              peak_rss_mb(children=wl.family != "des"))
    correct = out.failed == 0 and not out.problems and out.attempted > 0
    host["loadavg_1m_end"] = os.getloadavg()[0]
    detail = {
        "schema": PASS_SCHEMA, "workload": workload, "seed": seed,
        "seconds": seconds, "trace": int(trace), "correct": correct,
        "attempted": out.attempted, "failed": out.failed,
        "failed_share": out.failed / max(out.attempted, 1),
        "problems": out.problems, "host": host,
        "warning": stats.load_warning(host),
        "metrics": metrics, "info": out.info,
    }
    if detail_dir is not None:
        (detail_dir / "result.json").write_text(
            json.dumps(detail, indent=1) + "\n", "utf-8")
    for problem in out.problems:
        print(f"ledger: FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    # Exit 0 once a result is printed, as the driver's contract asks: the
    # object says whether the pass was correct.  (``run_all`` exits 1.)
    return 0


# -- every workload, both passes ------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int,
           workdir: Path) -> dict[str, Any]:
    """Run one pass in a child process group with a hard timeout."""
    detail = workdir / f"{workload}.{trace}"
    detail.mkdir()
    cmd = [sys.executable, "-m", "ledger", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--detail", str(detail)]
    timeout = 3.0 * (seconds + PASS_OVERHEAD_S)
    with (detail / "stdout").open("wb") as so, \
            (detail / "stderr").open("wb") as se:
        # Own session: a timeout must also reach the pass's own children
        # (live workers, the serve process).
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=so, stderr=se,
                                start_new_session=True)
        try:
            code: int | None = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    result = detail / "result.json"
    if result.is_file():
        record = json.loads(result.read_text("utf-8"))
    else:
        record = {"schema": PASS_SCHEMA, "workload": workload, "seed": seed,
                  "seconds": seconds, "trace": trace, "correct": False,
                  "attempted": 1, "failed": 1, "failed_share": 1.0,
                  "problems": [f"pass timed out after {timeout:.0f} s"
                               if code is None else
                               f"pass exited {code} without a result"],
                  "metrics": {}, "info": {}}
    record["exit_code"] = code
    record["stderr_lines"] = (detail / "stderr").read_bytes().count(b"\n")
    spans = detail / "spans.jsonl"
    record["spans"] = ([json.loads(line) for line
                        in spans.read_text("utf-8").splitlines()]
                       if spans.is_file() else [])
    return record


def _print_pass(record: dict[str, Any]) -> None:
    """Every metric of one pass by name: value, unit, direction, n, median
    and quartiles (a timed cell's value is its best sample, or its median
    where the metric says so; a traced cell's is its median)."""
    kind = "traced" if record["trace"] else "timed"
    print(f"\n== {record['workload']} ({kind}) — "
          f"{'ok' if record['correct'] else 'FAILED'}, "
          f"{record['failed']}/{record['attempted']} operations failed")
    for problem in record["problems"]:
        print(f"   FAILED CHECK: {problem}")
    for name, m in record["metrics"].items():
        if m.get("idle"):
            continue
        tag = "" if m.get("native", True) else "  (non-native cell)"
        extra = "".join(f"  {k}={m[k]:.6g}" for k in m
                        if k[0] == "p" and k[1:].isdigit())
        if m["n"] > 1:
            print(f"   {name:<42} {m['value']:>14.6g} {m['unit']:<6} "
                  f"{m['better']:<6} n={m['n']:<3} median={m['median']:.6g} "
                  f"q1={m['q1']:.6g} q3={m['q3']:.6g}{extra}{tag}")
        else:
            print(f"   {name:<42} {m['value']:>14.6g} {m['unit']:<6} "
                  f"{m['better']:<6} n={m['n']}{tag}")


def ledger_document(seed: int, seconds: float, host: dict[str, Any],
                    warning: str | None, workloads: dict[str, Any]
                    ) -> dict[str, Any]:
    """The ``--out`` document (README "Output shape")."""
    passes = [e[k] for e in workloads.values() for k in ("timed", "traced")]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "schema": LEDGER_SCHEMA, "seed": seed, "seconds": seconds,
        "host": {**host, "loadavg_1m_end": os.getloadavg()[0]},
        "warning": warning, "correct": all(p["correct"] for p in passes),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / max(attempted, 1),
        "workloads": workloads,
    }


def run_all(seed: int, seconds: float, out_path: Path) -> int:
    """Every workload, timed pass then traced pass, sequentially."""
    require_repro()
    host = stats.fingerprint()
    warning = stats.load_warning(host)
    if warning:
        print(f"ledger: WARNING: {warning}", file=sys.stderr)
    workloads: dict[str, Any] = {}
    spans: list[dict[str, Any]] = []
    with scratch() as workdir:
        for wl in spec.WORKLOADS:
            entry: dict[str, Any] = {"why": wl.why}
            for trace, key in ((0, "timed"), (1, "traced")):
                record = _child(wl.name, seed, seconds, trace, workdir)
                for span in record.pop("spans"):
                    spans.append({"workload": wl.name, **span})
                _print_pass(record)
                entry[key] = record
            workloads[wl.name] = entry
    ledger = ledger_document(seed, seconds, host, warning, workloads)
    out_path.write_text(json.dumps(ledger, indent=1) + "\n",
                        "utf-8")
    spans_path = out_path.with_suffix(".spans.jsonl")
    with spans_path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    print(f"\nfailed_share {ledger['failed_share']:.6g} ratio lower "
          f"({ledger['failed']}/{ledger['attempted']} operations)")
    print(f"wrote {out_path} and {spans_path}")
    return 0 if ledger["correct"] else 1

