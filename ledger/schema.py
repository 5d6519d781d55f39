"""The shape of what the ledger emits (README "Output shape"), checkable.

``check_pass`` takes one pass record (``result.json`` of ``--detail``, or
``workloads[name]["timed"|"traced"]`` of an ``--out`` file);
``check_ledger`` takes a whole ``--out`` document.  Both return a list of
problems, empty when the document has the documented shape.
"""

from __future__ import annotations

from numbers import Real
from typing import Any

from . import spec

_PASS_KEYS = {"schema": str, "workload": str, "seed": int, "seconds": Real,
              "trace": int, "correct": bool, "attempted": int,
              "failed": int, "failed_share": Real, "problems": list,
              "host": dict, "metrics": dict, "info": dict}
_HOST_KEYS = ("nproc", "python", "platform", "loadavg_1m", "loadavg_1m_end")
_SUMMARY_KEYS = ("n", "median", "q1", "q3")


def _typed(where: str, doc: dict[str, Any], keys: dict[str, type]
           ) -> list[str]:
    problems = []
    for key, kind in keys.items():
        if key not in doc:
            problems.append(f"{where}: missing {key!r}")
        elif not isinstance(doc[key], kind) or (
                kind is not bool and isinstance(doc[key], bool)):
            problems.append(f"{where}: {key!r} is not {kind.__name__}")
    return problems


def check_pass(record: dict[str, Any]) -> list[str]:
    where = f"{record.get('workload')}.{record.get('trace')}"
    problems = _typed(where, record, _PASS_KEYS)
    if problems:
        return problems
    if record["schema"] != "ledger.pass/1":
        problems.append(f"{where}: schema {record['schema']!r}")
    if record["workload"] not in spec.WORKLOAD_NAMES:
        problems.append(f"{where}: unknown workload")
    for key in _HOST_KEYS:
        if key not in record["host"]:
            problems.append(f"{where}: host lacks {key!r}")
    if "warning" not in record:
        problems.append(f"{where}: missing 'warning' (null when quiet)")
    table = spec.PER_LAYER if record["trace"] else spec.END_TO_END
    if set(record["metrics"]) != {m.name for m in table}:
        problems.append(f"{where}: metrics are not exactly the "
                        f"{'per-layer' if record['trace'] else 'end-to-end'}"
                        f" names")
        return problems
    for m in table:
        cell = record["metrics"][m.name]
        label = f"{where}: {m.name}"
        if cell.get("unit") != m.unit or cell.get("better") != m.better:
            problems.append(f"{label}: unit/better differ from the spec")
        if not isinstance(cell.get("value"), Real):
            problems.append(f"{label}: no numeric value")
        if cell.get("n", 0) > 0:
            for key in _SUMMARY_KEYS:
                if not isinstance(cell.get(key), Real):
                    problems.append(f"{label}: no {key}")
        if not record["trace"]:
            if cell.get("bound") != m.bound or \
                    cell.get("native") != (record["workload"] in m.native):
                problems.append(f"{label}: bound/native differ from the "
                                f"spec")
            if not cell.get("value"):
                problems.append(f"{label}: end-to-end value is 0")
    return problems


def check_ledger(doc: dict[str, Any]) -> list[str]:
    problems = _typed("ledger", doc, {
        "schema": str, "seed": int, "seconds": Real, "host": dict,
        "attempted": int, "failed": int, "failed_share": Real,
        "workloads": dict})
    if problems:
        return problems
    if doc["schema"] != "ledger/1":
        problems.append(f"ledger: schema {doc['schema']!r}")
    if set(doc["workloads"]) != set(spec.WORKLOAD_NAMES):
        problems.append("ledger: workloads are not the named ones")
        return problems
    for name, entry in doc["workloads"].items():
        if not isinstance(entry.get("why"), str):
            problems.append(f"{name}: no 'why'")
        for key, trace in (("timed", 0), ("traced", 1)):
            record = entry.get(key)
            if not isinstance(record, dict):
                problems.append(f"{name}: no {key} pass")
                continue
            if record.get("trace") != trace or \
                    record.get("workload") != name:
                problems.append(f"{name}: {key} pass is mislabelled")
            if record.get("metrics"):       # a pass that died has none
                problems += check_pass(record)
            for key2 in ("exit_code", "stderr_lines"):
                if key2 not in record:
                    problems.append(f"{name}.{key}: missing {key2!r}")
    return problems
