"""``python -m ledger compare A.json B.json`` — is B worse than A?

One row per (end-to-end metric, workload) pair the metric is native to,
plus ``failed_share`` per workload and the DES digests.  The number
compared is the cell's ``value`` (the best of the pass's samples, as
the driver sees it); every ratio is B/A, base A.  Verdicts:

``ok``          B's value is not worse than A's by more than the bound;
``unresolved``  it is, but the spread (IQR/median of either side) is wider
                than the bound and the quartile ranges overlap — the runs
                cannot tell; measure again, longer;
``worse``       it is, and the runs can tell.

Exit 1 on any ``worse``, on a higher ``failed_share``, or on a DES digest
that differs (a change that claims speed must leave every simulated
statistic identical).  Per-layer metrics follow without verdicts — they
have no bound; they say *where* a moved end-to-end number moved.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from . import spec


def verdict(metric: spec.Metric, a: dict[str, Any], b: dict[str, Any]
            ) -> tuple[str, float]:
    """``(verdict, relative worsening)`` for one row; positive = worse."""
    val_a, val_b = a["value"], b["value"]
    worse_by = ((val_b - val_a) if metric.better == "lower"
                else (val_a - val_b)) / val_a
    allowed = metric.bound
    if metric.name == "setup_s":
        allowed = max(allowed, spec.SETUP_ABS_BOUND_S / val_a)
    if worse_by <= allowed:
        return "ok", worse_by
    wide = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b)) \
        > metric.bound
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    return ("unresolved" if wide and overlap else "worse"), worse_by


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether B failed against A."""
    lines = [f"{'metric':<14} {'workload':<26} {'A':>12} {'B':>12} "
             f"{'B/A':>7} {'bound':>6}  verdict"]
    failed = False
    for wl in spec.WORKLOADS:
        pa = a["workloads"][wl.name]["timed"]
        pb = b["workloads"][wl.name]["timed"]
        for metric in spec.END_TO_END:
            if wl.name not in metric.native:
                continue
            ma, mb = pa["metrics"].get(metric.name), \
                pb["metrics"].get(metric.name)
            if ma is None or mb is None:
                lines.append(f"{metric.name:<14} {wl.name:<26} "
                             f"{'missing in ' + ('A' if ma is None else 'B')}"
                             f"  worse")
                failed = True
                continue
            word, _ = verdict(metric, ma, mb)
            failed |= word == "worse"
            lines.append(
                f"{metric.name:<14} {wl.name:<26} {ma['value']:>12.5g} "
                f"{mb['value']:>12.5g} {mb['value'] / ma['value']:>7.3f} "
                f"{metric.bound:>6.0%}  {word}")
        fa, fb = pa["failed_share"], pb["failed_share"]
        word = "worse" if fb > fa else "ok"
        failed |= fb > fa
        lines.append(f"{'failed_share':<14} {wl.name:<26} {fa:>12.5g} "
                     f"{fb:>12.5g} {'':>7} {'0':>6}  {word}")
        da, db = pa["info"].get("digest"), pb["info"].get("digest")
        if da is not None or db is not None:
            same = da == db
            failed |= not same
            lines.append(f"{'digest':<14} {wl.name:<26} {str(da)[:12]:>12} "
                         f"{str(db)[:12]:>12} {'':>7} {'':>6}  "
                         f"{'same' if same else 'DIFFERS'}")
    lines.append("")
    lines.append(f"{'per-layer metric':<42} {'workload':<26} {'A':>12} "
                 f"{'B':>12} {'B/A':>7}")
    for wl in spec.WORKLOADS:
        ta = a["workloads"][wl.name]["traced"]["metrics"]
        tb = b["workloads"][wl.name]["traced"]["metrics"]
        for metric in spec.PER_LAYER:
            ma, mb = ta.get(metric.name), tb.get(metric.name)
            if not ma or not mb or (ma.get("idle") and mb.get("idle")):
                continue
            ratio = (f"{mb['value'] / ma['value']:>7.3f}" if ma["value"]
                     else f"{'':>7}")
            lines.append(f"{metric.name:<42} {wl.name:<26} "
                         f"{ma['value']:>12.5g} {mb['value']:>12.5g} "
                         f"{ratio}")
    return lines, failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="ledger JSON of the parent")
    parser.add_argument("b", type=Path, help="ledger JSON of the change")
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text("utf-8"))
    b = json.loads(args.b.read_text("utf-8"))
    lines, failed = compare(a, b)
    print("\n".join(lines))
    print("\nRESULT:", "B is WORSE than A" if failed
          else "no row is worse (see any 'unresolved')")
    return 1 if failed else 0
