"""``python -m ledger`` — see the package docstring for the three modes."""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from . import spec


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m ledger",
        description="The performance ledger. Without --workload: run every "
                    "workload (timed pass, then traced pass) and write "
                    "--out. With --workload: one pass, result object on the "
                    "last stdout line. 'compare A.json B.json': verdict on "
                    "two --out files.")
    p.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0,
                   help="generates every input (config, fault-plan, live "
                        "and sweep seeds)")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                   help="how long one pass measures for")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics, tracing off; 1: per-layer "
                        "metrics from the traced pass")
    p.add_argument("--setup-only", action="store_true",
                   help="with a des_* --workload: print one sample of "
                        "setup_s from this fresh interpreter and exit "
                        "(the timed pass calls this at its end)")
    p.add_argument("--detail", type=Path, default=None,
                   help="directory for the pass's result.json and "
                        "spans.jsonl (used by the all-workloads mode)")
    p.add_argument("--out", type=Path, default=None,
                   help="all-workloads mode: where to write the ledger JSON "
                        "(spans go next to it as <stem>.spans.jsonl)")
    return p


def _exit_on_sigterm(signum: int, _frame: object) -> None:
    # As an exception, so that ``finally`` blocks stop the serve process
    # and the pass children and remove the scratch directory.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if argv and argv[0] == "compare":
        from .compare import main as compare_main
        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    from . import runner
    if args.setup_only:
        if args.workload is None:
            _parser().error("--setup-only needs --workload")
        return runner.setup_only(args.workload, args.seed)
    if args.workload is not None:
        return runner.run_pass(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.detail)
    if args.out is None:
        _parser().error("--out is required when no --workload is given")
    return runner.run_all(args.seed, args.seconds, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
