"""Command-line interface.

Subcommands mirroring the library's main entry points::

    repro run      --protocol optimistic --n 12 --horizon 300
    repro compare  --protocols optimistic,chandy-lamport --n 12 --jobs 4
    repro sweep    --param n --values 4,8,16 --metric peak_pending_writers
    repro figures  [1|2|5|all]
    repro recover  --fail-time 250 --jobs 4
    repro verify   [--lint] [--model-check] [--format json]
    repro live     run|crash-test --n 4 --transport tcp

Every subcommand prints the same ASCII tables the benchmarks produce, so
the CLI is a thin, scriptable veneer over :mod:`repro.harness`; ``verify``
fronts the :mod:`repro.verify` static-analysis engines and exits non-zero
on any finding (see docs/STATIC_ANALYSIS.md).

``live`` runs the protocol for real — wall-clock asyncio, file-backed
stable storage, optional TCP worker processes and SIGKILL crash
injection (:mod:`repro.live`) — and exits non-zero unless the journal
replay proves the run consistent (zero orphans, ≥1 finalized round).

``sweep``/``compare``/``recover`` take ``--jobs N`` (fan runs out over a
worker pool) and cache finished runs under ``.repro-cache/`` keyed by a
config hash — ``--no-cache`` disables the cache, ``--cache-dir`` moves it.
Performance numbers come from ``python -m ledger`` (see ledger/README.md),
not from this CLI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

# The simulator (.harness, .metrics) is imported by the commands that
# simulate, not here: `repro live`, `submit`, `watch`, `trace` and every
# --help start without it.
if TYPE_CHECKING:
    from .harness import ExperimentConfig, ResultCache


def _protocol_name(raw: str) -> str:
    """``type=`` of ``--protocol``: a name in the harness's registry.

    A ``choices=`` list is read while the parser is built, which would
    import the simulator for every command; a ``type`` runs only when
    ``repro run`` parses its own arguments.
    """
    from .harness import PROTOCOLS
    if raw not in PROTOCOLS:
        raise argparse.ArgumentTypeError(
            f"unknown protocol {raw!r}; choices: {sorted(PROTOCOLS)}")
    return raw


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", "--procs", dest="n", type=int, default=8,
                   help="number of processes (alias: --procs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", "--duration", dest="horizon", type=float,
                   default=300.0,
                   help="simulated seconds of application work "
                        "(alias: --duration)")
    p.add_argument("--interval", type=float, default=60.0,
                   help="checkpoint interval (s)")
    p.add_argument("--timeout", type=float, default=20.0,
                   help="convergence timer (s)")
    p.add_argument("--state-mb", type=float, default=16.0,
                   help="process state size (MB)")
    p.add_argument("--rate", type=float, default=1.0,
                   help="app messages per process per second")
    p.add_argument("--workload", default="uniform",
                   help="workload name (uniform/ring/client_server/"
                        "bursty/pipeline/half_silent)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip consistency verification")


def _add_executor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for independent runs (1=serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="do not read/write the on-disk result cache")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: .repro-cache)")


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", action="store_true",
                   help="emit schema-versioned trace events "
                        "(see docs/OBSERVABILITY.md)")
    p.add_argument("--trace-file", default=None,
                   help="trace JSONL output path (implies --trace; "
                        "default: trace.jsonl)")


def _tracer_from(args: argparse.Namespace, *, host: str) -> "Any | None":
    """Build the run's Tracer from ``--trace``/``--trace-file`` (or None).

    None — not a disabled tracer — is the fully-off path: nothing is
    constructed and nothing subscribes to the run.
    """
    if not (args.trace or args.trace_file):
        return None
    from .obs import DashboardSink, JsonlSink, Tracer
    sinks: list[Any] = [JsonlSink(args.trace_file or "trace.jsonl")]
    if getattr(args, "trace_dashboard", False):
        sinks.append(DashboardSink(sys.stderr))
    return Tracer(sinks, host=host)


def _cache_from(args: argparse.Namespace) -> ResultCache | None:
    if getattr(args, "no_cache", False):
        return None
    from .harness import executor
    return executor.ResultCache(
        args.cache_dir or executor.DEFAULT_CACHE_DIR)


def _parse_value(raw: str) -> int | float | str:
    """Sweep value literal: int, else float, else bare string.

    String fallback covers string-valued params (``--param flush
    --values immediate,opportunistic``); going through ``int`` first
    keeps ``-3`` an int, not a float.
    """
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            continue
    return raw


def _parse_protocols(raw: str | None) -> tuple[str, ...] | None:
    """Split and validate a ``--protocols`` list (default: the harness's
    ``DEFAULT_PROTOCOLS``); None (+stderr) if bad."""
    from .harness import DEFAULT_PROTOCOLS, PROTOCOLS
    if raw is None:
        return DEFAULT_PROTOCOLS
    protocols = tuple(p for p in raw.split(",") if p)
    unknown = [p for p in protocols if p not in PROTOCOLS]
    if unknown:
        print(f"unknown protocols: {unknown}; "
              f"choices: {sorted(PROTOCOLS)}", file=sys.stderr)
        return None
    return protocols


def _config_from(args: argparse.Namespace,
                 protocol: str = "optimistic") -> ExperimentConfig:
    from . import harness
    workload_kwargs = {}
    if args.workload in ("uniform", "client_server"):
        workload_kwargs["rate"] = args.rate
    return harness.ExperimentConfig(
        protocol=protocol, n=args.n, seed=args.seed, horizon=args.horizon,
        checkpoint_interval=args.interval, timeout=args.timeout,
        state_bytes=int(args.state_mb * 1_000_000),
        workload=args.workload, workload_kwargs=workload_kwargs,
        verify=not args.no_verify)


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one experiment, metrics or full report.

    Exits 1 whenever verification found an orphaned global checkpoint —
    the ``--report`` and ``--format json`` branches included, so
    scripted runs can't mistake an inconsistent run for success.
    """
    from .harness import run_experiment
    from .metrics import kv_block
    cfg = _config_from(args, protocol=args.protocol)
    tracer = _tracer_from(args, host="des")
    try:
        # Only pass the kwarg when tracing: run_experiment stand-ins in
        # tests (and any third-party runner) need not know about it.
        res = (run_experiment(cfg, tracer=tracer) if tracer is not None
               else run_experiment(cfg))
    finally:
        if tracer is not None:
            tracer.close()
    bad = {k: v for k, v in res.orphans.items() if v}
    if args.format == "json":
        print(json.dumps(res.as_dict(), indent=2, sort_keys=True))
    elif args.report:
        from .metrics import render_run_report
        print(render_run_report(res))
    else:
        d = res.metrics.as_dict()
        print(kv_block(f"run: {args.protocol}", d))
        if res.orphans:
            print(f"\nconsistency: {len(res.orphans)} global checkpoints "
                  f"verified, " + ("all consistent" if not bad
                                   else f"ORPHANS {bad}"))
    return 1 if bad else 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: protocol matrix over one workload."""
    from .harness import compare, comparison_table
    protocols = _parse_protocols(args.protocols)
    if protocols is None:
        return 2
    cfg = _config_from(args)
    results = compare(cfg, protocols=protocols, jobs=args.jobs,
                      cache=_cache_from(args))
    print(comparison_table(
        results,
        columns=("peak_pending_writers", "mean_wait", "max_wait",
                 "ctl_messages", "piggyback_bytes", "checkpoints",
                 "rounds_completed", "blocked_time"),
        title=f"protocol comparison (n={cfg.n}, seed={cfg.seed})").render())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: one config parameter across values.

    With ``--trace``, per-run ``point`` events plus a final deterministic
    :class:`~repro.obs.MetricsRegistry` snapshot are emitted *after* the
    batch, in input order — so the trace file is byte-identical whatever
    ``--jobs`` interleaving produced the results.
    """
    from .harness import sweep
    protocols = _parse_protocols(args.protocols)
    if protocols is None:
        return 2
    values = [_parse_value(raw) for raw in args.values.split(",")]
    cfg = _config_from(args)
    result = sweep(cfg, args.param, values, protocols=protocols,
                   jobs=args.jobs, cache=_cache_from(args))
    tracer = _tracer_from(args, host="harness")
    if tracer is not None:
        try:
            _trace_sweep(tracer, result, args.param, args.metric)
        finally:
            tracer.close()
    print(result.table(args.metric,
                       title=f"{args.metric} vs {args.param}").render())
    return 0


def _trace_sweep(tracer: "Any", result: "Any", param: str,
                 metric: str) -> None:
    """Emit one harness-level event stream for a finished sweep."""
    from .obs import MetricsRegistry
    registry = MetricsRegistry()
    for pt in result.points:
        for name in sorted(pt.results):
            out = pt.results[name]
            row = out.metrics.as_dict()
            value = row.get(metric)
            # t is the run's own makespan (simulated seconds) — the only
            # deterministic clock a harness-level event can carry.
            t = float(row.get("makespan", 0.0))
            tracer.point("sweep.run", t, protocol=name,
                         **{param: pt.value, metric: value})
            registry.counter("sweep.runs").inc()
            if out.consistent:
                registry.counter("sweep.consistent").inc()
            if isinstance(value, (int, float)):
                registry.histogram(f"sweep.{metric}").observe(float(value))
    tracer.metrics_snapshot(registry.snapshot(), 0.0)


def cmd_figures(args: argparse.Namespace) -> int:
    """``repro figures``: replay the paper's figures."""
    from .harness import fig1_scenario, fig2_scenario, fig5_scenario
    from .metrics import Table
    which = args.figure
    if which in ("1", "all"):
        r = fig1_scenario()
        print("Figure 1: S_1 orphans:", r.extra["orphans_s1"] or "none")
        print("Figure 1: S_2 orphans:",
              [str(o) for o in r.extra["orphans_s2"]])
    if which in ("2", "all"):
        r = fig2_scenario()
        t = Table("process", "CT", "finalized", "reason",
                  title="Figure 2 — basic algorithm")
        for pid in range(4):
            fc = r.runtime.hosts[pid].finalized[1]
            t.add_row(f"P{pid}", fc.tentative.taken_at, fc.finalized_at,
                      fc.reason)
        print(t.render())
    if which in ("5", "all"):
        r = fig5_scenario()
        t = Table("t", "message", "from", "to",
                  title="Figure 5 — control messages")
        for rec in r.sim.trace.filter("ctl.send"):
            t.add_row(rec.time, rec.data["ctype"], f"P{rec.process}",
                      f"P{rec.data['dst']}")
        print(t.render())
    return 0


#: Protocol order of the ``repro recover`` table.
RECOVER_PROTOCOLS = ("optimistic", "chandy-lamport", "koo-toueg",
                     "staggered", "plank-staggered", "cic-bcs",
                     "quasi-sync-ms", "uncoordinated")


def _recover_row(item: tuple[ExperimentConfig, float]) -> dict[str, Any]:
    """Worker body: run one protocol, reduce to its recovery-table row.

    Top-level (spawn-picklable) so ``repro recover --jobs N`` can fan the
    per-protocol runs out; the live runtime the recovery analysis needs
    never leaves the worker — only the JSON-safe row does.
    """
    from .harness import run_experiment
    from .recovery import (
        recover_coordinated,
        recover_optimistic,
        recover_uncoordinated,
    )
    cfg, fail_time = item
    res = run_experiment(cfg)
    if cfg.protocol == "optimistic":
        out = recover_optimistic(res.runtime, fail_time)
    elif cfg.protocol == "uncoordinated":
        out = recover_uncoordinated(res.runtime, res.sim.trace, fail_time)
    else:
        out = recover_coordinated(res.runtime, fail_time, cfg.protocol)
    return {"protocol": cfg.protocol, "seq": out.seq,
            "total_lost_work": out.total_lost_work,
            "max_lost_work": out.max_lost_work}


def cmd_recover(args: argparse.Namespace) -> int:
    """``repro recover``: hypothetical-failure recovery table."""
    from .harness import config_key, map_jobs
    from .harness.executor import JobError
    from .metrics import Table
    cache = _cache_from(args)
    rows: dict[str, dict[str, Any]] = {}
    pending: list[tuple[str, ExperimentConfig, str]] = []
    for protocol in RECOVER_PROTOCOLS:
        cfg = _config_from(args, protocol=protocol).derive(verify=False)
        key = config_key(cfg, salt=f"recover:{args.fail_time}")
        hit = cache.load_json(key) if cache is not None else None
        if hit is not None and "row" in hit:
            rows[protocol] = hit["row"]
        else:
            pending.append((protocol, cfg, key))
    outcomes = map_jobs(_recover_row,
                        [(cfg, args.fail_time) for _, cfg, _ in pending],
                        jobs=args.jobs)
    failed = False
    for (protocol, cfg, key), outcome in zip(pending, outcomes):
        if isinstance(outcome, JobError):
            print(f"recover: {protocol} failed: {outcome.error}\n"
                  f"{outcome.traceback}", file=sys.stderr)
            failed = True
            continue
        rows[protocol] = outcome
        if cache is not None:
            cache.store_json(key, {"row": outcome})
    table = Table("protocol", "recovery point", "total lost work (s)",
                  "max lost work (s)",
                  title=f"recovery after failure at t={args.fail_time}")
    for protocol in RECOVER_PROTOCOLS:
        if protocol in rows:
            row = rows[protocol]
            table.add_row(protocol, row["seq"], row["total_lost_work"],
                          row["max_lost_work"])
    print(table.render())
    return 1 if failed else 0


def cmd_verify(args: argparse.Namespace) -> int:
    """``repro verify``: determinism/layering lint + bounded model check.

    With no engine flag both engines run (same as ``--all``); the default
    model-check bounds are the full 3-process / 1-interval acceptance
    configuration, which takes a couple of minutes — CI-scale invocations
    pass ``--n 2`` for a sub-second exhaustive check.
    """
    # Imported here: the verify engines pull in ``ast`` walking machinery
    # that the simulation subcommands never need.
    from .core.state_machine import MachineConfig
    from .verify import ExploreConfig, explore, lint_paths

    run_both = args.all or not (args.lint or args.model_check)
    lint_runs = args.lint or run_both
    if args.paths and not lint_runs:
        # Positional paths scope the lint; with --model-check alone there
        # is nothing for them to scope — that is a usage error (exit 2).
        print("repro verify: path arguments require the lint to run "
              "(drop --model-check or add --lint)", file=sys.stderr)
        return 2
    payload: dict = {}
    ok = True

    if lint_runs:
        lint_target = args.paths if args.paths else args.path
        report = lint_paths(lint_target)
        payload["lint"] = report.as_dict()
        ok = ok and report.clean
        if report.files_checked == 0:
            # A typo'd path would otherwise "pass" by checking nothing.
            print(f"repro verify: no Python files under {lint_target!r}",
                  file=sys.stderr)
            ok = False
        if args.format == "text":
            print(report.render())

    if args.model_check or run_both:
        cfg = ExploreConfig(
            n=args.n, max_csn=args.rounds, sends_per_process=args.sends,
            timer_fires_per_csn=args.timer_fires, fifo=args.fifo,
            machine=MachineConfig(),
            drop_ck_req_forwarding=args.drop_ck_req,
            max_states=args.max_states)
        result = explore(cfg)
        payload["model_check"] = result.as_dict()
        ok = ok and result.ok
        if args.format == "text":
            print(result.render())

    if args.format == "json":
        print(json.dumps(payload, indent=2))
    return 0 if ok else 1


def cmd_trace_report(args: argparse.Namespace) -> int:
    """``repro trace report``: per-phase latency breakdown of a trace.

    ``target`` is a trace JSONL file (``repro run --trace``) or a live
    run directory (every ``trace*.jsonl`` under it).  Exits 1 on schema
    violations or a missing trace.
    """
    from .obs import SchemaError, report_from
    try:
        report = report_from(args.target)
    except (FileNotFoundError, SchemaError) as exc:
        print(f"repro trace report: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def cmd_trace_validate(args: argparse.Namespace) -> int:
    """``repro trace validate``: schema-check every event under a target.

    Unlike ``report`` this never stops early: all violations are listed
    (the CI trace-smoke job runs this over both hosts' traces).
    """
    from .obs import SCHEMA_VERSION, validate_file
    problems = validate_file(args.target)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"repro trace validate: {len(problems)} violation(s) "
              f"in {args.target}", file=sys.stderr)
        return 1
    print(f"OK — every event under {args.target} conforms to trace "
          f"schema v{SCHEMA_VERSION}")
    return 0


def _live_config_from(args: argparse.Namespace,
                      crash_at: float | None) -> "Any":
    """Map ``repro live`` flags onto a :class:`repro.live.LiveRunConfig`."""
    from .live import LiveRunConfig
    chaos = None
    if getattr(args, "chaos_plan", None):
        from .chaos import FaultPlan
        with open(args.chaos_plan, encoding="utf-8") as fh:
            chaos = FaultPlan.from_dict(json.load(fh))
    return LiveRunConfig(
        n=args.n, transport=args.transport, duration=args.duration,
        checkpoint_interval=args.interval, timeout=args.timeout,
        workload=args.workload, rate=args.rate, msg_size=args.msg_size,
        seed=args.seed, crash_at=crash_at, crash_pid=args.crash_pid,
        run_dir=args.run_dir, trace=args.trace,
        connect_timeout=args.connect_timeout,
        connect_attempts=args.connect_attempts,
        connect_wait=args.connect_wait,
        resilience=not args.no_resilience,
        max_retries=args.max_retries, retry_base=args.retry_base,
        retry_max=args.retry_max, chaos=chaos)


def cmd_live_run(args: argparse.Namespace) -> int:
    """``repro live run``: one real execution, conformance-checked.

    Exit 0 only when the journal replay proves the run consistent (zero
    orphans on every complete S_k), at least one global checkpoint round
    finalized, and — if a crash was injected — recovery completed.
    """
    from .live import run_live
    report = run_live(_live_config_from(args, args.crash_at))
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_live_crash_test(args: argparse.Namespace) -> int:
    """``repro live crash-test``: live run with a guaranteed crash.

    Same as ``repro live run`` but a SIGKILL (TCP) / task kill (local)
    is always injected — at ``--crash-at`` or halfway by default.
    """
    from .live import run_live
    crash_at = (args.crash_at if args.crash_at is not None
                else args.duration / 2)
    report = run_live(_live_config_from(args, crash_at))
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _add_live_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", "--n", "--procs", dest="n", type=int, default=4,
                   help="number of workers (alias: --procs)")
    p.add_argument("--transport", choices=("local", "tcp"), default="local",
                   help="local = asyncio tasks in this process; "
                        "tcp = one OS process per worker over localhost")
    p.add_argument("--duration", type=float, default=5.0,
                   help="wall seconds of application work")
    p.add_argument("--interval", type=float, default=1.0,
                   help="checkpoint initiation interval (wall s)")
    p.add_argument("--timeout", type=float, default=0.5,
                   help="convergence timer (wall s)")
    p.add_argument("--workload", default="uniform",
                   choices=("uniform", "ring"))
    p.add_argument("--rate", type=float, default=20.0,
                   help="app messages per worker per second")
    p.add_argument("--msg-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crash-pid", type=int, default=None,
                   help="crash victim (default: highest pid)")
    p.add_argument("--run-dir", default=None,
                   help="run artifact directory "
                        "(default: .repro-live/run-<stamp>)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--trace", action="store_true",
                   help="emit schema-versioned trace events into the run "
                        "directory (trace-P<pid>-<inc>.jsonl per worker + "
                        "trace-supervisor.jsonl)")
    p.add_argument("--connect-timeout", type=float, default=10.0,
                   help="per-attempt worker→broker connection timeout (s)")
    p.add_argument("--connect-attempts", type=int, default=5,
                   help="worker→broker connection attempts (backoff "
                        "between retries)")
    p.add_argument("--connect-wait", type=float, default=30.0,
                   help="supervisor wait for all workers to connect (s)")
    p.add_argument("--no-resilience", action="store_true",
                   help="disable the retry/ack/dedup transport layer "
                        "(repro.live.resilience)")
    p.add_argument("--max-retries", type=int, default=6,
                   help="retransmissions per unacked frame")
    p.add_argument("--retry-base", type=float, default=0.05,
                   help="first retransmission timeout, and the floor of "
                        "the RTT-derived one (s)")
    p.add_argument("--retry-max", type=float, default=1.0,
                   help="retransmission timeout ceiling (s)")
    p.add_argument("--chaos-plan", default=None,
                   help="JSON fault plan (repro.chaos) to inject into "
                        "the run")


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: the fault × runtime conformance matrix.

    Exit 0 only when every cell is consistent (Theorem 2 held under the
    injected faults) *and* recovered (faults were injected and healed,
    rounds kept finalizing).  ``--no-retries`` is the discrimination
    mode: the live drop cell must then fail.
    """
    if args.plan is not None:
        return _chaos_replay_plan(args)
    from .chaos import DEFAULT_KINDS, run_matrix
    kinds = (tuple(k for k in args.kinds.split(",") if k)
             if args.kinds else DEFAULT_KINDS)
    runtimes = tuple(r for r in args.runtimes.split(",") if r)
    unknown_rt = [r for r in runtimes if r not in ("des", "live")]
    if unknown_rt:
        print(f"unknown runtimes: {unknown_rt}; choices: ['des', 'live']",
              file=sys.stderr)
        return 2
    tracer = _tracer_from(args, host="harness")
    try:
        report = run_matrix(
            kinds, runtimes, seed=args.seed, transport=args.transport,
            duration=args.duration, retries=not args.no_retries,
            jobs=args.jobs, run_root=args.run_root, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _chaos_replay_plan(args: argparse.Namespace) -> int:
    """``repro chaos --plan FILE``: judge one saved plan or fuzz input.

    A fuzz-input JSON with ``plan``/``schedule`` keys — e.g. a shrunk
    counterexample's ``input.json`` — runs at its own config; a bare
    :class:`FaultPlan` JSON runs at the matrix cell's config at
    ``--seed``.  Both go through the one DES judge,
    :func:`repro.chaos.des.run_plan`, with ``--mutate`` re-applying a
    protocol mutation.  Exit 0 when the replay is healthy, 1 when it
    violates.
    """
    from .chaos import FaultPlan
    from .chaos.des import cell_config, run_plan
    try:
        payload = json.loads(Path(args.plan).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read plan file {args.plan!r}: {exc}",
              file=sys.stderr)
        return 2
    if "schedule" in payload:
        from .fuzz import FuzzInput
        from .fuzz.oracle import experiment_config
        inp = FuzzInput.from_dict(payload)
        inp.validate()
        plan, cfg = inp.plan, experiment_config(inp)
    else:
        plan, cfg = FaultPlan.from_dict(payload), cell_config(args.seed)
    tracer = _tracer_from(args, host="des")
    try:
        outcome = run_plan(plan, cfg, mutation=args.mutate, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()
    if args.format == "json":
        print(json.dumps(outcome, indent=2, sort_keys=True))
    else:
        verdict = ("VIOLATES: "
                   + "; ".join(f"{v['kind']} — {v['detail']}"
                               for v in outcome["violations"])
                   if outcome["violations"] else "ok")
        print(f"plan replay ({args.plan}): {verdict}")
        print(f"  rounds={outcome['rounds']}"
              f" events={outcome['events']}"
              f" injected={outcome['injected']}")
    return 1 if outcome["violations"] else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``repro fuzz``: a coverage-guided fault-plan fuzzing campaign.

    Exit codes: 0 — campaign completed with no violation; 1 — a
    violation was found (shrunk counterexample written under
    ``<dir>/crashes/``); 2 — usage error.
    """
    if args.budget is None and args.iterations is None:
        args.budget = 60.0
    if args.budget is not None and args.budget <= 0:
        print("--budget must be positive", file=sys.stderr)
        return 2
    if args.iterations is not None and args.iterations <= 0:
        print("--iterations must be positive", file=sys.stderr)
        return 2
    from .fuzz import run_campaign

    def on_stats(line: str) -> None:
        print(line, file=sys.stderr)

    report = run_campaign(
        budget_s=args.budget, max_execs=args.iterations, jobs=args.jobs,
        seed=args.seed, mutation=args.mutate, root=args.dir,
        shrink=not args.no_shrink, resume=args.resume, on_stats=on_stats)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"fuzz campaign: {report.executions} executions in"
              f" {report.elapsed_s:.1f}s, corpus={report.corpus_size},"
              f" coverage={report.coverage_edges} edges,"
              f" errors={report.errors}")
        if report.counterexample is not None:
            cx = report.counterexample
            kinds = ", ".join(v["kind"] for v in cx["violations"])
            print(f"VIOLATION ({kinds}): counterexample with"
                  f" {cx['events']} events after {cx['shrink_runs']}"
                  f" shrink runs")
            print(f"  bundle: {cx['crash_dir']}")
            print(f"  replay: repro chaos --plan"
                  f" {cx['crash_dir']}/input.json"
                  + (f" --mutate {report.mutation}"
                     if report.mutation else ""))
        else:
            print("no violations found")
    return 1 if report.found else 0


def _parse_server(raw: str) -> tuple[str, int] | None:
    """Split a ``host:port`` address; None (+stderr) if malformed."""
    host, _, port = raw.rpartition(":")
    if not host or not port.isdigit():
        print(f"bad --server address {raw!r} (expected host:port)",
              file=sys.stderr)
        return None
    return host, int(port)


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the long-lived multi-client job server.

    Runs until SIGTERM/SIGINT, then drains gracefully: running jobs are
    checkpoint-cancelled through their cooperative hooks, queued jobs
    stay persisted under the state directory for the next start, and
    the process exits 0.
    """
    from .serve import JobStore, Scheduler, serve_forever
    store = JobStore(args.state_dir)
    scheduler = Scheduler(store, jobs=args.jobs,
                          cache_dir=args.cache_dir)
    print(f"repro serve: listening on {args.host}:{args.port} "
          f"(jobs={args.jobs}, state={args.state_dir})", file=sys.stderr)
    return serve_forever(scheduler, host=args.host, port=args.port)


def _load_spec(raw: str | None) -> dict:
    """A ``--spec`` value: inline JSON object or ``@file`` indirection."""
    if not raw:
        return {}
    text = raw
    if raw.startswith("@"):
        with open(raw[1:], encoding="utf-8") as fh:
            text = fh.read()
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError(f"spec must be a JSON object, got "
                         f"{type(spec).__name__}")
    return spec


def _stream_job(client: "Any", job_id: str, *, quiet: bool,
                trace_file: str | None) -> int:
    """Tail one job's event stream to completion; returns its exit code.

    With ``trace_file``, the obs events embedded in ``trace`` wrappers
    are unwrapped into a JSONL file that ``repro trace validate``
    accepts unchanged.
    """
    from .serve import exit_code_for
    final: str | None = None
    inner: list[dict] = []
    for event in client.watch(job_id):
        if not quiet:
            print(json.dumps(event, sort_keys=True))
        if event.get("ev") == "trace":
            inner.append(event["event"])
        elif event.get("ev") == "job.state":
            state = event.get("state")
            if state in ("done", "failed", "cancelled"):
                final = state
    if trace_file:
        with open(trace_file, "w", encoding="utf-8") as fh:
            for obs_event in inner:
                fh.write(json.dumps(obs_event, sort_keys=True) + "\n")
    if final is None:
        print(f"repro: job {job_id} stream ended without a terminal "
              f"state", file=sys.stderr)
        return 1
    return exit_code_for(final)


def cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: enqueue one job on a running server.

    Prints the job id; with ``--wait`` it tails the event stream and the
    exit code mirrors the job outcome (0 done / 1 failed or cancelled);
    a spec the server's schema rejects is a usage error (exit 2).
    """
    from .serve import (
        SERVE_SCHEMA,
        ProtocolError,
        ServeClient,
        ServeClientError,
        validate_job,
    )
    addr = _parse_server(args.server)
    if addr is None:
        return 2
    try:
        spec = _load_spec(args.spec)
        payload = {"schema": SERVE_SCHEMA, "kind": args.kind,
                   "spec": spec, "priority": args.priority}
        validate_job(payload)          # fail fast, before any connection
    except (OSError, ValueError, ProtocolError) as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2
    client = ServeClient(*addr)
    try:
        record = client.submit(args.kind, spec, priority=args.priority)
    except ServeClientError as exc:
        print(f"repro submit: server rejected the job: {exc}",
              file=sys.stderr)
        return 2 if exc.status == 400 else 1
    except OSError as exc:
        print(f"repro submit: cannot reach {args.server}: {exc}",
              file=sys.stderr)
        return 2
    print(record["id"])
    if not args.wait:
        return 0
    return _stream_job(client, record["id"], quiet=args.quiet,
                       trace_file=args.trace_file)


def cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch``: tail one job's event stream to completion."""
    from .serve import ServeClient, ServeClientError
    addr = _parse_server(args.server)
    if addr is None:
        return 2
    client = ServeClient(*addr)
    try:
        return _stream_job(client, args.job, quiet=args.quiet,
                           trace_file=args.trace_file)
    except ServeClientError as exc:
        print(f"repro watch: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro watch: cannot reach {args.server}: {exc}",
              file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimistic checkpointing (Jiang & Manivannan 2007) — "
                    "simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one protocol, print its metrics")
    p.add_argument("--protocol", default="optimistic", type=_protocol_name,
                   metavar="NAME",
                   help="a registered protocol (an unknown name lists the "
                        "choices)")
    p.add_argument("--report", action="store_true",
                   help="print a full one-page report incl. a space-time "
                        "diagram")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="json = the RunOutcome as_dict() record")
    p.add_argument("--trace-dashboard", action="store_true",
                   help="with --trace: stream an in-terminal run "
                        "dashboard to stderr")
    _add_experiment_args(p)
    _add_trace_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="run several protocols on one workload")
    p.add_argument("--protocols", default=None,
                   help="comma-separated protocol names "
                        "(default: the harness's DEFAULT_PROTOCOLS)")
    _add_experiment_args(p)
    _add_executor_args(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="sweep one config parameter")
    p.add_argument("--param", required=True,
                   help="config field, e.g. n or workload_kwargs.rate")
    p.add_argument("--values", required=True,
                   help="comma-separated values (int/float/string)")
    p.add_argument("--metric", default="peak_pending_writers")
    p.add_argument("--protocols", default="optimistic")
    _add_experiment_args(p)
    _add_executor_args(p)
    _add_trace_args(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("figures", help="replay the paper's figures")
    p.add_argument("figure", nargs="?", default="all",
                   choices=("1", "2", "5", "all"))
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("recover", help="hypothetical-failure recovery table")
    p.add_argument("--fail-time", type=float, default=250.0)
    _add_experiment_args(p)
    _add_executor_args(p)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser(
        "verify",
        help="static protocol verification: determinism/layering lint + "
             "bounded model check of the optimistic state machine")
    p.add_argument("--all", action="store_true",
                   help="run both engines at the acceptance bounds "
                        "(the default when no engine flag is given)")
    p.add_argument("--lint", action="store_true",
                   help="run only the AST lint")
    p.add_argument("--model-check", action="store_true",
                   help="run only the bounded model checker")
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="directory trees to lint (default: src/repro); "
                        "several trees are linted as one file set, so "
                        "cross-file rules see their union")
    p.add_argument("--path", default="src/repro",
                   help="directory tree to lint (legacy spelling; "
                        "positional PATHs take precedence)")
    p.add_argument("--n", type=int, default=3,
                   help="model: number of processes")
    p.add_argument("--rounds", type=int, default=1,
                   help="model: checkpoint rounds (intervals)")
    p.add_argument("--sends", type=int, default=1,
                   help="model: app messages per process")
    p.add_argument("--timer-fires", type=int, default=2,
                   help="model: timer expiries per process per round")
    p.add_argument("--fifo", action="store_true",
                   help="model: per-channel FIFO delivery "
                        "(default: arbitrary reordering)")
    p.add_argument("--max-states", type=int, default=2_000_000,
                   help="model: abort (as incomplete) beyond this many "
                        "states")
    p.add_argument("--drop-ck-req", action="store_true",
                   help="model: fault injection — silently drop CK_REQ "
                        "forwarding (demonstrates a Theorem 1 "
                        "counterexample)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "trace",
        help="inspect schema-versioned trace streams "
             "(see docs/OBSERVABILITY.md)")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    q = trace_sub.add_parser(
        "report", help="per-phase latency/overhead breakdown of a trace")
    q.add_argument("target",
                   help="trace JSONL file or a live run directory")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(fn=cmd_trace_report)

    q = trace_sub.add_parser(
        "validate",
        help="schema-check every event; exit 1 on any violation")
    q.add_argument("target",
                   help="trace JSONL file or a live run directory")
    q.set_defaults(fn=cmd_trace_validate)

    p = sub.add_parser(
        "live",
        help="run the protocol for real: wall-clock asyncio runtime, "
             "TCP workers, SIGKILL crash injection (see repro.live)")
    live_sub = p.add_subparsers(dest="live_command", required=True)

    q = live_sub.add_parser("run", help="one live run, conformance-checked")
    _add_live_args(q)
    q.add_argument("--crash-at", type=float, default=None,
                   help="inject one crash this many wall seconds in")
    q.set_defaults(fn=cmd_live_run)

    q = live_sub.add_parser("crash-test",
                            help="live run with a guaranteed crash "
                                 "(default: halfway through)")
    _add_live_args(q)
    q.add_argument("--crash-at", type=float, default=None,
                   help="crash injection time (default: duration/2)")
    q.set_defaults(fn=cmd_live_crash_test)

    p = sub.add_parser(
        "chaos",
        help="fault-injection conformance matrix: every fault kind x "
             "both runtimes, each cell conformance-checked (repro.chaos)")
    p.add_argument("--kinds", default=None,
                   help="comma-separated fault kinds (default: all; an "
                        "unknown kind yields a failing cell)")
    p.add_argument("--runtimes", default="des,live",
                   help="comma-separated runtimes to exercise (des,live)")
    p.add_argument("--transport", choices=("local", "tcp"),
                   default="local", help="transport for the live cells")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=2.5,
                   help="wall seconds per live cell")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the DES cells (1=serial)")
    p.add_argument("--no-retries", action="store_true",
                   help="disable the live resilience layer — the "
                        "discrimination mode: the drop cell must fail")
    p.add_argument("--run-root", default=None,
                   help="keep live cell run directories under this path")
    p.add_argument("--plan", default=None, metavar="FILE",
                   help="replay one saved fault plan (or fuzz-input "
                        "counterexample) through the conformance checks "
                        "instead of running the matrix")
    p.add_argument("--mutate", choices=("drop-ck-req",), default=None,
                   help="with --plan: re-apply the protocol mutation the "
                        "counterexample was found against")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_trace_args(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "fuzz",
        help="coverage-guided fault-plan fuzzing: mutate (plan, workload, "
             "config) inputs, judge each run against the Theorem 1/2 "
             "conformance oracle, shrink any violation (repro.fuzz)")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds (default 60 when "
                        "no --iterations)")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after this many executions")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the execution fan-out")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed: mutation and scheduling decisions "
                        "replay deterministically")
    p.add_argument("--mutate", choices=("drop-ck-req",), default=None,
                   help="inject a known protocol mutation (discrimination "
                        "mode: the campaign must find it)")
    p.add_argument("--dir", default=".repro-fuzz",
                   help="corpus + crash bundle directory")
    p.add_argument("--resume", action="store_true",
                   help="reload a previous campaign's corpus from --dir")
    p.add_argument("--no-shrink", action="store_true",
                   help="report the first violating input without "
                        "delta-debugging it")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the long-lived job server: sweeps/chaos/live runs as "
             "queued jobs over HTTP + WebSocket (see docs/SERVICE.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7341)
    p.add_argument("--jobs", type=int, default=2,
                   help="max concurrently running jobs")
    p.add_argument("--state-dir", default=".repro-serve",
                   help="durable job state directory")
    p.add_argument("--cache-dir", default=None,
                   help="sweep result cache "
                        "(default: <state-dir>/cache)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit one job to a running server; prints the job id")
    p.add_argument("kind", choices=("sweep", "chaos-matrix", "live-run"))
    p.add_argument("--server", default="127.0.0.1:7341",
                   help="server address (host:port)")
    p.add_argument("--spec", default=None,
                   help="job spec: inline JSON object or @file")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (FIFO within a priority)")
    p.add_argument("--wait", action="store_true",
                   help="tail the event stream; exit code mirrors the "
                        "job outcome")
    p.add_argument("--quiet", action="store_true",
                   help="with --wait: do not echo events")
    p.add_argument("--trace-file", default=None,
                   help="with --wait: unwrap streamed obs events into "
                        "this JSONL file")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "watch",
        help="tail one job's event stream until it is terminal")
    p.add_argument("job", help="job id (e.g. j0001)")
    p.add_argument("--server", default="127.0.0.1:7341",
                   help="server address (host:port)")
    p.add_argument("--quiet", action="store_true",
                   help="do not echo events (exit code only)")
    p.add_argument("--trace-file", default=None,
                   help="unwrap streamed obs events into this JSONL file")
    p.set_defaults(fn=cmd_watch)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        # Setup failures (workers never connected, bad fault plan, …)
        # become a one-line error + exit 1 instead of a raw traceback.
        from .chaos.plan import ChaosError
        from .live import LiveSetupError
        if isinstance(exc, (LiveSetupError, ChaosError)):
            print(f"repro: error: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
