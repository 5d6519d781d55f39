"""Structure rules: what the source tree must (not) contain, as AST checks.

Each rule is a function of a source root (the directory holding the
``repro`` package) that returns its findings; the real tree must give
none.  Every rule also runs against a small seeded tree that breaks it,
so a rule that can no longer fire fails here too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Iterator

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The three judges of Theorems 1–2, which must share one library.
JUDGES = ("repro/verify/explore.py", "repro/chaos/des.py",
          "repro/live/conformance.py")
LIBRARY = "repro.causality.properties"


def _module(root: Path, path: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(root: Path, path: Path) -> Iterator[str]:
    """Every module ``path`` imports, relative imports resolved (a
    ``from X import name`` yields both ``X`` and ``X.name``)."""
    module = _module(root, path)
    package = module if path.name == "__init__.py" else \
        module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[:len(base) - node.level + 1]
                if node.module:
                    base.append(node.module)
                name = ".".join(base)
            else:
                name = node.module or ""
            yield name
            yield from (f"{name}.{a.name}" for a in node.names)


def _calls(path: Path, callee: str) -> list[int]:
    """Line numbers of every call of ``callee`` (a bare or dotted name)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name == callee:
                out.append(node.lineno)
    return out


def _probes_of_inner(path: Path) -> list[int]:
    """Line numbers of every ``getattr(self.inner, ...)`` call."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and node.args:
            target = node.args[0]
            if isinstance(target, ast.Attribute) and target.attr == "inner" \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                out.append(node.lineno)
    return out


def _files(root: Path, *subdirs: str) -> list[Path]:
    out: list[Path] = []
    for sub in subdirs:
        target = root / sub
        out.extend([target] if target.is_file()
                   else sorted(target.rglob("*.py")))
    return out


# -- the rules ---------------------------------------------------------------


def no_invariant_monitor(root: Path) -> list[str]:
    """The trace-subscribing InvariantMonitor is gone: its rules are the
    library's sequence discipline, and rollback targets are checked where
    they happen (``OptimisticProcess.rollback_to``, the journal replay)."""
    out = []
    if (root / "repro/core/invariants.py").exists():
        out.append("repro/core/invariants.py exists")
    for path in _files(root, "repro"):
        if "repro.core.invariants" in set(_imports(root, path)):
            out.append(f"{path.relative_to(root)} imports "
                       f"repro.core.invariants")
    return out


def judges_share_the_library(root: Path) -> list[str]:
    """The model checker, the DES fault-run judge and the live replay all
    import the one property library."""
    return [f"{judge} does not import {LIBRARY}" for judge in JUDGES
            if LIBRARY not in set(_imports(root, root / judge))]


def runtimes_do_not_import_verify(root: Path) -> list[str]:
    """The library lives in ``repro.causality`` so that the runtimes and
    their judges never load the lint and the explorer."""
    return [f"{path.relative_to(root)} imports {name}"
            for path in _files(root, "repro/causality", "repro/chaos",
                               "repro/live")
            for name in sorted(set(_imports(root, path)))
            if name == "repro.verify" or name.startswith("repro.verify.")]


def one_fault_run_judge(root: Path) -> list[str]:
    """The matrix cell, the fuzz oracle and ``repro chaos --plan`` all run
    ``chaos/des.py``'s ``run_plan``: nobody else builds a faulted run."""
    out = []
    runs = [(path, line) for path in _files(root, "repro/chaos", "repro/fuzz")
            for line in _calls(path, "run_experiment")]
    if len(runs) != 1:
        out.append(f"{len(runs)} run_experiment calls under chaos/ and "
                   f"fuzz/: " + ", ".join(f"{p.relative_to(root)}:{line}"
                                          for p, line in runs))
    for path in _files(root, "repro/fuzz", "repro/chaos/matrix.py"):
        for callee in ("RecoveryManager", "DesChaosInjector"):
            out.extend(f"{path.relative_to(root)}:{line} calls {callee}"
                       for line in _calls(path, callee))
    return out


def no_networkx_under_src(root: Path) -> list[str]:
    """numpy is the one runtime dependency: ``net/topology.py`` is
    adjacency sets and a BFS, ``EventGraph`` plain dicts, and networkx is
    a ``[dev]`` extra for the topology differential test only."""
    return [f"{path.relative_to(root)} imports networkx"
            for path in sorted(root.rglob("*.py"))
            if any(name.split(".")[0] == "networkx"
                   for name in _imports(root, path))]


#: The one live worker body, and the endpoint wrappers around it.
WORKER = "repro/live/worker.py"
WRAPPERS = ("repro/live/resilience.py", "repro/chaos/live.py")


def live_worker_loads_no_supervisor(root: Path) -> list[str]:
    """Both transports run ``live/worker.py``'s Worker, and a worker
    process never loads the supervisor — at module level or in a
    function (its exit path included)."""
    path = root / WORKER
    if not path.is_file():
        return [f"{WORKER} is missing"]
    return [f"{WORKER} imports {name}"
            for name in sorted(set(_imports(root, path)))
            if name.split(".")[-1] == "supervisor"]


def wrappers_forward_not_probe(root: Path) -> list[str]:
    """The endpoint wrappers forward ``drain`` / ``set_pre_flush`` /
    ``epoch`` through the Endpoint interface instead of probing the
    endpoint they wrap with ``getattr(self.inner, ...)``."""
    out = []
    for rel in WRAPPERS:
        path = root / rel
        if not path.is_file():
            out.append(f"{rel} is missing")
            continue
        out.extend(f"{rel}:{line} calls getattr(self.inner, ...)"
                   for line in _probes_of_inner(path))
    return out


#: The one module that switches the cyclic collector.
COLLECTOR = "repro/_collector.py"


def _collector_switches(path: Path) -> list[int]:
    """Line numbers of every ``gc.disable()`` / ``gc.enable()`` call,
    through any alias (``import gc as g``, ``from gc import disable``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions.update(a.asname or a.name for a in node.names
                             if a.name in ("disable", "enable"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in ("disable", "enable") \
                and isinstance(func.value, ast.Name) \
                and func.value.id in modules:
            out.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id in functions:
            out.append(node.lineno)
    return out


def one_collector_switch(root: Path) -> list[str]:
    """Only ``repro._collector.collector_paused`` turns the cyclic
    collector off and on: it restores the caller's setting on every exit
    and nests, which a hand-written ``gc.disable()`` pair need not."""
    return [f"{path.relative_to(root)}:{line} switches the collector"
            for path in _files(root, "repro")
            if path.relative_to(root).as_posix() != COLLECTOR
            for line in _collector_switches(path)]


#: Where the protocol logs messages: the driver and the hosts over it.
LOGGING_PATH = ("repro/core/driver.py", "repro/core/host.py",
                "repro/live/host.py")


def selective_log_is_columns(root: Path) -> list[str]:
    """``ProtocolDriver`` appends to a ``LogSet``'s columns; a logged
    message builds no ``LogEntry`` object (those are views for cold
    readers), on the driver or the hosts over it."""
    return [f"{rel}:{line} builds a LogEntry"
            for rel in LOGGING_PATH if (root / rel).is_file()
            for line in _calls(root / rel, "LogEntry")]


#: The run-path readers of the DES trace.
TRACE_READERS = ("repro/causality/consistency.py", "repro/chaos/des.py",
                 "repro/obs/bridge.py")


def _names_trace(node: ast.AST) -> bool:
    """``trace``, ``x.trace`` or ``x.y.trace``: an expression naming a
    trace recorder."""
    return (isinstance(node, ast.Name) and node.id == "trace") or (
        isinstance(node, ast.Attribute) and node.attr == "trace")


def des_trace_is_columns(root: Path) -> list[str]:
    """The run-path readers take kind-index rows
    (``TraceRecorder.select``); none materialises the trace as
    ``TraceRecord`` views, by ``trace.records`` or by iterating it."""
    out = []
    for rel in TRACE_READERS:
        path = root / rel
        if not path.is_file():
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "records" \
                    and _names_trace(node.value):
                out.append(f"{rel}:{node.lineno} reads trace.records")
            elif isinstance(node, (ast.For, ast.comprehension)) \
                    and _names_trace(node.iter):
                out.append(f"{rel}:{node.iter.lineno} iterates the trace")
    return out


#: The one module that delivers a simulated message.
NETWORK = "repro/net/network.py"


def one_delivery_step(root: Path) -> list[str]:
    """The network owns every message from its send to its one delivery
    or drop: outside ``net/network.py`` no code records a ``msg.deliver``
    trace event or reaches a ``_deliver`` method (a fault that holds or
    copies a message calls ``Network.redeliver``)."""
    out = []
    for path in _files(root, "repro"):
        rel = path.relative_to(root).as_posix()
        if rel == NETWORK:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "_deliver":
                out.append(f"{rel}:{node.lineno} reaches a _deliver method")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "record" \
                    and any(isinstance(a, ast.Constant)
                            and a.value == "msg.deliver" for a in node.args):
                out.append(f"{rel}:{node.lineno} records msg.deliver")
    return out


#: The modules that build a message: the only ones that set its fields.
MESSAGE_OWNERS = ("repro/net/message.py", NETWORK)
#: Attributes of the hand-chained interposers ``Network.gates`` replaced.
CHAINED_GATE_ATTRS = ("delivery_gate", "_prev_gate")
#: dict methods that change the dict in place.
DICT_WRITERS = ("update", "setdefault", "pop", "popitem", "clear")


def _is_meta(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "meta"


def gates_are_verdicts(root: Path) -> list[str]:
    """A delivery gate's verdict is its return value, asked in the order
    of ``Network.gates``: outside the modules that build a message no code
    writes into ``<expr>.meta`` or ``<expr>.meta[...]`` (app sends share
    one interned meta dict, so a write would reach every message that
    shares it), and no hand-chained ``delivery_gate`` / ``_prev_gate``
    attribute appears anywhere."""
    out = []
    for path in _files(root, "repro"):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) \
                    and node.attr in CHAINED_GATE_ATTRS:
                out.append(f"{rel}:{node.lineno} names {node.attr}")
            if rel in MESSAGE_OWNERS:
                continue
            if isinstance(node, (ast.Attribute, ast.Subscript)) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and (_is_meta(node) or isinstance(node, ast.Subscript)
                         and _is_meta(node.value)):
                out.append(f"{rel}:{node.lineno} writes into a message's "
                           f"meta")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in DICT_WRITERS \
                    and _is_meta(node.func.value):
                out.append(f"{rel}:{node.lineno} changes a message's meta "
                           f"in place")
    return out


RULES: dict[str, Callable[[Path], list[str]]] = {
    "no-invariant-monitor": no_invariant_monitor,
    "judges-share-the-library": judges_share_the_library,
    "runtimes-do-not-import-verify": runtimes_do_not_import_verify,
    "one-fault-run-judge": one_fault_run_judge,
    "no-networkx-under-src": no_networkx_under_src,
    "live-worker-loads-no-supervisor": live_worker_loads_no_supervisor,
    "wrappers-forward-not-probe": wrappers_forward_not_probe,
    "one-collector-switch": one_collector_switch,
    "the-selective-log-is-columns": selective_log_is_columns,
    "the-des-trace-is-columns": des_trace_is_columns,
    "one-delivery-step": one_delivery_step,
    "gates-are-verdicts": gates_are_verdicts,
}


# -- seeded trees: one broken tree per rule ----------------------------------


def _write(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


#: A tree that keeps every rule: each judge imports the library,
#: chaos/des.py builds the one faulted run and reads trace rows, the
#: worker imports no supervisor, the wrappers forward to their inner
#: endpoint, only the collector module switches the collector, the
#: driver appends log columns, only the network delivers and builds a
#: message, and a gate returns its verdict.
CHAOS_DES = ("from ..causality.properties import STATE_CHECKS\n"
             "run_experiment(cfg)\n"
             "rows = sim.trace.select('msg.send', 'dst')\n")
CLEAN = {**{judge: "from ..causality.properties import STATE_CHECKS\n"
            for judge in JUDGES},
         "repro/chaos/des.py": CHAOS_DES
             + "def _gate(self, msg):\n"
               "    if msg.meta.get('pb') is None:\n"
               "        self.network.redeliver(msg, 1.0)\n"
               "        return 'partition'\n"
               "    return None\n",
         COLLECTOR: "import gc\n"
                    "def collector_paused():\n"
                    "    gc.disable()\n"
                    "    gc.enable()\n",
         "repro/core/driver.py": "self.log_entries.append(uid, nbytes)\n",
         NETWORK: "def _deliver(self, msg, ch, again=False):\n"
                  "    tr.record(now, 'msg.deliver', msg.dst)\n"
                  "partial(self._deliver, msg, ch)\n"
                  "msg.meta = {} if meta is None else meta\n",
         WORKER: "from .wire import stop_frame\n",
         **{wrapper: "class Wrapper:\n"
                     "    def drain(self):\n"
                     "        return self.inner.drain()\n"
            for wrapper in WRAPPERS}}

#: Per rule, the files that break it when laid over CLEAN.
SEEDED: dict[str, dict[str, str]] = {
    "no-invariant-monitor": {
        "repro/core/invariants.py": "class InvariantMonitor: ...\n",
        "repro/core/__init__.py": "from .invariants import InvariantMonitor\n",
    },
    "judges-share-the-library": {
        "repro/chaos/des.py": "from ..causality import consistency\n"
                              "run_experiment(cfg)\n",
    },
    "runtimes-do-not-import-verify": {
        "repro/live/conformance.py":
            "from ..causality.properties import STATE_CHECKS\n"
            "from ..verify.explore import explore\n",
    },
    "one-fault-run-judge": {
        "repro/fuzz/oracle.py": "result = harness.run_experiment(cfg)\n"
                                "rm = RecoveryManager(runtime)\n",
    },
    "no-networkx-under-src": {
        "repro/net/topology.py": "import networkx as nx\n",
    },
    "live-worker-loads-no-supervisor": {
        WORKER: "def finish():\n"
                "    from .supervisor import report\n"
                "    return report()\n",
    },
    "wrappers-forward-not-probe": {
        "repro/chaos/live.py": "class Wrapper:\n"
                               "    def drain(self):\n"
                               "        return getattr(self.inner, 'drain',"
                               " None)\n",
    },
    "one-collector-switch": {
        "repro/verify/explore.py": "from ..causality.properties import "
                                   "STATE_CHECKS\n"
                                   "import gc as collector\n"
                                   "collector.disable()\n",
    },
    "the-selective-log-is-columns": {
        "repro/core/driver.py": "from . import types\n"
                                "self.log.append(types.LogEntry(uid, n))\n",
    },
    "the-des-trace-is-columns": {
        "repro/obs/bridge.py": "sends = [r for r in sim.trace "
                               "if r.kind == 'msg.send']\n",
    },
    "one-delivery-step": {
        "repro/recovery/restart.py":
            "def _redeliver(self, msg):\n"
            "    self.sim.trace.record(self.sim.now, 'msg.deliver', "
            "msg.dst, uid=msg.uid, redelivered=True)\n"
            "    self.network.processes[msg.dst]._deliver(msg)\n",
    },
    "gates-are-verdicts": {
        "repro/chaos/des.py": CHAOS_DES
            + "def _gate(self, msg):\n"
              "    msg.meta['drop_cause'] = 'chaos.drop'\n"
              "    return False\n",
    },
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_the_source_tree_keeps_the_rule(rule):
    assert RULES[rule](SRC) == []


def test_the_clean_seed_tree_keeps_every_rule(tmp_path):
    root = _write(tmp_path, CLEAN)
    assert {name: check(root) for name, check in RULES.items()} == {
        name: [] for name in RULES}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_the_rule_fires_on_a_seeded_violation(rule, tmp_path):
    root = _write(tmp_path, {**CLEAN, **SEEDED[rule]})
    found = RULES[rule](root)
    assert found, f"{rule} missed its seeded violation"
    # Only the seeded rule fires: the seeds do not overlap.
    others = {name: check(root) for name, check in RULES.items()
              if name != rule}
    assert not any(others.values()), others


def test_the_judges_load_no_part_of_repro_verify():
    # Transitive imports too, which the AST rule above does not follow.
    import subprocess
    import sys

    code = ("import sys, repro.causality.properties, repro.chaos.des, "
            "repro.live.conformance; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.verify')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC), "PATH": ""}).stdout
    assert out.strip() == "[]"
