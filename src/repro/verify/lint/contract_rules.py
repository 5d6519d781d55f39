"""REP105–REP109: cross-layer protocol contracts, checked statically.

These follow the REP006 pattern — a declaration site in one file, a
totality obligation in others — extended to the contracts the live,
chaos and obs layers took on in PRs 3–5:

REP105  chaos fault-kind totality — every fault kind declared in
        ``chaos/plan.py`` must have a DES injector arm, a live injector
        arm, and a matrix recovery check.  A kind with a missing arm
        silently no-ops in one runtime, and the fault/runtime
        conformance matrix stops meaning what it claims.
REP106  wire-version exhaustiveness — every version the live encoders
        stamp must be in the decoder accept-set
        (``ACCEPTED_WIRE_VERSIONS``) and the set must have no holes
        between its minimum and maximum; decoders must test membership,
        never ``==`` one version, or every rolling upgrade is a flag day.
REP107  journal-before-send — any transport send of an app frame must
        be dominated by the matching journal append.  This *is* the
        paper's selective-logging discipline: a send that can execute
        without its log record reopens the orphan-message window
        Theorem 2 closes.
REP108  obs vocabulary consistency — every trace point/profile name
        emitted anywhere must be declared in the obs schema vocabulary,
        and every declared name must actually be emitted.  Dashboards
        and the trace report filter by name; a misspelled emission is
        invisible, a dead vocabulary entry is a lie.
REP109  worker import closure — the module-level imports reachable from
        ``live/worker.py`` (package ``__init__``s included, as Python
        executes them; ``_LAZY`` exports of :mod:`repro._lazy` packages
        count only where a from-import names them) must not reach numpy,
        networkx, the simulator (``des.engine``, ``des.rng``,
        ``net.network``, ``core.host``), ``harness`` or ``metrics``.  A
        crashed worker's restart time *is* the recovery time; one eager
        re-export in a package ``__init__`` triples it silently.

Each cross-file rule skips quietly when its declaration module is not
in the linted set (partial trees: fixtures, ``repro verify --lint
src/repro/live``); the scoped run simply checks fewer contracts.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

from .analysis import (assignment_node, build_cfg, dict_literal_str_items,
                       find_module, int_assignment, int_tuple_assignment,
                       iter_functions, string_tuple_assignments,
                       stmt_own_nodes, terminal_name)
from .model import Finding, SourceFile
from .rules import _finding, _prefix_match, _resolve_from

# --------------------------------------------------------------------------
# REP105 — chaos fault-kind totality
# --------------------------------------------------------------------------


def _plan_kind_tables(plan: SourceFile) -> dict[str, tuple[str, ...]]:
    """``*_KINDS`` string tuples declared in chaos/plan.py (the union
    alias ``ALL_KINDS`` is derived, not a declaration)."""
    return {name: tup
            for name, tup in string_tuple_assignments(plan.tree).items()
            if name.endswith("_KINDS") and name != "ALL_KINDS"}


def _plan_selector_map(plan: SourceFile,
                       tables: dict[str, tuple[str, ...]]
                       ) -> dict[str, tuple[str, ...]]:
    """FaultPlan selector methods → the kinds they select.

    A method whose body calls ``self._select(WIRE_KINDS)`` handles
    exactly ``WIRE_KINDS``; a caller iterating ``plan.wire_faults()``
    therefore has an arm for each of those kinds.
    """
    out: dict[str, tuple[str, ...]] = {}
    for cls in ast.walk(plan.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for meth in cls.body:
            if not isinstance(meth, ast.FunctionDef):
                continue
            for node in ast.walk(meth):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "_select"
                        and node.args
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id in tables):
                    out[meth.name] = tables[node.args[0].id]
    return out


def _handled_kinds(sf: SourceFile, tables: dict[str, tuple[str, ...]],
                   selectors: dict[str, tuple[str, ...]],
                   universe: set[str]) -> set[str]:
    """Fault kinds this module demonstrably has an arm for.

    Arms are: ``kind == "drop"`` / ``!=`` literal comparisons,
    ``kind in ("a", "b")`` literal membership, ``kind in WIRE_KINDS``
    table membership, and iteration of a plan selector
    (``plan.storage_faults()`` hands the module every storage kind).
    """
    handled: set[str] = set()
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            op = node.ops[0]
            left, right = node.left, node.comparators[0]
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for probe, const in ((left, right), (right, left)):
                    if (terminal_name(probe) == "kind"
                            and isinstance(const, ast.Constant)
                            and isinstance(const.value, str)
                            and const.value in universe):
                        handled.add(const.value)
            elif isinstance(op, (ast.In, ast.NotIn)) \
                    and terminal_name(left) == "kind":
                if isinstance(right, (ast.Tuple, ast.List, ast.Set)):
                    for e in right.elts:
                        if isinstance(e, ast.Constant) \
                                and isinstance(e.value, str) \
                                and e.value in universe:
                            handled.add(e.value)
                else:
                    tname = terminal_name(right)
                    if tname in tables:
                        handled.update(tables[tname])
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in selectors):
            handled.update(selectors[node.func.attr])
    return handled


class ChaosKindTotalityRule:
    """REP105: declared fault kinds vs. injector/recovery arms."""

    rule_id = "REP105"

    def __call__(self, files: Iterable[SourceFile]) -> list[Finding]:
        files = list(files)
        plan = find_module(files, "chaos.plan")
        des = find_module(files, "chaos.des")
        live = find_module(files, "chaos.live")
        matrix = find_module(files, "chaos.matrix")
        if plan is None or des is None or live is None or matrix is None:
            return []  # partial tree: the contract spans all four
        tables = _plan_kind_tables(plan)
        selectors = _plan_selector_map(plan, tables)
        universe = {k for tup in tables.values() for k in tup}
        des_arms = _handled_kinds(des, tables, selectors, universe)
        matrix_arms = _handled_kinds(matrix, tables, selectors, universe)
        live_arms = _handled_kinds(live, tables, selectors,
                                   universe) | matrix_arms
        out: list[Finding] = []
        for table_name in sorted(tables):
            anchor = assignment_node(plan.tree, table_name)
            for kind in tables[table_name]:
                missing = []
                if kind not in des_arms:
                    missing.append("a DES injector arm (chaos/des.py)")
                if kind not in live_arms:
                    missing.append(
                        "a live injector arm (chaos/live.py or matrix.py)")
                if kind not in matrix_arms:
                    missing.append(
                        "a matrix recovery check (chaos/matrix.py)")
                if missing:
                    out.append(_finding(
                        self.rule_id, plan, anchor or plan.tree,
                        f'fault kind "{kind}" (declared in {table_name}) '
                        f'is missing {" and ".join(missing)} — it would '
                        f'silently no-op there'))
        return out


# --------------------------------------------------------------------------
# REP106 — wire-version exhaustiveness
# --------------------------------------------------------------------------


class WireVersionRule:
    """REP106: stamped wire versions ⊆ decoder accept-set, no holes."""

    rule_id = "REP106"

    def __call__(self, files: Iterable[SourceFile]) -> list[Finding]:
        files = list(files)
        ser = find_module(files, "storage.serialize")
        if ser is None:
            return []
        out: list[Finding] = []
        accepted = int_tuple_assignment(ser.tree, "ACCEPTED_WIRE_VERSIONS")
        stamped = int_assignment(ser.tree, "WIRE_VERSION")
        anchor = (assignment_node(ser.tree, "WIRE_VERSION")
                  or assignment_node(ser.tree, "ACCEPTED_WIRE_VERSIONS"))
        if accepted is None:
            out.append(_finding(
                self.rule_id, ser, anchor or ser.tree,
                "storage/serialize.py declares no ACCEPTED_WIRE_VERSIONS "
                "int-tuple — decoders have no checkable version "
                "accept-set"))
            return out
        if stamped is not None and stamped not in accepted:
            out.append(_finding(
                self.rule_id, ser, anchor or ser.tree,
                f"encoders stamp wire version {stamped} but the decoder "
                f"accept-set is {accepted} — every frame this build "
                f"sends is rejected on receipt"))
        # Contiguity: the accept-set may never skip a version between
        # the oldest and the newest accepted one — a hole strands every
        # peer pinned on the skipped version mid-upgrade.
        gaps = [v for v in range(min(accepted, default=0),
                                 max(accepted, default=0))
                if v not in accepted]
        if gaps:
            out.append(_finding(
                self.rule_id, ser, anchor or ser.tree,
                f"ACCEPTED_WIRE_VERSIONS {accepted} skips "
                f"version(s) {gaps} — the accept-set must be contiguous "
                f"from its minimum to its maximum, or peers pinned on a "
                f"skipped version cannot interoperate mid-upgrade"))
        wire = find_module(files, "live.wire")
        for sf in (ser, wire):
            if sf is None:
                continue
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                if any(terminal_name(o) == "WIRE_VERSION"
                       for o in operands) \
                        and any(isinstance(op, (ast.Eq, ast.NotEq))
                                for op in node.ops):
                    out.append(_finding(
                        self.rule_id, sf, node,
                        "equality comparison against WIRE_VERSION — "
                        "decoders must test membership in "
                        "ACCEPTED_WIRE_VERSIONS so every still-supported "
                        "version stays decodable"))
        return out


# --------------------------------------------------------------------------
# REP107 — journal-before-send dominance
# --------------------------------------------------------------------------


def _is_app_frame_send(stmt: ast.stmt) -> bool:
    """Does this statement call ``<...>.endpoint.send(app_frame(...))``?"""
    for node in stmt_own_nodes(stmt):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
                and terminal_name(node.func.value) == "endpoint"
                and node.args
                and isinstance(node.args[0], ast.Call)
                and terminal_name(node.args[0].func) == "app_frame"):
            return True
    return False


def _is_send_journal_append(stmt: ast.stmt) -> bool:
    """Does this statement call ``<...>.journal.log("send", ...)``?"""
    for node in stmt_own_nodes(stmt):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "log"
                and terminal_name(node.func.value) == "journal"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "send"):
            return True
    return False


class JournalBeforeSendRule:
    """REP107: app-frame sends must be dominated by a journal append."""

    rule_id = "REP107"

    def __call__(self, sf: SourceFile) -> list[Finding]:
        out: list[Finding] = []
        for func in iter_functions(sf.tree):
            cfg = build_cfg(func)
            sends = [s for s in cfg.nodes if _is_app_frame_send(s)]
            if not sends:
                continue
            appends = {s for s in cfg.nodes if _is_send_journal_append(s)}
            dom = cfg.dominators()
            for send in sends:
                if not (dom[send] & appends):
                    out.append(_finding(
                        self.rule_id, sf, send,
                        f"app-frame transport send in {func.name} is not "
                        f"dominated by a journal.log(\"send\", ...) append "
                        f"— a path reaches the wire without the log "
                        f"record, reopening the orphan-message window"))
        return out


# --------------------------------------------------------------------------
# REP108 — obs vocabulary consistency
# --------------------------------------------------------------------------


def _routed_dynamic_points(
        sf: SourceFile) -> tuple[set[str], set[tuple[int, int]]]:
    """Dynamic ``tracer.point(rec.kind, ...)`` sites resolved through a
    literal ``HANDLED_KINDS`` routing table.

    Returns (emitted exact names, source positions of resolved Call
    nodes).  A class that maps kinds to handler-method names and then
    forwards ``rec.kind`` inside those handlers emits exactly the kinds
    routed to methods that contain a dynamic point call.
    """
    emitted: set[str] = set()
    resolved: set[tuple[int, int]] = set()
    for cls in ast.walk(sf.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        routing: dict[str, list[str]] = {}
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and stmt.targets[0].id == "HANDLED_KINDS":
                items = dict_literal_str_items(stmt.value)
                if items:
                    for kind, method in items.items():
                        routing.setdefault(method, []).append(kind)
        if not routing:
            continue
        for meth in cls.body:
            if not isinstance(meth, ast.FunctionDef) \
                    or meth.name not in routing:
                continue
            for node in ast.walk(meth):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "point"
                        and node.args
                        and terminal_name(node.args[0]) == "kind"):
                    emitted.update(routing[meth.name])
                    resolved.add((node.lineno, node.col_offset))
    return emitted, resolved


class ObsVocabularyRule:
    """REP108: emitted trace names ⊆ schema vocabulary, and vice versa."""

    rule_id = "REP108"

    def __call__(self, files: Iterable[SourceFile]) -> list[Finding]:
        files = list(files)
        schema = find_module(files, "obs.schema")
        if schema is None:
            return []
        out: list[Finding] = []
        point_names = string_tuple_assignments(schema.tree).get("POINT_NAMES")
        prefixes = string_tuple_assignments(schema.tree).get(
            "POINT_NAME_PREFIXES", ())
        profile_names = string_tuple_assignments(schema.tree).get(
            "PROFILE_NAMES")
        if point_names is None or profile_names is None:
            out.append(_finding(
                self.rule_id, schema, schema.tree,
                "obs/schema.py declares no POINT_NAMES / PROFILE_NAMES "
                "vocabulary — trace names have no checkable registry"))
            return out

        exact_points: set[str] = set()
        prefix_heads: set[str] = set()
        exact_profiles: set[str] = set()
        for sf in files:
            routed, resolved = _routed_dynamic_points(sf)
            exact_points |= routed
            for node in ast.walk(sf.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("point", "profile")
                        and node.args):
                    continue
                if (node.lineno, node.col_offset) in resolved:
                    continue
                is_profile = node.func.attr == "profile"
                arg = node.args[0]
                if isinstance(arg, ast.Constant) \
                        and isinstance(arg.value, str):
                    name = arg.value
                    if is_profile:
                        exact_profiles.add(name)
                        if name not in profile_names:
                            out.append(_finding(
                                self.rule_id, sf, node,
                                f'profile name "{name}" is not in the obs '
                                f'schema vocabulary (PROFILE_NAMES in '
                                f'obs/schema.py)'))
                    else:
                        exact_points.add(name)
                        if name not in point_names and not any(
                                name.startswith(p) for p in prefixes):
                            out.append(_finding(
                                self.rule_id, sf, node,
                                f'trace point "{name}" is not in the obs '
                                f'schema vocabulary (POINT_NAMES in '
                                f'obs/schema.py) — reports and dashboards '
                                f'filtering by name will never see it'))
                elif (not is_profile and isinstance(arg, ast.JoinedStr)
                        and arg.values
                        and isinstance(arg.values[0], ast.Constant)
                        and isinstance(arg.values[0].value, str)
                        and arg.values[0].value):
                    head = arg.values[0].value
                    prefix_heads.add(head)
                    if not any(head.startswith(p) for p in prefixes):
                        out.append(_finding(
                            self.rule_id, sf, node,
                            f'dynamic trace point with prefix "{head}" has '
                            f'no matching entry in POINT_NAME_PREFIXES '
                            f'(obs/schema.py)'))
                else:
                    out.append(_finding(
                        self.rule_id, sf, node,
                        f"dynamic {node.func.attr} name cannot be checked "
                        f"against the obs schema — use a literal, a "
                        f"literal-prefix f-string, or a HANDLED_KINDS "
                        f"routing table"))

        # Reverse direction needs the whole tree; the top-level cli
        # module is the marker that this is a full-package run rather
        # than a scoped one (repro verify --lint src/repro/obs).
        if find_module(files, "cli") is None:
            return out
        points_anchor = assignment_node(schema.tree, "POINT_NAMES")
        profiles_anchor = assignment_node(schema.tree, "PROFILE_NAMES")
        for name in point_names:
            if name in exact_points:
                continue
            if any(name.startswith(h) for h in prefix_heads):
                continue
            out.append(_finding(
                self.rule_id, schema, points_anchor or schema.tree,
                f'schema point name "{name}" is never emitted anywhere '
                f'in the tree — dead vocabulary misleads every reader '
                f'of the schema'))
        for p in prefixes:
            if not any(h.startswith(p) for h in prefix_heads) \
                    and not any(n.startswith(p) for n in exact_points):
                out.append(_finding(
                    self.rule_id, schema,
                    assignment_node(schema.tree, "POINT_NAME_PREFIXES")
                    or schema.tree,
                    f'schema point prefix "{p}" has no emission site '
                    f'anywhere in the tree'))
        for name in profile_names:
            if name not in exact_profiles:
                out.append(_finding(
                    self.rule_id, schema, profiles_anchor or schema.tree,
                    f'schema profile name "{name}" is never emitted '
                    f'anywhere in the tree'))
        return out


# --------------------------------------------------------------------------
# REP109 — the live worker's import closure
# --------------------------------------------------------------------------

_WORKER_ENTRY = "live.worker"
#: Third-party distributions a worker process must start without.
_WORKER_FORBIDDEN_EXTERNAL = ("numpy", "networkx")
#: In-tree modules (relative to the package root) it must start without.
_WORKER_FORBIDDEN = ("des.engine", "des.rng", "net.network", "core.host",
                     "harness", "metrics")


def _import_time_imports(tree: ast.AST
                         ) -> Iterator[ast.Import | ast.ImportFrom]:
    """Import statements that run when the module is imported: those in
    function bodies and under ``if TYPE_CHECKING:`` do not."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) \
                and terminal_name(node.test) == "TYPE_CHECKING":
            stack.extend(reversed(node.orelse))
        else:       # reversed: the stack pops in source order
            stack.extend(reversed(list(ast.iter_child_nodes(node))))


class WorkerImportClosureRule:
    """REP109: ``live/worker.py`` starts without numpy or the simulator."""

    rule_id = "REP109"

    def __call__(self, files: Iterable[SourceFile]) -> list[Finding]:
        files = list(files)
        entry = find_module(files, _WORKER_ENTRY)
        if entry is None or entry.module == _WORKER_ENTRY:
            return []           # scoped run: no package root to resolve in
        # One package tree: a multi-root run may hold same-named modules.
        package_dir = Path(str(entry.path)).parents[1]
        by_module = {sf.module: sf for sf in files
                     if package_dir in Path(str(sf.path)).parents}
        root = entry.module[:-len(_WORKER_ENTRY) - 1]
        top = root.rsplit(".", 1)[-1]   # absolute imports start from here
        forbidden = tuple(f"{root}.{m}" for m in _WORKER_FORBIDDEN)

        def in_tree(name: str) -> str:
            """An import target as spelled -> its name in the linted tree."""
            if name == top or name.startswith(top + "."):
                return root + name[len(top):]
            return name

        def lazy_map(module: str) -> dict[str, str]:
            """The ``_LAZY`` literal of a :mod:`repro._lazy` package."""
            sf = by_module.get(module)
            node = None if sf is None else assignment_node(sf.tree, "_LAZY")
            items = None if node is None \
                else dict_literal_str_items(node.value)
            return items or {}

        def targets(sf: SourceFile,
                    node: ast.Import | ast.ImportFrom) -> list[str]:
            """Every module executing ``node`` imports, parents first."""
            if isinstance(node, ast.Import):
                names = [in_tree(a.name) for a in node.names]
            else:
                base = _resolve_from(
                    sf.module, str(sf.path).endswith("__init__.py"), node)
                if base is None:
                    return []
                base = in_tree(base)
                lazy = lazy_map(base)
                names = [base]
                for a in node.names:
                    if f"{base}.{a.name}" in by_module:
                        names.append(f"{base}.{a.name}")
                    elif a.name in lazy:
                        names.append(f"{base}.{lazy[a.name]}")
                    elif a.name == "*":
                        names.extend(f"{base}.{sub}"
                                     for sub in sorted(set(lazy.values())))
            out: list[str] = []
            for name in names:
                parts = name.split(".")
                out.extend(".".join(parts[:i + 1])
                           for i in range(len(parts)))
            return out

        chains = {entry.module: (entry.module,)}
        queue = deque([entry.module])
        reported: set[str] = set()
        out: list[Finding] = []
        while queue:
            module = queue.popleft()
            sf = by_module[module]
            for node in _import_time_imports(sf.tree):
                for target in targets(sf, node):
                    external = target.split(".")[0]
                    if _prefix_match(target, forbidden):
                        offender = target
                    elif external in _WORKER_FORBIDDEN_EXTERNAL:
                        offender = external
                    else:
                        if target in by_module and target not in chains:
                            chains[target] = chains[module] + (target,)
                            queue.append(target)
                        continue
                    if offender not in reported:
                        reported.add(offender)
                        chain = " -> ".join(chains[module] + (offender,))
                        out.append(_finding(
                            self.rule_id, sf, node,
                            f"{entry.module} imports {offender} at start-up "
                            f"({chain}) — a crashed worker's restart time is "
                            f"the recovery time; import from the defining "
                            f"submodule, or list the re-export in the "
                            f"package's _LAZY map (repro/_lazy.py)"))
        return out


FILE_CONTRACT_RULES = (JournalBeforeSendRule(),)
CROSS_CONTRACT_RULES = (ChaosKindTotalityRule(), WireVersionRule(),
                        ObsVocabularyRule(), WorkerImportClosureRule())
