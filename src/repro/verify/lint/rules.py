"""The core lint rule catalogue (REP001–REP007).

The REP100 series — asyncio concurrency hygiene (REP101–REP104, in
:mod:`repro.verify.lint.async_rules`) and cross-layer protocol contracts
(REP105–REP109, in :mod:`repro.verify.lint.contract_rules`) — registers
into the same ``FILE_RULES`` / ``CROSS_FILE_RULES`` tables at the bottom
of this module.

Each rule enforces an invariant the simulation *relies on* but nothing in
the toolchain checks (see ``docs/STATIC_ANALYSIS.md`` for the full
rationale):

REP001  wall-clock call — simulated components must use ``sim.now``;
        ``time.time()`` / ``datetime.now()`` make traces irreproducible.
REP002  unseeded randomness — all stochastic draws go through the named
        streams of :class:`repro.des.rng.RngRegistry`; stdlib ``random``
        and module-level ``numpy.random`` state break seed isolation.
REP003  ``id()`` call — CPython addresses vary per run; anything keyed or
        ordered by ``id()`` is nondeterministic across processes.
REP004  ordered iteration over a set — set iteration order depends on hash
        seeding and insertion history; protocol/DES code must ``sorted()``
        a set before order matters (``any``/``all``/``sum``/``min``/``max``
        and set-to-set operations are exempt: order-insensitive).
REP005  purity layering — the protocol kernel (``core/state_machine.py``,
        ``core/driver.py``, ``core/effects.py``, ``core/types.py``) and
        ``causality/`` must not import the runtime substrates (``des``,
        ``net``, ``storage``, ``live``); the effect-command split stays
        unit-testable — and one driver serves every runtime — only if this
        holds.
        Exemption: ``repro.des.trace`` is pure data (records + recorder, no
        simulator machinery) and is how causality replays executions.
REP006  effect-handler totality — every ``Effect`` subclass declared in
        ``core/effects.py`` must have an ``isinstance`` dispatch arm in
        ``core/driver.py``, the one interpreter every runtime (simulator,
        live, model checker) executes; a missing arm only fails at
        runtime, deep into a run.
REP007  float equality on simulated time — ``==`` on timestamps silently
        breaks once latency models produce accumulated float sums; compare
        with tolerances or orderings instead.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Sequence

from .model import Finding, SourceFile

# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------


def _dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` attribute chain as ``["a", "b", "c"]``, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _alias_map(tree: ast.AST) -> dict[str, str]:
    """Map local names to canonical dotted import paths.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from datetime import datetime as dt`` → ``{"dt": "datetime.datetime"}``.
    Relative imports are skipped (they cannot reach stdlib/numpy).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _canonical_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a call target, through import aliases."""
    parts = _dotted(node.func)
    if not parts:
        return None
    root = aliases.get(parts[0])
    if root is not None:
        parts = root.split(".") + parts[1:]
    return ".".join(parts)


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _finding(rule_id: str, sf: SourceFile, node: ast.AST, msg: str) -> Finding:
    return Finding(rule=rule_id, path=str(sf.path),
                   line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0), message=msg)


def _prefix_match(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _resolve_from(module: str, is_package: bool,
                  node: ast.ImportFrom) -> str | None:
    """Absolute dotted target of a (possibly relative) from-import."""
    if node.level == 0:
        return node.module
    pkg = module.split(".") if is_package else module.split(".")[:-1]
    base = pkg[:len(pkg) - (node.level - 1)]
    if not base:
        return None
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


#: Packages that run on real wall-clock time with OS-entropy randomness *by
#: design*: the live runtime exists precisely to execute the protocol
#: outside the simulated clock, and the serve control plane is a
#: long-lived wall-clock service scheduling real work, so the determinism
#: rules REP001/REP002 do not apply there.  Both spellings occur depending
#: on the lint root (``src/repro`` → ``repro.live.*``; the package dir
#: itself → ``live.*``).
LIVE_PACKAGES = ("repro.live", "live", "repro.serve", "serve")


# --------------------------------------------------------------------------
# REP001 — wall clock
# --------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


class WallClockRule:
    """REP001: wall-clock reads — simulated code uses ``sim.now``.

    Scoped to the simulation packages: :data:`LIVE_PACKAGES` run on the
    real clock by design and are exempt.
    """

    rule_id = "REP001"

    def __call__(self, sf: SourceFile) -> list[Finding]:
        if _prefix_match(sf.module, LIVE_PACKAGES):
            return []
        aliases = _alias_map(sf.tree)
        out = []
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Call):
                name = _canonical_call(node, aliases)
                if name in _WALL_CLOCK:
                    out.append(_finding(self.rule_id, sf, node,
                                        f"wall-clock call {name}() — simulated "
                                        f"code must use sim.now"))
        return out


# --------------------------------------------------------------------------
# REP002 — unseeded randomness
# --------------------------------------------------------------------------

_NP_RANDOM_ALLOWED = {
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}


class RandomnessRule:
    """REP002: unseeded randomness outside RngRegistry streams.

    Scoped like REP001: :data:`LIVE_PACKAGES` seed their own per-worker
    ``random.Random`` instances (see :mod:`repro.live.workload`) and are
    exempt from the RngRegistry requirement.
    """

    rule_id = "REP002"

    def __call__(self, sf: SourceFile) -> list[Finding]:
        if _prefix_match(sf.module, LIVE_PACKAGES):
            return []
        aliases = _alias_map(sf.tree)
        out = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _canonical_call(node, aliases)
            if name is None:
                continue
            if name == "random" or name.startswith("random."):
                out.append(_finding(
                    self.rule_id, sf, node,
                    f"stdlib random ({name}) — draw from a named "
                    f"repro.des.rng.RngRegistry stream instead"))
            elif name.startswith("numpy.random."):
                attr = name.rsplit(".", 1)[-1]
                if attr not in _NP_RANDOM_ALLOWED:
                    out.append(_finding(
                        self.rule_id, sf, node,
                        f"numpy global random state ({name}) — use a "
                        f"seeded Generator from repro.des.rng"))
                elif attr == "default_rng" and not node.args and not node.keywords:
                    out.append(_finding(
                        self.rule_id, sf, node,
                        "default_rng() without a seed is entropy-seeded — "
                        "pass an explicit seed or SeedSequence"))
        return out


# --------------------------------------------------------------------------
# REP003 — id()-keyed ordering
# --------------------------------------------------------------------------


class IdCallRule:
    """REP003: ``id()`` — per-run CPython addresses."""

    rule_id = "REP003"

    def __call__(self, sf: SourceFile) -> list[Finding]:
        out = []
        for node in ast.walk(sf.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                out.append(_finding(
                    self.rule_id, sf, node,
                    "id() is a CPython address — anything keyed or ordered "
                    "by it varies across runs"))
        return out


# --------------------------------------------------------------------------
# REP004 — ordered iteration over a set
# --------------------------------------------------------------------------

#: Callables that consume an iterable order-insensitively.
_ORDER_FREE = {"any", "all", "sum", "min", "max", "sorted", "set",
               "frozenset", "len"}
#: Callables that materialize iteration order.
_ORDER_FIXING = {"list", "tuple", "enumerate", "iter", "next"}
_SET_TYPE_NAMES = {"set", "frozenset", "Set", "FrozenSet", "MutableSet",
                   "AbstractSet"}


def _is_set_annotation(ann: ast.AST) -> bool:
    if isinstance(ann, ast.Subscript):
        ann = ann.value
    if isinstance(ann, ast.Name):
        return ann.id in _SET_TYPE_NAMES
    if isinstance(ann, ast.Attribute):
        return ann.attr in _SET_TYPE_NAMES
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] in _SET_TYPE_NAMES
    return False


def _collect_set_names(tree: ast.AST) -> set[str]:
    """Names (bare or ``self.x`` attribute) statically known to hold sets."""
    # NB: deliberately NOT named "names" — ast.Import.names is a list, and
    # a set-typed local called "names" would shadow it in the name-keyed
    # type table and flag every `for a in node.names` loop.
    found: set[str] = set()

    def target_name(t: ast.AST) -> str | None:
        if isinstance(t, ast.Name):
            return t.id
        if isinstance(t, ast.Attribute):
            return t.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and _is_set_annotation(node.annotation):
            name = target_name(node.target)
            if name:
                found.add(name)
        elif isinstance(node, ast.Assign):
            v = node.value
            is_set = (isinstance(v, (ast.Set, ast.SetComp))
                      or (isinstance(v, ast.Call)
                          and isinstance(v.func, ast.Name)
                          and v.func.id in ("set", "frozenset")))
            if is_set:
                for t in node.targets:
                    name = target_name(t)
                    if name:
                        found.add(name)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if _is_set_annotation(node.annotation):
                found.add(node.arg)
    return found


def _is_set_expr(node: ast.AST, known: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name):
        return node.id in known
    if isinstance(node, ast.Attribute):
        return node.attr in known
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return (_is_set_expr(node.left, known)
                or _is_set_expr(node.right, known))
    return False


class SetIterationRule:
    """REP004: order-sensitive iteration over a set."""

    rule_id = "REP004"

    def __call__(self, sf: SourceFile) -> list[Finding]:
        known = _collect_set_names(sf.tree)
        parents = _parent_map(sf.tree)
        out: list[Finding] = []

        def order_free_context(comp_node: ast.AST) -> bool:
            """Is this comprehension the direct argument of an
            order-insensitive consumer (``any(... for x in s)`` etc.)?"""
            parent = parents.get(comp_node)
            return (isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_FREE
                    and comp_node in parent.args)

        for node in ast.walk(sf.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter, known):
                out.append(_finding(
                    self.rule_id, sf, node.iter,
                    "for-loop over a set — iteration order is "
                    "hash/insertion dependent; use sorted(...)"))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if any(_is_set_expr(g.iter, known) for g in node.generators):
                    if not order_free_context(node):
                        out.append(_finding(
                            self.rule_id, sf, node,
                            "ordered comprehension over a set — wrap the "
                            "set in sorted(...) or feed an order-insensitive "
                            "consumer (any/all/sum/min/max)"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in _ORDER_FIXING
                  and node.args and _is_set_expr(node.args[0], known)):
                out.append(_finding(
                    self.rule_id, sf, node,
                    f"{node.func.id}() over a set materializes "
                    f"nondeterministic order; use sorted(...)"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "join"
                  and node.args and _is_set_expr(node.args[0], known)):
                out.append(_finding(
                    self.rule_id, sf, node,
                    "str.join over a set — output depends on set order; "
                    "use sorted(...)"))
        return out


# --------------------------------------------------------------------------
# REP005 — purity layering
# --------------------------------------------------------------------------

#: Modules (exact) / packages (prefix) that must stay simulation-free.
PURE_MODULES = (
    "repro.core.state_machine",
    "repro.core.driver",
    "repro.core.effects",
    "repro.core.types",
    "repro.causality",
)
#: Runtime substrate packages the pure kernel must not import.
IMPURE_PACKAGES = ("repro.des", "repro.net", "repro.storage", "repro.live")
#: Pure-data exemptions (no simulator machinery; see module docstring).
LAYERING_ALLOWED = ("repro.des.trace",)


class LayeringRule:
    """REP005: pure kernel importing simulation substrates."""

    rule_id = "REP005"

    def __call__(self, sf: SourceFile) -> list[Finding]:
        if not _prefix_match(sf.module, PURE_MODULES):
            return []
        is_package = str(sf.path).endswith("__init__.py")
        out: list[Finding] = []
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    out.extend(self._check(sf, node, a.name))
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_from(sf.module, is_package, node)
                if base is None:
                    continue
                for a in node.names:
                    out.extend(self._check(sf, node, f"{base}.{a.name}",
                                           module_itself=base))
        return out

    def _check(self, sf: SourceFile, node: ast.AST, target: str,
               module_itself: str | None = None) -> list[Finding]:
        for cand in (target, module_itself):
            if cand and _prefix_match(cand, LAYERING_ALLOWED):
                return []
        offender = None
        if module_itself and _prefix_match(module_itself, IMPURE_PACKAGES):
            offender = module_itself
        elif _prefix_match(target, IMPURE_PACKAGES):
            offender = target
        if offender is None:
            return []
        return [_finding(
            self.rule_id, sf, node,
            f"pure module {sf.module} imports simulation substrate "
            f"{offender} — the protocol kernel must stay "
            f"simulation-free (see docs/STATIC_ANALYSIS.md)")]


# --------------------------------------------------------------------------
# REP007 — float equality on simulated time
# --------------------------------------------------------------------------


def _is_timelike(node: ast.AST) -> bool:
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None:
        return False
    return (name == "now" or name == "time"
            or name.endswith("_at") or name.endswith("_time"))


class FloatTimeEqualityRule:
    """REP007: ``==``/``!=`` on simulated timestamps."""

    rule_id = "REP007"

    def __call__(self, sf: SourceFile) -> list[Finding]:
        out = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant)
                   and isinstance(o.value, (str, bytes))
                   or (isinstance(o, ast.Constant) and o.value is None)
                   for o in operands):
                continue
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_timelike(left) or _is_timelike(right):
                    out.append(_finding(
                        self.rule_id, sf, node,
                        "float equality on a simulated timestamp — "
                        "accumulated latency sums make == fragile; compare "
                        "with a tolerance or an ordering"))
        return out


# --------------------------------------------------------------------------
# REP006 — effect-handler totality (cross-file)
# --------------------------------------------------------------------------


class EffectTotalityRule:
    """REP006: Effect subclasses without a driver dispatch arm."""

    rule_id = "REP006"

    def __call__(self, files: Iterable[SourceFile]) -> list[Finding]:
        effects_sf = driver_sf = None
        for sf in files:
            if sf.module.endswith("core.effects"):
                effects_sf = sf
            elif sf.module.endswith("core.driver"):
                driver_sf = sf
        if effects_sf is None or driver_sf is None:
            return []  # partial tree (fixtures/tests): nothing to check
        subclasses: dict[str, ast.ClassDef] = {}
        for node in ast.walk(effects_sf.tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    bname = base.attr if isinstance(base, ast.Attribute) else (
                        base.id if isinstance(base, ast.Name) else None)
                    if bname == "Effect":
                        subclasses[node.name] = node
        handled: set[str] = set()
        for node in ast.walk(driver_sf.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2):
                second = node.args[1]
                elts = second.elts if isinstance(second, ast.Tuple) else [second]
                for e in elts:
                    if isinstance(e, ast.Name):
                        handled.add(e.id)
                    elif isinstance(e, ast.Attribute):
                        handled.add(e.attr)
        out = []
        for name in sorted(set(subclasses) - handled):
            out.append(_finding(
                self.rule_id, effects_sf, subclasses[name],
                f"Effect subclass {name} has no isinstance dispatch arm in "
                f"core/driver.py — the interpreter would raise at runtime, "
                f"deep into a run"))
        return out


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

# Imported here (not at the top) because the REP100 modules reuse this
# module's AST helpers — the registry is the one place both directions
# meet.
from .async_rules import FILE_ASYNC_RULES  # noqa: E402
from .contract_rules import (CROSS_CONTRACT_RULES,  # noqa: E402
                             FILE_CONTRACT_RULES)

FILE_RULES: tuple[Callable[[SourceFile], list[Finding]], ...] = (
    WallClockRule(),
    RandomnessRule(),
    IdCallRule(),
    SetIterationRule(),
    LayeringRule(),
    FloatTimeEqualityRule(),
    *FILE_ASYNC_RULES,
    *FILE_CONTRACT_RULES,
)

CROSS_FILE_RULES: tuple[Callable[[Iterable[SourceFile]], list[Finding]], ...] = (
    EffectTotalityRule(),
    *CROSS_CONTRACT_RULES,
)

ALL_RULE_IDS = tuple(sorted(
    r.rule_id for r in (*FILE_RULES, *CROSS_FILE_RULES)))
