"""Shared flow analysis for the REP100 rules.

The REP001–REP007 rules are lexical: one ``ast.walk`` per file.  The
REP100 concurrency and protocol-contract rules need more:

* a **statement-level control-flow graph** per function, so "X happens
  before Y on every path" is checkable (journal-before-send, REP107);
* **dominators** over that CFG (the standard "every path from entry to
  Y passes through X" relation);
* **await-point tracking**, so flow-sensitive rules can reason about
  what a coroutine observes before and after a suspension point
  (REP103);
* small **cross-file symbol-table** helpers (string-tuple constants,
  dict-literal routing tables) for the contract rules REP105–REP109.

Everything here is deliberately conservative.  The CFG treats a ``try``
body as if an exception could occur before any of its statements (so
nothing inside the body dominates handler code), loops get back edges,
and ``match`` is assumed to possibly match no case.  Conservative edges
can only *weaken* a dominance claim, so the rules built on top err
toward missing a guarantee rather than inventing one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

# --------------------------------------------------------------------------
# shallow AST walking (never into nested function/class scopes)
# --------------------------------------------------------------------------

#: Node types that open a new scope; analyses of one function must not
#: leak into them (a nested def runs later, a lambda runs elsewhere).
NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef)

AnyFunc = ast.FunctionDef | ast.AsyncFunctionDef


def shallow_walk(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested scopes.

    ``root`` itself is always yielded, even when it is a scope node; its
    children are only visited when it is not.
    """
    stack: list[ast.AST] = [root]
    first = True
    while stack:
        node = stack.pop()
        yield node
        if not first and isinstance(node, NESTED_SCOPES):
            continue
        first = False
        stack.extend(ast.iter_child_nodes(node))


def iter_functions(tree: ast.AST) -> Iterator[AnyFunc]:
    """Every function/coroutine definition in the file, nested included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


_COMPOUND = (ast.If, ast.While, ast.For, ast.AsyncFor, ast.With,
             ast.AsyncWith, ast.Try, ast.Match,
             ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _header_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """The expressions a compound statement evaluates *itself* (its
    header), as opposed to the bodies it merely contains."""
    if isinstance(stmt, (ast.If, ast.While)):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.target
        yield stmt.iter
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
            if item.optional_vars is not None:
                yield item.optional_vars
    elif isinstance(stmt, ast.Match):
        yield stmt.subject
    # Try / def / class headers evaluate nothing interesting.


def stmt_own_nodes(stmt: ast.stmt) -> Iterator[ast.AST]:
    """AST nodes a CFG node *itself* executes.

    Simple statements own their whole (shallow) subtree; compound
    statements own only their header expressions — their bodies are
    separate CFG nodes and must not alias into the header.
    """
    if isinstance(stmt, _COMPOUND):
        yield stmt
        for expr in _header_exprs(stmt):
            yield from shallow_walk(expr)
    else:
        yield from shallow_walk(stmt)


def stmt_awaits(stmt: ast.stmt) -> bool:
    """Does executing this statement's own part cross a suspension point?

    ``async for`` / ``async with`` headers await implicitly
    (``__anext__`` / ``__aenter__``) even with no ``ast.Await`` node.
    """
    if isinstance(stmt, (ast.AsyncFor, ast.AsyncWith)):
        return True
    return any(isinstance(n, ast.Await) for n in stmt_own_nodes(stmt))


# --------------------------------------------------------------------------
# statement-level CFG + dominators
# --------------------------------------------------------------------------


class _Entry:
    """Synthetic CFG entry node (the function's parameters binding)."""

    lineno = 0
    col_offset = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<cfg entry>"


@dataclass
class FunctionCfg:
    """Statement-level CFG of one function body.

    ``succ`` maps each node (statements plus the synthetic entry) to its
    successor statements; ``nodes`` lists every statement in source
    order.  Compound statements are their own nodes (headers only — see
    :func:`stmt_own_nodes`); bodies hang off them as successors.
    """

    func: AnyFunc
    entry: _Entry
    succ: dict[ast.AST, list[ast.stmt]]
    nodes: list[ast.stmt]
    _dom: dict[ast.AST, set[ast.AST]] | None = field(default=None, repr=False)

    def preds(self) -> dict[ast.AST, list[ast.AST]]:
        """Predecessor lists (the inverse of ``succ``)."""
        out: dict[ast.AST, list[ast.AST]] = {n: [] for n in self.nodes}
        for src, dsts in self.succ.items():
            for dst in dsts:
                out.setdefault(dst, []).append(src)
        return out

    def dominators(self) -> dict[ast.AST, set[ast.AST]]:
        """Node → set of nodes that dominate it (itself included).

        Standard iterative dataflow over the statement set; function
        bodies are small, so the quadratic worst case is irrelevant.
        """
        if self._dom is not None:
            return self._dom
        preds = self.preds()
        universe: set[ast.AST] = {self.entry, *self.nodes}
        dom: dict[ast.AST, set[ast.AST]] = {self.entry: {self.entry}}
        for n in self.nodes:
            dom[n] = set(universe)
        changed = True
        while changed:
            changed = False
            for n in self.nodes:
                ps = preds.get(n, [])
                new: set[ast.AST]
                if ps:
                    new = set(universe)
                    for p in ps:
                        new &= dom[p]
                    new.add(n)
                else:
                    new = {n}  # unreachable: dominated only by itself
                if new != dom[n]:
                    dom[n] = new
                    changed = True
        self._dom = dom
        return dom


class _CfgBuilder:
    def __init__(self) -> None:
        self.succ: dict[ast.AST, list[ast.stmt]] = {}
        self.nodes: list[ast.stmt] = []
        self._breaks: list[list[ast.stmt]] = []
        self._continues: list[list[ast.stmt]] = []

    def edge(self, src: ast.AST, dst: ast.stmt) -> None:
        self.succ.setdefault(src, []).append(dst)

    def walk(self, body: Sequence[ast.stmt],
             preds: list[ast.AST]) -> list[ast.AST]:
        """Wire ``body`` after ``preds``; return its fall-through exits."""
        for stmt in body:
            self.nodes.append(stmt)
            for p in preds:
                self.edge(p, stmt)
            preds = self._after(stmt)
        return preds

    def _after(self, stmt: ast.stmt) -> list[ast.AST]:
        """Successor frontier once ``stmt`` (and its bodies) ran."""
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return []
        if isinstance(stmt, ast.Break):
            if self._breaks:
                self._breaks[-1].append(stmt)
            return []
        if isinstance(stmt, ast.Continue):
            if self._continues:
                self._continues[-1].append(stmt)
            return []
        if isinstance(stmt, ast.If):
            exits = self.walk(stmt.body, [stmt])
            if stmt.orelse:
                exits = exits + self.walk(stmt.orelse, [stmt])
            else:
                exits = exits + [stmt]
            return exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._breaks.append([])
            self._continues.append([])
            body_exits = self.walk(stmt.body, [stmt])
            conts = self._continues.pop()
            brks = self._breaks.pop()
            for p in [*body_exits, *conts]:
                self.edge(p, stmt)  # back edge to the loop header
            exits: list[ast.AST] = list(brks)
            if stmt.orelse:
                exits += self.walk(stmt.orelse, [stmt])
            else:
                exits.append(stmt)  # zero-iteration / normal exit
            return exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.walk(stmt.body, [stmt])
        if isinstance(stmt, ast.Try):
            body_exits = self.walk(stmt.body, [stmt])
            exits = []
            for handler in stmt.handlers:
                # Conservative: the exception may fire before any body
                # statement ran, so handlers hang off the Try node itself
                # (nothing in the body dominates handler code).
                exits += self.walk(handler.body, [stmt])
            if stmt.orelse:
                body_exits = self.walk(stmt.orelse, body_exits)
            exits += body_exits
            if stmt.finalbody:
                exits = self.walk(stmt.finalbody, exits or [stmt])
            return exits
        if isinstance(stmt, ast.Match):
            exits = [stmt]  # conservatively: no case may match
            for case in stmt.cases:
                exits += self.walk(case.body, [stmt])
            return exits
        return [stmt]


def build_cfg(func: AnyFunc) -> FunctionCfg:
    """Statement-level CFG of ``func``'s body (nested defs are opaque
    single statements; build their CFGs separately)."""
    builder = _CfgBuilder()
    entry = _Entry()
    builder.walk(func.body, [entry])
    return FunctionCfg(func=func, entry=entry, succ=builder.succ,
                       nodes=builder.nodes)


# --------------------------------------------------------------------------
# asyncio lock contexts
# --------------------------------------------------------------------------

_LOCK_TYPE_NAMES = {"Lock", "RLock", "Semaphore", "BoundedSemaphore",
                    "Condition"}


def is_lockish(expr: ast.AST) -> bool:
    """Does this context-manager expression look like a lock?

    Matches ``asyncio.Lock()`` style constructions and any name or
    attribute whose terminal component mentions "lock" or "sem"
    (``self._lock``, ``journal_lock``, ``self.sem`` …).
    """
    if isinstance(expr, ast.Call):
        expr = expr.func
    name = None
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    if name is None:
        return False
    low = name.lower()
    return name in _LOCK_TYPE_NAMES or "lock" in low or low == "sem" \
        or low.endswith("_sem") or "semaphore" in low


def lock_held_statements(func: AnyFunc) -> set[ast.stmt]:
    """Statements lexically inside an ``async with <lock>`` body.

    Used both to *find* awaits under a lock (REP104) and to *suppress*
    racy-write findings that are in fact serialized (REP103).
    """
    held: set[ast.stmt] = set()

    def collect(stmt: ast.stmt) -> None:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, NESTED_SCOPES):
                continue
            if isinstance(child, ast.stmt):
                held.add(child)
                collect(child)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        held.add(sub)
                        collect(sub)

    for node in ast.walk(func):
        if isinstance(node, ast.AsyncWith) and any(
                is_lockish(item.context_expr) for item in node.items):
            for stmt in node.body:
                held.add(stmt)
                collect(stmt)
    return held


# --------------------------------------------------------------------------
# cross-file symbol tables
# --------------------------------------------------------------------------


def find_module(files: Iterable, suffix: str):
    """The :class:`SourceFile` whose module is ``suffix`` or ends with
    ``.suffix`` — tolerant of lint roots (``repro.chaos.plan`` when
    linting ``src/repro``, ``chaos.plan`` when linting the package)."""
    for sf in files:
        if sf.module == suffix or sf.module.endswith("." + suffix):
            return sf
    return None


def string_tuple_assignments(tree: ast.AST) -> dict[str, tuple[str, ...]]:
    """``NAME = ("a", "b", ...)`` module-level constants, by name.

    Lists count too; non-string elements disqualify the assignment.
    Concatenations of known names (``ALL = A + B``) are resolved.
    """
    out: dict[str, tuple[str, ...]] = {}

    def resolve(value: ast.AST) -> tuple[str, ...] | None:
        if isinstance(value, (ast.Tuple, ast.List)):
            elems: list[str] = []
            for e in value.elts:
                if isinstance(e, ast.Constant) and isinstance(e.value, str):
                    elems.append(e.value)
                else:
                    return None
            return tuple(elems)
        if isinstance(value, ast.Name):
            return out.get(value.id)
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
            left = resolve(value.left)
            right = resolve(value.right)
            if left is not None and right is not None:
                return left + right
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            resolved = resolve(node.value)
            if resolved is not None:
                out[node.targets[0].id] = resolved
    return out


def assignment_node(tree: ast.AST, name: str) -> ast.Assign | None:
    """The ``NAME = ...`` assignment node, for anchoring findings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == name:
            return node
    return None


def int_tuple_assignment(tree: ast.AST, name: str) -> tuple[int, ...] | None:
    """``NAME = (1, 2)`` module-level int-tuple constant, or None."""
    node = assignment_node(tree, name)
    if node is None or not isinstance(node.value, (ast.Tuple, ast.List)):
        return None
    elems: list[int] = []
    for e in node.value.elts:
        if isinstance(e, ast.Constant) and isinstance(e.value, int) \
                and not isinstance(e.value, bool):
            elems.append(e.value)
        else:
            return None
    return tuple(elems)


def int_assignment(tree: ast.AST, name: str) -> int | None:
    """``NAME = 1`` module-level int constant, or None."""
    node = assignment_node(tree, name)
    if node is not None and isinstance(node.value, ast.Constant) \
            and isinstance(node.value.value, int) \
            and not isinstance(node.value.value, bool):
        return node.value.value
    return None


def dict_literal_str_items(value: ast.AST) -> dict[str, str] | None:
    """A ``{"k": "v", ...}`` literal as a plain dict, else None."""
    if not isinstance(value, ast.Dict):
        return None
    out: dict[str, str] = {}
    for k, v in zip(value.keys, value.values):
        if isinstance(k, ast.Constant) and isinstance(k.value, str) \
                and isinstance(v, ast.Constant) and isinstance(v.value, str):
            out[k.value] = v.value
        else:
            return None
    return out


def terminal_name(node: ast.AST) -> str | None:
    """``a.b.c`` → ``"c"``; ``x`` → ``"x"``; else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
