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


RULES: dict[str, Callable[[Path], list[str]]] = {
    "no-invariant-monitor": no_invariant_monitor,
    "judges-share-the-library": judges_share_the_library,
    "runtimes-do-not-import-verify": runtimes_do_not_import_verify,
    "one-fault-run-judge": one_fault_run_judge,
}


# -- seeded trees: one broken tree per rule ----------------------------------


def _write(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


#: A tree that keeps every rule: each judge imports the library, and
#: chaos/des.py builds the one faulted run.
CLEAN = {**{judge: "from ..causality.properties import STATE_CHECKS\n"
            for judge in JUDGES},
         "repro/chaos/des.py": "from ..causality.properties import "
                               "STATE_CHECKS\nrun_experiment(cfg)\n"}

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
