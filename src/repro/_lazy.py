"""Lazy package exports (PEP 562), written once.

A package ``__init__`` that re-exports its submodules' public names
eagerly makes every importer of *any* submodule pay for *all* of them:
``python -m repro.live.worker`` used to import the simulator, numpy and
the conformance replay because ``repro/live/__init__.py`` named them.
With :func:`lazy_exports` a package lists ``name -> submodule`` once and
the submodule is imported when the name is first reached — whether by
``pkg.Name``, ``from pkg import Name`` or ``from pkg import *`` — so a
process imports what it runs and nothing else.  Resolution happens where
the importer's own ``import`` statement executes (module top for every
caller in this tree), never inside a timed operation.

Usage, in a package ``__init__``::

    from typing import TYPE_CHECKING
    from .._lazy import lazy_exports

    if TYPE_CHECKING:           # what type checkers and IDEs read
        from .sinks import JsonlSink
        from .tracer import Tracer

    _LAZY = {"JsonlSink": "sinks", "Tracer": "tracer"}
    __getattr__, __dir__ = lazy_exports(globals(), _LAZY)
    __all__ = ["JsonlSink", "Tracer"]

A plain module may do the same to keep a heavy half importable by name
from a light one: ``repro/harness/experiment.py`` lists
``"run_experiment": "runner"`` and the name resolves in its sibling
``repro.harness.runner``.

An export may share its submodule's name (``repro.harness.sweep`` is the
function defined in ``repro/harness/sweep.py``).  The import system binds
every loaded submodule as an attribute of its package, which would replace
such an export by the module object whenever the submodule is imported
before the name is reached; the package's module class therefore declines
that one binding, as an eager ``from .sweep import sweep`` in the
``__init__`` used to overwrite it.  ``import_module("repro.harness.sweep")``
and ``from repro.harness.sweep import SweepResult`` still reach the module
through ``sys.modules``.

``repro verify --lint`` (REP109) reads the same ``_LAZY`` literal to know
that these names are *not* imported with the package or module.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Callable, Mapping


def lazy_exports(namespace: dict[str, Any], lazy: Mapping[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Build a module's ``__getattr__`` and ``__dir__``.

    ``namespace`` is the module's ``globals()``; ``lazy`` maps each
    exported name to the submodule defining it, relative to the package
    that holds the module: for a package ``__init__`` that is the package
    itself, for a plain module its siblings.  A resolved object is cached
    in ``namespace``, so ``__getattr__`` runs at most once per name and
    the export is then an ordinary attribute — the *same object* as the
    submodule's.
    """
    module = namespace["__name__"]
    package = namespace["__package__"]
    if module == package:
        _keep_exports_over_submodules(namespace, lazy)

    def __getattr__(name: str) -> Any:
        submodule = lazy.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(lazy))

    return __getattr__, __dir__


def _keep_exports_over_submodules(namespace: dict[str, Any],
                                  lazy: Mapping[str, str]) -> None:
    """Stop the package's same-named submodules from replacing exports."""
    shadowed = frozenset(name for name, sub in lazy.items() if name == sub)
    package = sys.modules.get(namespace["__name__"])
    if not shadowed or package is None or vars(package) is not namespace:
        return

    class LazyPackage(type(package)):   # type: ignore[misc]
        def __setattr__(self, name: str, value: Any) -> None:
            if name in shadowed and isinstance(value, ModuleType):
                return
            super().__setattr__(name, value)

    package.__class__ = LazyPackage
