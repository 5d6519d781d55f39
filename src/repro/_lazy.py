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

``repro verify --lint`` (REP109) reads the same ``_LAZY`` literal to know
that these names are *not* imported with the package.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(namespace: dict[str, Any], lazy: Mapping[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Build a package's module-level ``__getattr__`` and ``__dir__``.

    ``namespace`` is the package's ``globals()``; ``lazy`` maps each
    exported name to the submodule (relative to the package) defining it.
    A resolved object is cached in ``namespace``, so ``__getattr__`` runs
    at most once per name and the export is then an ordinary attribute —
    the *same object* as the submodule's.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        submodule = lazy.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(lazy))

    return __getattr__, __dir__
