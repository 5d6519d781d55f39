"""The lazy-export contract of every package built on ``repro._lazy``.

A package that lists ``name -> submodule`` in ``_LAZY`` must be
indistinguishable from one that imported those names eagerly — except
that importing it imports nothing it does not name.
"""

from __future__ import annotations

import importlib
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.harness import ExperimentConfig, RunSummary, run_many

SRC = Path(repro.__file__).resolve().parent

#: Every package whose ``__init__`` calls the helper — found by reading
#: the tree, so a new user is under the contract without being listed.
LAZY_PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC.parent).parts)
    for init in SRC.rglob("__init__.py")
    if "lazy_exports(" in init.read_text(encoding="utf-8"))


def test_the_packages_on_the_start_up_path_use_the_helper():
    assert LAZY_PACKAGES == [
        "repro.chaos", "repro.core", "repro.des", "repro.harness",
        "repro.live", "repro.metrics", "repro.net", "repro.obs",
        "repro.serve", "repro.storage"]


def test_there_is_one_lazy_export_implementation_in_the_tree():
    hand_written = [
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if path.name != "_lazy.py"
        and "def __getattr__(name" in path.read_text(encoding="utf-8")]
    assert hand_written == []


@pytest.fixture(params=LAZY_PACKAGES)
def pkg(request) -> types.ModuleType:
    return importlib.import_module(request.param)


def test_all_is_exactly_the_eager_names_plus_the_lazy_map(pkg):
    # One listing, no drift: read from the source so names another test
    # already resolved (and cached in the namespace) do not count as eager.
    namespace: dict = {"__name__": pkg.__name__, "__package__": pkg.__name__,
                       "__path__": pkg.__path__, "__file__": pkg.__file__}
    exec(compile(Path(pkg.__file__).read_text(encoding="utf-8"),
                 pkg.__file__, "exec"), namespace)
    eager = {name for name, value in namespace.items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)
             and name not in ("TYPE_CHECKING", "lazy_exports")}
    assert not eager & set(pkg._LAZY)
    assert set(pkg.__all__) == eager | set(pkg._LAZY)
    assert len(pkg.__all__) == len(set(pkg.__all__))


def test_every_export_resolves_to_the_submodules_own_object(pkg):
    for name, submodule in pkg._LAZY.items():
        defining = importlib.import_module(f"{pkg.__name__}.{submodule}")
        assert getattr(pkg, name) is getattr(defining, name), name
        assert vars(pkg)[name] is getattr(defining, name)   # cached
    for name in pkg.__all__:
        assert getattr(pkg, name) is not None
        assert name in dir(pkg)


def test_star_import_binds_exactly_all(pkg):
    namespace: dict = {}
    exec(f"from {pkg.__name__} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(pkg.__all__)


def test_unknown_attribute_names_the_package(pkg):
    with pytest.raises(AttributeError, match=pkg.__name__.replace(".", r"\.")):
        _ = pkg.no_such_export
    with pytest.raises(ImportError):
        exec(f"from {pkg.__name__} import no_such_export", {})


def test_classes_reached_lazily_pickle_by_their_defining_module():
    from repro.core import FinalizedCheckpoint, Piggyback, Status
    from repro.net import Message
    for cls in (FinalizedCheckpoint, Piggyback, Status, Message):
        assert pickle.loads(pickle.dumps(cls)) is cls
    pb = Piggyback(csn=3, stat=Status.TENTATIVE, tent_set=frozenset({0, 2}))
    assert pickle.loads(pickle.dumps(pb)) == pb


def test_spawned_executor_workers_still_return_run_summaries():
    # run_many(jobs > 1) is a spawn-context pool — a fresh import in
    # every worker: configs go out and RunSummary records come back
    # through the lazy packages.
    configs = [ExperimentConfig(n=3, seed=seed, horizon=40.0,
                                checkpoint_interval=15.0, timeout=6.0,
                                state_bytes=20_000, verify=False)
               for seed in (1, 2)]
    out = run_many(configs, jobs=2)
    assert [type(o) for o in out] == [RunSummary, RunSummary]
    assert [o.config.seed for o in out] == [1, 2]


def test_a_submodule_imported_first_leaves_its_namesake_export_alone():
    # repro.harness exports the functions sweep/replicate from the
    # submodules sweep.py/replicate.py; importing a submodule by its path
    # before the name is reached must not bind the module over the export.
    code = (
        "import importlib, types\n"
        "mods = [importlib.import_module(f'repro.harness.{n}')\n"
        "        for n in ('sweep', 'replicate')]\n"
        "import repro.harness as h\n"
        "from repro.harness.sweep import SweepResult\n"
        "assert h.sweep is mods[0].sweep, h.sweep\n"
        "assert h.replicate is mods[1].replicate, h.replicate\n"
        "assert not isinstance(h.sweep, types.ModuleType)\n"
        "assert SweepResult is mods[0].SweepResult\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
