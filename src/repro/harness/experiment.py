"""Experiment configuration: a run named as data.

One :class:`ExperimentConfig` fully determines a run — protocol, system
size, topology, latency model, workload, checkpointing parameters, storage
parameters, and the seed.  This module holds the config, the protocol
registry (:data:`PROTOCOLS`) and the checks a config passes before
anything is built, and imports nothing of the simulator: naming, keying
(:func:`~repro.harness.executor.config_key`) and caching a sweep of
configs loads neither numpy nor the DES.

The run path — :func:`build_experiment`, :func:`run_experiment`,
:class:`RunResult` and the substrate factories :data:`LATENCIES`,
:data:`TOPOLOGIES` and :data:`FLUSH_POLICIES` — lives in
:mod:`repro.harness.runner` and is importable from here by name: it
loads on first use (:mod:`repro._lazy`).

The registry gives every protocol a uniform
``build(cfg, sim, network, storage) -> runtime`` constructor plus the
FIFO requirement flag (Chandy-Lamport), so comparisons and sweeps treat
protocols as interchangeable values.  A built-in entry names its builder
by ``"module:attribute"`` path, imported on the protocol's first build —
running the optimistic protocol never loads the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cache
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .._lazy import lazy_exports

if TYPE_CHECKING:           # what type checkers and IDEs read
    from .runner import (
        FLUSH_POLICIES,
        LATENCIES,
        TOPOLOGIES,
        RunResult,
        build_experiment,
        run_experiment,
    )

#: The run path, importable from here by name: name -> defining module.
_LAZY = {
    "FLUSH_POLICIES": "runner",
    "LATENCIES": "runner",
    "TOPOLOGIES": "runner",
    "RunResult": "runner",
    "build_experiment": "runner",
    "run_experiment": "runner",
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)


@dataclass
class ExperimentConfig:
    """Everything that determines one run."""

    protocol: str = "optimistic"
    n: int = 8
    seed: int = 0
    horizon: float = 300.0
    # Substrate ------------------------------------------------------------------
    topology: str = "complete"
    topology_kwargs: dict[str, Any] = field(default_factory=dict)
    latency: str = "uniform"
    latency_kwargs: dict[str, Any] = field(
        default_factory=lambda: {"low": 0.05, "high": 0.5})
    disk_seek: float = 0.02
    disk_bandwidth: float = 50e6
    storage_servers: int = 1
    # Workload --------------------------------------------------------------------
    workload: str = "uniform"
    workload_kwargs: dict[str, Any] = field(
        default_factory=lambda: {"rate": 1.0, "msg_size": 1024})
    # Checkpointing ------------------------------------------------------------------
    checkpoint_interval: float = 60.0
    state_bytes: int = 64_000_000
    timeout: float = 20.0
    capture_time: float = 0.1          # CIC forced-checkpoint capture
    flush: str = "at_finalize"         # optimistic flush policy
    flush_kwargs: dict[str, Any] = field(default_factory=dict)
    machine_kwargs: dict[str, Any] = field(default_factory=dict)
    initiation_phase: str = "jittered"
    log_all_messages: bool = False     # optimistic pessimistic-log ablation
    #: Incremental checkpointing (optimistic protocol): every k-th full.
    incremental_every: int | None = None
    delta_fraction: float = 0.1
    uncoordinated_logging: bool = False
    #: NIC bandwidth (bytes/s) for every process, ``None`` = unlimited.
    nic_bandwidth: float | None = None
    #: Shared-fabric bandwidth (bytes/s), ``None`` = no shared bottleneck.
    medium_bandwidth: float | None = None
    #: Route checkpoint writes over the network to a file-server *node*
    #: (see :mod:`repro.storage.networked`): transfers consume sender NIC
    #: bandwidth and can delay application messages (experiment E17).
    networked_storage: bool = False
    # Execution guards / verification ----------------------------------------------------
    max_events: int = 5_000_000
    verify: bool = True
    #: Disable trace recording for large-scale performance runs.  Mutually
    #: exclusive with ``verify`` (the verifier reads the trace).
    trace_enabled: bool = True

    def derive(self, **changes: Any) -> "ExperimentConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)


#: Every config field, and those holding a dict (``workload_kwargs``...).
_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))
_DICT_FIELDS = frozenset(name for name, value in vars(ExperimentConfig())
                         .items() if isinstance(value, dict))


# -- protocol registry -------------------------------------------------------------

#: ``build(cfg, sim, network, storage) -> runtime``.
Builder = Callable[..., Any]


@cache
def _resolve(path: str) -> Builder:
    """A ``"module:attribute"`` builder path, imported once per path."""
    module, _, name = path.partition(":")
    return getattr(import_module(module), name)


@dataclass(frozen=True)
class ProtocolSpec:
    """Uniform protocol constructor for the harness.

    ``build`` is the constructor itself or its ``"module:attribute"``
    path; a path is imported on the protocol's first build and the
    callable cached, so the registry costs no import until a protocol
    runs.
    """

    name: str
    needs_fifo: bool
    build: Builder | str

    @property
    def builder(self) -> Builder:
        """The ``build`` callable (a path resolved once, then cached)."""
        build = self.build
        return _resolve(build) if isinstance(build, str) else build


_BASELINES = "repro.harness.baseline_builders"

PROTOCOLS: dict[str, ProtocolSpec] = {
    "optimistic": ProtocolSpec(
        "optimistic", False, "repro.harness.runner:build_optimistic"),
    "chandy-lamport": ProtocolSpec(
        "chandy-lamport", True, f"{_BASELINES}:build_chandy_lamport"),
    "koo-toueg": ProtocolSpec(
        "koo-toueg", False, f"{_BASELINES}:build_koo_toueg"),
    "staggered": ProtocolSpec(
        "staggered", False, f"{_BASELINES}:build_staggered"),
    "cic-bcs": ProtocolSpec("cic-bcs", False, f"{_BASELINES}:build_cic"),
    "quasi-sync-ms": ProtocolSpec(
        "quasi-sync-ms", False, f"{_BASELINES}:build_manivannan_singhal"),
    "plank-staggered": ProtocolSpec(
        "plank-staggered", False, f"{_BASELINES}:build_plank"),
    "uncoordinated": ProtocolSpec(
        "uncoordinated", False, f"{_BASELINES}:build_uncoordinated"),
}


def register_protocol(spec: ProtocolSpec, *, replace: bool = False) -> None:
    """Add a protocol to the registry (extension point for new schemes).

    The spec's ``build(cfg, sim, network, storage)`` (a callable, or its
    ``"module:attribute"`` path) must return a runtime object exposing at
    least ``build(apps)``, ``start()`` and ``global_records()``
    (verification and the rounds count read it); implementing the
    optional metric surfaces (``total_checkpoints``,
    ``response_delays``, ...) unlocks the comparison columns — see
    :class:`repro.baselines.base.BaselineRuntime`, which has all of them.
    """
    if spec.name in PROTOCOLS and not replace:
        raise ValueError(
            f"protocol {spec.name!r} already registered "
            f"(pass replace=True to override)")
    PROTOCOLS[spec.name] = spec


# -- checks that need no simulator --------------------------------------------------


def check_config(cfg: ExperimentConfig) -> None:
    """Reject a config no build can run: an unknown protocol (KeyError),
    or ``verify`` without ``trace_enabled`` (ValueError)."""
    if cfg.protocol not in PROTOCOLS:
        raise KeyError(f"unknown protocol {cfg.protocol!r}; "
                       f"choices: {sorted(PROTOCOLS)}")
    if cfg.verify and not cfg.trace_enabled:
        raise ValueError("verify=True requires trace_enabled=True "
                         "(the consistency verifier reads the trace)")


def check_sweep(param: str, protocols: Iterable[str]) -> None:
    """Reject (ValueError) a sweep that would fail only when it runs.

    Every protocol must be registered, and ``param`` must name a config
    field or ``head.key`` into a dict field (``workload_kwargs.rate``).
    """
    unknown = [p for p in protocols if p not in PROTOCOLS]
    if unknown:
        raise ValueError(f"unknown protocols {unknown}; "
                         f"choices: {sorted(PROTOCOLS)}")
    head, dot, key = param.partition(".")
    if head not in _FIELDS:
        raise ValueError(f"unknown config field {head!r} in sweep param "
                         f"{param!r}")
    if dot and (head not in _DICT_FIELDS or not key):
        raise ValueError(f"sweep param {param!r}: only a dict field takes "
                         f"a key; dict fields: {sorted(_DICT_FIELDS)}")


def set_param(cfg: ExperimentConfig, param: str,
              value: Any) -> ExperimentConfig:
    """Set a (possibly dotted) config field, e.g. ``workload_kwargs.rate``."""
    if "." in param:
        head, key = param.split(".", 1)
        current = dict(getattr(cfg, head))
        current[key] = value
        return cfg.derive(**{head: current})
    return cfg.derive(**{param: value})
