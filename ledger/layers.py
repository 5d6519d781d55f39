"""One table: which layer a ``repro`` module's self time belongs to.

A module resolves through the longest dotted prefix in ``LAYER_OF``, so
every module under ``src/repro`` — including ones added later — lands in
exactly one layer.  Code outside ``repro`` (builtins, numpy, the
standard library) is ``other``.  ``profile_layers`` turns one cProfile
run into per-layer ``tottime`` sums and per-function call counts.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path

OTHER = "other"

#: Dotted module prefix -> layer name.
LAYER_OF: dict[str, str] = {
    "repro": OTHER,                       # __init__, api, cli
    "repro.analysis": OTHER,
    "repro.baselines": OTHER,
    "repro.fuzz": OTHER,
    "repro.verify": OTHER,
    "repro.viz": OTHER,
    "repro.causality": "causality.consistency",
    "repro.chaos": "chaos.des",           # plan + the DES injector
    "repro.chaos.live": OTHER,
    "repro.chaos.matrix": OTHER,
    "repro.core": "core.state_machine",   # machine, types, effects, config
    "repro.core.host": "core.host",
    "repro.des": "des.engine",            # engine, events, process
    "repro.des.rng": "des.rng",
    "repro.des.trace": "des.trace",
    "repro.harness": "harness.experiment",
    "repro.harness.executor": "harness.executor",
    "repro.live": OTHER,                  # supervisor, worker, workload
    "repro.live.conformance": "live.conformance",
    "repro.live.host": "live.host",
    "repro.live.journal": "live.journal",
    "repro.live.resilience": "live.resilience",
    "repro.live.storage": "live.storage",
    "repro.live.transport": "live.transport",
    "repro.live.wire": "live.transport",
    "repro.metrics": "metrics.collectors",
    "repro.net": "net.network",           # network, channel, message
    "repro.net.latency": "net.latency",
    "repro.obs": "obs.sinks",
    "repro.recovery": "recovery",
    "repro.serve": "serve.server",
    "repro.serve.client": "serve.client",
    "repro.serve.protocol": "serve.protocol",
    "repro.serve.queue": "serve.scheduler",
    "repro.serve.scheduler": "serve.scheduler",
    "repro.serve.state": "serve.state",
    "repro.storage": "storage",           # stable_storage, local_store, space
    "repro.storage.serialize": "storage.serialize",
    "repro.workload": "workload.app",
}


def layer_of(module: str | None) -> str:
    """The layer of a dotted module name (``None`` = not a repro module)."""
    while module:
        layer = LAYER_OF.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return OTHER


def module_of(filename: str, src_root: Path) -> str | None:
    """Dotted module for a source file under ``src_root``, else ``None``."""
    try:
        rel = Path(filename).resolve().relative_to(src_root)
    except (ValueError, OSError):
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or None


def profile_layers(profile: cProfile.Profile, src_root: Path
                   ) -> tuple[dict[str, float], dict[tuple[str, str], int]]:
    """``(self seconds per layer, calls per (module, function))``."""
    self_s: dict[str, float] = {}
    calls: dict[tuple[str, str], int] = {}
    modules: dict[str, str | None] = {}
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) \
            in pstats.Stats(profile).stats.items():  # type: ignore[attr-defined]
        if filename not in modules:
            modules[filename] = module_of(filename, src_root)
        module = modules[filename]
        layer = layer_of(module)
        self_s[layer] = self_s.get(layer, 0.0) + tottime
        if module is not None:
            calls[module, func] = calls.get((module, func), 0) + ncalls
    return self_s, calls


def fold(self_s: dict[str, float], keep: tuple[str, ...]) -> dict[str, float]:
    """Keep the named layers; everything else sums into ``other``."""
    out = {layer: self_s.get(layer, 0.0) for layer in keep}
    out[OTHER] = sum(v for k, v in self_s.items() if k not in keep)
    return out
