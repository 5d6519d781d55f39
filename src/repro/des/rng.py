"""Named, reproducible random-number streams.

Every stochastic component of the simulation (each channel's latency model,
each application process's workload, the failure injector, ...) draws from its
*own* named stream.  Streams are derived deterministically from a single root
seed plus the stream name, so:

* the same ``(root_seed, name)`` always yields the same sequence, regardless
  of the order in which streams are created or used;
* adding a new component (a new stream) does not perturb the draws seen by
  existing components — crucial for variance-reduction when comparing
  protocols over "the same" workload.

Streams are ``numpy.random.Generator`` instances (PCG64), per the hpc guides'
recommendation to use ``default_rng`` rather than the legacy global state.
"""

from __future__ import annotations

import zlib

import numpy as np


def _name_key(name: str) -> int:
    """Map a stream name to a stable 32-bit integer.

    ``zlib.crc32`` is stable across Python versions and processes (unlike
    ``hash``, which is salted), so stream derivation is fully reproducible.
    """
    return zlib.crc32(name.encode("utf-8"))


class RngRegistry:
    """Factory and cache for named random streams.

    Parameters
    ----------
    root_seed:
        Master seed for the whole simulation.  Two registries with the same
        root seed produce identical streams for identical names.

    Examples
    --------
    >>> reg = RngRegistry(42)
    >>> a = reg.stream("workload.p0")
    >>> b = reg.stream("workload.p1")
    >>> a is reg.stream("workload.p0")   # cached
    True
    >>> float(a.random()) != float(b.random())   # independent streams
    True
    """

    def __init__(self, root_seed: int) -> None:
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence([self.root_seed, _name_key(name)])
            # What ``default_rng(seq)`` builds, minus its argument dispatch.
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def spawn_seed(self, name: str) -> int:
        """Derive a plain integer seed for ``name``.

        Useful when a sub-component wants to build its own registry (e.g. a
        sweep deriving one root seed per parameter point).
        """
        seq = np.random.SeedSequence([self.root_seed, _name_key(name)])
        return int(seq.generate_state(1, dtype=np.uint64)[0])

    def names(self) -> list[str]:
        """Names of all streams created so far (for diagnostics)."""
        return sorted(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(root_seed={self.root_seed}, streams={len(self._streams)})"
