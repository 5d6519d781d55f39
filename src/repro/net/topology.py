"""Network topologies.

A topology constrains which process pairs may exchange messages directly.
The paper's algorithm itself only needs *some* connectivity (piggybacked
knowledge spreads transitively), but two baselines care deeply:

* Chandy-Lamport sends a marker down every outgoing channel, so marker cost
  scales with edge count;
* Plank's staggered scheme staggers only as much as the topology allows —
  the paper notes a completely connected topology "subverts staggering".

A topology is an undirected graph on nodes ``0..n-1`` held as adjacency
sets; communication is bidirectional over an edge, and the directed
channel ``(u, v)`` exists iff the edge ``{u, v}`` does.  Distances come
from one breadth-first search (:meth:`Topology.hops_from`);
:func:`complete` answers every query from a formula instead of
materialising ``n(n-1)/2`` edges.  The simulator consumes only hop
*counts* from :meth:`Topology.shortest_path`, so which of several equally
short paths is returned is unspecified.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np


class Topology:
    """Process-connectivity graph with convenience queries."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 name: str = "custom") -> None:
        if n < 1:
            raise ValueError("topology must have at least one node")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(
                    f"nodes must be exactly 0..{n - 1} and edges join two "
                    f"of them, got edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj
        #: src -> hops_from(src), filled on demand (a topology never
        #: changes, and a multi-hop send asks per message).
        self._hops: dict[int, dict[int, int]] = {}
        self.name = name
        if len(self.hops_from(0)) != n:
            raise ValueError("topology must be connected")

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self._adj)

    @property
    def num_channels(self) -> int:
        """Number of *directed* channels (2 per undirected edge)."""
        return sum(len(nbrs) for nbrs in self._adj)

    def connected(self, u: int, v: int) -> bool:
        """Can ``u`` send directly to ``v``?"""
        return 0 <= u < len(self._adj) and v in self._adj[u]

    def neighbors(self, u: int) -> list[int]:
        """Sorted direct neighbors of ``u``."""
        return sorted(self._adj[u])

    def degree(self, u: int) -> int:
        """Out-degree of ``u`` (== in-degree; channels are symmetric)."""
        return len(self._adj[u])

    def edges(self) -> list[tuple[int, int]]:
        """Every undirected edge once, as sorted ``(u, v)`` with ``u < v``."""
        return [(u, v) for u in range(self.n) for v in self.neighbors(u)
                if u < v]

    def hops_from(self, src: int) -> Mapping[int, int]:
        """Hop distance from ``src`` to every node (one breadth-first
        search per source, remembered)."""
        dist = self._hops.get(src)
        if dist is None:
            dist = self._hops[src] = {src: 0}
            frontier = [src]
            while frontier:
                reached = []
                for u in frontier:
                    for v in self._adj[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            reached.append(v)
                frontier = reached
        return dist

    def diameter(self) -> int:
        """Graph diameter (hops); 0 for a single node."""
        return max(max(self.hops_from(u).values()) for u in range(self.n))

    def shortest_path(self, u: int, v: int) -> list[int]:
        """One shortest node path from ``u`` to ``v`` (inclusive)."""
        to_v = self.hops_from(v)
        path = [u]
        while path[-1] != v:
            here = path[-1]
            path.append(min(w for w in self._adj[here]
                            if to_v[w] == to_v[here] - 1))
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Topology({self.name!r}, n={self.n}, "
                f"edges={self.num_channels // 2})")


class _Complete(Topology):
    """``complete(n)`` as a formula: no edge is stored."""

    def __init__(self, n: int) -> None:
        self._n = n
        self.name = f"complete({n})"

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_channels(self) -> int:
        return self._n * (self._n - 1)

    def connected(self, u: int, v: int) -> bool:
        return u != v and 0 <= u < self._n and 0 <= v < self._n

    def neighbors(self, u: int) -> list[int]:
        return [v for v in range(self._n) if v != u]

    def degree(self, u: int) -> int:
        return self._n - 1

    def hops_from(self, src: int) -> Mapping[int, int]:
        return {v: int(v != src) for v in range(self._n)}

    def diameter(self) -> int:
        return int(self._n > 1)

    def shortest_path(self, u: int, v: int) -> list[int]:
        return [u] if u == v else [u, v]


# -- factories ---------------------------------------------------------------


def complete(n: int) -> Topology:
    """Every pair connected — the default for protocol experiments."""
    _check_n(n)
    return _Complete(n)


def ring(n: int) -> Topology:
    """Cycle ``0-1-...-(n-1)-0``; matches the CK_REQ forwarding intuition."""
    _check_n(n)
    # The path 0-1-...-(n-1), closed when that adds a new edge (n > 2).
    closing = [(n - 1, 0)] if n > 2 else []
    return Topology(n, [(i, i + 1) for i in range(n - 1)] + closing,
                    name=f"ring({n})")


def star(n: int, hub: int = 0) -> Topology:
    """One hub connected to all others (client-server physical layout)."""
    _check_n(n)
    return Topology(n, [(hub, i) for i in range(n) if i != hub],
                    name=f"star({n},hub={hub})")


def line(n: int) -> Topology:
    """Path ``0-1-...-(n-1)`` — maximizes staggering opportunity."""
    _check_n(n)
    return Topology(n, [(i, i + 1) for i in range(n - 1)], name=f"line({n})")


def grid(rows: int, cols: int) -> Topology:
    """2-D mesh with nodes renumbered row-major to ``0..rows*cols-1``."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    right = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c)
            for r in range(rows - 1) for c in range(cols)]
    return Topology(rows * cols, right + down, name=f"grid({rows}x{cols})")


def random_connected(n: int, p: float, seed: int) -> Topology:
    """Erdős–Rényi ``G(n, p)`` conditioned on connectivity.

    Edges are added greedily from a spanning tree if the raw draw is
    disconnected, so the function always succeeds and stays deterministic
    in ``seed``.
    """
    _check_n(n)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    # Stitch components together deterministically: union-find in which
    # the smaller root wins, so each component's root is its smallest
    # node, then one edge between consecutive roots.
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        root[max(ru, rv)] = min(ru, rv)
    roots = [u for u in range(n) if root[u] == u]
    edges += zip(roots, roots[1:])
    return Topology(n, edges, name=f"random({n},p={p},seed={seed})")


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"need at least 1 process, got {n}")
