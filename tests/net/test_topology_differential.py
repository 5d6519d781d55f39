"""``Topology`` against networkx, and ``random_connected`` against PR 20.

``net/topology.py`` used to wrap a networkx graph; it is now adjacency
sets and one BFS, with ``complete(n)`` a formula.  networkx stays a
``[dev]`` extra for exactly this file: every public query is compared
with networkx's answer on random connected graphs and on every factory,
and the per-seed edge sets of ``random_connected`` are pinned to what
the networkx-based implementation drew.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import (
    Topology,
    complete,
    grid,
    line,
    random_connected,
    ring,
    star,
)

nx = pytest.importorskip("networkx")


def reference(topo: Topology) -> "nx.Graph":
    g = nx.Graph()
    g.add_nodes_from(range(topo.n))
    g.add_edges_from(topo.edges())
    return g


def assert_agrees(topo: Topology, g: "nx.Graph") -> None:
    """Every public query of ``topo`` equals networkx's answer on ``g``."""
    n = g.number_of_nodes()
    assert topo.n == n
    assert topo.num_channels == 2 * g.number_of_edges()
    assert topo.edges() == sorted(tuple(sorted(e)) for e in g.edges)
    assert topo.diameter() == (nx.diameter(g) if n > 1 else 0)
    for u in range(n):
        assert topo.neighbors(u) == sorted(g.neighbors(u))
        assert topo.degree(u) == g.degree(u)
        hops = nx.single_source_shortest_path_length(g, u)
        assert topo.hops_from(u) == hops
        for v in range(n):
            assert topo.connected(u, v) == g.has_edge(u, v)
            path = topo.shortest_path(u, v)
            assert path[0] == u and path[-1] == v
            assert len(path) == hops[v] + 1
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
    assert not topo.connected(0, n) and not topo.connected(-1, 0)


@st.composite
def connected_graphs(draw) -> tuple[int, list[tuple[int, int]]]:
    """A random spanning tree plus random extra edges, n <= 12."""
    n = draw(st.integers(min_value=1, max_value=12))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v)
            for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs \
        else []
    return n, tree + extra


@given(connected_graphs())
@settings(max_examples=150, deadline=None)
def test_random_connected_graphs_agree_with_networkx(graph):
    n, edges = graph
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    assert_agrees(Topology(n, edges), g)


FACTORY_CASES = {
    **{f"complete({n})": (complete(n), nx.complete_graph(n))
       for n in (1, 2, 5)},
    "ring(1)": (ring(1), nx.complete_graph(1)),
    "ring(2)": (ring(2), nx.path_graph(2)),
    "ring(3)": (ring(3), nx.cycle_graph(3)),
    "ring(7)": (ring(7), nx.cycle_graph(7)),
    "star(1)": (star(1), nx.complete_graph(1)),
    "star(6)": (star(6), nx.star_graph(5)),
    "star(5,hub=2)": (star(5, hub=2), nx.relabel_nodes(
        nx.star_graph(4), {0: 2, 2: 0})),
    "line(1)": (line(1), nx.path_graph(1)),
    "line(6)": (line(6), nx.path_graph(6)),
    "grid(1x1)": (grid(1, 1), nx.path_graph(1)),
    "grid(3x4)": (grid(3, 4), nx.relabel_nodes(
        nx.grid_2d_graph(3, 4), lambda rc: rc[0] * 4 + rc[1])),
}


@pytest.mark.parametrize("case", sorted(FACTORY_CASES))
def test_factories_agree_with_networkx(case):
    topo, g = FACTORY_CASES[case]
    assert_agrees(topo, g)
    assert topo.name.startswith(case.split("(")[0])


@pytest.mark.parametrize("seed", range(4))
def test_random_connected_agrees_with_networkx(seed):
    topo = random_connected(11, 0.12, seed)
    assert_agrees(topo, reference(topo))


#: SHA-256 over ``[[n, p, seed, sorted edges], ...]`` of the grid below,
#: computed on the parent commit (026a8a2), where ``random_connected``
#: built a networkx graph and stitched ``nx.connected_components``.
RANDOM_CONNECTED_PIN = \
    "68bb8bdca8bdb3a35088214f400776a5c8d05638cc5e815d543c813f57666c4e"


def test_random_connected_edge_sets_are_the_parent_commits():
    draws = [[n, p, seed, [list(e) for e in random_connected(n, p, seed)
                           .edges()]]
             for n in (2, 5, 9, 16, 33)
             for p in (0.0, 0.15, 0.6)
             for seed in (0, 1, 7, 12345)]
    assert len(draws) == 5 * 3 * 4
    assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() \
        == RANDOM_CONNECTED_PIN
