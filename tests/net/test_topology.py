"""Unit tests for topology factories and queries."""

from __future__ import annotations

import pytest

from repro.net import (
    Topology,
    complete,
    grid,
    line,
    random_connected,
    ring,
    star,
)


class TestFactories:
    def test_complete_all_pairs(self):
        t = complete(5)
        assert all(t.connected(i, j) for i in range(5) for j in range(5)
                   if i != j)
        assert t.num_channels == 5 * 4

    def test_ring_neighbors(self):
        t = ring(6)
        assert t.neighbors(0) == [1, 5]
        assert t.connected(2, 3) and not t.connected(0, 3)

    def test_ring_small_sizes(self):
        assert ring(1).n == 1
        t2 = ring(2)
        assert t2.connected(0, 1)
        t3 = ring(3)
        assert len(t3.edges()) == 3 and t3.num_channels == 6

    def test_star_hub(self):
        t = star(5, hub=2)
        assert t.degree(2) == 4
        assert all(t.connected(2, i) for i in range(5) if i != 2)
        assert not t.connected(0, 1)

    def test_line_path(self):
        t = line(4)
        assert t.shortest_path(0, 3) == [0, 1, 2, 3]
        assert t.diameter() == 3

    def test_grid_shape(self):
        t = grid(2, 3)
        assert t.n == 6
        assert t.connected(0, 1) and t.connected(0, 3)
        assert not t.connected(0, 4)

    def test_random_connected_is_connected(self):
        for seed in range(5):
            t = random_connected(12, 0.05, seed=seed)
            assert sorted(t.hops_from(0)) == list(range(12))

    def test_random_connected_deterministic(self):
        a = random_connected(10, 0.3, seed=4)
        b = random_connected(10, 0.3, seed=4)
        assert a.edges() == b.edges()

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            complete(0)

    def test_random_rejects_bad_p(self):
        with pytest.raises(ValueError):
            random_connected(4, 1.5, seed=0)


class TestTopologyValidation:
    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            Topology(4, [(0, 1), (2, 3)])

    def test_rejects_mislabelled_nodes(self):
        with pytest.raises(ValueError, match="exactly"):
            Topology(3, [(1, 2), (2, 3)])

    def test_single_node(self):
        t = complete(1)
        assert t.n == 1 and t.diameter() == 0
