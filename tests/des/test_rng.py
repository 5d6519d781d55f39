"""Unit tests for named RNG streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.des import RngRegistry
from repro.des.rng import _name_key


class TestRngRegistry:
    def test_same_name_returns_same_generator(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_reproducible_across_registries(self):
        a = RngRegistry(42).stream("workload.p3")
        b = RngRegistry(42).stream("workload.p3")
        assert np.allclose(a.random(10), b.random(10))

    def test_different_names_differ(self):
        reg = RngRegistry(42)
        xs = reg.stream("a").random(5)
        ys = reg.stream("b").random(5)
        assert not np.allclose(xs, ys)

    def test_different_seeds_differ(self):
        xs = RngRegistry(1).stream("a").random(5)
        ys = RngRegistry(2).stream("a").random(5)
        assert not np.allclose(xs, ys)

    def test_creation_order_irrelevant(self):
        r1 = RngRegistry(9)
        r1.stream("x")
        v1 = r1.stream("y").random()
        r2 = RngRegistry(9)
        v2 = r2.stream("y").random()  # "x" never created here
        assert v1 == v2

    def test_spawn_seed_stable(self):
        assert (RngRegistry(5).spawn_seed("point.3")
                == RngRegistry(5).spawn_seed("point.3"))
        assert (RngRegistry(5).spawn_seed("point.3")
                != RngRegistry(5).spawn_seed("point.4"))

    def test_stream_is_default_rng_of_its_seed_sequence(self):
        gen = RngRegistry(42).stream("chan.3.5")
        ref = np.random.default_rng(
            np.random.SeedSequence([42, _name_key("chan.3.5")]))
        assert type(gen.bit_generator) is type(ref.bit_generator)
        assert gen.random(64).tobytes() == ref.random(64).tobytes()

    def test_names_sorted(self):
        reg = RngRegistry(0)
        reg.stream("z")
        reg.stream("a")
        assert reg.names() == ["a", "z"]

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("nope")  # type: ignore[arg-type]

    def test_numpy_integer_seed_accepted(self):
        reg = RngRegistry(np.int64(7))
        assert reg.root_seed == 7
