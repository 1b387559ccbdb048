"""Synthetic traffic patterns: random uniform, 6-point 3D stencil, hot-spot."""

from __future__ import annotations

import math
import random

from .errors import InvalidParams

_SEED_MIX = 0x9E3779B97F4A7C15  # setup rng derivation; int seeds only (stable)


class TrafficPattern:
    """Destination generator. bind() fixes it to a fabric size and run seed;
    choose() draws one destination from the caller's rng stream."""

    name = "base"

    def check_fit(self, num_endnodes: int):
        """Raise InvalidParams unless bind() fits num_endnodes; builds none of its tables."""
        raise NotImplementedError

    def bind(self, num_endnodes: int, seed: int) -> "TrafficPattern":
        raise NotImplementedError

    def source_load(self, src: int, offered: float) -> float:
        return offered

    def choose(self, src: int, rng: random.Random) -> int:
        raise NotImplementedError

    def counted_endnodes(self) -> list[int]:
        """Endnodes included in the accepted-throughput metric."""
        return list(range(self.n))

    def to_dict(self) -> dict:
        return {"kind": self.name}


class UniformTraffic(TrafficPattern):
    """Destinations drawn uniformly over all endnodes except the source."""

    name = "uniform"

    def check_fit(self, num_endnodes):
        if num_endnodes < 2:
            raise InvalidParams("uniform traffic needs at least 2 endnodes")

    def bind(self, num_endnodes, seed):
        self.check_fit(num_endnodes)
        self.n = num_endnodes
        return self

    def choose(self, src, rng):
        j = rng.randrange(self.n - 1)
        return j if j < src else j + 1


def _cubish_dims(n: int) -> tuple[int, int, int]:
    """Most-cubic ordered factorization of n into three dimensions."""
    best = None
    for d1 in range(1, int(round(n ** (1 / 3))) + 2):
        if n % d1:
            continue
        m = n // d1
        for d2 in range(d1, int(math.isqrt(m)) + 1):
            if m % d2:
                continue
            d3 = m // d2
            cand = ((d3 - d1), (d1, d2, d3))
            if best is None or cand < best:
                best = cand
    return best[1]  # n >= 1 has the factorization (1, 1, n) at least


class Stencil3dTraffic(TrafficPattern):
    """Each endnode talks only to its 6 nearest neighbors on a 3D torus.

    Endnodes are mapped row-major onto the most-cubic factorization of N
    unless explicit dims are given.
    """

    name = "stencil3d"

    def __init__(self, dims: tuple[int, int, int] | None = None):
        if dims is not None and not (isinstance(dims, (tuple, list)) and len(dims) == 3
                                     and all(type(d) is int and d > 0 for d in dims)):
            raise InvalidParams(f"stencil dims must be three positive integers, got {dims}")
        self.dims = dims

    def check_fit(self, num_endnodes):
        """The grid dims: the given ones, else the most-cubic factorization."""
        if num_endnodes < 2:  # a 1x1x1 grid: every step wraps back to the source
            raise InvalidParams("stencil traffic needs at least 2 endnodes")
        dims = self.dims or _cubish_dims(num_endnodes)
        if dims[0] * dims[1] * dims[2] != num_endnodes:
            raise InvalidParams(f"dims {dims} do not factor {num_endnodes} endnodes")
        return dims

    def bind(self, num_endnodes, seed):
        self.n = num_endnodes
        self.dims = dims = self.check_fit(num_endnodes)
        dx, dy, dz = dims
        self.neighbors = []
        for e in range(num_endnodes):
            z = e % dz
            y = (e // dz) % dy
            x = e // (dy * dz)
            nbrs = []
            for ax, size in ((0, dx), (1, dy), (2, dz)):
                for step in (1, size - 1):  # +1 and -1 with wrap
                    c = [x, y, z]
                    c[ax] = (c[ax] + step) % size
                    t = (c[0] * dy + c[1]) * dz + c[2]
                    if t != e:
                        nbrs.append(t)
            self.neighbors.append(nbrs)
        return self

    def choose(self, src, rng):
        nbrs = self.neighbors[src]
        return nbrs[rng.randrange(len(nbrs))]

    def to_dict(self):
        return {"kind": self.name, "dims": list(self.dims) if self.dims else None}


class HotspotTraffic(TrafficPattern):
    """floor(fraction*N) hot sources blast floor(log2(h_s)) victim endnodes at
    full load; everyone else generates uniform traffic at the offered load.
    Victims are excluded from the throughput metric."""

    name = "hotspot"

    def __init__(self, fraction: float = 0.06):
        if type(fraction) not in (int, float) or not 0 < fraction <= 1:
            raise InvalidParams(f"hot-spot fraction must be a number in (0, 1], got {fraction!r}")
        self.fraction = float(fraction)

    def check_fit(self, num_endnodes):
        """(hot sources, victims): floor(fraction*N) and floor(log2 of that)."""
        h_s = math.floor(self.fraction * num_endnodes)
        if h_s < 1:
            raise InvalidParams(
                f"hot-spot needs floor({self.fraction}*N) >= 1 sources, N={num_endnodes} too small"
            )
        h_d = math.floor(math.log2(h_s))
        if h_d < 1:
            raise InvalidParams(f"hot-spot degenerates: h_s={h_s} gives no victims")
        return h_s, h_d

    def bind(self, num_endnodes, seed):
        self.n = num_endnodes
        h_s, h_d = self.check_fit(num_endnodes)
        setup = random.Random(seed * 2 + _SEED_MIX)
        hot = set(setup.sample(range(num_endnodes), h_s))
        self.victims = tuple(sorted(setup.sample(range(num_endnodes), h_d)))
        self._victim_set = frozenset(self.victims)
        if h_d == 1 and self.victims[0] in hot:
            hot.discard(self.victims[0])  # sole victim cannot target itself
        self.hot_sources = frozenset(hot)
        return self

    def source_load(self, src, offered):
        return 1.0 if src in self.hot_sources else offered

    def choose(self, src, rng):
        if src in self.hot_sources:
            for _ in range(8):
                dst = self.victims[rng.randrange(len(self.victims))]
                if dst != src:
                    return dst
            return next(v for v in self.victims if v != src)
        j = rng.randrange(self.n - 1)
        return j if j < src else j + 1

    def counted_endnodes(self):
        return [e for e in range(self.n) if e not in self._victim_set]

    def to_dict(self):
        return {"kind": self.name, "fraction": self.fraction}


def make_pattern(name: str, **kwargs) -> TrafficPattern:
    if name == "uniform":
        return UniformTraffic()
    if name == "stencil3d":
        dims = kwargs.get("dims")
        return Stencil3dTraffic(tuple(dims) if dims else None)
    if name == "hotspot":
        return HotspotTraffic(kwargs.get("fraction", 0.06))
    raise InvalidParams(f"unknown traffic pattern {name!r}")
