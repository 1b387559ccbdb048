import random
from collections import Counter

import pytest

from dflysim import DragonflyParams, InvalidParams, build_topology, synthesize
from dflysim.simulator import SimConfig
from dflysim.traffic import (
    HotspotTraffic,
    Stencil3dTraffic,
    UniformTraffic,
    _cubish_dims,
    make_pattern,
)


def test_uniform_covers_everyone_but_self():
    pat = UniformTraffic().bind(12, seed=1)
    rng = random.Random(0)
    seen = Counter(pat.choose(5, rng) for _ in range(4000))
    assert 5 not in seen
    assert set(seen) == set(range(12)) - {5}
    assert pat.counted_endnodes() == list(range(12))


def test_cubish_dims():
    assert _cubish_dims(72) == (3, 4, 6)
    assert _cubish_dims(8) == (2, 2, 2)
    assert _cubish_dims(6) == (1, 2, 3)
    d = _cubish_dims(342)
    assert d[0] * d[1] * d[2] == 342 and d[0] <= d[1] <= d[2]


def test_stencil_neighbors_are_torus_6point():
    pat = Stencil3dTraffic().bind(72, seed=1)
    assert pat.dims == (3, 4, 6)
    rng = random.Random(0)
    for src in (0, 35, 71):
        nbrs = set(pat.neighbors[src])
        assert len(pat.neighbors[src]) == 6
        assert src not in nbrs
        drawn = {pat.choose(src, rng) for _ in range(500)}
        assert drawn == nbrs
    # symmetry: neighborship is mutual on a torus
    for e in range(72):
        for nb in pat.neighbors[e]:
            assert e in pat.neighbors[nb]


def test_stencil_explicit_dims_validation():
    with pytest.raises(InvalidParams):
        Stencil3dTraffic((2, 2, 2)).bind(72, seed=1)


def test_hotspot_reference_counts_at_72():
    pat = HotspotTraffic().bind(72, seed=9)
    assert len(pat.hot_sources) == 4          # floor(0.06 * 72)
    assert len(pat.victims) == 2              # floor(log2(4))
    counted = pat.counted_endnodes()
    assert len(counted) == 70
    assert set(counted) == set(range(72)) - set(pat.victims)
    # hot sources blast victims at full rate, everyone else sweeps the load
    hot = next(iter(pat.hot_sources))
    cold = next(e for e in range(72) if e not in pat.hot_sources)
    assert pat.source_load(hot, 0.3) == 1.0
    assert pat.source_load(cold, 0.3) == 0.3
    rng = random.Random(1)
    assert {pat.choose(hot, rng) for _ in range(200)} <= set(pat.victims)


def test_hotspot_selection_depends_on_seed_only():
    a = HotspotTraffic().bind(72, seed=5)
    b = HotspotTraffic().bind(72, seed=5)
    c = HotspotTraffic().bind(72, seed=6)
    assert a.victims == b.victims and a.hot_sources == b.hot_sources
    assert (a.victims, a.hot_sources) != (c.victims, c.hot_sources)


def test_hotspot_too_small_fabric_rejected():
    with pytest.raises(InvalidParams):
        HotspotTraffic().bind(12, seed=1)     # h_s = 0
    with pytest.raises(InvalidParams):
        HotspotTraffic().bind(20, seed=1)     # h_s = 1 -> no victims


@pytest.mark.parametrize("pattern, n", [(UniformTraffic, 1), (UniformTraffic, 0),
                                        (Stencil3dTraffic, 1), (Stencil3dTraffic, 0),
                                        (Stencil3dTraffic, -3)])  # -3 was a bare TypeError
def test_patterns_refuse_fewer_than_two_endnodes(pattern, n):
    with pytest.raises(InvalidParams, match="traffic needs at least 2 endnodes"):
        pattern().bind(n, seed=1)


def test_make_pattern_factory():
    assert make_pattern("uniform").name == "uniform"
    assert make_pattern("stencil3d", dims=(3, 4, 6)).dims == (3, 4, 6)
    assert make_pattern("hotspot", fraction=0.1).fraction == 0.1
    with pytest.raises(InvalidParams):
        make_pattern("tornado")


@pytest.mark.parametrize("pattern, arg", [
    (Stencil3dTraffic, (True, 2, 3)),   # ran as (1, 2, 3) but hashed apart from it
    (Stencil3dTraffic, (1.0, 2, 3)),
    (Stencil3dTraffic, 5),              # was a bare TypeError
    (HotspotTraffic, True),             # ran as 1 but hashed apart from it
    (HotspotTraffic, "0.5"),            # was a bare TypeError
    (HotspotTraffic, None),
])
def test_pattern_arguments_that_are_not_numbers_are_refused(pattern, arg):
    with pytest.raises(InvalidParams):
        pattern(arg)


@pytest.mark.parametrize("pattern, args", [
    (Stencil3dTraffic, [(1, 2, 3), [1, 2, 3]]),
    (HotspotTraffic, [1, 1.0]),
])
def test_pattern_arguments_that_run_alike_hash_alike(pattern, args):
    topo = build_topology(DragonflyParams(2, 1, 1))
    routing = synthesize(topo, "dla")
    hashes = {SimConfig(topo, routing, pattern(arg), offered_load=0.5).config_hash for arg in args}
    assert len(hashes) == 1, args
