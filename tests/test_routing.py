import hashlib
import re
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflysim import (
    DragonflyParams,
    MalformedDump,
    NotADragonfly,
    SimConfig,
    UniformTraffic,
    UnsupportedParams,
    UnsupportedTopology,
    build_cdg,
    build_topology,
    discover_groups,
    emit_fabric_dump,
    parse_fabric_dump,
    synthesize,
)
from dflysim import routing
from dflysim.routing import ENGINES, _lines, route_walk
from dflysim.topology import GLOBAL, LOCAL, TERMINAL

from oracles import (
    bfs_distances,
    brute_force_flow_counts,
    canonical_route_channels,
    channel_loads,
    legal_updn_distance,
    lft_switch_path,
    reference_synthesize,
    switch_adjacency_simple,
    updn_rank_fn,
)


def _erased(topo):
    """Switch adjacency with all labels (kinds, groups, ports) stripped."""
    return {s: set(nbrs) for s, nbrs in topo.switch_adjacency().items()}


def _partition(grouping):
    """The set of groups, each a frozenset of switches, that a grouping induces."""
    return {frozenset(s for s, g in enumerate(grouping) if g == label) for label in grouping}


# -- group discovery ---------------------------------------------------------

def test_discovery_recovers_reference_topology():
    topo = build_topology(DragonflyParams(4, 2, 2, 9))
    found = discover_groups(_erased(topo))
    # nine groups of four, numbered in the order of their smallest switch as the builder does
    assert found == tuple(topo.switch_group)


def test_discovery_two_switch_fabric_is_singletons():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    found = discover_groups(_erased(topo))
    assert found == (0, 1)


def test_discovery_rejects_switch_ids_other_than_0_to_n_minus_1():
    graph = _erased(build_topology(DragonflyParams(2, 1, 1)))
    with pytest.raises(NotADragonfly, match="switch ids must be 0..5"):
        discover_groups({s + 10: {u + 10 for u in nbrs} for s, nbrs in graph.items()})
    with pytest.raises(NotADragonfly, match="switch ids must be 0..5"):
        discover_groups({**graph, 0: graph[0] | {9}})  # a neighbor that is no switch


def test_discovery_rejects_single_group_clique():
    # a 4-clique with no global links (hand-built: not a buildable topology)
    k4 = {v: {u for u in range(4) if u != v} for v in range(4)}
    with pytest.raises(NotADragonfly):
        discover_groups(k4)


def test_discovery_rejects_empty_and_disconnected_groupings():
    with pytest.raises(NotADragonfly):
        discover_groups({})
    # two disjoint cliques with no inter-group channel
    graph = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
    with pytest.raises(NotADragonfly):
        discover_groups(graph)


def _discoverable_params(n_max):
    out = []
    for a in range(1, 7):
        for h in range(1, 5):
            for p in range(1, 4):
                for g in range(2, a * h + 2):
                    if a * p * g <= n_max and (a >= 2 or g == 2):
                        out.append(DragonflyParams(a, h, p, g))
    return out


@pytest.mark.parametrize("params", _discoverable_params(100), ids=lambda p: p.label())
def test_discovery_idempotent_over_builder(params):
    topo = build_topology(params)
    assert discover_groups(_erased(topo)) == tuple(topo.switch_group)


def test_discovery_is_label_invariant():
    # renumber switches and check the partition maps back
    topo = build_topology(DragonflyParams(3, 2, 2, 7))
    perm = {s: (s * 11 + 5) % topo.num_switches for s in range(topo.num_switches)}
    assert len(set(perm.values())) == topo.num_switches
    graph = {perm[s]: {perm[u] for u in nbrs} for s, nbrs in _erased(topo).items()}
    found = discover_groups(graph)
    mapped = {frozenset(perm[s] for s in grp) for grp in _partition(topo.switch_group)}
    assert _partition(found) == mapped


# -- dla ----------------------------------------------------------------------

@pytest.mark.parametrize("params", [
    DragonflyParams(2, 1, 1),
    DragonflyParams(4, 2, 2),
    DragonflyParams(3, 3, 2, 7),
], ids=lambda p: p.label())
def test_dla_paths_are_minimal(params):
    """LFT routes equal the canonical minimal single-global-hop route.

    Raw BFS distance is not the right oracle: the fabric graph can contain
    shorter two-global-hop shortcuts that minimal Dragonfly routing must not
    take (at most one global channel per route). BFS is kept as a lower-bound
    sanity check (never more than one hop above it).
    """
    topo = build_topology(params)
    config = synthesize(topo, "dla")
    adj = switch_adjacency_simple(topo)
    dists = {s: bfs_distances(adj, s) for s in range(topo.num_switches)}
    n = topo.num_endnodes
    for src in range(n):
        ss = topo.switch_of(src)
        for dst in range(n):
            if src == dst:
                continue
            walked = [ch.cid for ch, _ in route_walk(topo, config, src, dst)]
            assert walked == canonical_route_channels(topo, src, dst)
            hops = len(walked) - 2  # strip the two terminal channels
            bfs = dists[ss][topo.switch_of(dst)]
            assert bfs <= hops <= max(bfs + 1, 3) and hops <= 3


@pytest.mark.parametrize("engine", ["dla", "d3r"])
@pytest.mark.parametrize("params", [DragonflyParams(4, 2, 2), DragonflyParams(3, 3, 2, 7)],
                         ids=lambda p: p.label())
def test_channel_loads_of_the_minimal_engines_are_the_canonical_route_counts(params, engine):
    topo = build_topology(params)
    assert channel_loads(topo, synthesize(topo, engine)) == brute_force_flow_counts(topo)


def test_channel_loads_of_updn_count_every_route_walk():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "updn")
    n = topo.num_endnodes
    walked = Counter(ch.cid for src in range(n) for dst in range(n) if src != dst
                     for ch, _ in route_walk(topo, config, src, dst))
    assert channel_loads(topo, config) == walked


# the ideal uniform throughput Θ = (N-1) / (the most flows on one channel),
# that most, and the channels carrying it: every terminal channel, or these
PINNED_THETA = {
    ("4,2,2", "dla"): (1.0, 71, TERMINAL),
    ("4,2,2", "d3r"): (1.0, 71, TERMINAL),
    ("4,2,2", "updn"): (0.2863, 248, ["s8:5 -> s1:5 kind=gc", "s12:5 -> s2:5 kind=gc"]),
    ("6,3,3", "dla"): (1.0, 341, TERMINAL),
    ("6,3,3", "d3r"): (1.0, 341, TERMINAL),
    ("6,3,3", "updn"): (0.1592, 2142, ["s4:8 -> s30:8 kind=gc"]),
}


@pytest.mark.parametrize("shape, engine", list(PINNED_THETA))
def test_ideal_uniform_throughput_of_each_engine_is_pinned(shape, engine):
    topo = build_topology(DragonflyParams.parse(shape))
    loads = channel_loads(topo, synthesize(topo, engine))
    most = max(loads.values())
    busiest = [topo.channels[cid] for cid, flows in loads.items() if flows == most]
    theta, want_most, where = PINNED_THETA[shape, engine]
    assert (round((topo.num_endnodes - 1) / most, 4), most) == (theta, want_most)
    if where == TERMINAL:
        assert len(busiest) == 2 * topo.num_endnodes
        assert {ch.kind for ch in busiest} == {TERMINAL}
    else:
        assert [str(ch) for ch in busiest] == where


def test_dla_route_shape_and_vl_discipline():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "dla")
    n = topo.num_endnodes
    for src in range(0, n, 5):
        for dst in range(n):
            if src == dst:
                continue
            seq = route_walk(topo, config, src, dst)
            kinds = [ch.kind for ch, _ in seq]
            assert kinds[0] == TERMINAL and kinds[-1] == TERMINAL
            assert kinds.count(GLOBAL) <= 1
            fabric = [(k, vl) for k, vl in
                      ((ch.kind, vl) for ch, vl in seq) if k != TERMINAL]
            # at most one local hop on each side of the global hop
            assert [k for k, _ in fabric].count(LOCAL) <= 2
            # VL never decreases on fabric hops and shifts exactly at gc -> lc
            vls = [vl for _, vl in fabric]
            assert vls == sorted(vls)
            for i, (k, vl) in enumerate(fabric):
                if vl == 1:
                    assert k == LOCAL and fabric[i - 1][0] == GLOBAL


def test_dla_same_switch_route_is_two_terminals():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "dla")
    seq = route_walk(topo, config, 0, 1)  # both attach to switch 0
    assert [ch.kind for ch, _ in seq] == [TERMINAL, TERMINAL]
    assert [vl for _, vl in seq] == [0, 0]


def test_dla_sl2vl_function():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "dla")
    tc, lc, gc = 0, 2, 5  # port indices by layout: p=2 terminals, 3 locals, 2 globals
    assert config.sl2vl[0][lc][gc][0] == 1    # local out, global in -> shift
    assert config.sl2vl[0][gc][tc][0] == 0
    assert config.sl2vl[0][tc][gc][0] == 0    # delivery after global: no shift
    assert config.sl2vl[0][lc][tc][0] == 0
    for sl in range(16):  # SL independent
        assert config.sl2vl[0][lc][gc][sl] == 1
    assert config.resources == (1, 2)
    assert config.sl(0, 35) == 0  # endnodes 0 and 71 sit on switches 0 and 35


def test_dla_shift_disabled_variant():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "dla", vl_shift=False)
    assert config.vl_shift_disabled
    assert config.resources == (1, 1)
    assert config.sl2vl[0][2][5][0] == 0


# -- d3r ----------------------------------------------------------------------

def test_d3r_single_vl_per_route():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "d3r")
    assert config.resources == (2, 2)
    n = topo.num_endnodes
    for src in range(0, n, 7):
        for dst in range(n):
            if src == dst:
                continue
            seq = route_walk(topo, config, src, dst)
            fabric_vls = {vl for ch, vl in seq if ch.kind != TERMINAL}
            assert len(fabric_vls) <= 1
            gs, gd = topo.endnode_group(src), topo.endnode_group(dst)
            if fabric_vls:
                expected = 0 if gd >= gs else 1
                assert fabric_vls == {expected}


def test_d3r_intra_group_rides_vl0():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "d3r")
    seq = route_walk(topo, config, 0, 3)  # same group, different switch
    assert all(vl == 0 for _, vl in seq)


def test_d3r_sl_policy_by_group_order():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "d3r")
    lo, hi = 0, 35  # switches of endnodes 0 and 71, in groups 0 and 8
    assert config.sl(lo, hi) == 0
    assert config.sl(hi, lo) == 1
    assert config.sl(0, 0) == 0  # endnodes 0 and 1 share switch 0


# -- updn ---------------------------------------------------------------------

def test_updn_resources_and_two_switch_route():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    config = synthesize(topo, "updn")
    assert config.resources == (1, 1)
    seq = route_walk(topo, config, 0, 1)
    assert [ch.kind for ch, _ in seq] == [TERMINAL, GLOBAL, TERMINAL]
    assert all(vl == 0 for _, vl in seq)


@pytest.mark.parametrize("params", [
    DragonflyParams(2, 1, 1),
    DragonflyParams(2, 1, 1, 2),
    DragonflyParams(4, 2, 2),
    DragonflyParams(3, 3, 2, 7),
], ids=lambda p: p.label())
def test_updn_routes_are_legal_and_shortest_legal(params):
    topo = build_topology(params)
    config = synthesize(topo, "updn")
    adj, rank = updn_rank_fn(topo)
    n = topo.num_endnodes
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            path = lft_switch_path(topo, config, src, dst)
            # up* then down*: no up move after the first down move
            gone_down = False
            for x, y in zip(path, path[1:]):
                if rank(y) > rank(x):
                    gone_down = True
                else:
                    assert not gone_down, f"turned back up on {path}"
            assert len(path) - 1 == legal_updn_distance(
                adj, rank, path[0], path[-1]
            )


def test_updn_is_non_minimal_somewhere_on_dragonfly():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "updn")
    adj = switch_adjacency_simple(topo)
    dists = {s: bfs_distances(adj, s) for s in range(topo.num_switches)}
    stretched = 0
    n = topo.num_endnodes
    for src in range(0, n, 3):
        for dst in range(0, n, 3):
            if src == dst:
                continue
            path = lft_switch_path(topo, config, src, dst)
            d = dists[path[0]][path[-1]]
            assert len(path) - 1 >= d
            if len(path) - 1 > d:
                stretched += 1
    assert stretched > 0


# -- synthesize dispatch ------------------------------------------------------

def test_synthesize_dispatch_and_unknown_engine():
    topo = build_topology(DragonflyParams(2, 1, 1))
    assert synthesize(topo, "dla").engine == "dla"
    assert synthesize(topo, "d3r").engine == "d3r"
    assert synthesize(topo, "updn").engine == "updn"
    with pytest.raises(ValueError):
        synthesize(topo, "lash")
    # only dla has a VL shift to disable
    assert synthesize(topo, "dla", vl_shift=False).vl_shift_disabled
    for engine in ("d3r", "updn"):
        with pytest.raises(UnsupportedParams):
            synthesize(topo, engine, vl_shift=False)


@pytest.mark.parametrize("engine", ["dla", "d3r", "updn"])
def test_synthesized_switches_share_one_sl2vl_table(engine):
    config = synthesize(build_topology(DragonflyParams(4, 2, 2)), engine)
    assert all(table is config.sl2vl[0] for table in config.sl2vl)


def test_minimal_engines_require_fully_connected_grouping():
    # a grouping that pairs switches across the builder's groups has no local
    # channel inside its "groups": the engines must refuse it
    topo = build_topology(DragonflyParams(2, 1, 1, 3))
    bogus = (0, 1, 0, 2, 1, 2)
    for engine in ("dla", "d3r"):
        with pytest.raises(UnsupportedTopology, match="a grouping of 6 switches does not fit "
                           "a topology of 6 switches in 3 groups"):
            synthesize(topo, engine, bogus)


def _set_partitions(n):
    """Every set partition of 0..n-1, as a restricted growth string: each switch's
    block, the blocks numbered in the order of their smallest switch."""
    if n == 0:
        yield ()
        return
    for rgs in _set_partitions(n - 1):
        for block in range(max(rgs, default=-1) + 2):
            yield rgs + (block,)


def test_minimal_engines_accept_exactly_the_topology_grouping():
    """Every set partition of the switches of every (a, h, g) shape with h <= 3
    and at most 8 switches (terminal ports do not touch the switch graph): the
    minimal engines accept a grouping iff it relabels to the builder's. Each
    partition is passed with its labels reversed, so the relabeling is exercised."""
    shapes = [DragonflyParams(a, h, 1, g) for a in range(1, 5) for h in range(1, 4)
              for g in range(2, a * h + 2) if a * g <= 8]
    for params in shapes:
        topo = build_topology(params)
        own = tuple(topo.switch_group)
        for rgs in _set_partitions(topo.num_switches):
            groups = tuple(max(rgs) - b for b in rgs)
            for engine in ("dla", "d3r"):
                if rgs == own:
                    assert synthesize(topo, engine, groups) == synthesize(topo, engine)
                else:
                    with pytest.raises(UnsupportedTopology):
                        synthesize(topo, engine, groups)


@pytest.mark.parametrize("engine", ["dla", "d3r"])
@pytest.mark.parametrize("size", [2, 7])
def test_minimal_engines_refuse_a_grouping_of_another_switch_count(engine, size):
    # a grouping of the first two switches once escaped as KeyError 2
    topo = build_topology(DragonflyParams(2, 1, 1))
    with pytest.raises(UnsupportedTopology,
                       match=f"a grouping of {size} switches does not fit a topology of 6"):
        synthesize(topo, engine, tuple(range(size)))


def test_a_grouping_passed_in_is_relabeled_by_smallest_switch():
    topo = build_topology(DragonflyParams(2, 1, 1, 3))
    config = synthesize(topo, "d3r", ("x", "x", 7, 7, -1, -1))
    assert config.sl_groups == (0, 0, 1, 1, 2, 2)
    assert emit_fabric_dump(config) == emit_fabric_dump(synthesize(topo, "d3r"))


def test_updn_neither_discovers_nor_reads_groups(monkeypatch):
    topo = build_topology(DragonflyParams(2, 1, 1, 3))
    want = emit_fabric_dump(synthesize(topo, "updn"))

    def no_discovery(graph):
        raise AssertionError("updn ran group discovery")

    monkeypatch.setattr("dflysim.routing.discover_groups", no_discovery)
    assert emit_fabric_dump(synthesize(topo, "updn")) == want
    assert emit_fabric_dump(synthesize(topo, "updn", (0, 1))) == want


@pytest.mark.parametrize("engine", ["dla", "d3r"])
@pytest.mark.parametrize("params", [
    DragonflyParams(2, 1, 1, 3),
    DragonflyParams(1, 3, 2),     # a complete switch graph: discovery cannot tell the groups
], ids=lambda p: p.label())
def test_minimal_engines_route_on_the_topology_grouping_without_discovery(
        monkeypatch, params, engine):
    topo = build_topology(params)
    want = emit_fabric_dump(synthesize(topo, engine, tuple(topo.switch_group)))

    def no_discovery(graph):
        raise AssertionError(f"{engine} ran group discovery")

    monkeypatch.setattr("dflysim.routing.discover_groups", no_discovery)
    assert emit_fabric_dump(synthesize(topo, engine)) == want


@pytest.mark.parametrize("engine", ["dla", "d3r", "updn"])
def test_deliverability_within_switch_count(engine):
    topo = build_topology(DragonflyParams(3, 2, 2, 7))
    config = synthesize(topo, engine)
    n = topo.num_endnodes
    for src in range(0, n, 4):
        for dst in range(n):
            if src != dst:
                path = lft_switch_path(topo, config, src, dst)
                assert len(path) <= topo.num_switches


# -- synthesis against the per-pair reference -----------------------------------

VARIANTS = [("dla", True), ("dla", False), ("d3r", True), ("updn", True)]


@st.composite
def _small_fabrics(draw):
    a = draw(st.integers(1, 5))
    h = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    g = draw(st.integers(2, a * h + 1))  # below ah + 1 too, with parallel global cables
    return DragonflyParams(a, h, p, g)


def _list_rows(config):
    """The config with its LFT rows as lists, as reference_synthesize keeps them:
    an array row never equals a list row, so the tests compare row values."""
    return replace(config, lft=[list(row) for row in config.lft])


@settings(max_examples=100, deadline=None)
@given(params=_small_fabrics(), variant=st.sampled_from(VARIANTS), discovered=st.booleans())
def test_synthesize_matches_the_per_pair_reference(params, variant, discovered):
    """Entry for entry: every LFT port, SL2VL row and SL group, with no grouping
    passed and with the one discovery finds (a complete switch graph has none)."""
    engine, vl_shift = variant
    topo = build_topology(params)
    groups = None
    if discovered and not (params.a == 1 and params.g > 2):
        groups = discover_groups(topo)
    assert (_list_rows(synthesize(topo, engine, groups, vl_shift=vl_shift))
            == reference_synthesize(topo, engine, vl_shift=vl_shift))


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v[0] + ("" if v[1] else "-noshift"))
@pytest.mark.parametrize("params", [DragonflyParams(6, 3, 3), DragonflyParams(8, 4, 4)],
                         ids=lambda p: str(p.num_endnodes))
def test_synthesize_matches_the_per_pair_reference_at_study_sizes(params, variant):
    engine, vl_shift = variant
    topo = build_topology(params)
    got = _list_rows(synthesize(topo, engine, vl_shift=vl_shift))
    want = reference_synthesize(topo, engine, vl_shift=vl_shift)
    assert got.lft == want.lft
    assert got.sl2vl == want.sl2vl
    assert got.sl_groups == want.sl_groups


@pytest.mark.parametrize("params", [
    DragonflyParams(8, 4, 2, 17),   # 136 switches, two global cables per group pair
    DragonflyParams(2, 1, 254, 3),  # radix 256: the last port still fits one byte
    DragonflyParams(2, 1, 255, 3),  # radix 257: global port 256 needs a two-byte lane
], ids=lambda p: p.label())
def test_updn_matches_the_per_pair_reference_past_64_switches_and_one_byte_ports(params):
    topo = build_topology(params)
    assert _list_rows(synthesize(topo, "updn")) == reference_synthesize(topo, "updn")


@pytest.mark.parametrize("params, itemsize", [
    (DragonflyParams(4, 2, 2), 1),
    (DragonflyParams(1, 1, 127, 2), 1),  # radix 128: port 127 still fits a signed byte
    (DragonflyParams(1, 1, 128, 2), 2),  # radix 129
    (DragonflyParams(1, 1, 256, 2), 2),  # radix 257, as 2,1,255,3 with a third of its dump
], ids=lambda v: v.label() if isinstance(v, DragonflyParams) else str(v))
def test_synthesized_and_parsed_lft_rows_are_port_arrays(params, itemsize):
    config = synthesize(build_topology(params), "dla")
    parsed = parse_fabric_dump(emit_fabric_dump(config))
    assert parsed.lft == config.lft
    for rows in (config.lft, parsed.lft):
        assert {(type(row), row.itemsize) for row in rows} == {(array, itemsize)}


def test_synthesized_lft_keeps_at_most_two_bytes_per_entry():
    # list rows kept 8 bytes per entry, 2.15 MB per engine at 1056 endnodes
    topo = build_topology(DragonflyParams(8, 4, 4))
    bound = 2 * topo.num_switches * topo.num_endnodes + 512 * topo.num_switches
    for engine in ENGINES:
        tracemalloc.start()
        try:
            config = synthesize(topo, engine)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= bound, (engine, kept, bound)
        assert len(config.lft) == topo.num_switches


# sha256 over the updn LFT rows at 2550 endnodes (10,5,5), each row as bytes,
# recorded from the per-destination reverse-BFS builder.
PINNED_UPDN_LFT_2550 = "d72181b0124af2d4db5d687ab6dea23d75847b29c734ffd09a0c771830618008"


def test_updn_lft_at_2550_endnodes_holds_its_pinned_digest():
    config = synthesize(build_topology(DragonflyParams(10, 5, 5)), "updn")
    digest = hashlib.sha256()
    for row in config.lft:
        digest.update(bytes(row))
    assert digest.hexdigest() == PINNED_UPDN_LFT_2550


# sha256 of emit_fabric_dump, recorded from the per-endnode builders that
# reference_synthesize keeps.
PINNED_DUMPS = {
    (72, "dla"): "4c65165616c716b60b78a9b0b5fcf0d6f62931a1b64916a60879f48df4b58ffe",
    (72, "dla-noshift"): "3f9d66f76e63fb43fdb660d8676d20bbaae260d3d12d2808571433acede87967",
    (72, "d3r"): "b7cf6ba2abf9175b0d7c30931d391858b385dea824d5b181e9f3f8472124fbdd",
    (72, "updn"): "43785e64d1ff16cc7f5d804d1d20da01c2f075251951bbbc61815c011ee816b6",
    (342, "dla"): "297eca974cd9cdc7ba6b903b2f4693f139f7fb82de9f18474ff485f3857d51fe",
    (342, "dla-noshift"): "bfff31481776f18f01e8f536b2682a1d53213aee20dcc24c82482b247702ccab",
    (342, "d3r"): "300fb7cab161348aee526b678df23e832ddf2d4f1b8ec3d1bd671f547d4d299e",
    (342, "updn"): "7db2261f0bc10543f882e6b11c862d64aabc514927e2f7ce36a5a7cbca780dbd",
    (1056, "dla"): "b9d3c4601584009868eb5c29ea3e7f4ed783f8d4cd1745cd841763c311c0031a",
    (1056, "dla-noshift"): "84fea4e7e4c3559dca6c5892c1aa8ef69c604eaa5f47860fb5cba42c54a3ec99",
    (1056, "d3r"): "1a5564c9566a5b393ecd2f22365766355716044521de46315c72a2e95dadac60",
    (1056, "updn"): "8b8ab0771211da82adea595082a12a70a7d86b2d5fa9cc663620de66efe89ffa",
}
STUDY_FABRICS = {72: DragonflyParams(4, 2, 2), 342: DragonflyParams(6, 3, 3),
                 1056: DragonflyParams(8, 4, 4)}


@pytest.mark.parametrize("endnodes", sorted(STUDY_FABRICS))
def test_fabric_dumps_hold_their_pinned_digests(endnodes):
    topo = build_topology(STUDY_FABRICS[endnodes])
    for variant in ("dla", "dla-noshift", "d3r", "updn"):
        config = synthesize(topo, variant.removesuffix("-noshift"),
                            vl_shift=variant != "dla-noshift")
        text = emit_fabric_dump(config)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DUMPS[endnodes, variant], variant
        assert emit_fabric_dump(parse_fabric_dump(text)) == text, variant


# -- fabric dump round trip ---------------------------------------------------

@pytest.mark.parametrize("engine", ["dla", "d3r", "updn"])
def test_fabric_dump_round_trips(engine):
    topo = build_topology(DragonflyParams(2, 2, 1, 4))
    config = synthesize(topo, engine)
    text = emit_fabric_dump(config)
    again = emit_fabric_dump(parse_fabric_dump(text))
    assert text == again


# every line break str.splitlines knows, each between blank lines
_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_ALL_BREAKS_TEXT = "".join(f"x{br}{br}{br}y\n\n" for br in _BREAKS) + "\nend"


@pytest.mark.parametrize("text", [_ALL_BREAKS_TEXT, _ALL_BREAKS_TEXT + "\n", "", "\n", "one"])
def test_dump_lines_are_splitlines_at_every_chunk_size(text):
    assert list(_lines(text)) == text.splitlines()
    for chunk in range(1, len(text) + 2):  # a cut after every newline, blank lines on both sides
        with mock.patch.object(routing, "_CHUNK", chunk):
            assert list(_lines(text)) == text.splitlines(), chunk


def test_parsing_the_342_endnode_dump_holds_one_chunk_of_lines():
    text = emit_fabric_dump(synthesize(build_topology(DragonflyParams(6, 3, 3)), "dla"))
    tracemalloc.start()
    try:
        parse_fabric_dump(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, peak


def test_emitting_the_342_endnode_dump_holds_one_switch_of_lines():
    # 1.27e6 characters; a list of every line peaked at 6.8e6 bytes
    config = synthesize(build_topology(DragonflyParams(6, 3, 3)), "d3r")
    tracemalloc.start()
    try:
        emit_fabric_dump(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6, peak


def test_fabric_dump_minimal_counts():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    text = emit_fabric_dump(synthesize(topo, "dla"))
    lines = text.splitlines()
    assert lines.count("switch 0") == 1 and lines.count("switch 1") == 1
    assert sum(1 for l in lines if l.startswith("lid ")) == 4   # 2 switches x 2 endnodes
    assert sum(1 for l in lines if l.startswith("sl2vl ")) == 2 * 2 * 2


def test_parse_rejects_vl_out_of_range():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    text = emit_fabric_dump(synthesize(topo, "dla"))
    bad = text.replace("sl2vl out 0 in 0: 0 0", "sl2vl out 0 in 0: 16 0", 1)
    with pytest.raises(MalformedDump):
        parse_fabric_dump(bad)


def test_parse_rejects_lft_port_beyond_radix():
    # before the check, build_cdg and route_walk failed on such a dump with IndexError
    topo = build_topology(DragonflyParams(2, 1, 1))
    text = emit_fabric_dump(synthesize(topo, "dla"))
    assert "lid 3 port 2" in text.splitlines()
    bad = text.replace("lid 3 port 2", "lid 3 port 99", 1)
    with pytest.raises(MalformedDump, match="lid 3 port 99 is beyond radix 3"):
        parse_fabric_dump(bad)


@pytest.mark.parametrize("engine, record, edited", [
    ("dla", "sls 1", "sls 9"),
    ("dla", "vls 2", "vls 7"),
    # one group gives one SL, which would re-emit as "slpolicy zero"
    ("d3r", "groupmap 0 0 1 1 2 2", "groupmap 0 0 0 0 0 0"),
    # only dla has a VL shift to turn off
    ("d3r", "engine d3r", "engine d3r\nvlshift off"),
])
def test_parse_rejects_header_that_disagrees_with_the_tables(engine, record, edited):
    text = emit_fabric_dump(synthesize(build_topology(DragonflyParams(2, 1, 1)), engine))
    assert record in text.splitlines()
    with pytest.raises(MalformedDump, match="does not match the tables"):
        parse_fabric_dump(text.replace(record, edited, 1))


@pytest.mark.parametrize("config_shape, topo_shape", [("2,1,1", "4,2,2"), ("4,2,2", "2,1,1")])
def test_tables_that_do_not_fit_the_topology_are_rejected(config_shape, topo_shape):
    # unchecked, build_cdg and run_sim ended in IndexError, and route_walk reported
    # a false RoutingLoop one way round and UnknownChannel the other
    config = parse_fabric_dump(emit_fabric_dump(
        synthesize(build_topology(DragonflyParams.parse(config_shape)), "dla")))
    topo = build_topology(DragonflyParams.parse(topo_shape))
    calls = [lambda: route_walk(topo, config, 0, 5), lambda: build_cdg(topo, config),
             lambda: SimConfig(topo, config, UniformTraffic())]
    for call in calls:
        with pytest.raises(UnsupportedTopology) as err:
            call()
        assert "6 switches, 6 endnodes, radix 3" in str(err.value)
        assert "36 switches, 72 endnodes, radix 7" in str(err.value)


def _drop_switch3_out_port(config):
    config.sl2vl[3] = config.sl2vl[3][:-1]


def _drop_last_sl2vl_table(config):
    config.sl2vl = config.sl2vl[:-1]


def _shorten_switch3_lft(config):
    config.lft[3] = config.lft[3][:-1]


@pytest.mark.parametrize("damage, message", [
    (_drop_switch3_out_port, "switch 3: SL2VL table is not 16 VLs per (out, in) port pair of radix 3"),
    (_drop_last_sl2vl_table, "5 SL2VL tables for 6 switches"),
    (_shorten_switch3_lft, "switch 3: LFT has 5 entries for 6 endnodes"),
], ids=lambda v: getattr(v, "__name__", "")[1:])
def test_tables_that_do_not_fit_past_switch_0_are_rejected(damage, message):
    # switch 0's tables fit, so a check of switch 0 alone let these through and
    # build_cdg ended in IndexError
    topo = build_topology(DragonflyParams(2, 1, 1))
    config = synthesize(topo, "dla")
    damage(config)
    for call in (lambda: SimConfig(topo, config, UniformTraffic()), lambda: build_cdg(topo, config)):
        with pytest.raises(UnsupportedTopology, match=re.escape(message)):
            call()


def test_sl_groups_not_one_per_switch_are_rejected():
    # SimConfig accepted a short sl_groups and build_cdg ended in IndexError
    topo = build_topology(DragonflyParams(2, 1, 1))
    config = replace(synthesize(topo, "d3r"), sl_groups=(0, 1))
    for call in (lambda: SimConfig(topo, config, UniformTraffic()), lambda: build_cdg(topo, config)):
        with pytest.raises(UnsupportedTopology, match="2 SL groups for 6 switches"):
            call()


@pytest.mark.parametrize("vl", [16, -1])
def test_sl2vl_entries_outside_vls_0_to_15_are_rejected(vl):
    # on switch 0, out 1, in 0 of 2,1,1 dla, VL 16 aliased the 4-bit VL of the
    # CDG's vertex codes and build_cdg silently dropped vertex (12, 16)
    topo = build_topology(DragonflyParams(2, 1, 1))
    config = synthesize(topo, "dla")
    config.sl2vl[0] = [list(per_op) for per_op in config.sl2vl[0]]  # switch 0's own table
    config.sl2vl[0][1][0] = (vl,) * 16
    for call in (lambda: SimConfig(topo, config, UniformTraffic()), lambda: build_cdg(topo, config)):
        with pytest.raises(UnsupportedTopology, match="switch 0: SL2VL entry outside VLs 0..15"):
            call()


def _dup_and_swap_mutants(text):
    """Each line duplicated in place, and each swap of two adjacent distinct lines."""
    lines = text.splitlines()
    for i in range(len(lines)):
        yield f"duplicate line {i + 1}", lines[:i + 1] + lines[i:]
    for i in range(len(lines) - 1):
        if lines[i] != lines[i + 1]:
            yield f"swap lines {i + 1}, {i + 2}", lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]


@pytest.mark.parametrize("shape, variant", [("2,1,1", "dla"), ("2,1,1", "d3r"),
                                            ("2,1,1", "dla-noshift"), ("1,1,1,2", "updn")])
def test_parse_refuses_repeated_and_reordered_records(shape, variant):
    # the records are read in emit order, so no repeat can overwrite an earlier record
    config = synthesize(build_topology(DragonflyParams.parse(shape)),
                        variant.removesuffix("-noshift"), vl_shift=variant != "dla-noshift")
    for what, lines in _dup_and_swap_mutants(emit_fabric_dump(config)):
        with pytest.raises(MalformedDump):
            parse_fabric_dump("\n".join(lines) + "\n")
            pytest.fail(f"{variant} dump with {what} was accepted")


def test_parse_refuses_a_second_lid_record_with_another_port():
    text = emit_fabric_dump(synthesize(build_topology(DragonflyParams(2, 1, 1)), "dla"))
    assert "lid 3 port 2" in text.splitlines()
    with pytest.raises(MalformedDump, match="expected lid 4"):
        parse_fabric_dump(text.replace("lid 3 port 2\n", "lid 3 port 2\nlid 3 port 0\n", 1))


def test_parse_refuses_an_engine_record_after_the_switches():
    # read last-wins, this gave an updn config that kept dla's VL-1 turns
    text = emit_fabric_dump(synthesize(build_topology(DragonflyParams(2, 1, 1)), "dla"))
    with pytest.raises(MalformedDump, match="engine record after the switch records"):
        parse_fabric_dump(text + "engine updn\n")


def test_parse_refuses_an_engine_outside_the_registry():
    # accepted before, it gave a config that every later check took on trust
    text = emit_fabric_dump(synthesize(build_topology(DragonflyParams(2, 1, 1)), "dla"))
    with pytest.raises(MalformedDump, match="engine 'bogus': the engines are d3r, dla, updn"):
        parse_fabric_dump(text.replace("engine dla", "engine bogus", 1))


def test_parse_rejects_structural_damage():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    text = emit_fabric_dump(synthesize(topo, "dla"))
    with pytest.raises(MalformedDump):
        parse_fabric_dump(text.replace("lid 1 port", "lid x port"))
    with pytest.raises(MalformedDump):
        parse_fabric_dump("engine dla\nslpolicy zero\n")  # no switches
    with pytest.raises(MalformedDump):
        parse_fabric_dump(text.replace("slpolicy zero", "slpolicy mystery"))
    with pytest.raises(MalformedDump, match="vlshift 'on'"):
        parse_fabric_dump(text.replace("engine dla", "engine dla\nvlshift on"))
    # dropping one LFT line breaks totality
    lines = text.splitlines()
    lines.remove("lid 0 port 0")
    with pytest.raises(MalformedDump):
        parse_fabric_dump("\n".join(lines))
