import pytest

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
    route_d3r,
    route_dla,
    route_updn,
    synthesize,
)
from dflysim.routing import ENGINES, GroupAssignment, route_walk, vls_needed
from dflysim.topology import GLOBAL, LOCAL, TERMINAL

from oracles import (
    bfs_distances,
    canonical_route_channels,
    legal_updn_distance,
    lft_switch_path,
    switch_adjacency_simple,
    updn_rank_fn,
)


def _erased(topo):
    """Switch adjacency with all labels (kinds, groups, ports) stripped."""
    return {s: set(nbrs) for s, nbrs in topo.switch_adjacency().items()}


def _same_partition(found, truth):
    """True when both assignments induce the same partition (labels may differ)."""
    return set(found.groups) == set(truth.groups)


# -- group discovery ---------------------------------------------------------

def test_discovery_recovers_reference_topology():
    topo = build_topology(DragonflyParams(4, 2, 2, 9))
    found = discover_groups(_erased(topo))
    assert len(found.groups) == 9
    assert all(len(g) == 4 for g in found.groups)
    assert _same_partition(found, GroupAssignment.from_topology(topo))


def test_discovery_two_switch_fabric_is_singletons():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    found = discover_groups(_erased(topo))
    assert found.groups == ((0,), (1,))


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
    found = discover_groups(_erased(topo))
    assert _same_partition(found, GroupAssignment.from_topology(topo))


def test_discovery_is_label_invariant():
    # renumber switches and check the partition maps back
    topo = build_topology(DragonflyParams(3, 2, 2, 7))
    perm = {s: (s * 11 + 5) % topo.num_switches for s in range(topo.num_switches)}
    assert len(set(perm.values())) == topo.num_switches
    graph = {perm[s]: {perm[u] for u in nbrs} for s, nbrs in _erased(topo).items()}
    found = discover_groups(graph)
    truth = GroupAssignment.from_topology(topo)
    mapped = {frozenset(perm[s] for s in grp) for grp in truth.groups}
    assert {frozenset(g) for g in found.groups} == mapped


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
    config = route_dla(topo)
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


def test_dla_route_shape_and_vl_discipline():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = route_dla(topo)
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
    config = route_dla(topo)
    seq = route_walk(topo, config, 0, 1)  # both attach to switch 0
    assert [ch.kind for ch, _ in seq] == [TERMINAL, TERMINAL]
    assert [vl for _, vl in seq] == [0, 0]


def test_dla_sl2vl_function():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = route_dla(topo)
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
    config = route_dla(topo, vl_shift=False)
    assert config.vl_shift_disabled
    assert config.resources == (1, 1)
    assert config.sl2vl[0][2][5][0] == 0


# -- d3r ----------------------------------------------------------------------

def test_d3r_single_vl_per_route():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = route_d3r(topo)
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
    config = route_d3r(topo)
    seq = route_walk(topo, config, 0, 3)  # same group, different switch
    assert all(vl == 0 for _, vl in seq)


def test_d3r_sl_policy_by_group_order():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = route_d3r(topo)
    lo, hi = 0, 35  # switches of endnodes 0 and 71, in groups 0 and 8
    assert config.sl(lo, hi) == 0
    assert config.sl(hi, lo) == 1
    assert config.sl(0, 0) == 0  # endnodes 0 and 1 share switch 0


# -- updn ---------------------------------------------------------------------

def test_updn_resources_and_two_switch_route():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    config = route_updn(topo)
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
    config = route_updn(topo)
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
    config = route_updn(topo)
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


@pytest.mark.parametrize("params", [
    DragonflyParams(1, 1, 1, 2),
    DragonflyParams(1, 3, 2),     # single-switch groups: no local ports
    DragonflyParams(2, 1, 1),
    DragonflyParams(4, 2, 2),
], ids=lambda p: p.label())
def test_vls_needed_matches_the_synthesized_tables(params):
    topo = build_topology(params)
    for engine in ENGINES:
        assert vls_needed(engine, params) == synthesize(topo, engine).resources[1], engine


def test_minimal_engines_require_fully_connected_grouping():
    # a grouping that pairs switches across the builder's groups has no local
    # channel inside its "groups": the engines must refuse it
    from dflysim import UnsupportedTopology

    topo = build_topology(DragonflyParams(2, 1, 1, 3))
    bogus = GroupAssignment.from_groups([[0, 2], [1, 4], [3, 5]])
    with pytest.raises(UnsupportedTopology):
        route_dla(topo, groups=bogus)
    with pytest.raises(UnsupportedTopology):
        route_d3r(topo, groups=bogus)


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


# -- fabric dump round trip ---------------------------------------------------

@pytest.mark.parametrize("engine", ["dla", "d3r", "updn"])
def test_fabric_dump_round_trips(engine):
    topo = build_topology(DragonflyParams(2, 2, 1, 4))
    config = synthesize(topo, engine)
    text = emit_fabric_dump(config)
    again = emit_fabric_dump(parse_fabric_dump(text))
    assert text == again


def test_fabric_dump_minimal_counts():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    text = emit_fabric_dump(route_dla(topo))
    lines = text.splitlines()
    assert lines.count("switch 0") == 1 and lines.count("switch 1") == 1
    assert sum(1 for l in lines if l.startswith("lid ")) == 4   # 2 switches x 2 endnodes
    assert sum(1 for l in lines if l.startswith("sl2vl ")) == 2 * 2 * 2


def test_parse_rejects_vl_out_of_range():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    text = emit_fabric_dump(route_dla(topo))
    bad = text.replace("sl2vl out 0 in 0: 0 0", "sl2vl out 0 in 0: 16 0", 1)
    with pytest.raises(MalformedDump):
        parse_fabric_dump(bad)


def test_parse_rejects_lft_port_beyond_radix():
    # before the check, build_cdg and route_walk failed on such a dump with IndexError
    topo = build_topology(DragonflyParams(2, 1, 1))
    text = emit_fabric_dump(route_dla(topo))
    assert "lid 3 port 2" in text.splitlines()
    bad = text.replace("lid 3 port 2", "lid 3 port 99", 1)
    with pytest.raises(MalformedDump, match="lid 3 port 99 is beyond radix 3"):
        parse_fabric_dump(bad)


@pytest.mark.parametrize("engine, record, edited", [
    ("dla", "sls 1", "sls 9"),
    ("dla", "vls 2", "vls 7"),
    # one group gives one SL, which would re-emit as "slpolicy zero"
    ("d3r", "groupmap 0 0 1 1 2 2", "groupmap 0 0 0 0 0 0"),
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
        route_dla(build_topology(DragonflyParams.parse(config_shape)))))
    topo = build_topology(DragonflyParams.parse(topo_shape))
    calls = [lambda: route_walk(topo, config, 0, 5), lambda: build_cdg(topo, config),
             lambda: SimConfig(topo, config, UniformTraffic())]
    for call in calls:
        with pytest.raises(UnsupportedTopology) as err:
            call()
        assert "6 switches, 6 endnodes, radix 3" in str(err.value)
        assert "36 switches, 72 endnodes, radix 7" in str(err.value)


def test_parse_rejects_structural_damage():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    text = emit_fabric_dump(route_dla(topo))
    with pytest.raises(MalformedDump):
        parse_fabric_dump(text.replace("lid 1 port", "lid x port"))
    with pytest.raises(MalformedDump):
        parse_fabric_dump("engine dla\nslpolicy zero\n")  # no switches
    with pytest.raises(MalformedDump):
        parse_fabric_dump(text.replace("slpolicy zero", "slpolicy mystery"))
    # dropping one LFT line breaks totality
    lines = text.splitlines()
    lines.remove("lid 0 port 0")
    with pytest.raises(MalformedDump):
        parse_fabric_dump("\n".join(lines))
