from collections import Counter, deque

import pytest

from dflysim import (
    DragonflyParams,
    InvalidParams,
    Topology,
    UnknownChannel,
    UnsupportedParams,
    analytic_flow_counts,
    build_topology,
    channel_kind,
)
from dflysim.topology import GLOBAL, LOCAL, TERMINAL

from oracles import brute_force_flow_counts, switch_adjacency_simple, bfs_distances


# -- parameters --------------------------------------------------------------

def test_params_defaults_to_max_groups():
    p = DragonflyParams(4, 2, 2)
    assert p.g == 9
    assert p.num_endnodes == 72
    assert p.num_switches == 36
    assert p.radix == 7


def _balanced(params):
    """a = 2h = 2p: the canonical Dragonfly balance of local, global and terminal links."""
    return params.a == 2 * params.h == 2 * params.p


def _oversubscribed(params):
    """a = 2h = p: twice the endnodes per switch of a balanced (a = 2h = 2p) fabric."""
    return params.a == 2 * params.h == params.p


def test_params_balanced_and_oversubscribed():
    assert _balanced(DragonflyParams(4, 2, 2))
    assert not _oversubscribed(DragonflyParams(4, 2, 2))
    assert _oversubscribed(DragonflyParams(4, 2, 4))
    assert not _balanced(DragonflyParams(3, 3, 2))


@pytest.mark.parametrize("bad", [(0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0), (2, 1, 1, 1), (2, 1, 1, 4),
                                 (2.0, 1, 1, 0)])  # a must be an integer, got 2.0
def test_params_rejects_invalid(bad):
    with pytest.raises(InvalidParams):
        DragonflyParams(*bad)


def test_params_parse():
    assert DragonflyParams.parse("4,2,2") == DragonflyParams(4, 2, 2)
    assert DragonflyParams.parse("3, 3, 2, 7") == DragonflyParams(3, 3, 2, 7)
    with pytest.raises(InvalidParams):
        DragonflyParams.parse("4,2")
    with pytest.raises(InvalidParams):
        DragonflyParams.parse("a,b,c")


# -- construction ------------------------------------------------------------

def test_build_72_node_reference_shape():
    topo = build_topology(DragonflyParams(4, 2, 2, 9))
    assert topo.num_endnodes == 72
    assert topo.num_switches == 36
    assert topo.params.g == 9
    assert len({topo.switch_group[s] for s in range(36)}) == 9


def test_build_degenerate_minimum():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    assert topo.num_endnodes == 2
    assert topo.num_switches == 2
    kinds = Counter(ch.kind for ch in topo.channels)
    assert kinds[TERMINAL] == 4   # two cables, two directions each
    assert kinds[GLOBAL] == 2     # one cable
    assert kinds.get(LOCAL, 0) == 0


def test_build_42_node_cluster_shape():
    topo = build_topology(DragonflyParams(3, 3, 2, 7))
    assert topo.num_endnodes == 42
    assert topo.num_switches == 21
    assert topo.params.g == 7
    # 9 global ports per group serve 6 peer groups; one port-end is left over
    used = sum(1 for ch in topo.channels if ch.kind == GLOBAL) // 2
    assert used == (21 * 3) // 2
    # every group pair still gets at least one cable
    pairs = set()
    for ch in topo.channels:
        if ch.kind == GLOBAL:
            ga = topo.switch_group[ch.src[1]]
            gb = topo.switch_group[ch.dst[1]]
            pairs.add((min(ga, gb), max(ga, gb)))
    assert len(pairs) == 7 * 6 // 2


def _valid_params_upto(n_max):
    out = []
    for a in range(1, 7):
        for h in range(1, 5):
            for p in range(1, 5):
                for g in range(2, a * h + 2):
                    if a * p * g <= n_max:
                        out.append(DragonflyParams(a, h, p, g))
    return out


@pytest.mark.parametrize("params", _valid_params_upto(80), ids=lambda p: p.label())
def test_topology_invariants(params):
    topo = build_topology(params)
    a, h, p, g = params.a, params.h, params.p, params.g
    # terminal attachment: each switch hosts exactly p endnodes
    per_switch = Counter(topo.switch_of(e) for e in range(topo.num_endnodes))
    assert all(per_switch[s] == p for s in range(topo.num_switches))
    # intra-group: exactly one local cable per switch pair
    local_pairs = Counter()
    for ch in topo.channels:
        if ch.kind == LOCAL:
            local_pairs[(ch.src[1], ch.dst[1])] += 1
    for grp in range(g):
        base = grp * a
        for i in range(a):
            for j in range(a):
                if i != j:
                    assert local_pairs[(base + i, base + j)] == 1
    # reverse channel has the same kind; port indices unique per node
    seen_ports = set()
    for ch in topo.channels:
        assert topo.channel_at(*ch.dst).kind == ch.kind
        assert ch.src not in seen_ports, "two channels leave the same (node, port)"
        seen_ports.add(ch.src)
    # inter-group connectivity and per-pair cable count
    pair_count = Counter()
    for ch in topo.channels:
        if ch.kind == GLOBAL:
            ga, gb = topo.switch_group[ch.src[1]], topo.switch_group[ch.dst[1]]
            assert ga != gb
            if ga < gb:
                pair_count[(ga, gb)] += 1
    assert len(pair_count) == g * (g - 1) // 2
    if g == params.max_groups:
        assert set(pair_count.values()) == {1}
    # connectivity of the switch graph
    adj = switch_adjacency_simple(topo)
    assert len(bfs_distances(adj, 0)) == topo.num_switches
    # port feasibility: every used port within the derived radix
    for s in range(topo.num_switches):
        assert len(topo.peer[s]) == params.radix


def test_symmetry_of_maximal_fabrics():
    topo = build_topology(DragonflyParams(4, 2, 2))
    sigs = set()
    for s in range(topo.num_switches):
        kinds = Counter()
        for pt in range(topo.params.radix):
            if topo.peer[s][pt] is not None:
                kinds[topo.port_kind(pt)] += 1
        sigs.add((kinds[TERMINAL], kinds[LOCAL], kinds[GLOBAL]))
    assert sigs == {(2, 3, 2)}


def test_build_is_deterministic():
    p = DragonflyParams(3, 2, 2, 5)
    assert build_topology(p).dump() == build_topology(p).dump()


def test_dump_golden_minimal():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    assert topo.dump() == (
        "h0:0 -> s0:0 kind=tc group=0\n"
        "s0:0 -> h0:0 kind=tc group=0\n"
        "h1:0 -> s1:0 kind=tc group=1\n"
        "s1:0 -> h1:0 kind=tc group=1\n"
        "s0:1 -> s1:1 kind=gc group=0\n"
        "s1:1 -> s0:1 kind=gc group=1\n"
    )


def test_channel_kind_classification():
    topo = build_topology(DragonflyParams(4, 2, 2))
    assert channel_kind(topo, "h0", 0) == TERMINAL
    assert channel_kind(topo, "s0", 0) == TERMINAL      # switch -> endnode
    assert channel_kind(topo, "s0", 2) == LOCAL         # same group
    assert channel_kind(topo, "s0", 5) == GLOBAL        # peer group
    with pytest.raises(UnknownChannel):
        channel_kind(topo, "s0", 99)
    with pytest.raises(UnknownChannel):
        channel_kind(topo, "x0", 0)
    with pytest.raises(UnknownChannel, match="port 99 out of range"):
        topo.port_kind(99)
    with pytest.raises(UnknownChannel, match="switches 0 and 4 are not group-mates"):
        topo.local_port(0, 4)


# -- analytic flow counts ----------------------------------------------------

def test_flow_counts_reference_values():
    fc = analytic_flow_counts(DragonflyParams(4, 2, 2))
    assert (fc.f_t, fc.f_g, fc.f_l) == (71, 64, 68)
    fc = analytic_flow_counts(DragonflyParams(2, 1, 1))
    assert (fc.f_t, fc.f_g, fc.f_l) == (5, 4, 5)


def test_flow_counts_require_maximal_group_count():
    with pytest.raises(UnsupportedParams):
        analytic_flow_counts(DragonflyParams(3, 3, 2, 7))


def test_flow_count_ordering_for_balanced():
    for p in (2, 3, 4, 5):
        fc = analytic_flow_counts(DragonflyParams(2 * p, p, p))
        assert fc.f_g < fc.f_l < fc.f_t


def test_flow_ratio_monotone_toward_one():
    ratios = [
        analytic_flow_counts(DragonflyParams(2 * p, p, p)).ratio_g_over_l
        for p in range(1, 8)
    ]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(r < 1 for r in ratios)
    assert ratios[-1] > 0.98


@pytest.mark.parametrize("params", [DragonflyParams(2, 1, 1), DragonflyParams(4, 2, 2),
                                    # a != 2h, where f_l is not (ap)^2 + p^2
                                    DragonflyParams(3, 2, 1), DragonflyParams(3, 1, 2),
                                    DragonflyParams(2, 3, 2)],
                         ids=lambda p: p.label())
def test_flow_counts_match_route_enumeration(params):
    """Brute-force enumeration of all minimal routes reproduces the formulas
    exactly, on every channel of each kind (not just one representative)."""
    topo = build_topology(params)
    counts = brute_force_flow_counts(topo)
    fc = analytic_flow_counts(params)
    expected = {TERMINAL: fc.f_t, GLOBAL: fc.f_g, LOCAL: fc.f_l}
    for ch in topo.channels:
        assert counts[ch.cid] == expected[ch.kind], (ch.kind, ch.cid)
