import hashlib
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflysim import (
    DragonflyParams,
    RoutingLoop,
    UniformTraffic,
    UnknownChannel,
    build_cdg,
    build_topology,
    check_deadlock_free,
    emit_fabric_dump,
    parse_fabric_dump,
    synthesize,
)
from dflysim.deadlock import ChannelDependencyGraph, DeadlockReport
from dflysim.routing import MAX_SLS
from dflysim.simulator import SimConfig
from dflysim.topology import TERMINAL

from oracles import (
    all_simple_cycles_exist,
    brute_force_cdg,
    channel_numbering,
    descending_edges,
    tarjan_deadlock_report,
)


def _cdg(edges):
    succ = {}
    for u, v in edges:
        succ.setdefault(u, {})[v] = 1  # the witness (0, 1) of a 2-endnode fabric
    return ChannelDependencyGraph(succ=succ, n=2)


# -- detector on hand-built graphs --------------------------------------------

def test_empty_graph_is_acyclic():
    report = check_deadlock_free(_cdg([]))
    assert report.acyclic
    assert report.cycle == ()


def test_three_ring_detected_with_witness():
    vs = [(0, 0), (1, 0), (2, 0)]
    report = check_deadlock_free(_cdg([(vs[0], vs[1]), (vs[1], vs[2]), (vs[2], vs[0])]))
    assert not report.acyclic
    assert len(report.cycle) == 3
    assert report.cycle[0] == (0, 0)  # deterministic: smallest vertex first
    assert len(report.inducing_flows) == 3


def test_dag_with_diamond_is_acyclic():
    vs = [(i, 0) for i in range(4)]
    edges = [(vs[0], vs[1]), (vs[0], vs[2]), (vs[1], vs[3]), (vs[2], vs[3])]
    assert check_deadlock_free(_cdg(edges)).acyclic


def test_witness_picks_smallest_cycle_vertex():
    vs = [(i, 0) for i in range(6)]
    edges = [(vs[5], vs[4]), (vs[4], vs[5]),        # cycle {4, 5}
             (vs[0], vs[1]), (vs[1], vs[2]), (vs[2], vs[0])]  # cycle {0, 1, 2}
    report = check_deadlock_free(_cdg(edges))
    assert report.cycle[0] == (0, 0)


@st.composite
def _digraphs(draw):
    """Small digraphs with self-loops and several SCCs. Some also get a vertex 0
    only downstream of a cycle, or between two cycles, so the smallest vertex
    that Kahn's peel leaves often lies on no cycle."""
    n = draw(st.integers(1, 8))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=14))
    below = draw(st.sampled_from(("none", "downstream", "between")))
    if below != "none":
        a, b = n, n + 2  # vertex 0 below the cycle {a, a+1}, maybe above the cycle {b, b+1}
        edges += [(a, a + 1), (a + 1, a), (a + 1, 0)]
        if below == "between":
            edges += [(b, b + 1), (b + 1, b), (0, b)]
        n += 4
    vertex = [divmod(i, 2) for i in range(n)]  # (channel id, VL) order is vertex order
    succ = {}
    for i, j in edges:
        succ.setdefault(vertex[i], {})[vertex[j]] = i * n + j  # the witness (i, j)
    return ChannelDependencyGraph(succ=succ, n=n)


@settings(max_examples=300, deadline=None)
@given(cdg=_digraphs())
def test_cycle_check_matches_tarjan_reference(cdg):
    assert check_deadlock_free(cdg) == tarjan_deadlock_report(cdg)


# -- CDGs of synthesized configs ----------------------------------------------

def test_dla_reference_fabric_is_deadlock_free():
    topo = build_topology(DragonflyParams(4, 2, 2))
    cdg = build_cdg(topo, synthesize(topo, "dla"))
    assert check_deadlock_free(cdg).acyclic


def test_dla_without_vl_shift_is_cyclic_with_valid_witness():
    topo = build_topology(DragonflyParams(4, 2, 2))
    cdg = build_cdg(topo, synthesize(topo, "dla", vl_shift=False))
    report = check_deadlock_free(cdg)
    assert not report.acyclic
    cycle = report.cycle
    assert len(cycle) >= 2
    # every consecutive edge (and the closing edge) exists in the CDG
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        assert v in cdg.succ[u]
        flow = report.inducing_flows[i]
        assert flow in {(s, t) for s in range(72) for t in range(72)}
    # the witness stays on the fabric: no terminal channels inside a cycle
    for cid, _vl in cycle:
        assert topo.channels[cid].kind != TERMINAL


# the witness text at 72 endnodes, recorded when describe still built each
# channel's text itself, before Channel had a __str__
PINNED_NOSHIFT_DESCRIBE_72 = """\
CYCLE
  s0:2 -> s1:2 kind=lc vl=0 flow h0->h16
  s1:5 -> s8:5 kind=gc vl=0 flow h0->h18
  s8:2 -> s9:2 kind=lc vl=0 flow h16->h8
  s9:5 -> s5:5 kind=gc vl=0 flow h16->h8
  s5:2 -> s4:2 kind=lc vl=0 flow h10->h0
  s4:5 -> s0:5 kind=gc vl=0 flow h8->h2"""


def test_shift_disabled_dla_witness_text_at_72_endnodes_is_pinned():
    topo = build_topology(DragonflyParams(4, 2, 2))
    report = check_deadlock_free(build_cdg(topo, synthesize(topo, "dla", vl_shift=False)))
    assert report.describe(topo) == PINNED_NOSHIFT_DESCRIBE_72
    assert DeadlockReport(acyclic=True).describe(topo) == "ACYCLIC"


def test_two_switch_fabric_acyclic_for_every_engine():
    topo = build_topology(DragonflyParams(1, 1, 1, 2))
    for engine in ("dla", "d3r", "updn"):
        cdg = build_cdg(topo, synthesize(topo, engine))
        assert check_deadlock_free(cdg).acyclic


def _small_params(n_max=100):
    out = []
    for a in range(1, 5):
        for h in range(1, 4):
            for p in range(1, 3):
                for g in range(2, a * h + 2):
                    if a * p * g <= n_max:
                        out.append(DragonflyParams(a, h, p, g))
    return out


@pytest.mark.parametrize("params", _small_params(), ids=lambda p: p.label())
def test_updn_always_acyclic(params):
    topo = build_topology(params)
    cdg = build_cdg(topo, synthesize(topo, "updn"))
    assert check_deadlock_free(cdg).acyclic


@pytest.mark.parametrize("engine", ["dla", "d3r"])
@pytest.mark.parametrize("params", [
    DragonflyParams(2, 1, 1),
    DragonflyParams(3, 1, 1),
    DragonflyParams(3, 3, 2, 7),
    DragonflyParams(4, 2, 2),
    DragonflyParams(2, 1, 2),   # oversubscribed: a = 2h = p
    DragonflyParams(4, 2, 4),
], ids=lambda p: p.label())
def test_minimal_engines_acyclic(params, engine):
    topo = build_topology(params)
    cdg = build_cdg(topo, synthesize(topo, engine))
    assert check_deadlock_free(cdg).acyclic


# -- soundness against exhaustive enumeration ----------------------------------

VARIANTS = ["dla", "d3r", "updn", "dla-noshift"]


def _config(topo, variant):
    return synthesize(topo, variant.removesuffix("-noshift"), vl_shift=variant != "dla-noshift")


def _tiny_params():
    # every fabric here has at most 12 switches
    out = []
    for a in range(1, 5):
        for h in range(1, 3):
            for p in (1,):
                for g in range(2, a * h + 2):
                    if a * g <= 12:
                        out.append(DragonflyParams(a, h, p, g))
    return out


@st.composite
def _fabrics(draw, max_endnodes=80):
    a = draw(st.integers(1, 4))
    h = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    g = draw(st.integers(2, a * h + 1))
    if a * p * g > max_endnodes:
        g = max(2, max_endnodes // (a * p))
    return DragonflyParams(a, h, p, g)


@pytest.mark.parametrize("params", _tiny_params(), ids=lambda p: p.label())
@pytest.mark.parametrize("variant", VARIANTS)
def test_detector_agrees_with_exhaustive_cycle_search(params, variant):
    topo = build_topology(params)
    cdg = build_cdg(topo, _config(topo, variant))
    report = check_deadlock_free(cdg)
    assert report.acyclic == (not all_simple_cycles_exist(cdg.vertices, cdg.succ))


# -- channel-numbering certificates --------------------------------------------

CERTIFIED = [DragonflyParams(4, 2, 2), DragonflyParams(6, 3, 3)]  # 72 and 342 endnodes


@pytest.mark.parametrize("params", CERTIFIED, ids=lambda p: p.label())
@pytest.mark.parametrize("engine", ["dla", "d3r", "updn"])
def test_every_dependency_climbs_the_engines_channel_numbering(params, engine):
    """Each engine's closed-form numbering proves its CDG acyclic without the cycle check."""
    topo = build_topology(params)
    config = synthesize(topo, engine)
    cdg = build_cdg(topo, config)
    assert cdg.num_edges > 0
    assert descending_edges(cdg, channel_numbering(topo, config)) == []


@settings(max_examples=40, deadline=None)
@given(params=_fabrics(), engine=st.sampled_from(["dla", "d3r", "updn"]))
def test_every_small_fabric_climbs_the_engines_channel_numbering(params, engine):
    topo = build_topology(params)
    config = synthesize(topo, engine)
    assert descending_edges(build_cdg(topo, config), channel_numbering(topo, config)) == []


@pytest.mark.parametrize("params", _tiny_params() + CERTIFIED, ids=lambda p: p.label())
def test_the_dla_numbering_flags_every_cycle_of_shift_disabled_dla(params):
    """Wherever the cycle check reports a cycle, one of its edges descends the dla
    numbering. Without the shift the 72- and 342-endnode tables are cyclic."""
    topo = build_topology(params)
    config = synthesize(topo, "dla", vl_shift=False)
    cdg = build_cdg(topo, config)
    report = check_deadlock_free(cdg)
    flagged = set(descending_edges(cdg, channel_numbering(topo, config)))
    cycle = report.cycle
    assert report.acyclic or any((u, cycle[(i + 1) % len(cycle)]) in flagged
                                 for i, u in enumerate(cycle))
    if params in CERTIFIED:
        assert not report.acyclic


# -- VL structure of the dependency graphs -------------------------------------

def test_dla_vl_never_decreases_on_fabric_edges():
    topo = build_topology(DragonflyParams(4, 2, 2))
    cdg = build_cdg(topo, synthesize(topo, "dla"))
    for (cid_u, vl_u), succs in cdg.succ.items():
        if topo.channels[cid_u].kind == TERMINAL:
            continue
        for cid_v, vl_v in succs:
            if topo.channels[cid_v].kind == TERMINAL:
                continue
            assert vl_v >= vl_u


def test_d3r_layers_are_edge_disjoint_on_fabric():
    topo = build_topology(DragonflyParams(4, 2, 2))
    cdg = build_cdg(topo, synthesize(topo, "d3r"))
    for (cid_u, vl_u), succs in cdg.succ.items():
        if topo.channels[cid_u].kind == TERMINAL:
            continue
        for cid_v, vl_v in succs:
            if topo.channels[cid_v].kind == TERMINAL:
                continue
            assert vl_u == vl_v, "a single-VL route never hops between layers"


def test_terminal_channels_are_sources_and_sinks_only():
    topo = build_topology(DragonflyParams(2, 1, 1))
    cdg = build_cdg(topo, synthesize(topo, "dla"))
    incoming = set()
    for u, succs in cdg.succ.items():
        incoming.update(succs)
    for cid, vl in cdg.vertices:
        ch = topo.channels[cid]
        if ch.kind == TERMINAL and ch.src[0] == "h":
            assert (cid, vl) not in incoming          # injection: no predecessors
        if ch.kind == TERMINAL and ch.src[0] == "s":
            assert not cdg.succ.get((cid, vl))        # delivery: no successors


# -- the destination-class builder against the per-pair oracle ------------------

def _assert_matches_oracle(topo, config):
    walked = set()
    cdg, ref = build_cdg(topo, config), brute_force_cdg(topo, config, walked)
    assert (cdg.vertices, cdg.n) == (walked, ref.n)
    assert cdg.succ == ref.succ  # each edge with its witness
    assert check_deadlock_free(cdg) == check_deadlock_free(ref) == tarjan_deadlock_report(cdg)


@settings(max_examples=40, deadline=None)
@given(params=_fabrics(), variant=st.sampled_from(VARIANTS), data=st.data())
def test_build_cdg_matches_brute_force_oracle(params, variant, data):
    """Also with SL groups drawn at random, beyond the engines' own groupings, and
    with VLs 0-15 drawn for the SLs out of use on some switches: build_cdg keeps
    vertex lists only for the VLs in use, so it must never read those entries."""
    topo = build_topology(params)
    config = _config(topo, variant)
    s = topo.num_switches
    sl_groups = data.draw(st.none() | st.lists(st.integers(0, 3), min_size=s, max_size=s))
    if sl_groups is not None:
        config = replace(config, sl_groups=tuple(sl_groups))
    resources = config.resources
    sls = resources[0]
    tables = list(config.sl2vl)
    for sw in sorted(data.draw(st.sets(st.integers(0, s - 1)))):
        tail = tuple(data.draw(st.lists(st.integers(0, 15), min_size=MAX_SLS - sls,
                                        max_size=MAX_SLS - sls)))
        tables[sw] = [[row[:sls] + tail for row in per_op] for per_op in tables[sw]]
    config = replace(config, sl2vl=tables)
    assert config.resources == resources
    _assert_matches_oracle(topo, config)


@settings(max_examples=40, deadline=None)
@given(params=_fabrics(max_endnodes=40), variant=st.sampled_from(VARIANTS))
def test_fabric_dump_round_trip_keeps_sls_and_graph(params, variant):
    topo = build_topology(params)
    config = _config(topo, variant)
    text = emit_fabric_dump(config)
    parsed = parse_fabric_dump(text)
    assert emit_fabric_dump(parsed) == text
    assert parsed.resources == config.resources
    assert parsed.vl_shift_disabled == config.vl_shift_disabled
    assert (SimConfig(topo, parsed, UniformTraffic()).config_hash
            == SimConfig(topo, config, UniformTraffic()).config_hash)
    s = topo.num_switches
    assert all(parsed.sl(u, v) == config.sl(u, v) for u in range(s) for v in range(s))
    got, want = build_cdg(topo, parsed), build_cdg(topo, config)
    assert (got.vertices, got.succ) == (want.vertices, want.succ)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("params", [DragonflyParams(4, 2, 2), DragonflyParams(6, 3, 3)],
                         ids=lambda p: str(p.num_endnodes))
def test_build_cdg_matches_brute_force_oracle_at_study_sizes(params, variant):
    topo = build_topology(params)
    _assert_matches_oracle(topo, _config(topo, variant))


def test_build_cdg_matches_oracle_on_parsed_dump_with_per_switch_tables():
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = parse_fabric_dump(emit_fabric_dump(synthesize(topo, "d3r")))
    # switch 5 swaps the two SLs; group 4 (switches 16-19) puts both on VL 0, so
    # routes that differ only in SL share their edges there
    config.sl2vl[5] = [[row[1::-1] + row[2:] for row in per_op] for per_op in config.sl2vl[5]]
    for s in range(16, 20):
        config.sl2vl[s] = [[(0,) * len(row) for row in per_op] for per_op in config.sl2vl[s]]
    assert len({id(t) for t in config.sl2vl}) == topo.num_switches
    _assert_matches_oracle(topo, config)


def _corrupted(how):
    """A 72-endnode dla config with one LFT column broken for destination 50; "batch"
    breaks the columns of 52 and 54 too, on the other switches of 50's group."""
    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "dla")
    dst = 50
    dsw = topo.switch_of(dst)  # switch 25, group 6
    if how == "cycle":             # switches 4 and 5 (group 1) bounce packets for dst
        config.lft[4][dst] = topo.local_port(4, 5)
        config.lft[5][dst] = topo.local_port(5, 4)
    elif how == "cycle-at-dst":    # the destination switch forwards instead of delivering
        config.lft[dsw][dst] = topo.local_port(dsw, dsw + 1)
    elif how == "misdelivery":     # switch 9 hands the packet to its own endnode
        config.lft[9][dst] = 1
    elif how == "batch":           # one source loops toward switches 25 and 26 and misdelivers
        for d in (dst, dst + 2):   # toward switch 27, and finds the misdelivery first
            config.lft[4][d] = topo.local_port(4, 5)
            config.lft[5][d] = topo.local_port(5, 4)
        config.lft[4][dst + 4] = 0
    else:                          # the destination switch delivers to dst's neighbour
        config.lft[dsw][dst] = topo.attach_port(dst + 1)
    return topo, config


@pytest.mark.parametrize("how", ["cycle", "cycle-at-dst", "misdelivery", "misdelivery-at-dst",
                                 "batch"])
def test_routing_loop_names_the_same_pair_as_the_oracle(how):
    topo, config = _corrupted(how)
    with pytest.raises(RoutingLoop) as ref:
        brute_force_cdg(topo, config)
    with pytest.raises(RoutingLoop) as got:
        build_cdg(topo, config)
    assert got.value.pair == ref.value.pair
    assert str(got.value) == str(ref.value)
    assert got.value.pair[1] == 50


def _outcome(builder, topo, config):
    try:
        cdg = builder(topo, config)
    except Exception as exc:  # the builders must fail alike, whatever the error
        return type(exc), getattr(exc, "pair", None), str(exc)
    return cdg.vertices, cdg.succ


@settings(max_examples=60, deadline=None)
@given(params=_fabrics(max_endnodes=40), variant=st.sampled_from(VARIANTS), data=st.data())
def test_corrupted_lft_fails_like_the_oracle(params, variant, data):
    """Random LFT entries, including unwired and out-of-range ports."""
    topo = build_topology(params)
    config = _config(topo, variant)
    for _ in range(data.draw(st.integers(1, 3))):
        s = data.draw(st.integers(0, topo.num_switches - 1))
        d = data.draw(st.integers(0, topo.num_endnodes - 1))
        config.lft[s][d] = data.draw(st.integers(-1, params.radix))
    assert _outcome(build_cdg, topo, config) == _outcome(brute_force_cdg, topo, config)


@pytest.mark.parametrize("shape, s, d, port", [
    ("2,1,1", 0, 5, -1),    # read as the last port: build_cdg returned a graph
    ("2,1,1", 0, 5, 3),     # the radix: a bare IndexError
    ("1,3,1,3", 2, 0, 3),   # an unwired global port: run_sim ended in a bare TypeError
])
def test_an_lft_port_with_no_channel_is_a_typed_error(shape, s, d, port):
    topo = build_topology(DragonflyParams.parse(shape))
    config = synthesize(topo, "dla")
    config.lft[s][d] = port
    with pytest.raises(UnknownChannel, match=f"no channel at s{s}:{port}"):
        build_cdg(topo, config)
    assert _outcome(build_cdg, topo, config) == _outcome(brute_force_cdg, topo, config)
    with pytest.raises(UnknownChannel, match=f"switch {s}: lid {d} port {port} has no channel"):
        SimConfig(topo, config, UniformTraffic())


@settings(max_examples=60, deadline=None)
@given(params=_fabrics(max_endnodes=40), variant=st.sampled_from(VARIANTS), data=st.data())
def test_sl2vl_in_rows_that_differ_by_attach_port_match_the_oracle(params, variant, data):
    """A fresh random SL2VL row for every (switch, out, in), so the attach
    ports of one switch often differ in their in-rows and every endnode on
    that switch walks. Each attach port after the first draws its own rows or
    copies an earlier attach port's as equal new tuples, and may then redraw
    the row of one out port. The rows vary in SLs 0 and 1, the ones routes
    use, so two ports often agree on some out ports and not on others. Some
    LFT entries are broken too, first hops included."""
    topo = build_topology(params)
    config = _config(topo, variant)
    rng = data.draw(st.randoms(use_true_random=False))
    vls = rng.choice((1, 2, 3, MAX_SLS))
    radix, p = params.radix, params.p

    def row():
        return (rng.randrange(vls), rng.randrange(vls)) + (0,) * (MAX_SLS - 2)

    config.sl2vl = []
    for _ in range(topo.num_switches):
        by_in = [[row() for _ in range(radix)] for _ in range(radix)]  # [in port][out port]
        for ip in range(1, p):  # attach ports are 0..p-1
            like = rng.randrange(ip + 1)
            if like < ip:
                by_in[ip] = [tuple(list(vl_row)) for vl_row in by_in[like]]
                if rng.random() < 0.5:
                    by_in[ip][rng.randrange(radix)] = row()
        config.sl2vl.append([[by_in[ip][op] for ip in range(radix)] for op in range(radix)])
    for _ in range(data.draw(st.integers(0, 2))):
        s = data.draw(st.integers(0, topo.num_switches - 1))
        d = data.draw(st.integers(0, topo.num_endnodes - 1))
        config.lft[s][d] = data.draw(st.integers(0, radix))
    assert _outcome(build_cdg, topo, config) == _outcome(brute_force_cdg, topo, config)


@pytest.mark.parametrize("shape", ["4,2,2", "6,3,3"])
def test_every_engine_gives_the_attach_ports_of_a_switch_equal_in_rows(shape):
    """build_cdg walks once per source switch only when the in-rows of all its
    attach ports agree; the synthesized and parsed tables must keep that."""
    topo = build_topology(DragonflyParams.parse(shape))
    attach = [set() for _ in range(topo.num_switches)]
    for e in range(topo.num_endnodes):
        attach[topo.switch_of(e)].add(topo.attach_port(e))
    for engine, shift in (("dla", True), ("d3r", True), ("updn", True), ("dla", False)):
        config = synthesize(topo, engine, vl_shift=shift)
        for tables in (config, parse_fabric_dump(emit_fabric_dump(config))):
            for s, table in enumerate(tables.sl2vl):
                for per_op in table:
                    assert len({per_op[ip] for ip in attach[s]}) == 1, (engine, shift, s)


# -- scale ---------------------------------------------------------------------

# sha256 over the sorted (u, v, witness) triples of each engine's CDG at 1056
# endnodes, recorded from the builder that walked from every source endnode.
PINNED_CDGS = {
    "dla": "2728aa76436022d28505c4c83b3e200d4f82845a648bbea716c39b0f7a831cab",
    "d3r": "957cc1faa03d8a6840573d623dcfa234222e7ff09db5b0857e300846587a1773",
    "updn": "bb74f682610b829a1c302c69ff0da1935881f4777b7a8528050700bc76b0abbc",
}


def _cdg_digest(cdg) -> str:
    triples = sorted((u, v, divmod(w, cdg.n))
                     for u, out in cdg.succ.items() for v, w in out.items())
    return hashlib.sha256(repr(triples).encode()).hexdigest()


def _assert_engines_acyclic(params, max_kept=None) -> dict[str, str]:
    """Prove each engine's CDG acyclic twice over and return its digest. The
    build may hold at most 10 % more memory at its peak than the graph keeps,
    and each graph may keep at most `max_kept` bytes."""
    topo = build_topology(params)
    digests = {}
    for engine in ("dla", "d3r", "updn"):
        config = synthesize(topo, engine)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cdg = build_cdg(topo, config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.10 * (kept - before), engine
        assert max_kept is None or kept - before <= max_kept, (engine, kept - before)
        report = check_deadlock_free(cdg)
        assert report.acyclic and report == tarjan_deadlock_report(cdg), engine
        assert descending_edges(cdg, channel_numbering(topo, config)) == [], engine
        digests[engine] = _cdg_digest(cdg)
    return digests


def test_engines_acyclic_at_1056_endnodes():
    # each graph kept 10.7-16.9 MiB while a second dict held every edge's witness
    assert _assert_engines_acyclic(DragonflyParams(8, 4, 4), max_kept=7 << 20) == PINNED_CDGS


# the shift-disabled dla witness at 342 endnodes, recorded from the builder
# that walked from every source endnode
PINNED_NOSHIFT_REPORT_342 = DeadlockReport(
    acyclic=False,
    cycle=((684, 0), (1256, 0), (744, 0), (1291, 0), (715, 0), (1255, 0)),
    inducing_flows=((0, 36), (0, 39), (36, 18), (36, 18), (21, 0), (18, 3)),
)


def test_shift_disabled_dla_witness_at_342_endnodes_is_pinned():
    topo = build_topology(DragonflyParams(6, 3, 3))
    cdg = build_cdg(topo, synthesize(topo, "dla", vl_shift=False))
    assert check_deadlock_free(cdg) == PINNED_NOSHIFT_REPORT_342


# the same digests at 2550 endnodes, recorded from the builder that walked once
# per source switch and destination class
PINNED_CDGS_2550 = {
    "dla": "69118f15c6b8ed6575417a7c93976f8956f0d7679490f98ba9a0d605954671d2",
    "d3r": "e8e8570ca1aad6878d68190c12e5f0dad8ebcb53b3312b804f26e598352cd53f",
    "updn": "235cbd658a3b5ebefcc8c5ffef18d44d8706f974f4554a2301183d8c7c4f4fbb",
}


@pytest.mark.slow
def test_engines_acyclic_at_2550_endnodes():
    assert _assert_engines_acyclic(DragonflyParams(10, 5, 5)) == PINNED_CDGS_2550
