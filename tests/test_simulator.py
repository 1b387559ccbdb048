import hashlib
import heapq
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflysim import (
    ChannelDependencyGraph,
    DeadlockDetected,
    DragonflyParams,
    InvalidParams,
    UniformTraffic,
    build_cdg,
    build_topology,
    check_deadlock_free,
    emit_fabric_dump,
    make_pattern,
    parse_fabric_dump,
    synthesize,
)
from dflysim.simulator import PACKET_PS, SimConfig, _FabricSim, arbitrate_output, run_sim, sweep
from dflysim.traffic import HotspotTraffic, Stencil3dTraffic, TrafficPattern
from oracles import sorted_scan_arbiter


class SingleFlow(TrafficPattern):
    """One source endnode sending to one destination; used by link-limit tests."""

    name = "single"

    def __init__(self, src, dst):
        self.src, self.dst = src, dst

    def bind(self, n, seed):
        self.n = n
        return self

    def source_load(self, s, offered):
        return offered if s == self.src else 0.0

    def choose(self, s, rng):
        return self.dst

    def counted_endnodes(self):
        return [self.dst]

    def to_dict(self):
        return {"kind": self.name, "src": self.src, "dst": self.dst}


class OneSwitchUniform(TrafficPattern):
    """Sources on switch 0 send to uniform destinations on switch 0, themselves
    included: one p x p switch under uniform traffic, the setting of the
    head-of-line blocking analysis. Endnodes on other switches stay idle."""

    name = "one-switch-uniform"

    def __init__(self, p):
        self.p = p

    def bind(self, n, seed):
        self.n = n
        return self

    def source_load(self, s, offered):
        return offered if s < self.p else 0.0

    def choose(self, s, rng):
        return rng.randrange(self.p)

    def counted_endnodes(self):
        return list(range(self.p))

    def to_dict(self):
        return {"kind": self.name, "p": self.p}


def _config(engine="dla", pattern=None, **kw):
    params = kw.pop("params", DragonflyParams(4, 2, 2))
    topo = build_topology(params)
    routing = synthesize(topo, engine.removesuffix("-noshift"), vl_shift=engine != "dla-noshift")
    defaults = dict(voq=True, buffer_depth=16, seed=1)
    defaults.update(kw)
    return SimConfig(topology=topo, routing=routing,
                     pattern=pattern or UniformTraffic(), **defaults)


# -- arbiter ------------------------------------------------------------------

NO_GRANT = (-1, -1)  # rr_last before an output's first grant
_IDLE = [0] * 6      # in_busy row: every input idle at t = 0
_SL_TO_VL = [(0, 1)] * 6  # vrow: SL 0 -> VL 0, SL 1 -> VL 1 on every input


def _heads(*keys, sl=0):
    """Pending heads keyed (input, VL), as the simulator keeps them per output."""
    return {key: (0, sl) for key in keys}


def test_arbiter_single_candidate_chosen():
    assert arbitrate_output(NO_GRANT, _heads((0, 0)), 0, _IDLE, [1, 1], _SL_TO_VL) == (0, 0)


def test_arbiter_strict_alternation():
    pend = _heads((0, 0), (1, 0))
    last = NO_GRANT
    picks = []
    for _ in range(6):
        last = arbitrate_output(last, pend, 0, _IDLE, [1, 1], _SL_TO_VL)
        picks.append(last)
    assert picks == [(0, 0), (1, 0)] * 3


def test_arbiter_skips_creditless_candidates():
    pend = _heads((0, 0), (1, 0))
    pend[(0, 0)] = (0, 1)  # (0, 0) waits for VL 1, which has no credit
    for last in (NO_GRANT, (0, 0), (1, 0)):
        assert arbitrate_output(last, pend, 0, _IDLE, [1, 0], _SL_TO_VL) == (1, 0)
    busy = [0, 5] + [0] * 4  # input 1 stays busy until t = 5
    pend = _heads((0, 0), (1, 0))
    for last in (NO_GRANT, (0, 0), (1, 0)):
        assert arbitrate_output(last, pend, 4, busy, [1, 1], _SL_TO_VL) == (0, 0)
    assert arbitrate_output(NO_GRANT, pend, 5, busy, [1, 1], _SL_TO_VL) == (0, 0)
    assert arbitrate_output((0, 0), pend, 5, busy, [1, 1], _SL_TO_VL) == (1, 0)
    assert arbitrate_output(NO_GRANT, pend, 0, _IDLE, [0, 1], _SL_TO_VL) is None
    assert arbitrate_output(NO_GRANT, {}, 0, _IDLE, [1, 1], _SL_TO_VL) is None


def test_arbiter_wraps_after_last_granted():
    pend = _heads((0, 0), (1, 0), (2, 1))
    assert arbitrate_output((2, 1), pend, 0, _IDLE, [1, 1], _SL_TO_VL) == (0, 0)
    assert arbitrate_output((1, 0), pend, 0, _IDLE, [1, 1], _SL_TO_VL) == (2, 1)
    # the wrapped pick is the smallest key, whatever the dict order
    pend = _heads((2, 1), (1, 0), (0, 0))
    assert arbitrate_output((2, 1), pend, 0, _IDLE, [1, 1], _SL_TO_VL) == (0, 0)


_KEYS = st.tuples(st.integers(0, 5), st.integers(0, 2))


@given(heads=st.lists(st.tuples(_KEYS, st.integers(0, 1)), unique_by=lambda h: h[0],
                      max_size=12),
       last=st.sampled_from([NO_GRANT, (5, 2)]) | _KEYS,  # (5, 2): every key wraps
       t=st.integers(0, 3),
       in_busy=st.lists(st.integers(0, 4), min_size=6, max_size=6),
       credits=st.lists(st.integers(0, 2), min_size=3, max_size=3),
       vrow=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=6, max_size=6))
def test_arbiter_matches_sorted_scan_reference(heads, last, t, in_busy, credits, vrow):
    # heads arrive as an unsorted dict, like an output's pending heads; each
    # packet's SL picks its output VL through its input's vrow entry
    pend = {key: (0, sl) for key, sl in heads}

    def eligible(key):
        ip = key[0]
        return in_busy[ip] <= t and credits[vrow[ip][pend[key][1]]] > 0

    expected = sorted_scan_arbiter(None if last == NO_GRANT else last, pend, eligible)
    assert arbitrate_output(last, pend, t, in_busy, credits, vrow) == expected


# -- pinned results -------------------------------------------------------------

# result_hash at 72 endnodes, seed 1, 0.05 ms warm-up + 0.2 ms window. Keys
# are (engine, voq) for saturation runs (uniform, 16-packet buffers, load 1.0)
# and (engine, voq, pattern, buffer, load) for the low-load runs that pin the
# injection and credit-stall paths. A change here is a model change.
PINNED_RESULTS = {
    ("dla", True): "a0a703a990f8a3f6",
    ("dla", False): "1cc7cd9a529469db",
    ("d3r", True): "d226ac5ea1b81318",
    ("d3r", False): "0ff3cca646423aff",
    ("updn", True): "7cc1aa7c96e75be5",
    ("updn", False): "e3289040b02a63cb",
    ("dla", False, "hotspot", 1, 0.1): "4d2e497de6fd675e",
    ("dla", False, "hotspot", 1, 0.5): "cb56207c46d23c00",
    ("d3r", True, "stencil3d", 2, 0.1): "9f619010a50187e4",
    ("d3r", True, "stencil3d", 2, 0.5): "f48f08bccd1bc7ba",
    ("updn", False, "uniform", 4, 0.1): "e945adb17be0a96a",
    ("updn", False, "uniform", 4, 0.5): "0cabdc4d0327175b",
}


# The fabric state when a PINNED_RESULTS run stops: (injected, delivered,
# in_fabric, state digest). result_hash sees only in-window deliveries; this
# digest covers every buffer, credit, busy time, arbiter pointer and source
# queue length, so any change to the order events run in shows here.
PINNED_END_STATE = {
    ("dla", True): (17640, 15157, 2379, "a680c2875921b474"),
    ("dla", False): (17640, 11402, 1711, "fac97dc5487f3200"),
    ("d3r", True): (17640, 15185, 2361, "d6911adbe1f6078e"),
    ("d3r", False): (17640, 11371, 1822, "0b771c866a8c0b21"),
    ("updn", True): (17640, 6986, 2152, "a01e45ec73230050"),
    ("updn", False): (17640, 4379, 1907, "b96500317f30f5f6"),
    ("dla", False, "hotspot", 1, 0.1): (2612, 1989, 26, "f4aaefc7a00f32f6"),
    ("dla", False, "hotspot", 1, 0.5): (9326, 6724, 138, "9195e0fd3e2b5dca"),
    ("d3r", True, "stencil3d", 2, 0.1): (1744, 1720, 24, "64041048fc68b8c8"),
    ("d3r", True, "stencil3d", 2, 0.5): (8817, 8674, 123, "fa4d357cac51f311"),
    ("updn", False, "uniform", 4, 0.1): (1750, 1737, 13, "fa142cd713f5d471"),
    ("updn", False, "uniform", 4, 0.5): (8857, 3073, 456, "c27673d20a250909"),
}


# sha256 over every source queue's packets, in order, when a saturation run of
# PINNED_RESULTS stops. The end-state digest sees only queue lengths; this one
# also sees each queued packet's destination and SL.
PINNED_SOURCE_QUEUES = {
    ("dla", True): "9293e0294432f1b5a75d005e234f61240ea31a8f8b7868a7f7aa394b19e2ed23",
    ("dla", False): "a93cf81b8d42d58d25e2df7ac96538655ea619baf6c742291655a6704a23f886",
    ("d3r", True): "594c48bf0d1a523f871281e23405992b43bc04c323a9f5fa73e155fa7dad3efe",
    ("d3r", False): "486f1aebdadd065bedb7b9ea13096e0a32fdf499f141d6fa600930af5eb00b08",
    ("updn", True): "0aabdcb098d988914d0a09607470e4bb62757dc9402d231df81f99f7368ae5f7",
    ("updn", False): "3e2b2c65e385a98b3699c547e0d09329c637bcb9f6268732764c3b558a85ea45",
}


def _pinned_config(key):
    engine, voq, pattern, depth, load = key + ("uniform", 16, 1.0)[len(key) - 2:]
    return _config(engine, pattern=make_pattern(pattern), voq=voq, buffer_depth=depth,
                   offered_load=load, seed=1, warmup_s=0.05e-3, measure_s=0.2e-3)


def _state_digest(sim):
    # the digests were pinned with 8 occupancy and credit entries per port; the
    # VLs no table uses stay empty (occupancy 0) and full (credits = depth)
    depth = sim.cfg.buffer_depth
    occ = [[row + [0] * (8 - len(row)) for row in rows] for rows in sim.occ]
    credits = [[row + [depth] * (8 - len(row)) for row in rows] for rows in sim.credits]
    state = (occ, credits, sim.in_busy, sim.out_busy, sim.rr_last,
             sim.hca_credit, sim.hca_busy, [len(q) for q in sim.hca_q])
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(PINNED_RESULTS), ids=lambda k: "-".join(map(str, k)))
def test_saturation_results_are_pinned(key):
    assert run_sim(_pinned_config(key)).result_hash == PINNED_RESULTS[key]


@pytest.mark.parametrize("key", sorted(PINNED_RESULTS), ids=lambda k: "-".join(map(str, k)))
def test_end_state_is_pinned(key):
    sim = _FabricSim(_pinned_config(key))
    sim.run()
    assert (sim.injected, sim.delivered, sim.in_fabric, _state_digest(sim)) \
        == PINNED_END_STATE[key]


@pytest.mark.parametrize("key", sorted(PINNED_SOURCE_QUEUES), ids=lambda k: "-".join(map(str, k)))
def test_source_queue_contents_are_pinned(key):
    sim = _FabricSim(_pinned_config(key))
    sim.run()
    queues = repr([list(q) for q in sim.hca_q]).encode()
    assert hashlib.sha256(queues).hexdigest() == PINNED_SOURCE_QUEUES[key]


# -- memory ---------------------------------------------------------------------

def test_a_queued_packet_keeps_at_most_16_bytes():
    # a fresh (dst, sl) tuple per packet kept about 53 bytes; a shared one keeps
    # one 8-byte deque reference
    def kept_and_queued(measure_s):
        sim = _FabricSim(_config("updn", voq=False, offered_load=1.0, warmup_s=0.0,
                                 measure_s=measure_s))
        tracemalloc.start()
        try:
            sim.run()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return kept, sum(map(len, sim.hca_q))

    (kept_short, queued_short), (kept_long, queued_long) = map(kept_and_queued, (0.1e-3, 0.3e-3))
    assert queued_long - queued_short > 10_000
    assert kept_long - kept_short <= 16 * (queued_long - queued_short), \
        (kept_long - kept_short) / (queued_long - queued_short)


def test_a_fresh_simulator_keeps_at_most_800_bytes_per_port():
    # a FIFO map for each of the 8 VLs kept about 1,320 bytes per port at 342
    # endnodes; FIFO lanes only for the VLs the tables use kept 785-858 beside
    # 8-entry occupancy and credit rows, and 673-762 with those rows cut to match
    topo = build_topology(DragonflyParams(6, 3, 3))
    bound = 800 * topo.num_switches * topo.params.radix
    for engine in ("dla", "d3r", "updn"):
        cfg = SimConfig(topology=topo, routing=synthesize(topo, engine), pattern=UniformTraffic())
        tracemalloc.start()
        try:
            sim = _FabricSim(cfg)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= bound, (engine, kept, bound)
        vls = cfg.routing.resources[1]
        assert len(sim.fifos[0][0]) == len(sim.occ[0][0]) == len(sim.credits[0][0]) == vls


# -- invariants -----------------------------------------------------------------

_BROKEN_PROTOCOL = """
import sys
import tracemalloc
from dflysim import (DragonflyParams, InvariantViolation, UniformTraffic, build_topology,
                     emit_fabric_dump, parse_fabric_dump, synthesize)
from dflysim.simulator import SimConfig, _FabricSim

topo = build_topology(DragonflyParams(2, 1, 1))
routing = synthesize(topo, "dla")


def fresh(load=1.0):
    return _FabricSim(SimConfig(
        topology=topo, routing=routing, pattern=UniformTraffic(), offered_load=load,
        buffer_depth=2, warmup_s=0.02e-3, measure_s=0.1e-3))


def broken(name, sim):
    try:
        sim.run()
    except InvariantViolation as exc:
        print(name, "optimize", sys.flags.optimize, "InvariantViolation:", exc)


s = fresh()  # every VL buffer starts full, so the first arrival overflows
for per_switch in s.occ:
    for row in per_switch:
        row[:] = [2] * len(row)
broken("occupancy", s)
s = fresh()  # one credit more than each downstream switch buffer holds
for per_switch in s.credits:
    for row in per_switch:
        row[:] = [c + 1 for c in row]
broken("switch-credits", s)
s = fresh(0.1)  # one HCA credit too many; sparse sends let it come back before an overflow
s.hca_credit[:] = [c + 1 for c in s.hca_credit]
broken("hca-credits", s)

# a doctored dla table: VL 1 on a terminal output entered from a global input,
# first on SL 0 (in use), then only on SL 3 (no packet carries it)
turn = "sl2vl out 0 in 2: "
dump = emit_fabric_dump(routing)
for name, vls in (("vl-shift-sl0", "1" + " 0" * 15), ("vl-shift-sl3", "0 0 0 1" + " 0" * 12)):
    doctored = parse_fabric_dump(dump.replace(turn + "0" + " 0" * 15, turn + vls, 1))
    try:
        SimConfig(topology=topo, routing=doctored, pattern=UniformTraffic())
        print(name, "builds")
    except InvariantViolation as exc:
        print(name, "optimize", sys.flags.optimize, "InvariantViolation:", exc)
"""


def test_broken_credit_protocol_raises_typed_error_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_PROTOCOL],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "occupancy optimize 1 InvariantViolation: VL buffer overflow: credit protocol broken",
        "switch-credits optimize 1 InvariantViolation: credit over-return",
        "hca-credits optimize 1 InvariantViolation: HCA credit over-return",
        "vl-shift-sl0 optimize 1 InvariantViolation: "
        "VL 1 is only legal on a local channel right after a global hop",
        "vl-shift-sl3 builds",
    ]


def _grantable_heads_at_idle_outputs(sim, t):
    """(switch, output, input, VL) of each pending head that an idle output could
    grant at t: its input is idle and its output VL has a credit."""
    out = []
    for s, outputs in enumerate(sim.pending):
        table = sim.cfg.routing.sl2vl[s]
        for op, pend in enumerate(outputs):
            if sim.out_busy[s][op] <= t:
                out += [(s, op, ip, vl) for (ip, vl), (_, sl) in pend.items()
                        if sim.in_busy[s][ip] <= t and sim.credits[s][op][table[op][ip][sl]] > 0]
    return out


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(["2,1,1", "1,2,1", "2,1,2", "1,3,1,3"]),
       engine=st.sampled_from(["dla", "d3r", "updn"]), voq=st.booleans(),
       depth=st.integers(1, 3), load=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
       seed=st.integers(0, 1000),
       pattern=st.sampled_from([UniformTraffic, Stencil3dTraffic, lambda: HotspotTraffic(0.7)]))
def test_no_output_idles_while_a_head_could_take_it(shape, engine, voq, depth, load, seed,
                                                   pattern):
    """Work conservation: once every event due at a time has run, no idle output
    has a pending head whose input is idle and whose output VL has a credit.
    run() pops its next time with heapq.heappop, and every event of the time
    popped before has run by then, so the audit wraps that call."""
    cfg = _config(engine, pattern=pattern(), params=DragonflyParams.parse(shape), voq=voq,
                  buffer_depth=depth, offered_load=load, seed=seed,
                  warmup_s=5e-6, measure_s=40e-6)
    sim = _FabricSim(cfg)
    pop = heapq.heappop
    done = []  # the times whose events have all run when the next one is popped

    def audited_pop(times):
        if done:
            assert _grantable_heads_at_idle_outputs(sim, done[-1]) == [], done[-1]
        done.append(pop(times))
        return done[-1]

    with mock.patch.object(heapq, "heappop", audited_pop):
        sim.run()
    assert len(done) > 10 and sim.delivered > 0

# -- config validation ----------------------------------------------------------

def test_config_validation():
    # 1.5 ran and then raised a false "credit protocol broken"; 2.0 ran with
    # another config hash than 2
    for depth in (0, 1.5, 2.0, True, "16"):
        with pytest.raises(InvalidParams, match="whole number of packets"):
            _config(buffer_depth=depth)
    with pytest.raises(InvalidParams):
        _config(offered_load=1.5)
    with pytest.raises(InvalidParams):
        _config(measure_s=0)
    with pytest.raises(InvalidParams):
        _config(measure_s=1e-13)  # rounds to a 0 ps window
    with pytest.raises(InvalidParams):
        _config(warmup_s=-1)
    # an infinite window, or a finite one whose picosecond value is not, overflowed
    # when rounded to picoseconds
    for window in ({"warmup_s": float("inf")}, {"measure_s": float("inf")},
                   {"warmup_s": 1e297}, {"measure_s": 1e297}):
        with pytest.raises(InvalidParams):
            _config(**window)
    # a load, warm-up or window of True ran; a load of "0.5" or None ended in a bare
    # TypeError. No str window here: a check after the arithmetic would make
    # "1e-3" * 10**12, a string of terabytes.
    cases = [(key, bad) for key in ("offered_load", "warmup_s", "measure_s")
             for bad in (True, None, 1j)] + [("offered_load", "0.5")]
    for key, bad in cases:
        with pytest.raises(InvalidParams, match="windows and loads must be numbers"):
            _config(**{key: bad})
    # an int ps value beyond the largest float was let through, then overflowed as a float
    with pytest.raises(InvalidParams, match="warm-up must be finite"):
        _config(warmup_s=10**400)
    # 1 and 1.0 ran as one result under two config hashes
    small = DragonflyParams(2, 1, 1)
    as_int = _config(params=small, offered_load=1, warmup_s=0, measure_s=1)
    as_float = _config(params=small, offered_load=1.0, warmup_s=0.0, measure_s=1.0)
    assert as_int.canonical() == as_float.canonical()
    assert {type(v) for v in (as_int.offered_load, as_int.warmup_s, as_int.measure_s)} == {float}
    for fraction in (float("nan"), 5, 0, -0.1):
        with pytest.raises(InvalidParams):
            _config(pattern=HotspotTraffic(fraction))
    for dims in ((1, 2), (-1, -2, 36), (0, 0, 0), (2.0, 6, 6)):
        with pytest.raises(InvalidParams):
            _config(pattern=Stencil3dTraffic(dims))
    # a dump may use VLs up to 15, but a port has 8: SL 0 on VL 8 needs 9
    topo = build_topology(DragonflyParams(2, 1, 1))
    text = emit_fabric_dump(synthesize(topo, "updn"))
    text = text.replace("vls 1\n", "vls 9\n", 1)
    text = text.replace("sl2vl out 0 in 1: 0", "sl2vl out 0 in 1: 8", 1)
    routing = parse_fabric_dump(text)
    assert routing.resources == (1, 9)
    with pytest.raises(InvalidParams, match="needs 9 VLs"):
        SimConfig(topo, routing, UniformTraffic())


@pytest.mark.parametrize("seed", [1.0, True, "1", 1.5, -1, None])
def test_a_seed_that_is_not_a_whole_number_at_least_0_is_refused(seed):
    # 1, 1.0 and True ran as one result under three config hashes, and -1 ran as
    # seed 1 under another; "1" and 1.5 ran
    with pytest.raises(InvalidParams, match="seed must be a whole number, at least 0"):
        _config(params=DragonflyParams(2, 1, 1), seed=seed)
    config = _config(params=DragonflyParams(2, 1, 1))
    config.seed = seed
    with pytest.raises(InvalidParams, match="seed must be a whole number, at least 0"):
        sweep(config, [0.5])
    assert _config(params=DragonflyParams(2, 1, 1), seed=0).seed == 0


# -- basic behavior -------------------------------------------------------------

def test_low_load_accepted_tracks_offered():
    r = run_sim(_config(offered_load=0.1))
    assert r.accepted == pytest.approx(0.1, rel=0.02)
    assert r.offered == 0.1


def test_single_pair_is_link_limited():
    r = run_sim(_config(pattern=SingleFlow(0, 70), offered_load=1.0))
    assert r.accepted == pytest.approx(1.0, abs=0.005)
    assert r.counted_endnodes == 1


def test_accepted_never_fabricates_traffic():
    """Conservation: nothing is delivered that was not injected. The
    normalized rate may sit above the nominal load by Bernoulli sampling
    noise plus the one-packet window quantum, never more."""
    for load in (0.2, 0.5, 0.8):
        cfg = _config(offered_load=load, seed=3)
        r = run_sim(cfg)
        assert r.delivered_packets <= r.injected_packets
        n = cfg.topology.num_endnodes
        window_slots = n * cfg.measure_ps / PACKET_PS
        sigma = (load * (1 - load) / window_slots) ** 0.5
        quantum = PACKET_PS / cfg.measure_ps
        assert 0.0 <= r.accepted <= load + 4 * sigma + quantum


def test_determinism_same_seed_same_result():
    a = run_sim(_config(offered_load=0.5, seed=42))
    b = run_sim(_config(offered_load=0.5, seed=42))
    assert a.result_hash == b.result_hash
    assert a.per_endnode == b.per_endnode
    c = run_sim(_config(offered_load=0.5, seed=43))
    assert c.result_hash != a.result_hash
    # a dump whose unused SLs (all but SL 0 under dla) map to VL 15 runs the same:
    # no packet reads an SL out of use, so no lane is made for VL 15
    text = re.sub(r"^(sl2vl .*: \d+)( \d+){15}$", r"\1" + " 15" * 15,
                  emit_fabric_dump(_config().routing), flags=re.M)
    doctored = parse_fabric_dump(text)
    assert doctored.sl2vl[0][0][0][1:] == (15,) * 15
    assert run_sim(replace(_config(offered_load=0.5, seed=42), routing=doctored)).result_hash \
        == a.result_hash


def test_per_endnode_series_shape():
    r = run_sim(_config(offered_load=0.3))
    assert len(r.per_endnode) == 72
    mean = sum(r.per_endnode) / len(r.per_endnode)
    assert mean == pytest.approx(r.accepted, rel=1e-6)


# -- sweep ----------------------------------------------------------------------

def test_sweep_default_ten_points():
    loads = [round(0.1 * k, 1) for k in range(1, 11)]
    assert len(loads) == 10
    results = sweep(_config(params=DragonflyParams(2, 1, 1), warmup_s=0.05e-3,
                            measure_s=0.2e-3), loads[:3])
    assert [r.offered for r in results] == loads[:3]
    assert [r.seed for r in results] == [1, 2, 3]  # derived seeds: base + index


def test_sweep_empty_loads():
    assert sweep(_config(), []) == []


def test_sweep_validates_loads():
    with pytest.raises(InvalidParams):
        sweep(_config(), [0.5, 0.1])
    with pytest.raises(InvalidParams):
        sweep(_config(), [1.5])
    for bad in (True, "0.5", None):  # True ran as load 1.0; the others ended in a TypeError
        with pytest.raises(InvalidParams, match="windows and loads must be numbers"):
            sweep(_config(), [bad])


def test_sweep_runs_an_int_load_as_its_float():
    cfg = _config(params=DragonflyParams(2, 1, 1), warmup_s=0.01e-3, measure_s=0.05e-3)
    (as_int,), (as_float,) = sweep(cfg, [1]), sweep(cfg, [1.0])
    assert as_int == as_float  # the config hash too: 1 and 1.0 had two


def test_sweep_reproducible_bit_for_bit():
    cfg = _config(params=DragonflyParams(2, 1, 1), warmup_s=0.05e-3, measure_s=0.2e-3)
    a = sweep(cfg, [0.2, 0.6])
    b = sweep(cfg, [0.2, 0.6])
    assert [r.result_hash for r in a] == [r.result_hash for r in b]


# -- patterns under simulation ----------------------------------------------------

def test_stencil_traffic_runs_and_conserves():
    r = run_sim(_config(pattern=Stencil3dTraffic(), offered_load=0.3, seed=2))
    assert r.pattern == "stencil3d"
    assert r.accepted == pytest.approx(0.3, rel=0.05)


def test_hotspot_excludes_victims_from_metric():
    r = run_sim(_config(pattern=HotspotTraffic(), offered_load=0.2, seed=2))
    assert r.counted_endnodes == 70
    assert 0.0 < r.accepted <= 1.0


# -- deadlock detection ------------------------------------------------------------

# The shift-disabled dla variant has a cyclic dependency graph; with minimal buffering
# at full load these fabrics lock. Each case: voq, buffer depth, seed, warm-up, message.
LOCKING_CASES = (
    (False, 1, 1, 0.1e-3, "48.128 us of simulated time with 159 packets in switch buffers, "
                          "2900 outstanding"),
    (False, 1, 1, 0.0, "48.128 us of simulated time with 159 packets in switch buffers, "
                       "2900 outstanding"),
    (False, 2, 2, 0.1e-3, "46.080 us of simulated time with 299 packets in switch buffers, "
                          "2484 outstanding"),
    (True, 2, 3, 0.0, "114.688 us of simulated time with 341 packets in switch buffers, "
                      "5234 outstanding"),
    (False, 1, 4, 0.02e-3, "76.800 us of simulated time with 147 packets in switch buffers, "
                           "4688 outstanding"),
)


def _locking_config(voq, buffer_depth, seed, warmup_s):
    return _config(engine="dla-noshift", voq=voq, buffer_depth=buffer_depth,
                   offered_load=1.0, seed=seed, warmup_s=warmup_s, measure_s=3e-3)


def test_cyclic_config_deadlocks_under_pressure():
    """A lock is raised at the injection slot where nothing else is due: the
    message pins that time, the packets in switch buffers and the packets
    outstanding (in switch buffers or still queued at their HCA). Warm-up does
    not move the lock, so the first two cases raise alike, and every case
    raises within about 0.115 ms of simulated time."""
    for voq, buffer_depth, seed, warmup_s, message in LOCKING_CASES:
        with pytest.raises(DeadlockDetected) as exc:
            run_sim(_locking_config(voq, buffer_depth, seed, warmup_s))
        assert str(exc.value) == "fabric locked at " + message


def _wait_for_graph(sim):
    """The wait-for graph of a locked fabric, as a CDG successor map.

    A pending head in (switch, input, VL) bound for output VL ovl waits from
    (the channel into that input, VL) on (the output's channel, ovl). Asserts
    that each such head is blocked for good: its output VL has no credit and
    the downstream lane holds a full buffer."""
    topo, routing = sim.cfg.topology, sim.cfg.routing
    succ = {}
    for s, outputs in enumerate(sim.pending):
        for op, pend in enumerate(outputs):
            for (ip, vl), (_, sl) in pend.items():
                ovl = routing.sl2vl[s][op][ip][sl]
                kind, s2, p2 = topo.peer[s][op]
                assert kind == "s" and sim.credits[s][op][ovl] == 0
                assert sim.occ[s2][p2][ovl] == sim.cfg.buffer_depth
                u = (topo.channel_at(*topo.peer[s][ip]).cid, vl)
                succ.setdefault(u, {})[(topo.channel_at("s", s, op).cid, ovl)] = 0
    return succ


def test_each_raise_is_a_lock():
    """At each raise, every packet in the fabric sits in a switch buffer, every
    head waits on a full lane, the waits close a cycle, and each wait is a
    dependency of the tables' CDG (Dally & Seitz, IEEE Trans. Comput. 1987)."""
    topo = build_topology(DragonflyParams(4, 2, 2))
    cdg = build_cdg(topo, synthesize(topo, "dla", vl_shift=False))
    for voq, buffer_depth, seed, warmup_s, _ in LOCKING_CASES:
        sim = _FabricSim(_locking_config(voq, buffer_depth, seed, warmup_s))
        with pytest.raises(DeadlockDetected) as exc:
            sim.run()
        in_fabric = int(re.search(r"with (\d+) packets in switch buffers", str(exc.value))[1])
        assert sum(sum(map(sum, per_switch)) for per_switch in sim.occ) == in_fabric
        succ = _wait_for_graph(sim)
        assert not check_deadlock_free(ChannelDependencyGraph(succ, sim.n)).acyclic
        assert all(v in cdg.succ.get(u, ()) for u, vs in succ.items() for v in vs)


@pytest.mark.parametrize("load", [0.1, 1.0])
def test_routing_loop_locks(load):
    """Switches 0 and 1 of 2,1,1 send destination 2 to each other: its packets
    circle until both local lanes hold a full buffer, and the fabric locks."""
    topo = build_topology(DragonflyParams(2, 1, 1))
    routing = synthesize(topo, "updn")
    lft = [row[:] for row in routing.lft]
    lft[0][2], lft[1][2] = topo.local_port(0, 1), topo.local_port(1, 0)
    cfg = SimConfig(topology=topo, routing=replace(routing, lft=lft), pattern=UniformTraffic(),
                    offered_load=load, buffer_depth=2, warmup_s=0, measure_s=0.2e-3)
    with pytest.raises(DeadlockDetected, match="^fabric locked at "):
        run_sim(cfg)
    sim = _FabricSim(cfg)
    with pytest.raises(DeadlockDetected):
        sim.run()
    loop = [(topo.channel_at("s", s, topo.local_port(s, 1 - s)).cid, 0) for s in (0, 1)]
    cycle = check_deadlock_free(ChannelDependencyGraph(_wait_for_graph(sim), sim.n)).cycle
    assert sorted(cycle) == sorted(loop)


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(["2,1,1", "1,2,1", "2,1,2"]),
       engine=st.sampled_from(["dla", "d3r", "updn"]), voq=st.booleans(),
       depth=st.integers(1, 3), load=st.floats(0.05, 1.0), seed=st.integers(0, 1000))
def test_live_fabric_never_raises(shape, engine, voq, depth, load, seed):
    """Every engine's tables have an acyclic CDG, so the fabric cannot lock."""
    run_sim(_config(engine, params=DragonflyParams.parse(shape), voq=voq, buffer_depth=depth,
                    offered_load=load, seed=seed, warmup_s=0, measure_s=100e-6))


def test_deadlock_free_config_does_not_trip_watchdog():
    # minimal buffering at full load on acyclic tables: a slow fabric, never a lock
    cfg = _config(voq=False, buffer_depth=1, offered_load=1.0, seed=1,
                  warmup_s=0.1e-3, measure_s=2.5e-3)
    r = run_sim(cfg)
    assert r.accepted > 0.2


# -- switch features ------------------------------------------------------------

# Saturation throughput of an N x N input-queued switch with FIFO inputs under
# uniform traffic (Karol, Hluchyj & Morgan, IEEE Trans. Commun. 1987, Table I).
KAROL_HOL_SATURATION = {2: 0.750, 3: 0.683, 4: 0.655, 8: 0.618}


@pytest.mark.parametrize("p", sorted(KAROL_HOL_SATURATION))
def test_fifo_switch_saturates_at_the_head_of_line_blocking_limit(p):
    """Without VOQ a switch input is one FIFO per VL, so its throughput at full load
    is the head-of-line blocking limit. Seeds 1-4 spread by up to 0.016 around the
    finite-N values; the tolerance is that spread, rounded up."""
    topo = build_topology(DragonflyParams(1, 1, p, 2))
    for seed in range(1, 5):
        r = run_sim(SimConfig(topology=topo, routing=synthesize(topo, "dla"),
                              pattern=OneSwitchUniform(p), offered_load=1.0, voq=False,
                              buffer_depth=16, warmup_s=0.2e-3, measure_s=2e-3, seed=seed))
        assert r.accepted == pytest.approx(KAROL_HOL_SATURATION[p], abs=0.02), seed


def test_voq_improves_saturation_throughput():
    novoq = run_sim(_config(voq=False, offered_load=1.0, seed=7)).accepted
    voq = run_sim(_config(voq=True, offered_load=1.0, seed=7)).accepted
    assert voq > novoq * 1.2


def test_more_buffer_never_hurts_spot():
    shallow = run_sim(_config(buffer_depth=1, offered_load=1.0, seed=7)).accepted
    deep = run_sim(_config(buffer_depth=8, offered_load=1.0, seed=7)).accepted
    assert deep > shallow
