"""Flit-level discrete-event simulation of a routed Dragonfly fabric.

Model highlights:

* Virtual cut-through with credit-based flow control at VL granularity.
  Buffer slots are whole packets (one flow-control unit per packet); a packet
  advances only when the downstream VL buffer has a free slot.
* Events move whole packets with flit-resolution timing: all times are integer
  picoseconds, and a packet occupies its link for MTU / FLIT_SIZE flit times.
  The link model (rate, MTU, flit size, wire, pipeline and credit latencies,
  VLs per port) is fixed by the module constants below.
* Input-queued switches. Without VOQ each (input port, VL) keeps one FIFO and
  only its head packet competes for an output (head-of-line blocking).
  With VOQ the FIFO is split per output port, sharing the same VL buffer
  space, so packets behind a blocked head can still be relayed. Both modes
  key the FIFOs of an (input port, VL) lane by output port; without VOQ the
  key is one constant, so the lane holds a single FIFO.
* Each output port runs an independent round-robin arbiter over (input, VL)
  pairs; a grant occupies both the output and the input for one packet time.
* Open-loop injection: a Bernoulli draw per source per packet slot at the
  offered rate; source queues are unbounded and accepted throughput counts
  delivered tails inside the measurement window only.
* A packet is an immutable (destination, SL) pair, made once per run for each
  destination and SL in use and shared by every packet with that pair, so a
  source queue grows by one reference per packet. SimConfig checks the dla
  VL-shift rule on the tables once, so no grant re-checks it.
* An HCA always accepts, so a delivery is counted at the grant onto its last
  link, at the landing time that grant fixes; no event marks the landing.
* A deadlock is raised at the lock: when the next injection slot is the only
  event due while packets are in the fabric, every head waits on a full lane
  with no credit in flight, and no event can ever free one.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import sys
from collections import defaultdict, deque
from dataclasses import dataclass, replace

from .errors import DeadlockDetected, InvalidParams, InvariantViolation, UnknownChannel
from .routing import INJECTION_VL, RoutingConfig, check_shape, check_vl_shift
from .topology import Topology
from .traffic import TrafficPattern

_PS = 10**12

# the fixed link model; SimConfig.canonical() reports every value
LINK_RATE = 32_000_000_000  # bits/s effective
MTU = 4096                  # bytes
FLIT_SIZE = 64              # bytes
LINK_LATENCY_S = 40e-9
PIPELINE_LATENCY_S = 100e-9
CREDIT_LATENCY_S = 40e-9
DATA_VLS = 8                # VLs per port

PACKET_PS = MTU // FLIT_SIZE * (FLIT_SIZE * 8 * _PS // LINK_RATE)  # exact: 16 ns flits
_LINK_PS = int(round(LINK_LATENCY_S * _PS))
_PIPE_PS = int(round(PIPELINE_LATENCY_S * _PS))
_CREDIT_PS = int(round(CREDIT_LATENCY_S * _PS))

# event codes
_E_SLOT = 0
_E_HCA = 1       # HCA a: b credits (0 or 1) come back, then try to inject
_E_ENQ = 2
_E_CREDIT = 3    # switch a, output b: a credit on VL c comes back, then arbitrate
_E_RELEASE = 4


def check_run_params(buffer_depth, warmup_s, measure_s, loads, seeds):
    """Range checks on the run parameters every caller may set (NaN fails too).
    Seeds are ints at least 0: random.Random runs 1.0, True and -1 as seed 1.
    Windows and loads are ints or floats, not bools, so `True` is no load."""
    if not isinstance(buffer_depth, int) or isinstance(buffer_depth, bool) or buffer_depth < 1:
        raise InvalidParams(f"buffer depth must be a whole number of packets per VL, at least 1, "
                            f"got {buffer_depth!r}")
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise InvalidParams(f"seed must be a whole number, at least 0, got {seed!r}")
    for x in (warmup_s, measure_s, *loads):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise InvalidParams(f"windows and loads must be numbers, got {x!r}")
    if not 0 <= warmup_s * _PS <= sys.float_info.max:  # exact for an int, later made a float
        raise InvalidParams("warm-up must be finite and not negative")
    if not 1 <= measure_s * _PS <= sys.float_info.max:
        raise InvalidParams("measurement window must be finite and at least 1 ps")
    if not all(0 <= load <= 1 for load in loads):
        raise InvalidParams("loads must be within [0, 1]")
    if loads != sorted(loads):
        raise InvalidParams("loads must be sorted ascending")


@dataclass
class SimConfig:
    """Everything one run depends on. Identical config + seed => identical result."""

    topology: Topology
    routing: RoutingConfig
    pattern: TrafficPattern
    offered_load: float = 1.0
    voq: bool = True
    buffer_depth: int = 16          # packets per VL
    warmup_s: float = 0.2e-3
    measure_s: float = 1.0e-3
    seed: int = 1

    def __post_init__(self):
        check_run_params(self.buffer_depth, self.warmup_s, self.measure_s, [self.offered_load],
                         [self.seed])
        self.offered_load, self.warmup_s, self.measure_s = map(
            float, (self.offered_load, self.warmup_s, self.measure_s))
        check_shape(self.topology, self.routing)
        for s, (row, ends) in enumerate(zip(self.routing.lft, self.topology.peer)):
            wired = {op for op, end in enumerate(ends) if end}
            if not wired.issuperset(row):
                dst = next(d for d, op in enumerate(row) if op not in wired)
                raise UnknownChannel(f"switch {s}: lid {dst} port {row[dst]} has no channel")
        check_vl_shift(self.topology, self.routing)
        _, vls_needed = self.routing.resources
        if vls_needed > DATA_VLS:
            raise InvalidParams(f"routing needs {vls_needed} VLs but a port has {DATA_VLS}")

    @property
    def warmup_ps(self) -> int:
        return int(round(self.warmup_s * _PS))

    @property
    def measure_ps(self) -> int:
        return int(round(self.measure_s * _PS))

    def canonical(self) -> dict:
        """JSON-able identity of this run (hashed into every output file)."""
        p = self.topology.params
        return {
            "params": [p.a, p.h, p.p, p.g],
            "engine": self.routing.engine,
            "vl_shift_disabled": self.routing.vl_shift_disabled,
            "pattern": self.pattern.to_dict(),
            "offered_load": self.offered_load,
            "voq": self.voq,
            "buffer_depth": self.buffer_depth,
            "data_vls": DATA_VLS,
            "link_rate": LINK_RATE,
            "mtu": MTU,
            "flit_size": FLIT_SIZE,
            "warmup_s": self.warmup_s,
            "measure_s": self.measure_s,
            "seed": self.seed,
            "link_latency_s": LINK_LATENCY_S,
            "pipeline_latency_s": PIPELINE_LATENCY_S,
            "credit_latency_s": CREDIT_LATENCY_S,
            "stall_horizon_s": None,  # no horizon exists; the key keeps config hashes stable
        }

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class SimResult:
    """One load point: accepted throughput normalized to the link rate."""

    offered: float
    accepted: float
    per_endnode: tuple[float, ...]
    injected_packets: int
    delivered_packets: int
    measured_packets: int
    counted_endnodes: int
    engine: str
    voq: bool
    buffer_depth: int
    pattern: str
    seed: int
    config_hash: str

    @property
    def result_hash(self) -> str:
        blob = repr((self.accepted, self.per_endnode, self.measured_packets)).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def arbitrate_output(last, pend, t, in_busy, credits, vrow):
    """Round-robin pick over one output's pending heads, with per-output memory.

    `pend` maps (input port, VL) keys to (dst, sl) head packets, in any
    order; `last` is the key granted last, or (-1, -1) before the first grant.
    A key is eligible when its input is idle at `t` (in_busy[ip] <= t) and the
    output VL that vrow maps its SL to has a credit. One pass returns the smallest
    eligible key after `last`, else the smallest eligible key (the scan
    wraps), else None: never a creditless pick while an eligible candidate
    exists (work conserving).
    """
    after = wrapped = None
    for key, pkt in pend.items():
        ip = key[0]
        if in_busy[ip] > t or credits[vrow[ip][pkt[1]]] <= 0:
            continue
        if key > last:
            if after is None or key < after:
                after = key
        elif after is None and (wrapped is None or key < wrapped):
            wrapped = key
    return wrapped if after is None else after


class _FabricSim:
    """Single-run engine. Deterministic: events due at one time run in the
    order they were scheduled, so a run is bit-reproducible for a fixed seed.
    It binds the config's pattern to the fabric size and seed, as `pattern`.

    Switch state is indexed [switch][port]: fifos[s][ip][vl] maps a FIFO key
    (the output port under VOQ, 0 without) to a list of (dst, sl) packets;
    fifos, occ and credits hold one entry per VL the tables use
    (RoutingConfig.resources[1]), since no packet reaches a higher VL.
    pending[s][op] maps (ip, vl) to the head packet that waits for output op.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        topo = cfg.topology
        radix = topo.params.radix
        depth = cfg.buffer_depth
        n = topo.num_endnodes
        self.n = n
        self.pattern = cfg.pattern.bind(n, cfg.seed)

        ns = topo.num_switches
        vls = cfg.routing.resources[1]
        self.fifos = [[[defaultdict(list) for _ in range(vls)] for _ in range(radix)]
                      for _ in range(ns)]
        self.occ = [[[0] * vls for _ in range(radix)] for _ in range(ns)]
        self.in_busy = [[0] * radix for _ in range(ns)]
        self.out_busy = [[0] * radix for _ in range(ns)]
        self.credits = [[[depth] * vls for _ in range(radix)] for _ in range(ns)]
        self.pending = [[{} for _ in range(radix)] for _ in range(ns)]
        self.rr_last = [[(-1, -1)] * radix for _ in range(ns)]

        # HCA (endnode) state
        self.hca_q = [deque() for _ in range(n)]
        self.hca_busy = [0] * n
        self.hca_credit = [depth] * n

        # counters, written back by run()
        self.injected = 0
        self.delivered = 0
        self.in_fabric = 0
        self.measured_by_dst = [0] * n

    # -- main loop --------------------------------------------------------

    def run(self):
        """Process events until the measurement window ends.

        Every table the hot path reads is bound to a local, and `arb` runs
        only for an output that is idle and has a pending head: any other
        call could not grant. Each switch gets one release per time: grants
        at t all free their input and output at t + PACKET_PS, and the first
        release then tries every idle output once; from there on, each event
        that can let an output grant arbitrates that output itself.
        """
        cfg = self.cfg
        topo = cfg.topology
        n = self.n
        p = topo.params.p
        radix = topo.params.radix
        rng = random.Random(cfg.seed)
        choose = self.pattern.choose
        ns = topo.num_switches
        # the SL of each (src switch, dst switch) pair, and one shared packet per (SL, dst)
        sl_of = [bytes(cfg.routing.sl(s, d) for d in range(ns)) for s in range(ns)]
        packets = [[(dst, sl) for dst in range(n)] for sl in range(cfg.routing.resources[0])]
        src_load = [self.pattern.source_load(e, cfg.offered_load) for e in range(n)]
        lft = cfg.routing.lft
        sl2vl = cfg.routing.sl2vl
        peer = topo.peer
        voq = cfg.voq
        depth = cfg.buffer_depth
        warm = cfg.warmup_ps
        end = warm + cfg.measure_ps
        fifos, occ, credits = self.fifos, self.occ, self.credits
        in_busy, out_busy, pending, rr_last = self.in_busy, self.out_busy, self.pending, self.rr_last
        release_at = [0] * ns  # the last release time scheduled per switch
        hca_q, hca_busy, hca_credit = self.hca_q, self.hca_busy, self.hca_credit
        measured_by_dst = self.measured_by_dst
        injected = delivered = in_fabric = 0

        # exact-time buckets: the events due at each time, in the order they
        # were scheduled, and a heap of the distinct pending times
        buckets = {}
        times = []
        bucket_at = buckets.get
        push_time = heapq.heappush

        def at(t, event):
            bucket = bucket_at(t)
            if bucket is None:
                buckets[t] = [event]
                push_time(times, t)
            else:
                bucket.append(event)

        def hca_try(e, t):
            nonlocal in_fabric
            q = hca_q[e]
            if not q or hca_busy[e] > t or hca_credit[e] <= 0:
                return
            hca_credit[e] -= 1
            hca_busy[e] = t + PACKET_PS
            in_fabric += 1
            at(t + _LINK_PS + _PIPE_PS, (_E_ENQ, e // p, e % p, INJECTION_VL, q.popleft()))
            at(t + PACKET_PS, (_E_HCA, e, 0, -1, None))

        def arb(s, op, pend, t):
            """Arbitrate idle output op of switch s over its non-empty `pend`."""
            nonlocal delivered, in_fabric
            vrow = sl2vl[s][op]
            cred = credits[s][op]
            busy = in_busy[s]
            key = arbitrate_output(rr_last[s][op], pend, t, busy, cred, vrow)
            if key is None:
                return
            ip, vl = key
            pkt = pend.pop(key)
            ovl = vrow[ip][pkt[1]]
            cred[ovl] -= 1
            t_free = t + PACKET_PS
            out_busy[s][op] = t_free
            busy[ip] = t_free
            rr_last[s][op] = key

            # the next head waits on input ip, busy until t_free: no output can
            # grant it before the release at t_free tries every output
            q = fifos[s][ip][vl][op if voq else 0]
            del q[0]
            if q:
                nxt = q[0]
                pending[s][lft[s][nxt[0]]][key] = nxt
            occ[s][ip][vl] -= 1

            # return the freed slot upstream once our tail has left
            ports = peer[s]
            up = ports[ip]
            if up[0] == "h":
                at(t_free + _CREDIT_PS, (_E_HCA, up[1], 1, -1, None))
            else:
                at(t_free + _CREDIT_PS, (_E_CREDIT, up[1], up[2], vl, None))

            if release_at[s] != t_free:  # one release per switch and time
                release_at[s] = t_free
                at(t_free, (_E_RELEASE, s, op, -1, None))

            down = ports[op]
            if down[0] == "h":
                # an HCA always accepts, so this grant fixes the landing time td;
                # a packet landing at or after the window's end stays in the fabric
                td = t + _LINK_PS + PACKET_PS
                if td < end:
                    delivered += 1
                    in_fabric -= 1
                    if td >= warm:
                        measured_by_dst[down[1]] += 1
                at(td + _CREDIT_PS, (_E_CREDIT, s, op, ovl, None))
            else:
                at(t + _LINK_PS + _PIPE_PS, (_E_ENQ, down[1], down[2], ovl, pkt))

        at(0, (_E_SLOT, 0, 0, -1, None))

        pop_time = heapq.heappop
        while times:
            t = pop_time(times)
            if t >= end:
                break
            # events that fall due at t while the bucket runs join its end
            for code, a, b, c, d in buckets[t]:
                if code == _E_ENQ:
                    # packet d arrives at switch a, input b, VL c
                    row = occ[a][b]
                    row[c] += 1
                    if row[c] > depth:
                        raise InvariantViolation("VL buffer overflow: credit protocol broken")
                    op = lft[a][d[0]]
                    q = fifos[a][b][c][op if voq else 0]
                    q.append(d)
                    if len(q) == 1:
                        pend = pending[a][op]
                        pend[(b, c)] = d
                        if out_busy[a][op] <= t:
                            arb(a, op, pend, t)
                elif code == _E_CREDIT:
                    row = credits[a][b]
                    row[c] += 1
                    if row[c] > depth:
                        raise InvariantViolation("credit over-return")
                    pend = pending[a][b]
                    if pend and out_busy[a][b] <= t:
                        arb(a, b, pend, t)
                elif code == _E_RELEASE:
                    # output b first, then every other output the freed inputs may
                    # feed; a second try of b, with nothing freed, cannot grant
                    pend_s = pending[a]
                    busy = out_busy[a]
                    if pend_s[b] and busy[b] <= t:
                        arb(a, b, pend_s[b], t)
                    for op in range(radix):
                        pend = pend_s[op]
                        if pend and op != b and busy[op] <= t:
                            arb(a, op, pend, t)
                elif code == _E_HCA:
                    hca_credit[a] += b
                    if hca_credit[a] > depth:
                        raise InvariantViolation("HCA credit over-return")
                    hca_try(a, t)
                else:  # _E_SLOT
                    # no release, credit, arrival or HCA retry is due, now or later: every
                    # packet in the fabric waits on a full lane that no event can drain
                    if in_fabric and not times and len(buckets[t]) == 1:
                        raise DeadlockDetected(
                            f"fabric locked at {t / _PS * 1e6:.3f} us of simulated time with "
                            f"{in_fabric} packets in switch buffers, "
                            f"{injected - delivered} outstanding")
                    for e in range(n):
                        ld = src_load[e]
                        if ld > 0.0 and rng.random() < ld:
                            dst = choose(e, rng)
                            injected += 1
                            hca_q[e].append(packets[sl_of[e // p][dst // p]][dst])
                            hca_try(e, t)
                    if t + PACKET_PS < end:
                        at(t + PACKET_PS, (_E_SLOT, 0, 0, -1, None))
            del buckets[t]

        self.injected, self.delivered, self.in_fabric = injected, delivered, in_fabric
        # conservation audit: everything injected is delivered, queued, or in flight
        queued = sum(map(len, hca_q))
        if injected != delivered + queued + in_fabric:
            raise InvariantViolation("flit conservation violated")

    def result(self) -> SimResult:
        cfg = self.cfg
        counted = self.pattern.counted_endnodes()
        measured = sum(self.measured_by_dst[e] for e in counted)
        norm = PACKET_PS / cfg.measure_ps
        accepted = measured * norm / len(counted) if counted else 0.0
        per_endnode = tuple(round(self.measured_by_dst[e] * norm, 9) for e in range(self.n))
        return SimResult(
            offered=cfg.offered_load,
            accepted=round(accepted, 9),
            per_endnode=per_endnode,
            injected_packets=self.injected,
            delivered_packets=self.delivered,
            measured_packets=measured,
            counted_endnodes=len(counted),
            engine=cfg.routing.engine,
            voq=cfg.voq,
            buffer_depth=cfg.buffer_depth,
            pattern=self.pattern.name,
            seed=cfg.seed,
            config_hash=cfg.config_hash,
        )


def run_sim(config: SimConfig) -> SimResult:
    """Run one load point of `config` as given. Deterministic for a fixed (config, seed).

    Raises DeadlockDetected at the moment the fabric locks: packets remain in
    it and no event but the next injection slot is due (a routing-configuration
    bug, not a simulator error).
    """
    sim = _FabricSim(config)
    sim.run()
    return sim.result()


def sweep(config: SimConfig, loads) -> list[SimResult]:
    """One independent run per load point; run i uses seed = base seed + i."""
    loads = list(loads)
    check_run_params(config.buffer_depth, config.warmup_s, config.measure_s, loads, [config.seed])
    out = []
    for i, load in enumerate(loads):
        out.append(run_sim(replace(config, offered_load=load, seed=config.seed + i)))
    return out
