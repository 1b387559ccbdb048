"""Flit-level discrete-event simulation of a routed Dragonfly fabric.

Model highlights:

* Virtual cut-through with credit-based flow control at VL granularity.
  Buffer slots are whole packets (one flow-control unit per packet); a packet
  advances only when the downstream VL buffer has a free slot.
* Events move whole packets with flit-resolution timing: all times are integer
  picoseconds, and a packet occupies its link for MTU / FLIT_SIZE flit times.
  The link model (rate, MTU, flit size, wire, pipeline and credit latencies)
  is fixed by the module constants below.
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
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, replace

from .errors import DeadlockDetected, InvalidParams, InvariantViolation
from .routing import RoutingConfig
from .topology import GLOBAL, LOCAL, Topology
from .traffic import TrafficPattern

_PS = 10**12

# the fixed link model; SimConfig.canonical() reports every value
LINK_RATE = 32_000_000_000  # bits/s effective
MTU = 4096                  # bytes
FLIT_SIZE = 64              # bytes
LINK_LATENCY_S = 40e-9
PIPELINE_LATENCY_S = 100e-9
CREDIT_LATENCY_S = 40e-9

PACKET_PS = MTU // FLIT_SIZE * (FLIT_SIZE * 8 * _PS // LINK_RATE)  # exact: 16 ns flits
_LINK_PS = int(round(LINK_LATENCY_S * _PS))
_PIPE_PS = int(round(PIPELINE_LATENCY_S * _PS))
_CREDIT_PS = int(round(CREDIT_LATENCY_S * _PS))

# event codes
_E_SLOT = 0
_E_HCA = 1       # HCA a: b credits (0 or 1) come back, then try to inject
_E_ENQ = 2
_E_ARB = 3       # switch a, output b: a credit on VL c comes back if c >= 0, then arbitrate
_E_RELEASE = 4
_E_DELIVER = 5
_E_WATCHDOG = 6


def check_run_params(buffer_depth, data_vls, warmup_s, measure_s, loads):
    """Range checks on the run parameters every caller may set (NaN fails too)."""
    if buffer_depth < 1:
        raise InvalidParams("buffer must hold at least one packet per VL")
    if not 1 <= data_vls <= 15:
        raise InvalidParams("data_vls must be in 1..15")
    if not warmup_s >= 0:
        raise InvalidParams("warm-up must not be negative")
    if not measure_s * _PS >= 1:
        raise InvalidParams("measurement window must be at least 1 ps")
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
    data_vls: int = 8
    warmup_s: float = 0.2e-3
    measure_s: float = 1.0e-3
    seed: int = 1
    stall_horizon_s: float | None = None  # None: 10x max warm-up delivery gap, min 1 ms

    def __post_init__(self):
        check_run_params(self.buffer_depth, self.data_vls, self.warmup_s, self.measure_s,
                         [self.offered_load])
        horizon = self.stall_horizon_s
        if horizon is not None and not 1 <= horizon * _PS < float("inf"):
            # a 0 ps horizon lets the watchdog re-arm at the same time forever
            raise InvalidParams("stall horizon must be finite and at least 1 ps")
        _, vls_needed = self.routing.resources
        if vls_needed > self.data_vls:
            raise InvalidParams(
                f"routing needs {vls_needed} VLs but only {self.data_vls} data VLs configured"
            )

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
            "data_vls": self.data_vls,
            "link_rate": LINK_RATE,
            "mtu": MTU,
            "flit_size": FLIT_SIZE,
            "warmup_s": self.warmup_s,
            "measure_s": self.measure_s,
            "seed": self.seed,
            "link_latency_s": LINK_LATENCY_S,
            "pipeline_latency_s": PIPELINE_LATENCY_S,
            "credit_latency_s": CREDIT_LATENCY_S,
            "stall_horizon_s": self.stall_horizon_s,
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

    def csv_row(self) -> str:
        return (
            f"{self.offered:.6g},{self.accepted:.6f},{self.engine},"
            f"{int(self.voq)},{self.buffer_depth},{self.seed}"
        )

    @property
    def result_hash(self) -> str:
        blob = repr((self.accepted, self.per_endnode, self.measured_packets)).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class _Switch:
    __slots__ = (
        "fifos", "occ", "in_busy", "out_busy", "credits", "pending", "rr_last",
    )


def arbitrate_output(last_granted, candidates, eligible):
    """Round-robin pick over (input-port, vl) keys with per-output memory.

    One pass over `candidates` in any order. Returns the smallest key after
    `last_granted` for which eligible(key) is true (credits available, input
    idle), else the smallest eligible key (the scan wraps), else None: never
    a creditless pick while an eligible candidate exists (work conserving).
    """
    after = wrapped = None
    for key in candidates:
        if last_granted is not None and key > last_granted:
            if (after is None or key < after) and eligible(key):
                after = key
        elif after is None and (wrapped is None or key < wrapped) and eligible(key):
            wrapped = key
    return wrapped if after is None else after


class _FabricSim:
    """Single-run engine. Deterministic: heap ties break on event sequence."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        topo = cfg.topology
        self.topo = topo
        self.peer = topo.peer
        self.lft = cfg.routing.lft
        self.vlmap = cfg.routing.sl2vl
        self.sl_for = cfg.routing.sl_policy.sl_for
        self.radix = topo.params.radix
        self.kind = [topo.port_kind(pt) for pt in range(self.radix)]
        self.check_dla_vl = cfg.routing.engine == "dla" and not cfg.routing.vl_shift_disabled

        self.warm_ps = cfg.warmup_ps
        self.end_ps = cfg.warmup_ps + cfg.measure_ps

        self.depth = cfg.buffer_depth
        self.voq = cfg.voq
        nvl = cfg.data_vls
        self.nvl = nvl

        n = topo.num_endnodes
        self.n = n
        self.pattern = cfg.pattern
        self.src_load = [cfg.pattern.source_load(e, cfg.offered_load) for e in range(n)]
        self.rng = random.Random(cfg.seed)

        self.switches = []
        for s in range(topo.num_switches):
            sw = _Switch()
            sw.fifos = [[{} for _ in range(nvl)] for _ in range(self.radix)]
            sw.occ = [[0] * nvl for _ in range(self.radix)]
            sw.in_busy = [0] * self.radix
            sw.out_busy = [0] * self.radix
            sw.credits = [[self.depth] * nvl for _ in range(self.radix)]
            sw.pending = [dict() for _ in range(self.radix)]
            sw.rr_last = [None] * self.radix
            self.switches.append(sw)

        # HCA (endnode) state
        self.hca_q = [deque() for _ in range(n)]
        self.hca_busy = [0] * n
        self.hca_credit = [self.depth] * n

        # counters
        self.injected = 0
        self.delivered = 0
        self.in_fabric = 0
        self.measured_by_dst = [0] * n
        self.last_delivery = 0
        self.max_warm_gap = 0
        self.watch_count = -1

        self.heap: list = []
        self.seq = 0

    def push(self, t, code, a=0, b=0, c=-1, d=None):
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, code, a, b, c, d))

    # -- HCA side ---------------------------------------------------------

    def hca_try(self, e, t):
        q = self.hca_q[e]
        if not q or self.hca_busy[e] > t or self.hca_credit[e] <= 0:
            return
        pkt = q.popleft()
        self.hca_credit[e] -= 1
        self.hca_busy[e] = t + PACKET_PS
        self.in_fabric += 1
        sw = self.topo.switch_of(e)
        ip = self.topo.attach_port(e)
        self.push(t + _LINK_PS + _PIPE_PS, _E_ENQ, sw, ip, 0, pkt)
        self.push(t + PACKET_PS, _E_HCA, e)

    # -- switch side ------------------------------------------------------

    def enqueue(self, s, ip, vl, pkt, t):
        sw = self.switches[s]
        occ = sw.occ[ip]
        occ[vl] += 1
        if occ[vl] > self.depth:
            raise InvariantViolation("VL buffer overflow: credit protocol broken")
        op = self.lft[s][pkt[1]]
        lane = sw.fifos[ip][vl]
        key = op if self.voq else 0
        q = lane.get(key)
        if q is None:
            q = lane[key] = []
        q.append(pkt)
        if len(q) == 1:
            sw.pending[op][(ip, vl)] = pkt
            self.arb(s, op, t)

    def arb(self, s, op, t):
        sw = self.switches[s]
        if sw.out_busy[op] > t:
            return
        pend = sw.pending[op]
        if not pend:
            return
        vrow = self.vlmap[s][op]
        credits = sw.credits[op]
        in_busy = sw.in_busy

        def eligible(key):
            ip, _vl = key
            if in_busy[ip] > t:
                return False
            pkt = pend[key]
            return credits[vrow[ip][pkt[2]]] > 0

        key = arbitrate_output(sw.rr_last[op], pend, eligible)
        if key is not None:
            ip, vl = key
            pkt = pend[key]
            self.grant(s, op, ip, vl, vrow[ip][pkt[2]], pkt, t)

    def grant(self, s, op, ip, vl, ovl, pkt, t):
        sw = self.switches[s]
        sw.credits[op][ovl] -= 1
        t_free = t + PACKET_PS
        sw.out_busy[op] = t_free
        sw.in_busy[ip] = t_free
        sw.rr_last[op] = (ip, vl)
        del sw.pending[op][(ip, vl)]

        # under VOQ the next head waits for the same output (op2 == op)
        q = sw.fifos[ip][vl][op if self.voq else 0]
        q.pop(0)
        if q:
            nxt = q[0]
            op2 = self.lft[s][nxt[1]]
            sw.pending[op2][(ip, vl)] = nxt
            if op2 != op:
                self.push(t, _E_ARB, s, op2)
        sw.occ[ip][vl] -= 1

        if self.check_dla_vl and ovl == 1 and (self.kind[op] != LOCAL or pkt[3] != GLOBAL):
            raise InvariantViolation("VL 1 is only legal on a local channel right after a global hop")

        # return the freed slot upstream once our tail has left
        peer = self.peer[s]
        up = peer[ip]
        if up[0] == "h":
            self.push(t_free + _CREDIT_PS, _E_HCA, up[1], 1)
        else:
            self.push(t_free + _CREDIT_PS, _E_ARB, up[1], up[2], vl)

        self.push(t_free, _E_RELEASE, s, op)

        pkt[3] = self.kind[op]
        down = peer[op]
        if down[0] == "h":
            self.push(t + _LINK_PS + PACKET_PS, _E_DELIVER, down[1])
            self.push(t + _LINK_PS + PACKET_PS + _CREDIT_PS, _E_ARB, s, op, ovl)
        else:
            self.push(t + _LINK_PS + _PIPE_PS, _E_ENQ, down[1], down[2], ovl, pkt)

    # -- main loop --------------------------------------------------------

    def run(self):
        cfg = self.cfg
        n = self.n
        rng = self.rng
        choose = self.pattern.choose
        sl_for = self.sl_for
        end = self.end_ps

        horizon_ps = None
        if cfg.stall_horizon_s is not None:
            horizon_ps = int(round(cfg.stall_horizon_s * _PS))
        self.push(0, _E_SLOT)
        self.push(self.warm_ps, _E_WATCHDOG)

        heap = self.heap
        pop = heapq.heappop
        while heap:
            t, _seq, code, a, b, c, d = pop(heap)
            if t >= end:
                break
            if code == _E_ENQ:
                self.enqueue(a, b, c, d, t)
            elif code == _E_ARB:
                if c >= 0:
                    credits = self.switches[a].credits[b]
                    credits[c] += 1
                    if credits[c] > self.depth:
                        raise InvariantViolation("credit over-return")
                self.arb(a, b, t)
            elif code == _E_RELEASE:
                # output b first, then every output the freed input may feed
                self.arb(a, b, t)
                sw = self.switches[a]
                busy = sw.out_busy
                for op in range(self.radix):
                    if sw.pending[op] and busy[op] <= t:
                        self.arb(a, op, t)
            elif code == _E_DELIVER:
                self.delivered += 1
                self.in_fabric -= 1
                if t >= self.warm_ps:
                    self.measured_by_dst[a] += 1
                else:
                    gap = t - self.last_delivery
                    if gap > self.max_warm_gap:
                        self.max_warm_gap = gap
                self.last_delivery = t
            elif code == _E_HCA:
                self.hca_credit[a] += b
                if self.hca_credit[a] > self.depth:
                    raise InvariantViolation("HCA credit over-return")
                self.hca_try(a, t)
            elif code == _E_SLOT:
                src_load = self.src_load
                for e in range(n):
                    ld = src_load[e]
                    if ld > 0.0 and rng.random() < ld:
                        dst = choose(e, rng)
                        self.injected += 1
                        self.hca_q[e].append([e, dst, sl_for(e, dst), "tc"])
                        self.hca_try(e, t)
                if t + PACKET_PS < end:
                    self.push(t + PACKET_PS, _E_SLOT)
            else:  # _E_WATCHDOG
                if horizon_ps is None:
                    horizon_ps = max(10 * self.max_warm_gap, _PS // 1000)  # >= 1 ms
                if self.watch_count == self.delivered and self.injected > self.delivered:
                    raise DeadlockDetected(
                        f"no delivery for {horizon_ps / _PS * 1e3:.3f} ms of simulated time "
                        f"with {self.injected - self.delivered} packets outstanding"
                    )
                self.watch_count = self.delivered
                self.push(t + horizon_ps, _E_WATCHDOG)

        # conservation audit: everything injected is delivered, queued, or in flight
        queued = sum(map(len, self.hca_q))
        if self.injected != self.delivered + queued + self.in_fabric:
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
            pattern=cfg.pattern.name,
            seed=cfg.seed,
            config_hash=cfg.config_hash,
        )


def run_sim(config: SimConfig) -> SimResult:
    """Run one load point. Deterministic for a fixed (config, seed).

    Raises DeadlockDetected when the fabric stops delivering while packets
    remain for the stall horizon (a routing-configuration bug, not a simulator
    error).
    """
    pattern = config.pattern.bind(config.topology.num_endnodes, config.seed)
    cfg = replace(config, pattern=pattern)
    sim = _FabricSim(cfg)
    sim.run()
    return sim.result()


def sweep(config: SimConfig, loads) -> list[SimResult]:
    """One independent run per load point; run i uses seed = base seed + i."""
    loads = list(loads)
    check_run_params(config.buffer_depth, config.data_vls, config.warmup_s, config.measure_s,
                     loads)
    out = []
    for i, load in enumerate(loads):
        out.append(run_sim(replace(config, offered_load=load, seed=config.seed + i)))
    return out
