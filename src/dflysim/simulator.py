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
import itertools
import json
import random
from collections import defaultdict, deque
from dataclasses import dataclass, replace

from .errors import DeadlockDetected, InvalidParams, InvariantViolation
from .routing import RoutingConfig, check_shape
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
        check_shape(self.topology, self.routing)
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


def arbitrate_output(last, pend, t, in_busy, credits, vrow):
    """Round-robin pick over one output's pending heads, with per-output memory.

    `pend` maps (input port, VL) keys to head packets, in any order; `last` is
    the key granted last, or (-1, -1) before the first grant. A key is
    eligible when its input is idle at `t` (in_busy[ip] <= t) and the output
    VL that vrow maps it to has a credit. One pass returns the smallest
    eligible key after `last`, else the smallest eligible key (the scan
    wraps), else None: never a creditless pick while an eligible candidate
    exists (work conserving).
    """
    after = wrapped = None
    for key, pkt in pend.items():
        ip = key[0]
        if in_busy[ip] > t or credits[vrow[ip][pkt[2]]] <= 0:
            continue
        if key > last:
            if after is None or key < after:
                after = key
        elif after is None and (wrapped is None or key < wrapped):
            wrapped = key
    return wrapped if after is None else after


class _FabricSim:
    """Single-run engine. Deterministic: heap ties break on event sequence.

    Switch state is indexed [switch][port]: fifos[s][ip][vl] maps a FIFO key
    (the output port under VOQ, 0 without) to a list of packets; pending[s][op]
    maps (ip, vl) to the head packet that waits for output op.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        topo = cfg.topology
        radix = topo.params.radix
        nvl = cfg.data_vls
        depth = cfg.buffer_depth
        n = topo.num_endnodes
        self.n = n

        ns = topo.num_switches
        self.fifos = [[[defaultdict(list) for _ in range(nvl)] for _ in range(radix)]
                      for _ in range(ns)]
        self.occ = [[[0] * nvl for _ in range(radix)] for _ in range(ns)]
        self.in_busy = [[0] * radix for _ in range(ns)]
        self.out_busy = [[0] * radix for _ in range(ns)]
        self.credits = [[[depth] * nvl for _ in range(radix)] for _ in range(ns)]
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
        call could not grant.
        """
        cfg = self.cfg
        topo = cfg.topology
        n = self.n
        p = topo.params.p
        radix = topo.params.radix
        rng = random.Random(cfg.seed)
        choose = cfg.pattern.choose
        sl = cfg.routing.sl
        src_load = [cfg.pattern.source_load(e, cfg.offered_load) for e in range(n)]
        lft = cfg.routing.lft
        sl2vl = cfg.routing.sl2vl
        peer = topo.peer
        kind = [topo.port_kind(pt) for pt in range(radix)]
        check_dla_vl = cfg.routing.engine == "dla" and not cfg.routing.vl_shift_disabled
        voq = cfg.voq
        depth = cfg.buffer_depth
        warm = cfg.warmup_ps
        end = warm + cfg.measure_ps
        fifos, occ, credits = self.fifos, self.occ, self.credits
        in_busy, out_busy, pending, rr_last = self.in_busy, self.out_busy, self.pending, self.rr_last
        hca_q, hca_busy, hca_credit = self.hca_q, self.hca_busy, self.hca_credit
        measured_by_dst = self.measured_by_dst
        injected = delivered = in_fabric = 0
        last_delivery = max_warm_gap = 0
        watch_count = -1

        heap = []
        push = heapq.heappush
        seq = itertools.count().__next__

        def hca_try(e, t):
            nonlocal in_fabric
            q = hca_q[e]
            if not q or hca_busy[e] > t or hca_credit[e] <= 0:
                return
            hca_credit[e] -= 1
            hca_busy[e] = t + PACKET_PS
            in_fabric += 1
            push(heap, (t + _LINK_PS + _PIPE_PS, seq(), _E_ENQ, e // p, e % p, 0, q.popleft()))
            push(heap, (t + PACKET_PS, seq(), _E_HCA, e, 0, -1, None))

        def arb(s, op, pend, t):
            """Arbitrate idle output op of switch s over its non-empty `pend`."""
            vrow = sl2vl[s][op]
            cred = credits[s][op]
            busy = in_busy[s]
            key = arbitrate_output(rr_last[s][op], pend, t, busy, cred, vrow)
            if key is None:
                return
            ip, vl = key
            pkt = pend.pop(key)
            ovl = vrow[ip][pkt[2]]
            cred[ovl] -= 1
            t_free = t + PACKET_PS
            out_busy[s][op] = t_free
            busy[ip] = t_free
            rr_last[s][op] = key

            # under VOQ the next head waits for the same output (op2 == op)
            q = fifos[s][ip][vl][op if voq else 0]
            del q[0]
            if q:
                nxt = q[0]
                op2 = lft[s][nxt[1]]
                pending[s][op2][key] = nxt
                if op2 != op:
                    push(heap, (t, seq(), _E_ARB, s, op2, -1, None))
            occ[s][ip][vl] -= 1

            if check_dla_vl and ovl == 1 and (kind[op] != LOCAL or pkt[3] != GLOBAL):
                raise InvariantViolation("VL 1 is only legal on a local channel right after a global hop")

            # return the freed slot upstream once our tail has left
            ports = peer[s]
            up = ports[ip]
            if up[0] == "h":
                push(heap, (t_free + _CREDIT_PS, seq(), _E_HCA, up[1], 1, -1, None))
            else:
                push(heap, (t_free + _CREDIT_PS, seq(), _E_ARB, up[1], up[2], vl, None))

            push(heap, (t_free, seq(), _E_RELEASE, s, op, -1, None))

            pkt[3] = kind[op]
            down = ports[op]
            if down[0] == "h":
                push(heap, (t + _LINK_PS + PACKET_PS, seq(), _E_DELIVER, down[1], 0, -1, None))
                push(heap, (t + _LINK_PS + PACKET_PS + _CREDIT_PS, seq(), _E_ARB, s, op, ovl, None))
            else:
                push(heap, (t + _LINK_PS + _PIPE_PS, seq(), _E_ENQ, down[1], down[2], ovl, pkt))

        horizon_ps = None
        if cfg.stall_horizon_s is not None:
            horizon_ps = int(round(cfg.stall_horizon_s * _PS))
        push(heap, (0, seq(), _E_SLOT, 0, 0, -1, None))
        push(heap, (warm, seq(), _E_WATCHDOG, 0, 0, -1, None))

        pop = heapq.heappop
        while heap:
            t, _seq, code, a, b, c, d = pop(heap)
            if t >= end:
                break
            if code == _E_ENQ:
                # packet d arrives at switch a, input b, VL c
                row = occ[a][b]
                row[c] += 1
                if row[c] > depth:
                    raise InvariantViolation("VL buffer overflow: credit protocol broken")
                op = lft[a][d[1]]
                q = fifos[a][b][c][op if voq else 0]
                q.append(d)
                if len(q) == 1:
                    pend = pending[a][op]
                    pend[(b, c)] = d
                    if out_busy[a][op] <= t:
                        arb(a, op, pend, t)
            elif code == _E_ARB:
                if c >= 0:
                    row = credits[a][b]
                    row[c] += 1
                    if row[c] > depth:
                        raise InvariantViolation("credit over-return")
                pend = pending[a][b]
                if pend and out_busy[a][b] <= t:
                    arb(a, b, pend, t)
            elif code == _E_RELEASE:
                # output b first, then every other output the freed input may
                # feed; a second try of b, with nothing freed, cannot grant
                pend_s = pending[a]
                busy = out_busy[a]
                if pend_s[b] and busy[b] <= t:
                    arb(a, b, pend_s[b], t)
                for op in range(radix):
                    pend = pend_s[op]
                    if pend and op != b and busy[op] <= t:
                        arb(a, op, pend, t)
            elif code == _E_DELIVER:
                delivered += 1
                in_fabric -= 1
                if t >= warm:
                    measured_by_dst[a] += 1
                elif t - last_delivery > max_warm_gap:
                    max_warm_gap = t - last_delivery
                last_delivery = t
            elif code == _E_HCA:
                hca_credit[a] += b
                if hca_credit[a] > depth:
                    raise InvariantViolation("HCA credit over-return")
                hca_try(a, t)
            elif code == _E_SLOT:
                for e in range(n):
                    ld = src_load[e]
                    if ld > 0.0 and rng.random() < ld:
                        dst = choose(e, rng)
                        injected += 1
                        hca_q[e].append([e, dst, sl(e // p, dst // p), "tc"])
                        hca_try(e, t)
                if t + PACKET_PS < end:
                    push(heap, (t + PACKET_PS, seq(), _E_SLOT, 0, 0, -1, None))
            else:  # _E_WATCHDOG
                if horizon_ps is None:
                    horizon_ps = max(10 * max_warm_gap, _PS // 1000)  # >= 1 ms
                if watch_count == delivered and injected > delivered:
                    raise DeadlockDetected(
                        f"no delivery for {horizon_ps / _PS * 1e3:.3f} ms of simulated time "
                        f"with {injected - delivered} packets outstanding"
                    )
                watch_count = delivered
                push(heap, (t + horizon_ps, seq(), _E_WATCHDOG, 0, 0, -1, None))

        self.injected, self.delivered, self.in_fabric = injected, delivered, in_fabric
        # conservation audit: everything injected is delivered, queued, or in flight
        queued = sum(map(len, hca_q))
        if injected != delivered + queued + in_fabric:
            raise InvariantViolation("flit conservation violated")

    def result(self) -> SimResult:
        cfg = self.cfg
        counted = cfg.pattern.counted_endnodes()
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
