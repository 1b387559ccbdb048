"""Fully-connected Dragonfly topology construction and channel-load analytics.

Switches are dense integers 0..a*g-1 (switch s sits in group s // a), endnodes
are 0..a*p*g-1 (endnode e attaches to switch e // p). Switch ports are laid out
as p terminal ports, then a-1 local ports, then h global ports, so the radix is
derived, never configured.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams, UnknownChannel, UnsupportedParams

TERMINAL = "tc"
LOCAL = "lc"
GLOBAL = "gc"


@dataclass(frozen=True)
class DragonflyParams:
    """Dragonfly shape: a switches/group, h global links/switch, p endnodes/switch,
    g groups (defaults to the maximum, a*h + 1)."""

    a: int
    h: int
    p: int
    g: int = 0  # 0 means "maximum", i.e. a*h + 1

    def __post_init__(self):
        for name in ("a", "h", "p", "g"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidParams(f"{name} must be an integer, got {v!r}")
        if self.a < 1 or self.h < 1 or self.p < 1:
            raise InvalidParams(
                f"a, h, p must all be >= 1, got a={self.a} h={self.h} p={self.p}"
            )
        if self.g == 0:
            object.__setattr__(self, "g", self.a * self.h + 1)
        if self.g < 2:
            raise InvalidParams("need at least 2 groups")
        if self.g > self.max_groups:
            raise InvalidParams(
                f"g={self.g} groups need more than the a*h={self.a * self.h} "
                f"global ports available per group"
            )

    @property
    def max_groups(self) -> int:
        return self.a * self.h + 1

    @property
    def num_switches(self) -> int:
        return self.a * self.g

    @property
    def num_endnodes(self) -> int:
        return self.a * self.p * self.g

    @property
    def radix(self) -> int:
        return self.p + (self.a - 1) + self.h

    @classmethod
    def parse(cls, text: str) -> "DragonflyParams":
        """Parse 'a,h,p' or 'a,h,p,g' as used by the command line."""
        parts = [s.strip() for s in text.split(",")]
        if len(parts) not in (3, 4):
            raise InvalidParams(f"expected a,h,p[,g], got {text!r}")
        try:
            nums = [int(s) for s in parts]
        except ValueError:
            raise InvalidParams(f"expected integers in a,h,p[,g], got {text!r}") from None
        return cls(*nums)

    def label(self) -> str:
        return f"a{self.a}h{self.h}p{self.p}g{self.g}"


@dataclass(frozen=True)
class Channel:
    """One directed channel. src/dst are (node-type, node-id, port) with
    node-type 's' for switches and 'h' for endnodes (HCAs use port 0)."""

    cid: int
    kind: str
    src: tuple[str, int, int]
    dst: tuple[str, int, int]

    def __str__(self) -> str:
        (st, si, sp), (dt, di, dp) = self.src, self.dst
        return f"{st}{si}:{sp} -> {dt}{di}:{dp} kind={self.kind}"


@dataclass(frozen=True)
class FlowCounts:
    """Closed-form per-channel flow counts under minimal routing (g = ah+1)."""

    f_t: int
    f_g: int
    f_l: int

    @property
    def ratio_g_over_l(self) -> float:
        return self.f_g / self.f_l


class Topology:
    """A built Dragonfly fabric. Immutable after construction; safe to share."""

    def __init__(self, params: DragonflyParams):
        self.params = params
        a, h, p, g = params.a, params.h, params.p, params.g
        self.num_switches = params.num_switches
        self.num_endnodes = params.num_endnodes
        self.switch_group = [s // a for s in range(self.num_switches)]
        # peer[s][port] -> ('s', switch, port) | ('h', endnode, 0) | None
        self.peer = [[None] * params.radix for _ in range(self.num_switches)]
        self.channels: list[Channel] = []
        self._chan_at: dict[tuple[str, int, int], Channel] = {}
        self._build()

    # -- port layout -------------------------------------------------------

    def port_kind(self, port: int) -> str:
        p, a = self.params.p, self.params.a
        if port < 0 or port >= self.params.radix:
            raise UnknownChannel(f"port {port} out of range")
        if port < p:
            return TERMINAL
        if port < p + a - 1:
            return LOCAL
        return GLOBAL

    def switch_of(self, endnode: int) -> int:
        return endnode // self.params.p

    def attach_port(self, endnode: int) -> int:
        return endnode % self.params.p

    def endnode_group(self, endnode: int) -> int:
        return self.switch_group[self.switch_of(endnode)]

    def local_port(self, s: int, other: int) -> int:
        """Port on switch s toward group-mate switch `other`."""
        a, p = self.params.a, self.params.p
        li, lj = s % a, other % a
        if s // a != other // a or li == lj:
            raise UnknownChannel(f"switches {s} and {other} are not group-mates")
        return p + (lj if lj < li else lj - 1)

    # -- construction ------------------------------------------------------

    def _add_cable(self, kind, a_end, b_end):
        for src, dst in ((a_end, b_end), (b_end, a_end)):
            ch = Channel(len(self.channels), kind, src, dst)
            self.channels.append(ch)
            self._chan_at[src] = ch

    def _build(self):
        par = self.params
        a, h, p, g = par.a, par.h, par.p, par.g
        # terminal cables
        for e in range(self.num_endnodes):
            s, port = self.switch_of(e), self.attach_port(e)
            self.peer[s][port] = ("h", e, 0)
            self._add_cable(TERMINAL, ("h", e, 0), ("s", s, port))
        # local cables: every pair inside a group
        for grp in range(g):
            base = grp * a
            for i in range(a):
                for j in range(i + 1, a):
                    si, sj = base + i, base + j
                    pi, pj = self.local_port(si, sj), self.local_port(sj, si)
                    self.peer[si][pi] = ("s", sj, pj)
                    self.peer[sj][pj] = ("s", si, pi)
                    self._add_cable(LOCAL, ("s", si, pi), ("s", sj, pj))
        # global cables: round-robin one cable per group pair per round while
        # both groups still have free global slots. Slot r of a group sits on
        # switch r % a, port p + (a-1) + r // a. For g = ah+1 every pair gets
        # exactly one cable and slot == rank of the peer group.
        free = [a * h] * g
        next_slot = [0] * g
        pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
        placed = True
        while placed:
            placed = False
            for gi, gj in pairs:
                if free[gi] > 0 and free[gj] > 0:
                    self._wire_global(gi, next_slot[gi], gj, next_slot[gj])
                    next_slot[gi] += 1
                    next_slot[gj] += 1
                    free[gi] -= 1
                    free[gj] -= 1
                    placed = True

    def _wire_global(self, gi, slot_i, gj, slot_j):
        par = self.params
        a, h, p = par.a, par.h, par.p

        def endpoint(grp, slot):
            s = grp * a + slot % a
            port = p + (a - 1) + slot // a
            return ("s", s, port)

        ei, ej = endpoint(gi, slot_i), endpoint(gj, slot_j)
        self.peer[ei[1]][ei[2]] = ej
        self.peer[ej[1]][ej[2]] = ei
        self._add_cable(GLOBAL, ei, ej)

    # -- queries -----------------------------------------------------------

    def channel_at(self, node_type: str, node_id: int, port: int) -> Channel:
        try:
            return self._chan_at[(node_type, node_id, port)]
        except KeyError:
            raise UnknownChannel(
                f"no channel at {node_type}{node_id}:{port}"
            ) from None

    def global_ports(self, s: int):
        """(port, peer-switch, peer-group) for every wired global port of s."""
        out = []
        for port in range(self.params.p + self.params.a - 1, self.params.radix):
            peer = self.peer[s][port]
            if peer is not None:
                out.append((port, peer[1], self.switch_group[peer[1]]))
        return out

    def switch_adjacency(self) -> dict[int, dict[int, list[int]]]:
        """Switch graph: s -> {neighbor switch -> sorted ports on s}."""
        adj: dict[int, dict[int, list[int]]] = {s: {} for s in range(self.num_switches)}
        for s in range(self.num_switches):
            for port in range(self.params.p, self.params.radix):
                peer = self.peer[s][port]
                if peer is not None:
                    adj[s].setdefault(peer[1], []).append(port)
        return adj

    def dump(self) -> str:
        """Deterministic text form: one line per directed channel."""
        lines = []
        for ch in self.channels:
            src_t, src_id, _ = ch.src
            gid = self.switch_group[src_id] if src_t == "s" else self.endnode_group(src_id)
            lines.append(f"{ch} group={gid}")
        return "\n".join(lines) + "\n"


def build_topology(params: DragonflyParams) -> Topology:
    """Build the fully-connected Dragonfly for `params`. Deterministic."""
    return Topology(params)


def channel_kind(topology: Topology, node: str, port: int) -> str:
    """Classify the directed channel leaving `node` ('s3' or 'h7') at `port`."""
    if not node or node[0] not in ("s", "h") or not node[1:].isdigit():
        raise UnknownChannel(f"bad node name {node!r}")
    return topology.channel_at(node[0], int(node[1:]), port).kind


def analytic_flow_counts(params: DragonflyParams) -> FlowCounts:
    """Per-channel flow counts under minimal routing.

    Only defined for maximal fabrics (g = ah+1): f_t = N-1 flows per terminal
    channel, f_g = (ap)^2 per global channel, and f_l = p^2 + 2ahp^2 per local
    channel (p^2 intra-group plus ahp^2 outbound plus ahp^2 inbound).
    """
    if params.g != params.max_groups:
        raise UnsupportedParams(
            f"flow-count formulas assume g = ah+1 = {params.max_groups}, got g={params.g}"
        )
    a, h, p = params.a, params.h, params.p
    n = params.num_endnodes
    return FlowCounts(
        f_t=n - 1,
        f_g=(a * p) ** 2,
        f_l=p * p + 2 * a * h * p * p,
    )
