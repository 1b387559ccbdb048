"""Channel dependency graphs and deadlock-freedom verification.

A CDG vertex is a (directed channel id, VL) pair; an edge u -> v means some
routed packet occupies channel u on its VL immediately before channel v on
its VL. A routing configuration is deadlock free iff its CDG is acyclic.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

from .errors import RoutingLoop
from .routing import INJECTION_VL, RoutingConfig, check_shape, route_walk
from .topology import Topology

Vertex = tuple[int, int]  # (channel id, vl)


@dataclass
class ChannelDependencyGraph:
    """Dependencies induced by enumerating every source/destination route.

    succ[u][v] is the witness of edge u -> v: src * n + dst for the smallest
    (src, dst) pair in src-major order whose route holds it. Every vertex is
    a key of succ or a successor, so the graph keeps no vertex set."""

    succ: dict[Vertex, dict[Vertex, int]]
    n: int  # endnodes: divmod(succ[u][v], n) is the witness pair

    @property
    def vertices(self) -> set[Vertex]:
        """Every vertex, built from succ on each read."""
        return set(self.succ).union(*self.succ.values())

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.succ.values())


@dataclass(frozen=True)
class DeadlockReport:
    """Outcome of cycle detection; the witness is empty when acyclic."""

    acyclic: bool
    cycle: tuple[Vertex, ...] = ()
    inducing_flows: tuple[tuple[int, int], ...] = ()

    def describe(self, topology: Topology) -> str:
        if self.acyclic:
            return "ACYCLIC"
        lines = ["CYCLE"]
        for i, (cid, vl) in enumerate(self.cycle):
            ch = topology.channels[cid]
            flow = self.inducing_flows[i] if i < len(self.inducing_flows) else None
            tail = f" flow h{flow[0]}->h{flow[1]}" if flow else ""
            lines.append(f"  {ch} vl={vl}{tail}")
        return "\n".join(lines)


def build_cdg(topology: Topology, config: RoutingConfig) -> ChannelDependencyGraph:
    """Collect the direct dependencies of all N(N-1) routes, one destination group at a time.

    A class is the endnodes on one switch whose LFT columns agree on every
    other switch, so the routes toward a class form one in-forest up to that
    switch. Minimal routes toward one Dragonfly group share every hop up to
    the group, so the classes on the switches of one `Topology.switch_group`
    value form a batch: class i, in order of smallest member, is bit 1 << i,
    and each switch's LFT splits the batch's bits by out port. The SL depends
    only on the SL groups of the source and destination switches. When the
    SL2VL in-rows of all endnodes on a source switch agree on every output
    port, they differ only in their injection channel, so that switch walks
    once, from its first endnode (its lead); otherwise each of its endnodes
    walks. Source switches go in ascending order, and each walk carries the
    batch's classes of one SL as an int, splits it at each switch by out port
    and drops, at each (channel, VL, SL) state, the classes an earlier walk
    took through that state. Classes that reach their own switch fan out to
    every member's terminal channel there. Each walk carries the successor
    map of the vertex it stands on, so an edge and its witness are one entry.

    When a switch walks once, its other endnodes (followers) walk only toward
    their own switch. Their edges that leave it are added after all walks: a
    follower leaves on its lead's first vertices, each toward the same
    smallest destination, so it copies the lead's injection successors other
    than the delivery channels of its switch, with its own source.

    Equal to walking every pair with route_walk: the same vertices and edges,
    each edge's witness the smallest (src, dst) pair in src-major order whose
    route holds it, and, if some route never arrives, the error route_walk
    raises for the smallest such pair (UnknownChannel at an LFT port with no
    channel, RoutingLoop with .pair for a loop or a misdelivery). Injection
    channels only source edges and delivery channels only sink them, so
    terminal channels never close a cycle.
    """
    check_shape(topology, config)
    n, radix = topology.num_endnodes, topology.params.radix
    peer, lft, sl2vl, sl_groups = topology.peer, config.lft, config.sl2vl, config.sl_groups
    # a vertex code is channel id << 4 | VL: VLs are 4-bit, as check_shape checks.
    # Only wired ports have a code (-1 marks the others), so the walk fails on any other LFT port.
    out_code = [array("l", [-1]) * len(ports) for ports in peer]
    for ch in topology.channels:
        kind, node, port = ch.src
        if kind == "s":
            out_code[node][port] = ch.cid << 4
    inj = [(topology.channel_at("h", e, 0).cid, INJECTION_VL) for e in range(n)]
    hosts: list[list[tuple[int, int]]] = [[] for _ in peer]  # [switch] -> (endnode, attach port)
    for e in range(n):
        hosts[topology.switch_of(e)].append((e, topology.attach_port(e)))
    leads, followers = [], []  # [switch] -> the endnodes that walk; the others
    for s, on_s in enumerate(hosts):
        once = all(len({per_op[ip] for _, ip in on_s}) < 2 for per_op in sl2vl[s])
        leads.append(on_s[:1] if once else on_s)
        followers.append(on_s[1:] if once else [])
    first_of: dict[int, int] = {}  # SL group -> its first switch, to read RoutingConfig.sl with
    for s, q in enumerate(sl_groups):
        first_of.setdefault(q, s)
    succ: dict[Vertex, dict[Vertex, int]] = {}  # u -> v -> src * n + dst, smallest so far
    # [VL] -> [channel id] -> vertex, for each VL the tables use: a walk reads no SL out of use
    by_vl = [[None] * len(topology.channels) for _ in range(config.resources[1])]
    bad = []  # the smallest failing pair of each batch, and of each endnode no route delivers to

    def vertex(v):
        """Intern the vertex of code v."""
        vt = by_vl[v & 15][v >> 4] = (v >> 4, v & 15)
        return vt

    def batch(switches):
        """Walk every source toward the classes on `switches`, until the first source that fails."""
        on = [(d, m, port) for d in switches for m, port in hosts[d]]
        lo = on[0][1]  # a group's endnodes are numbered contiguously, switch by switch
        classes: dict[tuple, tuple] = {}  # (switch, column off it) -> (switch, column, members)
        for (d, m, port), col in zip(on, zip(*[r[lo:lo + len(on)] for r in lft])):
            if col[d] != port:  # no route to m ever delivers
                bad.append((1 if m == 0 else 0) * n + m)
                continue
            member = (m, port, out_code[d][port])
            key = (d, col[:d], col[d + 1:])
            if key in classes:
                classes[key][2].append(member)
            else:
                classes[key] = (d, col, [member])
        if not classes:
            return
        here = [0] * len(peer)  # [switch] -> bits of the classes on it
        fans, lowest = {}, {}   # bit -> members; bit -> smallest member
        by_dst_group: dict[int, int] = {}  # SL group of the destination switch -> bits
        for i, (d, _, members) in enumerate(classes.values()):
            bit = 1 << i
            here[d] |= bit
            fans[bit], lowest[bit] = members, members[0][0]
            by_dst_group[sl_groups[d]] = by_dst_group.get(sl_groups[d], 0) | bit
        every = (1 << len(classes)) - 1
        tables = []  # [switch] -> (out code, bits, in-rows, peer) per out port; code -1: no channel
        for cur, ports in enumerate(zip(*[col for _, col, _ in classes.values()])):
            if ports.count(ports[0]) == len(ports):  # most switches send a whole group one way
                split = {ports[0]: every}
            else:
                split = {}  # out port -> bits
                for i, op in enumerate(ports):
                    split[op] = split.get(op, 0) | 1 << i
            tables.append([(out_code[cur][op], bits, sl2vl[cur][op], peer[cur][op])
                           if 0 <= op < radix else (-1, bits, None, None)
                           for op, bits in split.items()])
        seen: dict[int, int] = {}  # in-vertex code << 4 | SL -> the classes walked through it
        failing = []

        def walk(src, ip, s, sl, b):
            """Carry the classes in b from src on SL sl, noting each pair that fails in failing."""
            base = src * n
            mine: dict[int, int] = {}  # state -> the classes this walk took through it
            ut = inj[src]
            stack = [(s, ip, b, succ.get(ut) or succ.setdefault(ut, {}))]
            while stack:
                cur, ip, b, out = stack.pop()
                arrived = b & here[cur]
                if arrived:
                    b ^= arrived
                    table = sl2vl[cur]
                    while arrived:
                        low = arrived & -arrived
                        arrived ^= low
                        for m, port, code in fans[low]:
                            if m != src:
                                pair = base + m
                                v = code | table[port][ip][sl]
                                vt = by_vl[v & 15][v >> 4] or vertex(v)
                                w = out.get(vt)
                                if w is None or pair < w:
                                    out[vt] = pair
                    if not b:
                        continue
                for code, bits, rows, nxt in tables[cur]:
                    x = b & bits
                    if not x:
                        continue
                    pair = base + lowest[x & -x]
                    if code < 0:  # no channel
                        failing.append(pair)
                        continue
                    v = code | rows[ip][sl]
                    vt = by_vl[v & 15][v >> 4] or vertex(v)
                    w = out.get(vt)
                    if w is None or pair < w:
                        out[vt] = pair
                    if nxt[0] != "s":
                        failing.append(pair)  # delivered off the destination switch
                        continue
                    state = v << 4 | sl
                    old = seen.get(state, 0)
                    if x & old:
                        loop = x & mine.get(state, 0)
                        if loop:  # back at a state of its own walk
                            failing.append(base + lowest[loop & -loop])
                        x &= ~old
                        if not x:
                            continue
                    seen[state] = old | x
                    mine[state] = mine.get(state, 0) | x
                    stack.append((nxt[1], nxt[2], x, succ.get(vt) or succ.setdefault(vt, {})))

        splits = {}  # source SL group -> [(SL, bits)]
        for q, s0 in first_of.items():
            by_sl: dict[int, int] = {}
            for dq, bits in by_dst_group.items():
                sl = config.sl(s0, first_of[dq])
                by_sl[sl] = by_sl.get(sl, 0) | bits
            splits[q] = list(by_sl.items())
        for s in range(len(peer)):
            for sl, bits in splits[sl_groups[s]]:
                for src, ip in leads[s]:
                    walk(src, ip, s, sl, bits)
                if bits & here[s]:
                    for src, ip in followers[s]:
                        walk(src, ip, s, sl, bits & here[s])
            if failing:  # every later source's pairs are larger
                bad.append(min(failing))
                return

    groups: dict[int, list[int]] = {}  # topology group -> its switches
    for s, grp in enumerate(topology.switch_group):
        groups.setdefault(grp, []).append(s)
    for switches in groups.values():
        batch(switches)
    if bad:
        src, dst = divmod(min(bad), n)
        route_walk(topology, config, src, dst)  # raises for every pair the walk gave up on
        raise RoutingLoop((src, dst))

    for s, on_s in enumerate(followers):
        if on_s:
            firsts = [(vt, pair % n) for vt, pair in succ[inj[leads[s][0][0]]].items()
                      if topology.switch_of(pair % n) != s]  # not a delivery channel on s
            for src, _ in on_s:  # its own walks reached only the delivery channels on s
                succ[inj[src]].update((vt, src * n + m) for vt, m in firsts)
    return ChannelDependencyGraph(succ=succ, n=n)


def _peel(succ) -> set[Vertex]:
    """Kahn's peel over the keys of `succ`: repeatedly drop the keys that no
    edge from a key still kept enters; return the rest. A vertex that is no
    key has no successor, so it lies on no cycle and is never counted."""
    indeg = dict.fromkeys(succ, 0)
    for out in succ.values():
        for w in out:
            if w in indeg:
                indeg[w] += 1
    queue = [v for v, d in indeg.items() if not d]
    for u in queue:
        for w in succ[u]:
            if w in indeg:
                indeg[w] -= 1
                if not indeg[w]:
                    queue.append(w)
    return {v for v, d in indeg.items() if d}


def _shortest_cycle(succ, live, start) -> tuple[Vertex, ...] | None:
    """A shortest cycle through `start` within `live` (BFS, sorted neighbours), or None."""
    parent: dict[Vertex, Vertex] = {}
    dq = deque([start])
    while dq:
        u = dq.popleft()
        for w in sorted(succ[u]):
            if w == start:
                path = [u]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            if w in live and w not in parent:
                parent[w] = u
                dq.append(w)
    return None


def check_deadlock_free(cdg: ChannelDependencyGraph) -> DeadlockReport:
    """Prove acyclicity or return a deterministic cycle witness.

    The witness starts at the lexicographically smallest vertex lying on any
    cycle and follows a shortest cycle through it (BFS with sorted neighbour
    order). Kahn's peel also leaves the vertices that lie only downstream of a
    cycle, so candidates are tried in ascending order and the first one that
    reaches itself is that smallest cycle vertex. A vertex on no cycle never
    leads a BFS back to its start, so it cannot change the cycle found.
    """
    live = _peel(cdg.succ)
    if not live:
        return DeadlockReport(acyclic=True)
    for start in sorted(live):
        cycle = _shortest_cycle(cdg.succ, live, start)
        if cycle:
            break
    flows = tuple(divmod(cdg.succ[u][cycle[(i + 1) % len(cycle)]], cdg.n)
                  for i, u in enumerate(cycle))
    return DeadlockReport(acyclic=False, cycle=cycle, inducing_flows=flows)
