"""Channel dependency graphs and deadlock-freedom verification.

A CDG vertex is a (directed channel id, VL) pair; an edge u -> v means some
routed packet occupies channel u on its VL immediately before channel v on
its VL. A routing configuration is deadlock free iff its CDG is acyclic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import RoutingLoop
from .routing import RoutingConfig, check_shape, route_walk
from .topology import Topology

Vertex = tuple[int, int]  # (channel id, vl)


@dataclass
class ChannelDependencyGraph:
    """Dependencies induced by enumerating every source/destination route."""

    vertices: set[Vertex]
    succ: dict[Vertex, set[Vertex]]
    witness: dict[tuple[Vertex, Vertex], tuple[int, int]]

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
            lines.append(
                f"  {ch.src_name()}:{ch.src[2]} -> {ch.dst_name()}:{ch.dst[2]} "
                f"kind={ch.kind} vl={vl}{tail}"
            )
        return "\n".join(lines)


def build_cdg(topology: Topology, config: RoutingConfig) -> ChannelDependencyGraph:
    """Collect the direct dependencies of all N(N-1) routes, per destination class.

    A class is the endnodes on one switch whose LFT columns agree on every
    other switch. The SL depends only on the source and destination switches,
    so the routes toward a class form one in-forest up to that switch. When
    the SL2VL in-rows of all endnodes on a source switch agree on every output
    port, they differ only in their injection channel, so that switch walks
    once, from its first endnode; otherwise each of its endnodes walks. Source
    switches go in ascending order, and each walk goes toward the destination
    class until it reaches a (channel, VL, SL) state the class has seen. The
    endnodes on the destination switch itself each fan out to every member's
    terminal channel there.

    The injection edge of every endnode that does not walk is added after all
    walks: each source switch records, for each first (out port, SL), the
    smallest destination whose route leaves it there, and the edge from each
    such endnode's injection channel to that first vertex gets the pair of the
    endnode and that destination.

    Equal to walking every pair with route_walk: the same vertices and edges,
    each edge's witness the smallest (src, dst) pair in src-major order whose
    route holds it, and, if some route never arrives, the error route_walk
    raises for the smallest such pair (UnknownChannel at an LFT port with no
    channel, RoutingLoop with .pair for a loop or a misdelivery). Injection
    channels only source edges and delivery channels only sink them, so
    terminal channels never close a cycle.
    """
    check_shape(topology, config)
    n = topology.num_endnodes
    peer, lft, sl2vl = topology.peer, config.lft, config.sl2vl
    # a vertex code is channel id << 4 | VL: VLs are 4-bit, as check_shape checks.
    # Only wired ports have a code, so the walk fails on any other LFT port.
    out_code: list[dict[int, int]] = [{} for _ in peer]
    inj: list[Vertex] = [(0, 0)] * n
    for ch in topology.channels:
        kind, node, port = ch.src
        if kind == "s":
            out_code[node][port] = ch.cid << 4
        else:
            inj[node] = (ch.cid, 0)
    hosts: list[list[tuple[int, int]]] = [[] for _ in peer]  # [switch] -> (endnode, attach port)
    for e in range(n):
        hosts[topology.switch_of(e)].append((e, topology.attach_port(e)))
    leads, followers = [], []  # [switch] -> the endnodes that walk; the others
    for s, on_s in enumerate(hosts):
        once = all(len({per_op[ip] for _, ip in on_s}) < 2 for per_op in sl2vl[s])
        leads.append(on_s[:1] if once else on_s)
        followers.append(on_s[1:] if once else [])
    first_hop: list[dict[int, int]] = [{} for _ in peer]  # out port << 4 | SL -> smallest dst
    vertex: dict[int, Vertex] = {cid << 4: (cid, vl) for cid, vl in inj}
    witness: dict = {}  # (u, v) -> src * n + dst of the smallest pair seen so far

    def walk(dsw, members, col, slrow):
        """Walk every lead toward one class; return its smallest failing pair."""
        seen: dict[int, int] = {}  # in-vertex code << 4 | SL -> first source there
        table = sl2vl[dsw]
        fan = [(m, port, out_code[dsw][port]) for m, port in members]
        m0 = members[0][0]
        for s, sl in enumerate(slrow):
            for src, ip in hosts[s] if s == dsw else leads[s]:
                cur = s
                ut = inj[src]
                pair = src * n + m0
                try:
                    while cur != dsw:
                        op = col[cur]
                        v = out_code[cur][op] | sl2vl[cur][op][ip][sl]
                        vt = vertex.get(v) or vertex.setdefault(v, (v >> 4, v & 15))
                        w = witness.get((ut, vt))
                        if w is None or pair < w:
                            witness[(ut, vt)] = pair
                        nxt = peer[cur][op]
                        if nxt[0] != "s":
                            return pair  # delivered off the destination switch
                        state = v << 4 | sl
                        first = seen.get(state)
                        if first is not None:
                            if first == src:
                                return pair  # back at a state of its own walk: a loop
                            break
                        seen[state] = src
                        cur, ip, ut = nxt[1], nxt[2], vt
                    else:
                        for m, port, code in fan:
                            if m != src:
                                pair = src * n + m
                                v = code | table[port][ip][sl]
                                vt = vertex.get(v) or vertex.setdefault(v, (v >> 4, v & 15))
                                w = witness.get((ut, vt))
                                if w is None or pair < w:
                                    witness[(ut, vt)] = pair
                except KeyError:  # an LFT port with no channel
                    return pair
            if s != dsw:  # the followers leave s where its leads did
                firsts, key = first_hop[s], col[s] << 4 | sl
                if m0 < firsts.get(key, n):
                    firsts[key] = m0
        return None

    bad = []  # the smallest failing pair of each class that has one
    for dsw, row in enumerate(peer):
        slrow = [config.sl(s, dsw) for s in range(len(peer))]  # by source switch
        classes: dict[tuple, list[tuple[int, int]]] = {}
        for port, end in enumerate(row):
            if end is None or end[0] != "h":
                continue
            m = end[1]
            if lft[dsw][m] != port:  # no route to m ever delivers
                first_src = 1 if m == 0 else 0
                bad.append(first_src * n + m)
                continue
            col = [r[m] for r in lft]
            col[dsw] = -1  # each member has its own terminal port here
            classes.setdefault(tuple(col), []).append((m, port))
        for col, members in classes.items():
            failed = walk(dsw, sorted(members), col, slrow)
            if failed is not None:
                bad.append(failed)
    if bad:
        src, dst = divmod(min(bad), n)
        route_walk(topology, config, src, dst)  # raises for every pair the walk gave up on
        raise RoutingLoop((src, dst))

    # the followers' injection edges: each leaves its switch on its lead's first vertex
    for s, firsts in enumerate(first_hop):
        for key, m in firsts.items():
            op, sl = key >> 4, key & 15
            code, per_op = out_code[s][op], sl2vl[s][op]
            for src, ip in followers[s]:
                ut, vt = inj[src], vertex[code | per_op[ip][sl]]
                pair = src * n + m
                w = witness.get((ut, vt))
                if w is None or pair < w:
                    witness[(ut, vt)] = pair

    succ: dict[Vertex, set[Vertex]] = {}
    for u, v in witness:
        if u in succ:
            succ[u].add(v)
        else:
            succ[u] = {v}
    for key, pair in witness.items():
        witness[key] = divmod(pair, n)
    return ChannelDependencyGraph(vertices=set(vertex.values()), succ=succ, witness=witness)


def _peel(live, out) -> set[Vertex]:
    """Kahn's peel: repeatedly drop the vertices of `live` that no edge in
    `out` from a vertex still in `live` enters; return the rest."""
    indeg = dict.fromkeys(live, 0)
    for u in live:
        for w in out.get(u, ()):
            if w in indeg:
                indeg[w] += 1
    queue = [v for v, d in indeg.items() if not d]
    for u in queue:
        for w in out.get(u, ()):
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
        for w in sorted(succ.get(u, ())):
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
    live = _peel(cdg.vertices, cdg.succ)
    if not live:
        return DeadlockReport(acyclic=True)
    for start in sorted(live):
        cycle = _shortest_cycle(cdg.succ, live, start)
        if cycle:
            break
    flows = []
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        flows.append(cdg.witness[(u, v)])
    return DeadlockReport(acyclic=False, cycle=cycle, inducing_flows=tuple(flows))
