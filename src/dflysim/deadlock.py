"""Channel dependency graphs and deadlock-freedom verification.

A CDG vertex is a (directed channel id, VL) pair; an edge u -> v means some
routed packet occupies channel u on its VL immediately before channel v on
its VL. A routing configuration is deadlock free iff its CDG is acyclic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

from .errors import RoutingLoop
from .routing import RoutingConfig, route_walk
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
    other switch and whose SL agrees for every source, so their routes form
    one in-forest up to that switch. Each source walks toward the class, in
    ascending order, until it reaches a (channel, VL, SL) state the class has
    seen, and fans out to every member's terminal channel at that switch.

    Equal to walking every pair with route_walk: the same vertices and edges,
    each edge's witness the smallest (src, dst) pair in src-major order whose
    route holds it, and, if some route never arrives, the error route_walk
    raises for the smallest such pair (RoutingLoop with .pair for a loop or a
    misdelivery). Injection channels only source edges and delivery channels
    only sink them, so terminal channels never close a cycle.
    """
    n = topology.num_endnodes
    peer, lft, sl2vl = topology.peer, config.lft, config.sl2vl
    sl_for = config.sl_policy.sl_for
    # a vertex code is channel id << 4 | VL: VLs are 4-bit, as parse_fabric_dump checks
    out_code: list[list[int | None]] = [[None] * len(row) for row in peer]
    inj: list[Vertex] = [(0, 0)] * n
    for ch in topology.channels:
        kind, node, port = ch.src
        if kind == "s":
            out_code[node][port] = ch.cid << 4
        else:
            inj[node] = (ch.cid, 0)
    start = [(topology.switch_of(e), topology.attach_port(e)) for e in range(n)]
    vertex: dict[int, Vertex] = {cid << 4: (cid, vl) for cid, vl in inj}
    witness: dict = {}  # (u, v) -> src * n + dst of the smallest pair seen so far

    def walk(dsw, members, col, slcol):
        """Walk every source toward one class; return its smallest failing pair."""
        seen: dict[int, int] = {}  # in-vertex code << 4 | SL -> first source there
        table = sl2vl[dsw]
        fan = [(m, port, out_code[dsw][port]) for m, port in members]
        m0 = members[0][0]
        for src in range(n):
            sl = slcol[src]
            cur, ip = start[src]
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
            except (LookupError, TypeError):  # a port or SL2VL entry the fabric lacks
                return pair
        return None

    bad = []  # the smallest failing pair of each class that has one
    for dsw, row in enumerate(peer):
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
            key = (tuple(col), tuple(map(sl_for, range(n), repeat(m))))
            classes.setdefault(key, []).append((m, port))
        for (col, slcol), members in classes.items():
            failed = walk(dsw, sorted(members), col, slcol)
            if failed is not None:
                bad.append(failed)
    if bad:
        src, dst = divmod(min(bad), n)
        route_walk(topology, config, src, dst)  # raises for every pair the walk gave up on
        raise RoutingLoop((src, dst))

    succ: dict[Vertex, set[Vertex]] = {}
    for (u, v), pair in witness.items():
        succ.setdefault(u, set()).add(v)
        witness[(u, v)] = divmod(pair, n)
    return ChannelDependencyGraph(vertices=set(vertex.values()), succ=succ, witness=witness)


def _cyclic_sccs(cdg: ChannelDependencyGraph) -> list[list[Vertex]]:
    """Tarjan SCCs (iterative, deterministic order); only cycle-bearing ones."""
    adj = cdg.succ
    index: dict[Vertex, int] = {}
    lowlink: dict[Vertex, int] = {}
    onstack: set[Vertex] = set()
    stack: list[Vertex] = []
    counter = 0
    out: list[list[Vertex]] = []

    for root in sorted(cdg.vertices):
        if root in index:
            continue
        work = [(root, iter(sorted(adj.get(root, ()))))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            descended = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    descended = True
                    break
                if w in onstack and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if lowlink[v] < lowlink[u]:
                    lowlink[u] = lowlink[v]
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in adj.get(v, ()):
                    out.append(comp)
    return out


def check_deadlock_free(cdg: ChannelDependencyGraph) -> DeadlockReport:
    """Prove acyclicity or return a deterministic cycle witness.

    The witness starts at the lexicographically smallest vertex lying on any
    cycle and follows a shortest cycle through it (BFS inside its SCC with
    sorted neighbor order).
    """
    bad = _cyclic_sccs(cdg)
    if not bad:
        return DeadlockReport(acyclic=True)

    start = min(min(comp) for comp in bad)
    comp = next(set(c) for c in bad if start in c)
    # shortest path start -> start inside the SCC
    parent: dict[Vertex, Vertex] = {}
    dq = deque([start])
    closing_from = None
    while dq and closing_from is None:
        u = dq.popleft()
        for w in sorted(cdg.succ.get(u, ())):
            if w == start:
                closing_from = u
                break
            if w in comp and w not in parent:
                parent[w] = u
                dq.append(w)
    assert closing_from is not None, "SCC guaranteed a closing edge"
    path = [closing_from]
    while path[-1] != start:
        path.append(parent[path[-1]])
    cycle = tuple(reversed(path))
    flows = []
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        flows.append(cdg.witness[(u, v)])
    return DeadlockReport(acyclic=False, cycle=cycle, inducing_flows=tuple(flows))
