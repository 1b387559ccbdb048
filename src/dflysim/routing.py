"""Routing-engine synthesis for fully-connected Dragonflies.

Three deterministic deadlock-free engines are synthesized from the topology:

* dla  — minimal Dragonfly routing; one VL shift when a packet enters a local
         channel straight after a global one (1 SL, 2 VLs).
* d3r  — same minimal paths, but each route rides a single VL chosen by
         destination-group order, selected via the packet SL (2 SLs, 2 VLs).
* updn — spanning-tree up*/down* routing, topology agnostic (1 SL, 1 VL).

Group structure is rediscovered from the bare switch graph (closed
neighborhoods / maximal cliques) rather than trusted from the builder.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import MalformedDump, NotADragonfly, UnsupportedParams, UnsupportedTopology
from .topology import GLOBAL, LOCAL, DragonflyParams, Topology, build_topology

MAX_SLS = 16
_INF = float("inf")


# ---------------------------------------------------------------------------
# group discovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupAssignment:
    """Partition of switches into groups, labeled by smallest member id."""

    groups: tuple[tuple[int, ...], ...]
    group_of: dict[int, int] = field(compare=False)

    @classmethod
    def from_groups(cls, groups) -> "GroupAssignment":
        ordered = tuple(tuple(sorted(g)) for g in sorted(groups, key=min))
        return cls(
            groups=ordered,
            group_of={v: i for i, grp in enumerate(ordered) for v in grp},
        )

    @classmethod
    def from_topology(cls, topology: Topology) -> "GroupAssignment":
        """Ground-truth grouping as built (bypasses discovery)."""
        a = topology.params.a
        return cls.from_groups(
            [list(range(g * a, g * a + a)) for g in range(topology.params.g)]
        )

    @property
    def size(self) -> int:
        return len(self.groups[0])


def _as_switch_graph(graph) -> dict[int, frozenset[int]]:
    if isinstance(graph, Topology):
        adj = graph.switch_adjacency()
        return {s: frozenset(adj[s]) for s in adj}
    return {v: frozenset(ns) - {v} for v, ns in graph.items()}


def _maximal_cliques(adj: dict[int, frozenset[int]]) -> list[frozenset[int]]:
    """Bron-Kerbosch with pivoting; deterministic enumeration order."""
    cliques: list[frozenset[int]] = []

    def expand(r: set, p: set, x: set):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = min(p | x, key=lambda u: (-len(p & adj[u]), u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(adj), set())
    return cliques


_SEARCH_BUDGET = 200_000


def _partition_into(vertices, by_vertex):
    """Tile all vertices with disjoint candidate cliques.

    Deterministic smallest-first backtracking; the first solution found is the
    lexicographically least one. Returns a list of tuples, or None. The search
    is budgeted: sizes that do not tile (e.g. matching-style dead ends on the
    wrong clique size) give up after a fixed number of steps instead of
    backtracking exponentially.
    """
    assigned: set[int] = set()
    chosen: list[tuple[int, ...]] = []
    stack: list[tuple[list, int]] = []
    cands = None
    idx = 0
    steps = 0
    while True:
        steps += 1
        if steps > _SEARCH_BUDGET:
            return None
        if cands is None:
            v = next((u for u in vertices if u not in assigned), None)
            if v is None:
                return list(chosen)
            cands = [c for c in by_vertex.get(v, ()) if assigned.isdisjoint(c)]
            idx = 0
        if idx < len(cands):
            c = cands[idx]
            assigned.update(c)
            chosen.append(c)
            stack.append((cands, idx))
            cands = None
        else:
            if not stack:
                return None
            cands, idx = stack.pop()
            assigned.difference_update(chosen.pop())
            idx += 1


def _valid_grouping(adj, groups) -> bool:
    """Every pair of groups must be joined by at least one channel."""
    if len(groups) < 2:
        return False
    gid = {v: i for i, grp in enumerate(groups) for v in grp}
    seen = set()
    for v in adj:
        for u in adj[v]:
            a, b = gid[v], gid[u]
            if a != b:
                seen.add((a, b) if a < b else (b, a))
    g = len(groups)
    return len(seen) == g * (g - 1) // 2


def discover_groups(graph) -> GroupAssignment:
    """Recover the group partition from the raw switch graph.

    Groups are the maximal mutually-adjacent sets (closed-neighborhood
    cliques). Raises NotADragonfly when no clique size tiles the graph into a
    valid grouping, or when more than one size does (ambiguous decomposition).
    A complete switch graph is ambiguous except for the 2-switch fabric.
    """
    adj = _as_switch_graph(graph)
    if not adj:
        raise NotADragonfly("empty switch graph")
    vertices = sorted(adj)
    n = len(vertices)
    if all(len(adj[v]) == n - 1 for v in vertices):
        if n == 2:
            return GroupAssignment.from_groups([[vertices[0]], [vertices[1]]])
        raise NotADragonfly(
            "complete switch graph: single-group and one-switch-per-group "
            "interpretations are indistinguishable"
        )
    cliques = _maximal_cliques(adj)
    by_size: dict[int, list[frozenset[int]]] = {}
    for c in cliques:
        by_size.setdefault(len(c), []).append(c)

    # Largest clique size whose maximal cliques tile the graph into a valid
    # grouping wins: a graph can also admit a finer reading (every parallel
    # trunk of global cables doubles as a 2-switch "group"), and the group
    # cliques are by definition the maximal structure.
    for size in sorted((s for s in by_size if s >= 2), reverse=True):
        if n % size:
            continue
        by_vertex: dict[int, list[tuple[int, ...]]] = {}
        for c in by_size[size]:
            tup = tuple(sorted(c))
            for v in tup:
                by_vertex.setdefault(v, []).append(tup)
        if len(by_vertex) != n:  # some vertex is in no clique of this size
            continue
        for v in by_vertex:
            by_vertex[v].sort()
        part = _partition_into(vertices, by_vertex)
        if part is not None and _valid_grouping(adj, part):
            return GroupAssignment.from_groups(part)
    raise NotADragonfly("no clique partition yields a valid grouping")


# ---------------------------------------------------------------------------
# the routing configuration
# ---------------------------------------------------------------------------

_ZERO_ROW = (0,) * MAX_SLS
_ONE_ROW = (1,) * MAX_SLS
_IDENTITY2_ROW = tuple(sl if sl < 2 else 0 for sl in range(MAX_SLS))


@dataclass
class RoutingConfig:
    """Per-switch forwarding tables plus SL2VL tables for one engine.

    Synthesized configurations share one SL2VL table object across all
    switches; parsed dumps keep one table per switch. `sl_groups` holds each
    switch's SL group: its Dragonfly group under d3r, 0 everywhere otherwise.
    """

    engine: str
    lft: list[list[int]]                       # [switch][dst endnode] -> port
    sl2vl: list[list[list[tuple[int, ...]]]]   # [switch][out port][in port] -> 16 VLs
    sl_groups: tuple[int, ...]                 # [switch] -> SL group
    vl_shift_disabled: bool = False

    def sl(self, src_switch: int, dst_switch: int) -> int:
        """The packet SL: 1 when the destination's SL group is below the source's, else 0.

        With d3r's identity SL-to-VL map this pins each route to one VL for its
        whole length and orients inter-group dependencies by group order.
        """
        groups = self.sl_groups
        return 1 if groups[dst_switch] < groups[src_switch] else 0

    @property
    def num_switches(self) -> int:
        return len(self.lft)

    @property
    def num_endnodes(self) -> int:
        return len(self.lft[0])

    @property
    def radix(self) -> int:
        return len(self.sl2vl[0])

    @property
    def resources(self) -> tuple[int, int]:
        """(SL count, VL count) actually used by this configuration."""
        sls = 2 if len(set(self.sl_groups)) > 1 else 1
        max_vl = 0
        for per_switch in {id(t): t for t in self.sl2vl}.values():  # shared tables once
            for per_op in per_switch:
                for row in per_op:
                    m = max(row[:sls])
                    if m > max_vl:
                        max_vl = m
        return sls, max_vl + 1


def check_shape(topology: Topology, config: RoutingConfig) -> None:
    """Raise UnsupportedTopology unless the tables fit the topology's switch
    count, endnode count and radix."""
    want = (topology.num_switches, topology.num_endnodes, topology.params.radix)
    got = (config.num_switches, config.num_endnodes, config.radix)
    if got != want:
        raise UnsupportedTopology(
            "routing tables for {} switches, {} endnodes, radix {} do not fit a "
            "topology of {} switches, {} endnodes, radix {}".format(*got, *want)
        )


# ---------------------------------------------------------------------------
# shared synthesis helpers
# ---------------------------------------------------------------------------

def _require_fully_connected(topology: Topology, assign: GroupAssignment):
    adj = topology.switch_adjacency()
    for grp in assign.groups:
        for i, si in enumerate(grp):
            for sj in grp[i + 1:]:
                ports = adj[si].get(sj, [])
                if not any(topology.port_kind(pt) == LOCAL for pt in ports):
                    raise UnsupportedTopology(
                        f"switches {si} and {sj} share a group but no local channel"
                    )
    pair_seen = set()
    for s in range(topology.num_switches):
        for _, peer_sw, _ in topology.global_ports(s):
            ga, gb = assign.group_of[s], assign.group_of[peer_sw]
            if ga != gb:
                pair_seen.add((min(ga, gb), max(ga, gb)))
    g = len(assign.groups)
    if len(pair_seen) != g * (g - 1) // 2:
        raise UnsupportedTopology("some group pair lacks a global channel")


def _minimal_next_port(topology: Topology, assign: GroupAssignment):
    """Switch-level next-output-port table for minimal Dragonfly routing.

    Route shape: optional local hop to the switch owning the global channel,
    the single global hop, optional local hop inside the destination group.
    Ties (parallel global channels) go to the lowest (switch id, port).
    """
    S = topology.num_switches
    gid = assign.group_of
    # per switch: destination group -> lowest egress port
    egress: list[dict[int, int]] = [{} for _ in range(S)]
    # per group pair: lowest switch in src group owning a cable to dst group
    owner: dict[tuple[int, int], int] = {}
    for s in range(S):
        for port, peer_sw, _ in sorted(topology.global_ports(s)):
            gd = gid[peer_sw]
            egress[s].setdefault(gd, port)
            key = (gid[s], gd)
            if key not in owner or s < owner[key]:
                owner[key] = s

    np_table = [[-1] * S for _ in range(S)]
    for s in range(S):
        gs = gid[s]
        row = np_table[s]
        for t in range(S):
            if t == s:
                continue
            gt = gid[t]
            if gt == gs:
                row[t] = topology.local_port(s, t)
            elif gt in egress[s]:
                row[t] = egress[s][gt]
            else:
                row[t] = topology.local_port(s, owner[(gs, gt)])
    return np_table


def _expand_lft(topology: Topology, np_table) -> list[list[int]]:
    """Endnode-level LFT from a switch-level next-port table."""
    p = topology.params.p
    n = topology.num_endnodes
    lft = []
    for s in range(topology.num_switches):
        row = [0] * n
        nprow = np_table[s]
        for e in range(n):
            sd = e // p
            row[e] = e % p if sd == s else nprow[sd]
        lft.append(row)
    return lft


def _kind_tables(topology: Topology, rule) -> list[list[list[tuple[int, ...]]]]:
    """SL2VL tables where the row depends only on (out kind, in kind).

    Port kinds are the same on every switch, so all switches share one table.
    """
    radix = topology.params.radix
    kinds = [topology.port_kind(pt) for pt in range(radix)]
    table = [[rule(kinds[op], kinds[ip]) for ip in range(radix)] for op in range(radix)]
    return [table] * topology.num_switches


def route_walk(topology: Topology, config: RoutingConfig, src: int, dst: int):
    """Channel/VL sequence for one endnode pair: [(Channel, vl), ...].

    Packets enter on VL 0 (HCA SL2VL is identity to VL 0); each switch output
    re-assigns the VL through its SL2VL table. Raises RoutingLoop if the LFT
    does not deliver within num_switches hops.
    """
    from .errors import RoutingLoop

    check_shape(topology, config)
    cur = topology.switch_of(src)
    sl = config.sl(cur, topology.switch_of(dst))
    ip = topology.attach_port(src)
    seq = [(topology.channel_at("h", src, 0), 0)]
    for _ in range(topology.num_switches + 1):
        op = config.lft[cur][dst]
        vl = config.sl2vl[cur][op][ip][sl]
        ch = topology.channel_at("s", cur, op)
        seq.append((ch, vl))
        peer = topology.peer[cur][op]
        if peer[0] == "h":
            if peer[1] != dst:
                raise RoutingLoop((src, dst), f"delivered to {peer[1]} instead of {dst}")
            return seq
        cur, ip = peer[1], peer[2]
    raise RoutingLoop((src, dst))


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def _groups_for(topology: Topology) -> GroupAssignment:
    """Rediscover groups from the raw switch graph; fall back to the builder's
    grouping for the corner fabrics where the graph alone is ambiguous
    (complete switch graphs, e.g. single-switch groups with g >= 3)."""
    try:
        return discover_groups(topology)
    except NotADragonfly:
        return GroupAssignment.from_topology(topology)


def route_dla(topology: Topology, groups: GroupAssignment | None = None,
              vl_shift: bool = True) -> RoutingConfig:
    """Minimal Dragonfly routing with the one-shot VL shift.

    The SL2VL function returns VL 1 exactly when the output port is a local
    channel and the input port is a global channel, for every SL; VL 0
    otherwise. `vl_shift=False` builds the diagnostic variant with the shift
    suppressed (known to leave cyclic dependencies).
    """
    assign = groups if groups is not None else _groups_for(topology)
    _require_fully_connected(topology, assign)
    np_table = _minimal_next_port(topology, assign)

    if vl_shift:
        def rule(op_kind, ip_kind):
            return _ONE_ROW if (op_kind == LOCAL and ip_kind == GLOBAL) else _ZERO_ROW
    else:
        def rule(op_kind, ip_kind):
            return _ZERO_ROW

    return RoutingConfig(
        engine="dla",
        lft=_expand_lft(topology, np_table),
        sl2vl=_kind_tables(topology, rule),
        sl_groups=(0,) * topology.num_switches,
        vl_shift_disabled=not vl_shift,
    )


def route_d3r(topology: Topology, groups: GroupAssignment | None = None) -> RoutingConfig:
    """Group-minimal routing with one VL per route, ordered by destination group.

    Each route keeps a single VL for its whole length: the HCA tags packets
    with SL 0 (destination group id >= source's) or SL 1, and every switch
    output port maps SL i to VL i.
    """
    assign = groups if groups is not None else _groups_for(topology)
    _require_fully_connected(topology, assign)
    np_table = _minimal_next_port(topology, assign)

    return RoutingConfig(
        engine="d3r",
        lft=_expand_lft(topology, np_table),
        sl2vl=_kind_tables(topology, lambda op_kind, ip_kind: _IDENTITY2_ROW),
        sl_groups=tuple(assign.group_of[s] for s in range(topology.num_switches)),
    )


def route_updn(topology: Topology, groups: GroupAssignment | None = None) -> RoutingConfig:
    """Up*/down* routing on a BFS spanning tree rooted at the lowest switch id.

    `groups` is ignored: up*/down* needs no group structure.

    Links are oriented by (tree level, switch id); a route may climb zero or
    more up channels, then descend zero or more down channels, and never turns
    back up. Per destination, every switch with an all-down path commits to the
    shortest one; the rest climb toward the cheapest committed switch. This
    keeps destination-based forwarding consistent with the up*/down* rule.
    """
    adj = topology.switch_adjacency()
    S = topology.num_switches
    root = 0
    level = [-1] * S
    level[root] = 0
    dq = deque([root])
    while dq:
        cur = dq.popleft()
        for nb in sorted(adj[cur]):
            if level[nb] < 0:
                level[nb] = level[cur] + 1
                dq.append(nb)
    if any(lv < 0 for lv in level):
        raise UnsupportedTopology("switch graph is disconnected")

    def rank(v):
        return (level[v], v)

    up_nbrs = [sorted((u for u in adj[v] if rank(u) < rank(v)), key=rank) for v in range(S)]
    down_nbrs = [sorted((u for u in adj[v] if rank(u) > rank(v))) for v in range(S)]
    by_rank = sorted(range(S), key=rank)

    np_table = [[-1] * S for _ in range(S)]
    for d in range(S):
        # shortest all-down distance to d (reverse BFS climbs toward lower ranks)
        ad = [_INF] * S
        ad[d] = 0
        dq = deque([d])
        while dq:
            cur = dq.popleft()
            for x in up_nbrs[cur]:
                if ad[x] is _INF:
                    ad[x] = ad[cur] + 1
                    dq.append(x)
        r = list(ad)
        for v in by_rank:
            if v == d:
                continue
            if ad[v] is not _INF:
                nh = min(u for u in down_nbrs[v] if ad[u] == ad[v] - 1)
            else:
                cost, nh = min((r[u] + 1, u) for u in up_nbrs[v])
                r[v] = cost
            np_table[v][d] = min(adj[v][nh])

    return RoutingConfig(
        engine="updn",
        lft=_expand_lft(topology, np_table),
        sl2vl=_kind_tables(topology, lambda op_kind, ip_kind: _ZERO_ROW),
        sl_groups=(0,) * topology.num_switches,
    )


ENGINES = {
    "dla": route_dla,
    "d3r": route_d3r,
    "updn": route_updn,
}


def synthesize(topology: Topology, engine: str,
               groups: GroupAssignment | None = None,
               vl_shift: bool = True) -> RoutingConfig:
    """Build the routing configuration for one engine by name.

    `vl_shift=False` selects the shift-disabled dla variant; other engines
    have no VL shift and raise UnsupportedParams for it.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (expected one of {sorted(ENGINES)})")
    if vl_shift:
        return ENGINES[engine](topology, groups)
    if engine != "dla":
        raise UnsupportedParams(f"engine {engine!r} has no VL shift to disable")
    return route_dla(topology, groups, vl_shift=False)


def vls_needed(engine: str, params: DragonflyParams) -> int:
    """VLs that `engine`'s tables use on a fabric of this shape, without building it.

    Every engine's SL2VL table depends only on the port kinds a switch has:
    terminal and global ports, plus local ports when a > 1. The smallest
    fabric with the same kinds therefore needs the same number of VLs.
    """
    proxy = build_topology(DragonflyParams(min(params.a, 2), 1, 1))
    return synthesize(proxy, engine).resources[1]


# ---------------------------------------------------------------------------
# fabric dump text format
# ---------------------------------------------------------------------------

def _dump_header(config: RoutingConfig) -> dict[str, str]:
    """Header records in dump order. `slpolicy zero` when every switch shares
    one SL group, else `group-order` with the groups in `groupmap`."""
    sls, vls = config.resources
    header = {"engine": config.engine, "sls": str(sls), "vls": str(vls)}
    if sls == 1:
        header["slpolicy"] = "zero"
    else:
        header["slpolicy"] = "group-order"
        header["groupmap"] = " ".join(map(str, config.sl_groups))
    return header


def emit_fabric_dump(config: RoutingConfig) -> str:
    """Deterministic text dump of LFT and SL2VL tables; see parse_fabric_dump."""
    out = [f"{key} {value}" for key, value in _dump_header(config).items()]
    radix = config.radix
    for s in range(config.num_switches):
        out.append(f"switch {s}")
        row = config.lft[s]
        for dst in range(config.num_endnodes):
            out.append(f"lid {dst} port {row[dst]}")
        for op in range(radix):
            for ip in range(radix):
                vls = " ".join(str(v) for v in config.sl2vl[s][op][ip])
                out.append(f"sl2vl out {op} in {ip}: {vls}")
    return "\n".join(out) + "\n"


def parse_fabric_dump(text: str) -> RoutingConfig:
    """Parse emit_fabric_dump output back into a RoutingConfig.

    emit(parse(emit(config))) is byte-identical to emit(config). Raises
    MalformedDump on structural or range errors (VL indices must be < 16, LFT
    ports below the radix), and when the sls, vls, slpolicy or groupmap
    records differ from what the parsed tables give.
    """
    header: dict[str, str] = {}
    lfts: list[list[int]] = []
    sl2vls: list[dict[tuple[int, int], tuple[int, ...]]] = []
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}  # interned: equal rows share one tuple
    cur_lft: dict[int, int] | None = None

    def fail(lineno, why):
        raise MalformedDump(f"line {lineno}: {why}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        words = line.split()
        key = words[0]
        if key == "switch":
            if len(words) != 2 or not words[1].isdigit():
                fail(lineno, "bad switch header")
            if int(words[1]) != len(lfts):
                fail(lineno, "switch ids must be dense and in order")
            cur_lft = {}
            lfts.append(cur_lft)
            sl2vls.append({})
        elif key == "lid":
            if cur_lft is None or len(words) != 4 or words[2] != "port":
                fail(lineno, "bad lid line")
            try:
                dst, port = int(words[1]), int(words[3])
            except ValueError:
                fail(lineno, "lid/port must be integers")
            if port < 0:
                fail(lineno, "negative port")
            cur_lft[dst] = port
        elif key == "sl2vl":
            # sl2vl out <op> in <ip>: v0 v1 ... v15
            if cur_lft is None or len(words) != 5 + MAX_SLS or words[1] != "out" or words[3] != "in":
                fail(lineno, "bad sl2vl line")
            if not words[4].endswith(":"):
                fail(lineno, "missing colon after input port")
            try:
                op = int(words[2])
                ip = int(words[4][:-1])
                vls = tuple(int(w) for w in words[5:])
            except ValueError:
                fail(lineno, "sl2vl entries must be integers")
            if any(v < 0 or v >= MAX_SLS for v in vls):
                fail(lineno, "VL index out of range 0..15")
            sl2vls[-1][(op, ip)] = rows.setdefault(vls, vls)
        elif key in ("engine", "sls", "vls", "slpolicy", "groupmap"):
            header[key] = " ".join(words[1:])
        else:
            fail(lineno, f"unknown record {key!r}")

    if not lfts:
        raise MalformedDump("no switch records")
    if "engine" not in header:
        raise MalformedDump("missing engine header")

    num_endnodes = len(lfts[0])
    radix_keys = sorted(sl2vls[0])
    radix = max(k[0] for k in radix_keys) + 1 if radix_keys else 0
    lft_lists = []
    sl2vl_lists = []
    for s, (lft_map, svl_map) in enumerate(zip(lfts, sl2vls)):
        if sorted(lft_map) != list(range(num_endnodes)):
            raise MalformedDump(f"switch {s}: LFT is not total over 0..{num_endnodes - 1}")
        if sorted(svl_map) != [(op, ip) for op in range(radix) for ip in range(radix)]:
            raise MalformedDump(f"switch {s}: SL2VL table is not total over the radix")
        for dst, port in lft_map.items():
            if port >= radix:
                raise MalformedDump(f"switch {s}: lid {dst} port {port} is beyond radix {radix}")
        lft_lists.append([lft_map[d] for d in range(num_endnodes)])
        sl2vl_lists.append([[svl_map[(op, ip)] for ip in range(radix)] for op in range(radix)])

    try:  # no groupmap: every switch in SL group 0
        sl_groups = tuple(int(w) for w in header.get("groupmap", "0 " * len(lfts)).split())
    except ValueError:
        raise MalformedDump("groupmap entries must be integers") from None
    if len(sl_groups) != len(lfts):
        raise MalformedDump("groupmap length != switch count")

    config = RoutingConfig(
        engine=header["engine"],
        lft=lft_lists,
        sl2vl=sl2vl_lists,
        sl_groups=sl_groups,
    )
    want = _dump_header(config)
    for key in ("sls", "vls", "slpolicy", "groupmap"):
        if header.get(key) != want.get(key):
            raise MalformedDump(
                f"{key} {header.get(key, '(missing)')} does not match the tables, "
                f"which give {want.get(key, 'no ' + key)}"
            )
    return config
