"""Routing-engine synthesis for fully-connected Dragonflies.

Three deterministic deadlock-free engines are synthesized from the topology:

* dla  — minimal Dragonfly routing; one VL shift when a packet enters a local
         channel straight after a global one (1 SL, 2 VLs).
* d3r  — same minimal paths, but each route rides a single VL chosen by
         destination-group order, selected via the packet SL (2 SLs, 2 VLs).
* updn — spanning-tree up*/down* routing, topology agnostic (1 SL, 1 VL).

`synthesize` builds any engine's tables by name; `ENGINES` holds what differs
between them. The minimal engines route on the topology's own grouping; a
grouping the caller passes must relabel to it. `discover_groups` recovers a
grouping from the bare switch graph (closed neighborhoods / maximal cliques).
"""

from __future__ import annotations

import struct
from array import array
from collections import deque
from collections.abc import MutableSequence
from dataclasses import dataclass
from itertools import chain, zip_longest
from operator import itemgetter

from .errors import (InvariantViolation, MalformedDump, NotADragonfly, RoutingLoop,
                     UnsupportedParams, UnsupportedTopology)
from .topology import GLOBAL, LOCAL, Topology

MAX_SLS = 16
INJECTION_VL = 0  # the HCA's SL-to-VL map sends every SL to VL 0, so packets enter on it


# ---------------------------------------------------------------------------
# group discovery
# ---------------------------------------------------------------------------

# A grouping is a tuple: switch -> group, with the groups numbered in the order
# of their smallest switch.

def _relabel(groups) -> tuple[int, ...]:
    """Number the groups of a switch -> group sequence in the order of their smallest switch."""
    first: dict = {}
    return tuple(first.setdefault(g, len(first)) for g in groups)


def _joins_every_pair(group: tuple[int, ...], links) -> bool:
    """True when the grouping has two groups or more and the (switch, switch) links
    join every pair of them."""
    g = max(group) + 1
    joined = {(ga, gb) if ga < gb else (gb, ga)
              for ga, gb in ((group[u], group[v]) for u, v in links) if ga != gb}
    return g > 1 and len(joined) == g * (g - 1) // 2


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


def discover_groups(graph) -> tuple[int, ...]:
    """Recover the grouping (switch -> group) from the raw switch graph.

    Groups are the maximal mutually-adjacent sets (closed-neighborhood
    cliques). When several clique sizes tile the graph into groups with a
    channel between every two of them, the largest wins. Raises NotADragonfly
    when no size does, when the switch ids are not 0..n-1, and for a complete
    switch graph other than the 2-switch fabric (ambiguous). It returns the
    first valid tiling in switch order, so it recovers a fabric's groups only
    when one grouping fits; with 2 switches per group a relabelled fabric may
    get another grouping, without an error.
    """
    adj = _as_switch_graph(graph)
    if not adj:
        raise NotADragonfly("empty switch graph")
    n = len(adj)
    vertices = range(n)
    ids = set(vertices)
    if set(adj) != ids or any(not ns <= ids for ns in adj.values()):
        raise NotADragonfly(f"switch ids must be 0..{n - 1}")
    if all(len(adj[v]) == n - 1 for v in vertices):
        if n == 2:
            return (0, 1)
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
        if part is not None:
            label = {v: i for i, grp in enumerate(part) for v in grp}
            group = _relabel(label[v] for v in vertices)
            if _joins_every_pair(group, ((v, u) for v in adj for u in adj[v])):
                return group
    raise NotADragonfly("no clique partition yields a valid grouping")


# ---------------------------------------------------------------------------
# the routing configuration
# ---------------------------------------------------------------------------

_ZERO_ROW = (0,) * MAX_SLS
_VLS = frozenset(range(MAX_SLS))  # a VL is 4 bits, as the CDG's vertex codes assume
_VL_ROWS = (_ZERO_ROW, (1,) * MAX_SLS)  # every SL to VL 0, every SL to VL 1
_IDENTITY2_ROW = tuple(sl if sl < 2 else 0 for sl in range(MAX_SLS))


@dataclass
class RoutingConfig:
    """Per-switch forwarding tables plus SL2VL tables for one engine.

    Synthesized and parsed LFT rows are `array`s of port numbers, one byte
    per entry up to radix 128 (`_port_typecode`); list rows, as in a
    configuration built by hand, work everywhere too. Synthesized
    configurations share one SL2VL table object across all switches; parsed
    dumps keep one table per switch. `sl_groups` holds each switch's SL group:
    its Dragonfly group under d3r, 0 everywhere otherwise.
    """

    engine: str
    lft: list[MutableSequence[int]]            # [switch][dst endnode] -> port
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


def _check_size(topology: Topology, config: RoutingConfig) -> None:
    """Raise UnsupportedTopology unless the switch count, and the endnode count
    and radix of switch 0's tables, are the topology's."""
    want = (topology.num_switches, topology.num_endnodes, topology.params.radix)
    got = (config.num_switches, config.num_endnodes, config.radix)
    if got != want:
        raise UnsupportedTopology(
            "routing tables for {} switches, {} endnodes, radix {} do not fit a "
            "topology of {} switches, {} endnodes, radix {}".format(*got, *want)
        )


def check_shape(topology: Topology, config: RoutingConfig) -> None:
    """Raise UnsupportedTopology unless every switch's tables fit the topology:
    an LFT entry per endnode, an SL group per switch, and one SL2VL table per
    switch with a row per (out port, in port) pair below the radix, each with an
    entry per SL, and every entry a VL in 0..15. A table or row shared by
    several switches or port pairs is checked once."""
    if len(config.sl2vl) != len(config.lft):
        raise UnsupportedTopology(
            f"{len(config.sl2vl)} SL2VL tables for {len(config.lft)} switches")
    if len(config.sl_groups) != len(config.lft):
        raise UnsupportedTopology(
            f"{len(config.sl_groups)} SL groups for {len(config.lft)} switches")
    _check_size(topology, config)
    n, radix = topology.num_endnodes, topology.params.radix
    for s, row in enumerate(config.lft):
        if len(row) != n:
            raise UnsupportedTopology(f"switch {s}: LFT has {len(row)} entries for {n} endnodes")
    checked = set()
    for s, table in enumerate(config.sl2vl):
        if id(table) not in checked:
            checked.add(id(table))
            rows = {id(row): row for row in chain.from_iterable(table)}.values()
            if (len(table) != radix or set(map(len, table)) != {radix}
                    or set(map(len, rows)) != {MAX_SLS}):
                raise UnsupportedTopology(
                    f"switch {s}: SL2VL table is not {MAX_SLS} VLs per (out, in) port "
                    f"pair of radix {radix}")
            if not set(chain.from_iterable(rows)) <= _VLS:
                raise UnsupportedTopology(f"switch {s}: SL2VL entry outside VLs 0..{MAX_SLS - 1}")


def _dla_vl(op_kind: str, ip_kind: str) -> int:
    """The dla VL shift (Kim et al., ISCA 2008): VL 1 from a global to a local port, else 0."""
    return 1 if op_kind == LOCAL and ip_kind == GLOBAL else 0


def check_vl_shift(topology: Topology, config: RoutingConfig) -> None:
    """Raise InvariantViolation where a dla table gives an SL in use VL 1 and _dla_vl gives
    VL 0. Links join ports of one kind, so each turn's input kind is the last hop's kind."""
    if config.engine == "dla":
        sls = config.resources[0]
        kinds = [topology.port_kind(pt) for pt in range(topology.params.radix)]
        for per_switch in {id(t): t for t in config.sl2vl}.values():  # shared tables once
            for op, per_op in enumerate(per_switch):
                for ip, row in enumerate(per_op):
                    if 1 in row[:sls] and not _dla_vl(kinds[op], kinds[ip]):
                        raise InvariantViolation(
                            "VL 1 is only legal on a local channel right after a global hop")


# ---------------------------------------------------------------------------
# shared synthesis helpers
# ---------------------------------------------------------------------------

def _minimal_next_port(topology: Topology):
    """Switch-level next-output-port rows for minimal Dragonfly routing.

    Route shape: optional local hop to the switch owning the global channel,
    the single global hop, optional local hop inside the destination group.
    Ties (parallel global channels) go to the lowest (switch id, port). Each
    switch picks one port per destination group and copies it to the group's
    switches; only its own group-mates get a port each. Rows are yielded one
    switch at a time, so no switch x switch table is held.
    """
    S = topology.num_switches
    gid = topology.switch_group
    G = topology.params.g
    members: list[list[int]] = [[] for _ in range(G)]
    for s, g in enumerate(gid):
        members[g].append(s)
    # per switch: destination group -> lowest egress port
    egress: list[dict[int, int]] = [{} for _ in range(S)]
    # per group pair: lowest switch in src group owning a cable to dst group
    owner: dict[tuple[int, int], int] = {}
    for s in range(S):  # ascending switches, each with its global ports ascending
        for port, _, gd in topology.global_ports(s):
            egress[s].setdefault(gd, port)
            owner.setdefault((gid[s], gd), s)

    by_group = itemgetter(*gid)  # a per-group list -> a per-switch tuple
    for s in range(S):
        gs, out = gid[s], egress[s]
        group_port = [-1] * G
        for gt in range(G):
            if gt != gs:
                group_port[gt] = out[gt] if gt in out else topology.local_port(s, owner[gs, gt])
        row = list(by_group(group_port))
        for t in members[gs]:
            if t != s:
                row[t] = topology.local_port(s, t)
        yield row


def _port_typecode(radix: int) -> str:
    """The narrowest signed `array` type that holds every port below the radix:
    'b' up to radix 128. Signed, so a row can hold -1 as a list row can."""
    return next(t for t in "bhiq" if radix <= 1 << 8 * array(t).itemsize - 1)


def _expand_lft(topology: Topology, np_rows) -> list[array]:
    """Endnode-level LFT from switch-level next-port rows, one per switch in
    order: each switch's next port covers its p endnodes, and a switch's own
    endnodes take their attach ports."""
    p = topology.params.p
    n = topology.num_endnodes
    typecode = _port_typecode(topology.params.radix)
    attach = array(typecode, range(p))
    lft = []
    for s, nprow in enumerate(np_rows):
        nprow = array(typecode, nprow)
        row = array(typecode, bytes(n * nprow.itemsize))
        for k in range(p):
            row[k::p] = nprow
        row[s * p:(s + 1) * p] = attach
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

    Packets enter on INJECTION_VL (the HCA's SL2VL sends every SL to VL 0);
    each switch output re-assigns the VL through its SL2VL table. Raises
    UnknownChannel at an LFT port with no channel, and RoutingLoop if the LFT
    does not deliver within num_switches hops.
    """
    _check_size(topology, config)
    cur = topology.switch_of(src)
    sl = config.sl(cur, topology.switch_of(dst))
    ip = topology.attach_port(src)
    seq = [(topology.channel_at("h", src, 0), INJECTION_VL)]
    for _ in range(topology.num_switches + 1):
        op = config.lft[cur][dst]
        ch = topology.channel_at("s", cur, op)  # UnknownChannel for any unwired port
        seq.append((ch, config.sl2vl[cur][op][ip][sl]))
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

def _updn_next_port(topology: Topology) -> list[list[int]]:
    """Switch-level next-output-port rows for up*/down* routing on a BFS
    spanning tree rooted at the lowest switch id.

    Links are oriented by (tree level, switch id); a route may climb zero or
    more up channels, then descend zero or more down channels, and never turns
    back up. Per destination, every switch with an all-down path commits to the
    shortest one; the rest climb toward the cheapest committed switch. This
    keeps destination-based forwarding consistent with the up*/down* rule.

    Each switch works on destination sets, ints with bit d set for destination
    switch d. cost[v][c] holds the destinations v reaches at cost c hops and
    via[v][u] those v forwards to neighbour u. Pass 1 takes switches down-
    neighbours first and builds each one's all-down rings: ring k is its down-
    neighbours' ring k - 1 less its earlier rings. Pass 2 takes switches up-
    neighbours first: each destination outside every ring costs one more than
    the least cost among the up-neighbours. Either pass gives a destination to
    the lowest-id neighbour that holds it at the least cost.
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

    up_nbrs = [sorted(u for u in adj[v] if rank(u) < rank(v)) for v in range(S)]
    down_nbrs = [sorted(u for u in adj[v] if rank(u) > rank(v)) for v in range(S)]
    by_rank = sorted(range(S), key=rank)

    cost: list[list[int]] = [[] for _ in range(S)]
    via: list[dict[int, int]] = [{} for _ in range(S)]
    for v in reversed(by_rank):  # pass 1: the rings
        rings, to = cost[v], via[v]
        ring = seen = 1 << v
        while ring:
            rings.append(ring)
            k, ring = len(rings) - 1, 0
            for u in down_nbrs[v]:
                cu = cost[u]
                if k < len(cu):
                    new = cu[k] & ~seen
                    if new:
                        seen |= new
                        ring |= new
                        to[u] = to.get(u, 0) | new
    full = (1 << S) - 1
    for v in by_rank:  # pass 2: the climbs
        cv, to = cost[v], via[v]
        rest, c = full - sum(cv), 0  # outside every ring; the rings are disjoint
        while rest:
            got = 0
            for u in up_nbrs[v]:
                cu = cost[u]
                if c < len(cu):
                    new = cu[c] & rest
                    if new:
                        rest ^= new
                        got |= new
                        to[u] = to.get(u, 0) | new
            c += 1
            if got:
                cv.extend([0] * (c + 1 - len(cv)))
                cv[c] |= got

    # Pack each row from its per-neighbour sets: destination d's port sits in
    # byte lane d, wide enough for every port below the radix.
    lane = 1
    while topology.params.radix > 256 ** lane:
        lane *= 2
    unpack = struct.Struct(f"<{S}{'BHIQ'[lane.bit_length() - 1]}").unpack
    digits = f"0{S}b"
    lanes = bytearray(S * lane)
    lanes[lane - 1::lane] = b"0" * S
    zero = int.from_bytes(lanes, "big")  # ord("0") in every lane

    def spread(dests: int) -> int:
        """The set with bit d moved to the low bit of lane d."""
        lanes[lane - 1::lane] = format(dests, digits).encode()
        return int.from_bytes(lanes, "big") - zero

    rows = []
    for v in range(S):
        ports = adj[v]
        packed = sum(ports[u][0] * spread(dests) for u, dests in via[v].items())
        row = list(unpack(packed.to_bytes(S * lane, "little")))
        row[v] = -1
        rows.append(row)
    return rows


# What differs between engines: (minimal Dragonfly routes, else up*/down*;
# the SL follows the group order; the SL2VL row for each (out kind, in kind) turn).
ENGINES = {
    "dla": (True, False, lambda out_kind, in_kind: _VL_ROWS[_dla_vl(out_kind, in_kind)]),
    "d3r": (True, True, lambda out_kind, in_kind: _IDENTITY2_ROW),
    "updn": (False, False, lambda out_kind, in_kind: _ZERO_ROW),
}


def synthesize(topology: Topology, engine: str, groups: tuple[int, ...] | None = None,
               vl_shift: bool = True) -> RoutingConfig:
    """Build the routing configuration for one engine by name.

    The minimal engines route on the topology's grouping. A `groups` tuple
    (switch -> group) passed with them must relabel to that grouping, else
    UnsupportedTopology is raised; updn ignores it. `vl_shift=False` selects
    the shift-disabled dla variant, VL 0 on every turn (known to leave cyclic
    dependencies); other engines have no VL shift and raise UnsupportedParams
    for it.
    """
    if engine not in ENGINES:
        raise UnsupportedParams(f"unknown engine {engine!r} (expected one of {sorted(ENGINES)})")
    if not vl_shift and engine != "dla":
        raise UnsupportedParams(f"engine {engine!r} has no VL shift to disable")
    minimal, group_sls, vl_row = ENGINES[engine]
    group = tuple(topology.switch_group)
    if minimal:
        if groups is not None and _relabel(groups) != group:
            raise UnsupportedTopology(
                f"a grouping of {len(groups)} switches does not fit a topology of "
                f"{topology.num_switches} switches in {topology.params.g} groups")
        np_table = _minimal_next_port(topology)
    else:
        np_table = _updn_next_port(topology)
    return RoutingConfig(
        engine=engine,
        lft=_expand_lft(topology, np_table),
        sl2vl=_kind_tables(topology, vl_row if vl_shift else lambda out_kind, in_kind: _ZERO_ROW),
        sl_groups=group if group_sls else (0,) * topology.num_switches,
        vl_shift_disabled=not vl_shift,
    )


# ---------------------------------------------------------------------------
# fabric dump text format
# ---------------------------------------------------------------------------

def _dump_header(config: RoutingConfig) -> dict[str, str]:
    """Header records in dump order. `vlshift off` only for the shift-disabled
    dla variant; `slpolicy zero` when every switch shares one SL group, else
    `group-order` with the groups in `groupmap`."""
    sls, vls = config.resources
    header = {"engine": config.engine}
    if config.vl_shift_disabled:
        header["vlshift"] = "off"
    header.update(sls=str(sls), vls=str(vls))
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
    texts: dict[tuple[int, ...], str] = {}  # each distinct row formatted once
    for s in range(config.num_switches):
        lines = [f"switch {s}"]  # joined per switch, so one switch's lines are held at a time
        row = config.lft[s]
        for dst in range(config.num_endnodes):
            lines.append(f"lid {dst} port {row[dst]}")
        for op in range(radix):
            for ip in range(radix):
                vls = config.sl2vl[s][op][ip]
                text = texts.get(vls)
                if text is None:
                    text = texts[vls] = " ".join(map(str, vls))
                lines.append(f"sl2vl out {op} in {ip}: {text}")
        out.append("\n".join(lines))
    out.append("")  # the closing newline, without a second copy of the text
    return "\n".join(out)


_CHUNK = 1 << 16  # characters of dump text that _lines splits at a time


def _lines(text: str):
    """Yield text.splitlines() from slices of about _CHUNK characters, each cut after a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_fabric_dump(text: str) -> RoutingConfig:
    """Parse emit_fabric_dump output back into a RoutingConfig.

    One pass reads the records in the order emit_fabric_dump writes them: the
    header, then `switch 0, 1, ...`, each with `lid 0, 1, ...` and then its
    sl2vl rows in (out, in) row-major order. Switch 0 fixes the endnode count
    and the radix. emit(parse(emit(config))) is byte-identical to emit(config).
    Raises MalformedDump on a record that is unknown, repeated, missing or out
    of order, on range errors (VL indices must be < 16, LFT ports below the
    radix), on an engine record that names no engine in ENGINES, on a vlshift
    record other than `vlshift off` on a dla dump, and when the header is not
    the one emit_fabric_dump writes for the parsed tables.
    """
    header: list[tuple[str, str]] = []
    lft: list = []                    # [switch] -> ports, an array once all are read
    sl2vl: list[list] = []            # [switch] -> sl2vl rows, split by out port once all are read
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}  # interned: equal rows share one tuple
    vl_texts: dict[str, tuple[int, ...]] = {}  # the VL text of each sl2vl row checked so far
    radix = None                      # set by switch 0's first out 1 row
    ports = table = None              # this switch's LFT while lid records may come; its sl2vl rows

    def fail(lineno, why):
        raise MalformedDump(f"line {lineno}: {why}")

    for lineno, line in enumerate(_lines(text), 1):
        # a line as emit_fabric_dump writes it takes one prefix test; any other, the split below
        if ports is not None:
            head = f"lid {len(ports)} port "
            if line.startswith(head) and line[len(head):].isdecimal():
                ports.append(int(line[len(head):]))
                continue
        elif radix and table is not None:
            head = f"sl2vl out {len(table) // radix} in {len(table) % radix}: "
            vls = vl_texts.get(line[len(head):]) if line.startswith(head) else None
            if vls is not None:
                table.append(vls)
                continue
        words = line.split()
        if not words:
            continue
        key = words[0]
        if key == "lid":
            if ports is None:
                fail(lineno, "a lid record must follow a switch record or a lid record")
            port = words[-1]
            if words != ["lid", str(len(ports)), "port", port] or not port.isdecimal():
                fail(lineno, f"expected lid {len(ports)} port <port>")
            ports.append(int(port))
        elif key == "sl2vl":  # sl2vl out <op> in <ip>: v0 v1 ... v15
            if table is None or len(words) != 5 + MAX_SLS:
                fail(lineno, "bad sl2vl line")
            ports = None  # no lid record after the first sl2vl row
            if radix is None and words[2:5] == ["1", "in", "0:"]:
                radix = len(table)  # switch 0's first out 1 row
            op, ip = divmod(len(table), radix) if radix else (0, len(table))
            if words[1:5] != ["out", str(op), "in", f"{ip}:"]:
                fail(lineno, f"expected sl2vl out {op} in {ip}:")
            if not all(map(str.isdecimal, words[5:])):
                fail(lineno, "sl2vl entries must be integers")
            vls = tuple(map(int, words[5:]))
            if max(vls) >= MAX_SLS:
                fail(lineno, "VL index out of range 0..15")
            vls = vl_texts[" ".join(words[5:])] = rows.setdefault(vls, vls)
            table.append(vls)
        elif key == "switch":
            if words != ["switch", str(len(lft))]:
                fail(lineno, f"expected switch {len(lft)}: switch ids must be dense and in order")
            ports, table = [], []
            lft.append(ports)
            sl2vl.append(table)
        elif key in ("engine", "vlshift", "sls", "vls", "slpolicy", "groupmap"):
            if lft:
                fail(lineno, f"{key} record after the switch records")
            header.append((key, " ".join(words[1:])))
        else:
            fail(lineno, f"unknown record {key!r}")

    if not lft:
        raise MalformedDump("no switch records")
    # switch 0 fixes the endnode count, and the radix unless its rows all had out 0
    num_endnodes, radix = len(lft[0]), radix or len(sl2vl[0])
    typecode = _port_typecode(radix)
    for s, (ports, table) in enumerate(zip(lft, sl2vl)):
        if len(ports) != num_endnodes:
            raise MalformedDump(f"switch {s}: LFT is not total over 0..{num_endnodes - 1}")
        if len(table) != radix * radix:
            raise MalformedDump(f"switch {s}: SL2VL table is not total over the radix")
        if ports and max(ports) >= radix:
            dst = next(d for d, port in enumerate(ports) if port >= radix)
            raise MalformedDump(f"switch {s}: lid {dst} port {ports[dst]} is beyond radix {radix}")
        lft[s] = array(typecode, ports)
        sl2vl[s] = [table[op:op + radix] for op in range(0, radix * radix, radix)]
    if not header or header[0][0] != "engine":
        raise MalformedDump("missing engine header: the dump must open with an engine record")
    fields = dict(header)
    groupmap = fields.get("groupmap", "0 " * len(lft)).split()  # none: all in SL group 0
    if len(groupmap) != len(lft) or not all(map(str.isdecimal, groupmap)):
        raise MalformedDump("groupmap must give one integer SL group per switch")
    engine, vlshift = header[0][1], fields.get("vlshift")
    if engine not in ENGINES:
        raise MalformedDump(f"engine {engine!r}: the engines are {', '.join(sorted(ENGINES))}")
    if vlshift not in (None, "off"):
        raise MalformedDump(f"vlshift {vlshift!r}: the only value is off")
    if vlshift and engine != "dla":
        raise MalformedDump(
            f"vlshift off does not match the tables: engine {engine} has no VL shift")

    config = RoutingConfig(engine=engine, lft=lft, sl2vl=sl2vl,
                           sl_groups=tuple(map(int, groupmap)), vl_shift_disabled=vlshift == "off")
    want = list(_dump_header(config).items())
    if header != want:
        got, give = next(p for p in zip_longest(header, want, fillvalue=("none",)) if p[0] != p[1])
        raise MalformedDump(f"header record {' '.join(got)} does not match the tables, "
                            f"which give {' '.join(give)}")
    return config
