"""Independent oracles used by the tests.

Each oracle recomputes an expected value from first principles (structure
walks, BFS, exhaustive enumeration) without touching the code paths under
test, so agreement is meaningful.
"""

from collections import Counter, deque

from dflysim.deadlock import ChannelDependencyGraph, DeadlockReport
from dflysim.routing import _ZERO_ROW, ENGINES, RoutingConfig, _kind_tables, route_walk
from dflysim.topology import GLOBAL, Topology


def canonical_route_channels(topo: Topology, src: int, dst: int) -> list[int]:
    """Channel ids of the canonical minimal Dragonfly route for one pair.

    Derived from the wiring alone: optional local hop to the switch owning
    the global channel toward the destination group (lowest switch id, lowest
    port), the global hop, optional local hop to the destination switch.
    """
    p = topo.params.p
    ss, sd = src // p, dst // p
    chans = [topo.channel_at("h", src, 0).cid]
    if ss != sd:
        gs, gd = topo.switch_group[ss], topo.switch_group[sd]
        if gs == gd:
            chans.append(topo.channel_at("s", ss, topo.local_port(ss, sd)).cid)
        else:
            a = topo.params.a
            gate = None
            # the source switch uses its own global channel when it has one;
            # otherwise the lowest (switch, port) owning a cable to the group
            candidates = [ss] + [s for s in range(gs * a, gs * a + a) if s != ss]
            for s in candidates:
                for port, peer_sw, peer_group in sorted(topo.global_ports(s)):
                    if peer_group == gd:
                        gate = (s, port, peer_sw)
                        break
                if gate:
                    break
            assert gate is not None, "fully-connected pattern guarantees a cable"
            s_gate, port, land = gate
            if s_gate != ss:
                chans.append(topo.channel_at("s", ss, topo.local_port(ss, s_gate)).cid)
            chans.append(topo.channel_at("s", s_gate, port).cid)
            if land != sd:
                chans.append(topo.channel_at("s", land, topo.local_port(land, sd)).cid)
    chans.append(topo.channel_at("s", sd, dst % p).cid)
    return chans


def brute_force_flow_counts(topo: Topology) -> Counter:
    """Traversal count per channel id over all N(N-1) canonical routes."""
    n = topo.num_endnodes
    counts: Counter = Counter()
    for src in range(n):
        for dst in range(n):
            if src != dst:
                counts.update(canonical_route_channels(topo, src, dst))
    return counts


def brute_force_cdg(topo: Topology, config) -> ChannelDependencyGraph:
    """The CDG from walking all N(N-1) routes one by one (the original builder).

    Pairs go in src-major order, so each edge's witness is the first pair whose
    route holds it, and a RoutingLoop comes from the first pair that fails.
    """
    n = topo.num_endnodes
    vertices = set()
    succ = {}
    witness = {}
    for src in range(n):
        for dst in range(n):
            if dst == src:
                continue
            prev = None
            for ch, vl in route_walk(topo, config, src, dst):
                v = (ch.cid, vl)
                vertices.add(v)
                if prev is not None:
                    bucket = succ.setdefault(prev, set())
                    if v not in bucket:
                        bucket.add(v)
                        witness[(prev, v)] = (src, dst)
                prev = v
    return ChannelDependencyGraph(vertices=vertices, succ=succ, witness=witness)


def cyclic_sccs(cdg: ChannelDependencyGraph) -> list[list]:
    """Tarjan SCCs (iterative, deterministic order); only cycle-bearing ones."""
    adj = cdg.succ
    index: dict = {}
    lowlink: dict = {}
    onstack: set = set()
    stack: list = []
    counter = 0
    out: list[list] = []

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


def tarjan_deadlock_report(cdg: ChannelDependencyGraph) -> DeadlockReport:
    """The original cycle check: Tarjan SCCs, then a BFS inside one SCC.

    The witness starts at the smallest vertex of any cycle-bearing SCC and
    follows a shortest cycle through it (sorted neighbour order).
    """
    bad = cyclic_sccs(cdg)
    if not bad:
        return DeadlockReport(acyclic=True)
    start = min(min(comp) for comp in bad)
    comp = next(set(c) for c in bad if start in c)
    parent = {}
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
    flows = tuple(cdg.witness[(u, cycle[(i + 1) % len(cycle)])] for i, u in enumerate(cycle))
    return DeadlockReport(acyclic=False, cycle=cycle, inducing_flows=flows)


def switch_adjacency_simple(topo: Topology) -> dict[int, set[int]]:
    return {s: set(nbrs) for s, nbrs in topo.switch_adjacency().items()}


def bfs_distances(adj: dict[int, set[int]], start: int) -> dict[int, int]:
    dist = {start: 0}
    dq = deque([start])
    while dq:
        v = dq.popleft()
        for u in sorted(adj[v]):
            if u not in dist:
                dist[u] = dist[v] + 1
                dq.append(u)
    return dist


def lft_switch_path(topo: Topology, config, src: int, dst: int) -> list[int]:
    """Switches visited between (and including) source and destination switch."""
    cur = topo.switch_of(src)
    path = [cur]
    sd = topo.switch_of(dst)
    for _ in range(topo.num_switches + 1):
        if cur == sd:
            return path
        op = config.lft[cur][dst]
        peer = topo.peer[cur][op]
        assert peer is not None and peer[0] == "s", "mid-route hop must be a switch"
        cur = peer[1]
        path.append(cur)
    raise AssertionError(f"no delivery for pair ({src}, {dst})")


def updn_rank_fn(topo: Topology):
    """(level, id) rank used by the up*/down* orientation, recomputed here."""
    adj = switch_adjacency_simple(topo)
    level = bfs_distances(adj, 0)

    def rank(v):
        return (level[v], v)

    return adj, rank


def legal_updn_distance(adj, rank, src_sw: int, dst_sw: int) -> float:
    """Shortest path among those shaped up*...down* (phase-graph BFS)."""
    if src_sw == dst_sw:
        return 0
    dist = {(src_sw, 0): 0}
    dq = deque([(src_sw, 0)])
    best = float("inf")
    while dq:
        v, ph = dq.popleft()
        d = dist[(v, ph)]
        for u in adj[v]:
            goes_down = rank(u) > rank(v)
            if not goes_down and ph == 1:
                continue
            state = (u, 1 if goes_down else 0)
            if state not in dist:
                dist[state] = d + 1
                if u == dst_sw:
                    best = min(best, d + 1)
                dq.append(state)
    return best


def channel_numbering(topo: Topology, config):
    """The deadlock-freedom certificate of config's engine: a rank per CDG vertex.

    Dally & Seitz (IEEE Trans. Comput. 1987): when every dependency climbs the
    numbering strictly, the CDG is acyclic. Injection channels rank lowest and
    delivery channels highest; a fabric channel (VL, kind, source switch s) ranks
      dla  (VL, 0 for local or 1 for global), the VL-shift argument of Kim,
           Dally, Scott & Abts (ISCA 2008);
      d3r  (VL, +-2g + [global]) with g = sl_groups[s], + on VL 0 (routes climb
           the group order) and - on VL 1 (routes descend it);
      updn up channels first by decreasing (level, switch) of s, then down
           channels by increasing (level, switch) of s (Autonet, Schroeder et
           al., IEEE JSAC 1991), with levels re-derived by BFS here.
    """
    _, switch_rank = updn_rank_fn(topo)

    def rank(vertex):
        cid, vl = vertex
        ch = topo.channels[cid]
        if ch.src[0] == "h":
            return (0,)
        if ch.dst[0] == "h":
            return (2,)
        s, is_global = ch.src[1], int(ch.kind == GLOBAL)
        if config.engine == "dla":
            return (1, vl, is_global)
        if config.engine == "d3r":
            g = config.sl_groups[s]
            return (1, vl, (2 * g if vl == 0 else -2 * g) + is_global)
        level, sw = switch_rank(s)
        if switch_rank(ch.dst[1]) < (level, sw):  # an up channel
            return (1, 0, -level, -sw)
        return (1, 1, level, sw)

    return rank


def descending_edges(cdg: ChannelDependencyGraph, rank) -> list:
    """CDG edges that do not climb the numbering strictly."""
    return [(u, v) for u, vs in cdg.succ.items() for v in vs if not rank(u) < rank(v)]


def all_simple_cycles_exist(vertices, succ) -> bool:
    """Exhaustive simple-cycle search (tiny graphs only): DFS with path set."""
    vertices = sorted(vertices)

    def dfs(start, v, on_path):
        for w in sorted(succ.get(v, ())):
            if w == start:
                return True
            if w > start and w not in on_path:  # canonical: cycle min vertex = start
                on_path.add(w)
                if dfs(start, w, on_path):
                    return True
                on_path.discard(w)
        return False

    for start in vertices:
        if dfs(start, start, {start}):
            return True
    return False


def sorted_scan_arbiter(last_granted, candidates, eligible):
    """Reference round-robin pick (the simulator's original arbiter).

    Sorts the keys, binary-searches the first key after `last_granted`, scans
    from there with wrap-around and returns the first eligible key, or None.
    """
    candidates = sorted(candidates)
    n = len(candidates)
    if n == 0:
        return None
    if last_granted is None:
        start = 0
    else:
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if candidates[mid] <= last_granted:
                lo = mid + 1
            else:
                hi = mid
        start = lo
    for k in range(n):
        key = candidates[(start + k) % n]
        if eligible(key):
            return key
    return None


def reference_synthesize(topo: Topology, engine: str, vl_shift: bool = True):
    """`synthesize` with the original table builders, which work per endnode pair.

    Minimal routes follow the topology's own grouping. The SL2VL tables come
    from the package; the LFT is built one (switch, destination) entry at a
    time: minimal routes by a `local_port` call or a dict lookup per switch
    pair, up*/down* routes by a tuple `min` per (switch, destination switch),
    and one Python step per endnode to expand switch-level next ports to
    endnodes. Its LFT rows stay plain lists, so it shares no row code with
    `synthesize`.
    """
    minimal, group_sls, vl_row = ENGINES[engine]
    group = tuple(topo.switch_group)
    if minimal:
        np_table = _reference_minimal_next_port(topo, group)
    else:
        np_table = _reference_updn_next_port(topo)
    return RoutingConfig(
        engine=engine,
        lft=_reference_expand_lft(topo, np_table),
        sl2vl=_kind_tables(topo, vl_row if vl_shift else lambda out_kind, in_kind: _ZERO_ROW),
        sl_groups=group if group_sls else (0,) * topo.num_switches,
        vl_shift_disabled=not vl_shift,
    )


def _reference_minimal_next_port(topo: Topology, gid):
    S = topo.num_switches
    # per switch: destination group -> lowest egress port
    egress: list[dict[int, int]] = [{} for _ in range(S)]
    # per group pair: lowest switch in src group owning a cable to dst group
    owner: dict[tuple[int, int], int] = {}
    for s in range(S):
        for port, peer_sw, _ in sorted(topo.global_ports(s)):
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
                row[t] = topo.local_port(s, t)
            elif gt in egress[s]:
                row[t] = egress[s][gt]
            else:
                row[t] = topo.local_port(s, owner[(gs, gt)])
    return np_table


def _reference_expand_lft(topo: Topology, np_table) -> list[list[int]]:
    p = topo.params.p
    n = topo.num_endnodes
    lft = []
    for s in range(topo.num_switches):
        row = [0] * n
        nprow = np_table[s]
        for e in range(n):
            sd = e // p
            row[e] = e % p if sd == s else nprow[sd]
        lft.append(row)
    return lft


def _reference_updn_next_port(topo: Topology):
    adj = topo.switch_adjacency()
    S = topo.num_switches
    level = [-1] * S
    level[0] = 0
    dq = deque([0])
    while dq:
        cur = dq.popleft()
        for nb in sorted(adj[cur]):
            if level[nb] < 0:
                level[nb] = level[cur] + 1
                dq.append(nb)

    def rank(v):
        return (level[v], v)

    up_nbrs = [sorted((u for u in adj[v] if rank(u) < rank(v)), key=rank) for v in range(S)]
    down_nbrs = [sorted((u for u in adj[v] if rank(u) > rank(v))) for v in range(S)]
    by_rank = sorted(range(S), key=rank)
    inf = float("inf")

    np_table = [[-1] * S for _ in range(S)]
    for d in range(S):
        # shortest all-down distance to d (reverse BFS climbs toward lower ranks)
        ad = [inf] * S
        ad[d] = 0
        dq = deque([d])
        while dq:
            cur = dq.popleft()
            for x in up_nbrs[cur]:
                if ad[x] is inf:
                    ad[x] = ad[cur] + 1
                    dq.append(x)
        r = list(ad)
        for v in by_rank:
            if v == d:
                continue
            if ad[v] is not inf:
                nh = min(u for u in down_nbrs[v] if ad[u] == ad[v] - 1)
            else:
                cost, nh = min((r[u] + 1, u) for u in up_nbrs[v])
                r[v] = cost
            np_table[v][d] = min(adj[v][nh])
    return np_table
