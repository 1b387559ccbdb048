"""Synthesize the three routing engines and peek at their tables.

All three produce a total per-switch forwarding table (destination endnode
-> output port). They differ in how routes map to virtual lanes:

  dla   one service level; the SL2VL tables shift a packet to VL 1 when it
        enters a local channel straight after a global one (1 SL, 2 VLs)
  d3r   two service levels chosen by destination-group order; each route
        keeps one VL for its whole length (2 SLs, 2 VLs)
  updn  spanning-tree up*/down* routes, everything on VL 0 (1 SL, 1 VL)
"""

from dflysim import DragonflyParams, build_topology, discover_groups, emit_fabric_dump, synthesize
from dflysim.routing import route_walk

params = DragonflyParams(4, 2, 2)
topo = build_topology(params)

groups = discover_groups(topo)  # switch -> group, numbered by smallest switch
print(f"group discovery from the bare switch graph: {max(groups) + 1} groups "
      f"of {groups.count(0)} (switch -> group: {groups[:10]} ...)")
print()

for engine in ("dla", "d3r", "updn"):
    config = synthesize(topo, engine)
    sls, vls = config.resources
    print(f"{engine}: {sls} SL(s), {vls} VL(s)")
    for src, dst in ((0, 1), (0, 6), (0, 70)):
        seq = route_walk(topo, config, src, dst)
        hops = " -> ".join(f"{ch.kind}@vl{vl}" for ch, vl in seq)
        print(f"  h{src} to h{dst}: {hops}")
    print()

print("The dla SL2VL tables depend only on the (output kind, input kind) pair:")
config = synthesize(topo, "dla")
tc, lc, gc = 0, 2, 5  # representative ports: p=2 terminals, then locals, then globals
for name_op, op in (("terminal", tc), ("local", lc), ("global", gc)):
    for name_ip, ip in (("terminal", tc), ("local", lc), ("global", gc)):
        vl = config.sl2vl[0][op][ip][0]
        print(f"  out={name_op:9s} in={name_ip:9s} -> VL {vl}")

print()
dump = emit_fabric_dump(config)
print(f"fabric dump: {len(dump.splitlines())} lines; first five:")
for line in dump.splitlines()[:5]:
    print(" ", line)
