"""Build fully-connected Dragonfly fabrics and inspect their structure.

A Dragonfly is set by three numbers: a switches per group, h global links
per switch, p endnodes per switch. The maximal fabric uses g = a*h + 1
groups, one global cable between every pair of groups.
"""

from dflysim import DragonflyParams, analytic_flow_counts, build_topology, channel_kind

for shape in ("1,1,1,2", "4,2,2", "3,3,2,7", "10,5,5"):
    params = DragonflyParams.parse(shape)
    topo = build_topology(params)
    print(f"{params.label():14s} endnodes={params.num_endnodes:<5d} "
          f"switches={params.num_switches:<4d} radix={params.radix:<3d} "
          f"balanced={params.a == 2 * params.h == 2 * params.p}")

print()
print("Channel mix of the 72-endnode reference fabric (a=4, h=2, p=2):")
params = DragonflyParams(4, 2, 2)
topo = build_topology(params)
by_kind = {}
for ch in topo.channels:
    by_kind[ch.kind] = by_kind.get(ch.kind, 0) + 1
for kind, count in sorted(by_kind.items()):
    print(f"  {kind}: {count} directed channels")

print()
print("First lines of the deterministic channel dump:")
for line in topo.dump().splitlines()[:6]:
    print(" ", line)
print("  ...")

print()
print("Port classification at switch s0:")
for port in range(params.radix):
    print(f"  s0 port {port}: {channel_kind(topo, 's0', port)}")

print()
print("Per-channel flow counts under minimal routing (one flow per ordered")
print("endnode pair). Terminal channels carry the most, global the fewest,")
print("and the global/local ratio approaches 1 as the fabric grows:")
for p in (1, 2, 3, 4, 5):
    params = DragonflyParams(2 * p, p, p)
    fc = analytic_flow_counts(params)
    print(f"  {params.label():14s} N={params.num_endnodes:<5d} "
          f"ft={fc.f_t:<6d} fg={fc.f_g:<6d} fl={fc.f_l:<6d} "
          f"fg/fl={fc.ratio_g_over_l:.4f}")
