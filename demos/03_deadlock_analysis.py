"""Prove deadlock freedom — and exhibit a deadlock — via channel dependencies.

Every ordered endnode pair contributes its route to the channel dependency
graph: vertices are (directed channel, VL) pairs, edges are consecutive
occupancies. No directed cycle means no packet can ever wait on itself.
"""

from dflysim import DragonflyParams, build_cdg, build_topology, check_deadlock_free, synthesize

params = DragonflyParams(4, 2, 2)
topo = build_topology(params)

for engine in ("dla", "d3r", "updn"):
    config = synthesize(topo, engine)
    cdg = build_cdg(topo, config)
    report = check_deadlock_free(cdg)
    print(f"{engine:5s} CDG: {len(cdg.vertices):4d} vertices, "
          f"{cdg.num_edges:4d} dependencies -> "
          f"{'ACYCLIC (deadlock free)' if report.acyclic else 'CYCLIC'}")

print()
print("Suppressing the dla VL shift leaves local->global->local dependencies")
print("on one lane, and a cycle appears:")
config = synthesize(topo, "dla", vl_shift=False)
report = check_deadlock_free(build_cdg(topo, config))
assert not report.acyclic
print(report.describe(topo))
print()
print("Each line above is one channel the cycle occupies; the flows shown are")
print("endnode pairs whose routes create those dependencies. Filling all of")
print("them at once wedges the fabric (the simulator demo can reproduce it).")
