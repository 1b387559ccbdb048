"""Measure accepted throughput with the flit-level simulator.

Short windows keep this demo under half a minute; the shipped manifest
(manifests/desk72.manifest) runs the full study. Accepted throughput is
normalized to the link rate and measured after warm-up only.
"""

from dflysim import DeadlockDetected, DragonflyParams, UniformTraffic, build_topology, synthesize
from dflysim.simulator import SimConfig, run_sim, sweep

params = DragonflyParams(4, 2, 2)
topo = build_topology(params)
loads = [0.2, 0.5, 0.8, 1.0]

print(f"{params.label()}: uniform traffic, 16 packets per VL, short windows")
print(f"{'load':>6s} " + " ".join(f"{e + ('+voq' if v else ''):>9s}"
                                  for e in ("dla", "updn") for v in (True, False)))
columns = []
for engine in ("dla", "updn"):
    routing = synthesize(topo, engine)
    for voq in (True, False):
        base = SimConfig(topology=topo, routing=routing, pattern=UniformTraffic(),
                         voq=voq, buffer_depth=16, seed=1,
                         warmup_s=0.1e-3, measure_s=0.4e-3)
        columns.append([r.accepted for r in sweep(base, loads)])
for i, load in enumerate(loads):
    print(f"{load:6.1f} " + " ".join(f"{col[i]:9.3f}" for col in columns))

print()
print("The up*/down* engine saturates early: most routes climb through the")
print("spanning-tree root, which becomes the bottleneck. Virtual output")
print("queuing lifts every engine by relieving head-of-line blocking.")

print()
print("A configuration with cyclic channel dependencies does not just run")
print("slowly, it can stop. The dla variant without its VL shift, minimal")
print("buffering, full load:")
bad = synthesize(topo, "dla", vl_shift=False)
config = SimConfig(topology=topo, routing=bad, pattern=UniformTraffic(),
                   offered_load=1.0, voq=False, buffer_depth=1, seed=1,
                   warmup_s=0.1e-3, measure_s=3e-3)
try:
    result = run_sim(config)
    print(f"survived this seed with accepted={result.accepted:.3f} "
          f"(try more seeds; the dependency cycle is real)")
except DeadlockDetected as exc:
    print(f"DeadlockDetected: {exc}")
