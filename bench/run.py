#!/usr/bin/env python3
"""Layered host-time benchmark for dflysim.

Run one workload from the repository root:

    python3 bench/run.py --workload sat72 --seed 3 --seconds 10 --trace 0

Every workload is a closed loop: one caller issues the next package call
when the previous one returns. Inside the simulator, injection stays the
model's own open-loop Bernoulli process in simulated time.

  sat72    the 72-endnode fabric (4,2,2): uniform traffic at offered load
           1.0, 16 pkt/VL, all six {dla,d3r,updn} x {VOQ, no VOQ} runs at
           the seed, plus two fixed-seed canaries (stencil3d, hotspot).
           Arbitration under full contention dominates; deadlock is idle.
  sweep72  a small manifest at 72 endnodes (hotspot, stencil3d and uniform;
           loads 0.1-0.5; no-VOQ; buffers 1-4) through run_manifest with
           jobs=2, then re-run unchanged (resume). At low load the injection
           scan, deliveries and credit stalls dominate, not arbitration.
  verify   build_cdg + check_deadlock_free for every engine at 342 and 1056
           endnodes, the shift-disabled dla witness at 72 and 342 and the
           fabric dump round trip at 342; synthesis from 72 to 2550 endnodes
           happens in set-up. Route walks dominate; the simulator is idle.

A run repeats its workload's timed pass until --seconds have passed (at
least once) and reports medians over passes. Set-up (import, topology
builds, group discovery, synthesis) is repeated 8 to 80 times: at least 8
times whatever one set-up costs, and more until 6 s have passed. Half the
repetitions run before the passes and half after them, and set-up is
reported as their median. All timings are host time
(time.perf_counter).
Simulated quantities are checked for exact equality against the pinned
goldens in goldens.json and are never used as speed metrics.

With --trace 1 the run alternates untraced and traced passes. Traced passes
record a span around each package call (name, start, end, parent span,
operation id); the spans stay in memory and are written to
bench/out/trace-<workload>-seed<seed>.json at the end. From them the run
reports per-layer self time and the tracing overhead.

Lines before the last are `e2e|layer|info <name> <value> <unit>`. The last
line is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (0 where the workload does not exercise
that call).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "dflysim")
OUT = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens.json")

ENGINES = ("dla", "d3r", "updn")
LAYERS = ("topology", "routing", "deadlock", "traffic", "simulator", "manifest")
PATTERNS = ("uniform", "stencil3d", "hotspot")
PINNED_SEEDS = (1, 2)  # seed 3 is held out: never pinned, for checking claims
# reference improvement-factor medians, as in tests/test_acceptance.py
REFERENCE_VOQ_FACTORS = {"dla": 1.428, "d3r": 2.373, "updn": 1.412}
# Each set-up repetition re-imports the package, which leaves a little memory
# behind; a fixed cap, reached before the time floor on the fast set-ups,
# keeps the repetition count and so peak_rss_mb from following host speed.
SETUP_MAX_REPS = 40  # per half
SWEEP_JOBS = 2
SPOT_PAIRS = 64  # seeded route walks cross-checked against each CDG

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
TRACE_ONLY_PREFIXES = ("self_s.", "trace.")
# Per-row times exist only where rows run serially through run_row, that is in
# traced runs: run_manifest with jobs > 1 gives no per-row timing.
SERIAL_ONLY_PREFIXES = ("manifest.row_s.",)


@dataclass(frozen=True)
class Scale:
    """Fabric sizes and windows of every workload; FULL is the benchmark."""

    name: str
    sim: tuple                # (a, h, p) of sat72 and sweep72
    synth: tuple              # fabrics built and synthesized in verify's set-up
    cdg: tuple                # fabrics whose CDG verify builds for every engine
    witness: tuple            # fabrics of the shift-disabled dla witness
    dump: tuple               # fabric of the d3r dump round trip
    sat_window: tuple         # (warm-up s, measure s) of the sat72 runs
    canary_window: tuple
    sweep_window_ms: tuple    # (warmup_ms, measure_ms) of every sweep row
    hotspot_fraction: float
    setup_reps: tuple         # set-up repeats at least (n times, s seconds)


FULL = Scale(
    name="full",
    sim=(4, 2, 2),
    synth=((4, 2, 2), (6, 3, 3), (8, 4, 4), (10, 5, 5)),
    cdg=((6, 3, 3), (8, 4, 4)),
    witness=((4, 2, 2), (6, 3, 3)),
    dump=(6, 3, 3),
    sat_window=(0.2e-3, 1.0e-3),
    canary_window=(0.05e-3, 0.2e-3),
    sweep_window_ms=(0.1, 0.5),
    hotspot_fraction=0.06,
    setup_reps=(8, 6.0),
)

# the (2,1,1) fabric and short windows, for the benchmark's own tests
TOY = Scale(
    name="toy",
    sim=(2, 1, 1),
    synth=((2, 1, 1), (4, 2, 2)),
    cdg=((2, 1, 1), (4, 2, 2)),
    witness=((2, 1, 1),),
    dump=(2, 1, 1),
    sat_window=(0.02e-3, 0.05e-3),
    canary_window=(0.02e-3, 0.05e-3),
    sweep_window_ms=(0.02, 0.05),
    hotspot_fraction=0.5,
    setup_reps=(2, 0.0),
)

# Sweep rows: unequal cost, low loads, both VOQ settings, buffers 1-4. The
# last row keeps seed 1 on every run so its results are pinned on any seed.
SWEEP_ROWS = (
    "engine=dla\nvoq=on\nbuffer=4\npattern=hotspot\nloads=0.1,0.3,0.5\nseeds={seed}",
    "engine=d3r\nvoq=off\nbuffer=2\npattern=stencil3d\nloads=0.2,0.4\nseeds={seed}",
    "engine=updn\nvoq=off\nbuffer=1\npattern=uniform\nloads=0.1,0.3,0.5\nseeds={seed}",
    "engine=dla\nvoq=off\nbuffer=1\npattern=stencil3d\nloads=0.5\nseeds={seed}",
    "engine=d3r\nvoq=on\nbuffer=3\npattern=hotspot\nloads=0.2,0.5\nseeds={seed}",
    "engine=updn\nvoq=on\nbuffer=2\npattern=stencil3d\nloads=0.1,0.4\nseeds=1",
)


def endnodes(fabric) -> int:
    a, h, p = fabric
    return a * p * (a * h + 1)


def sim_runs(scale: Scale):
    """sat72's runs: (key, engine, voq, pattern, fixed seed or None, window)."""
    runs = [(f"{e}.{'voq' if v else 'novoq'}", e, v, "uniform", None, scale.sat_window)
            for e in ENGINES for v in (True, False)]
    runs += [("dla.voq.stencil3d", "dla", True, "stencil3d", 1, scale.canary_window),
             ("d3r.novoq.hotspot", "d3r", False, "hotspot", 1, scale.canary_window)]
    return runs


def pattern_args(scale: Scale, pattern: str) -> dict:
    return {"fraction": scale.hotspot_fraction} if pattern == "hotspot" else {}


def _fabric_specs(fabrics):
    specs = []
    for f in fabrics:
        n = endnodes(f)
        specs += [(f"topology.build_s.{n}", "s"), (f"routing.discover_groups_s.{n}", "s")]
        specs += [(f"routing.synthesize_s.{e}.{n}", "s") for e in ENGINES]
    return specs


def layer_metric_specs(scale: Scale, workload: str | None = None):
    """(name, unit) of every per-layer metric of one workload, or of all."""
    common = [(f"self_s.{layer}", "s") for layer in LAYERS + ("bench",)]
    common += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
               ("trace.overhead_s", "s"), ("trace.spans", "count")]
    per = {}
    sat = _fabric_specs([scale.sim])
    for key, *_ in sim_runs(scale):
        sat += [(f"simulator.run_s.{key}", "s"), (f"simulator.pkts_per_s.{key}", "pkt/s"),
                (f"simulator.delivered_pkts.{key}", "count"),
                (f"simulator.backlog_pkts.{key}", "count")]
    per["sat72"] = sat
    sweep = [(f"traffic.bind_s.{p}", "s") for p in PATTERNS]
    sweep += [("manifest.parse_s", "s")]
    sweep += [(f"manifest.row_s.{i:02d}", "s") for i in range(1, len(SWEEP_ROWS) + 1)]
    sweep += [("manifest.resume_s", "s"), ("manifest.rows_skipped", "share"),
              ("manifest.output_bytes", "B")]
    per["sweep72"] = sweep
    ver = _fabric_specs(scale.synth)
    nd = endnodes(scale.dump)
    ver += [(f"routing.dump_roundtrip_s.{nd}", "s"), (f"routing.dump_bytes.{nd}", "B")]
    for e in ENGINES:
        for f in scale.cdg:
            n = endnodes(f)
            ver += [(f"deadlock.build_cdg_s.{e}.{n}", "s"),
                    (f"deadlock.routes_per_s.{e}.{n}", "1/s"),
                    (f"deadlock.cdg_edges.{e}.{n}", "count"),
                    (f"deadlock.check_s.{e}.{n}", "s")]
    ver += [(f"deadlock.witness_s.{endnodes(f)}", "s") for f in scale.witness]
    per["verify"] = ver
    if workload is not None:
        return per[workload] + common
    out, seen = [], set()
    for specs in list(per.values()) + [common]:
        for spec in specs:
            if spec[0] not in seen:
                seen.add(spec[0])
                out.append(spec)
    return out


# ---------------------------------------------------------------------------
# one run: operations, checks, spans, samples
# ---------------------------------------------------------------------------

@dataclass
class Report:
    metrics: dict            # name -> (value, unit), measured in this run
    info: dict               # name -> (value, unit), informational only
    attempted: int
    failed: int
    failures: list


class Run:
    """State of one benchmark run.

    op() times one closed-loop operation and counts it; a call that raises is
    a failed operation and the run goes on. expect() and require() mark the
    operation failed when an output differs from its golden or breaks an
    invariant. With tracing on, span() records each package call.
    """

    def __init__(self, workload, seed, scale, goldens, record, serial, out_dir):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.goldens = goldens
        self.record = record
        self.serial = serial
        self.out_dir = out_dir
        self.tracing = False
        self.phase = "setup"
        self.pass_no = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.samples: dict[str, list] = {}
        self.units: dict[str, str] = {}
        self.info: dict[str, tuple] = {}
        self.pass_wall = 0.0

    def span(self, name, fn, *args):
        if not self.tracing:
            return fn(*args)
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = {"id": sid, "parent": parent,
               "op": sid if parent is None else self.spans[parent]["op"],
               "name": name, "phase": self.phase, "pass": self.pass_no,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def op(self, name, fn, *args, metric=None):
        """Run one operation; returns (op id, result or None if it raised, seconds)."""
        opid = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.span(name, fn, *args)
        except Exception as exc:  # a raising call is a failed operation
            result = None
            self.fail(opid, f"{name}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        self.pass_wall += dt
        if metric:
            self.sample(metric, dt, "s")
        return opid, result, dt

    def skip(self, name, message):
        """Count an operation that cannot run because its input failed."""
        self.fail(self.attempted, f"{name}: {message}")
        self.attempted += 1

    def fail(self, opid, message):
        self.failed_ops.add(opid)
        self.failures.append(message)

    def require(self, opid, ok, message):
        if not ok:
            self.fail(opid, message)

    def expect(self, opid, key, value):
        key = f"{self.scale.name}/{self.workload}/{key}"
        if self.record is not None:
            self.record[key] = value
            return
        want = self.goldens.get(key)
        if want != value:
            self.fail(opid, f"{key}: got {value!r}, golden {want!r}")

    def expect_pinned(self, opid, key, value):
        """Seed-dependent golden: checked only on the pinned seeds."""
        if self.seed in PINNED_SEEDS:
            self.expect(opid, f"seed{self.seed}/{key}", value)

    def sample(self, name, value, unit):
        self.samples.setdefault(name, []).append(value)
        self.units[name] = unit


def _fresh_import():
    """Import the package from this checkout's src/, dropping any earlier
    import first so that every set-up repetition pays the import again."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "dflysim" or m.startswith("dflysim.")]:
        del sys.modules[name]
    dfly = importlib.import_module("dflysim")
    importlib.import_module("dflysim.manifest")
    if os.path.dirname(os.path.abspath(dfly.__file__)) != PKG:
        raise ImportError(f"dflysim was imported from {dfly.__file__}, not from {PKG}")
    return dfly


def _build_fabric(run, dfly, fabric, shiftless=False):
    """Topology, groups and every engine's tables for one fabric."""
    n = endnodes(fabric)
    _, topo, _ = run.op("topology.build_topology", dfly.build_topology,
                        dfly.DragonflyParams(*fabric), metric=f"topology.build_s.{n}")
    _, groups, _ = run.op("routing.discover_groups", dfly.discover_groups, topo,
                          metric=f"routing.discover_groups_s.{n}")
    routes = {}
    for e in ENGINES:
        _, routes[e], _ = run.op("routing.synthesize", dfly.synthesize, topo, e, groups,
                                 metric=f"routing.synthesize_s.{e}.{n}")
    if shiftless:
        _, routes["dla-noshift"], _ = run.op(
            "routing.synthesize", lambda: dfly.synthesize(topo, "dla", groups, vl_shift=False))
    return topo, routes


# ---------------------------------------------------------------------------
# sat72
# ---------------------------------------------------------------------------

def sat72_setup(run, dfly):
    return _build_fabric(run, dfly, run.scale.sim)


def sat72_pass(run, dfly, state):
    topo, routes = state
    n = endnodes(run.scale.sim)
    accepted = {}
    delivered = 0
    sim_s = 0.0
    for key, engine, voq, pattern, fixed_seed, (warm, measure) in sim_runs(run.scale):
        seed = run.seed if fixed_seed is None else fixed_seed
        cfg = dfly.SimConfig(
            topology=topo, routing=routes[engine],
            pattern=dfly.make_pattern(pattern, **pattern_args(run.scale, pattern)),
            offered_load=1.0, voq=voq, buffer_depth=16,
            warmup_s=warm, measure_s=measure, seed=seed)
        opid, res, dt = run.op("simulator.run_sim", dfly.run_sim, cfg,
                               metric=f"simulator.run_s.{key}")
        if res is None:
            continue
        run.require(opid, res.config_hash == cfg.config_hash, f"{key}: config hash")
        run.require(opid, (res.engine, res.voq, res.pattern, res.seed)
                    == (engine, voq, pattern, seed), f"{key}: result echoes another config")
        run.require(opid, 0.0 <= res.accepted <= 1.0, f"{key}: accepted {res.accepted}")
        run.require(opid, res.measured_packets <= res.delivered_packets <= res.injected_packets,
                    f"{key}: packet counts out of order")
        run.require(opid, len(res.per_endnode) == n, f"{key}: per-endnode length")
        if fixed_seed is None:
            run.expect_pinned(opid, f"{key}/result_hash", res.result_hash)
            accepted[(engine, voq)] = res.accepted
        else:
            run.expect(opid, f"{key}/result_hash", res.result_hash)
        run.sample(f"simulator.pkts_per_s.{key}", res.delivered_packets / dt, "pkt/s")
        run.sample(f"simulator.delivered_pkts.{key}", res.delivered_packets, "count")
        run.sample(f"simulator.backlog_pkts.{key}",
                   res.injected_packets - res.delivered_packets, "count")
        delivered += res.delivered_packets
        sim_s += dt
    if sim_s:
        run.sample("sim_pkts_per_s", delivered / sim_s, "pkt/s")
    for e in ENGINES:
        if accepted.get((e, False)) and (e, True) in accepted:
            factor = accepted[(e, True)] / accepted[(e, False)]
            ref = REFERENCE_VOQ_FACTORS[e]
            run.info[f"model.voq_factor.{e}"] = (factor, "ratio")
            run.info[f"model.voq_factor_rel_err.{e}"] = ((factor - ref) / ref, "share")


# ---------------------------------------------------------------------------
# sweep72
# ---------------------------------------------------------------------------

def sweep_manifest(scale: Scale, seed: int) -> str:
    a, h, p = scale.sim
    warm, measure = scale.sweep_window_ms
    rows = []
    for row in SWEEP_ROWS:
        text = f"params={a},{h},{p}\n{row.format(seed=seed)}\nwarmup_ms={warm}\nmeasure_ms={measure}"
        if "pattern=hotspot" in row:
            text += f"\nhotspot_fraction={scale.hotspot_fraction}"
        rows.append(text)
    return "version=1\n\n" + "\n\n".join(rows) + "\n"


def sweep72_setup(run, dfly):
    return sweep_manifest(run.scale, run.seed)


def _quiet(_line):
    pass


def _outputs(out_dir):
    """{file name: bytes} of a sweep output directory."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _digest(files) -> str:
    h = hashlib.sha256()
    for name, blob in sorted(files.items()):
        h.update(name.encode() + b"\0" + hashlib.sha256(blob).digest())
    return h.hexdigest()[:16]


def _resume_serial(run, m, manifest, out_dir):
    return [run.span("manifest.run_row", m.run_row, row, out_dir, manifest.manifest_hash)
            for row in manifest.rows]


def _check_row(run, sweep_op, row, files) -> int:
    """Check one row's JSON and CSV outputs; returns its delivered packets."""
    base = row.basename()
    doc = json.loads(files.get(base + ".json", b"{}"))
    csv = files.get(base + ".csv", b"").decode().splitlines()
    runs = doc.get("runs", [])
    run.require(sweep_op, doc.get("row_hash") == row.row_hash, f"{base}: row hash")
    run.require(sweep_op, len(runs) == len(row.loads) * len(row.seeds), f"{base}: run count")
    run.require(sweep_op, [line.split(",")[1] for line in csv[2:]]
                == [f"{r['accepted']:.6f}" for r in runs], f"{base}: CSV disagrees with JSON")
    hashes = [hashlib.sha256(repr((r["accepted"], tuple(r["per_endnode"]),
                                   r["measured_packets"])).encode()).hexdigest()[:16]
              for r in runs]
    if "{seed}" not in SWEEP_ROWS[row.index - 1]:
        run.expect(sweep_op, f"row{row.index:02d}/result_hashes", hashes)
    return sum(r["delivered_packets"] for r in runs)


def sweep72_pass(run, dfly, text):
    m = dfly.manifest
    n = endnodes(run.scale.sim)
    opid, manifest, _ = run.op("manifest.parse_manifest", m.parse_manifest, text,
                               metric="manifest.parse_s")
    if manifest is None:
        return
    run.require(opid, len(manifest.rows) == len(SWEEP_ROWS), "manifest row count")
    for pattern in PATTERNS:
        opid, bound, _ = run.op(
            "traffic.bind",
            lambda: dfly.make_pattern(pattern, **pattern_args(run.scale, pattern)).bind(n, run.seed),
            metric=f"traffic.bind_s.{pattern}")
        if bound is not None:
            counted = len(bound.counted_endnodes())
            run.require(opid, counted < n if pattern == "hotspot" else counted == n,
                        f"{pattern}: {counted} counted endnodes")

    os.makedirs(run.out_dir, exist_ok=True)
    out = tempfile.mkdtemp(prefix="sweep-", dir=run.out_dir)
    try:
        sweep_s = 0.0
        if run.serial:
            for row in manifest.rows:
                sweep_op, status, dt = run.op("manifest.run_row", m.run_row, row, out,
                                              manifest.manifest_hash,
                                              metric=f"manifest.row_s.{row.index:02d}")
                run.require(sweep_op, status == "done", f"row {row.index}: {status}")
                sweep_s += dt
        else:
            sweep_op, result, sweep_s = run.op(
                "manifest.run_manifest",
                lambda: m.run_manifest(manifest, out, jobs=SWEEP_JOBS, log=_quiet))
            run.require(sweep_op, [s for _, s, _ in result or ()] == ["done"] * len(manifest.rows),
                        f"row statuses {result}")
        files = _outputs(out)

        if run.serial:
            opid, resumed, _ = run.op("manifest.resume", _resume_serial, run, m, manifest, out,
                                      metric="manifest.resume_s")
            resumed = resumed or []
        else:
            opid, result, _ = run.op(
                "manifest.resume",
                lambda: m.run_manifest(manifest, out, jobs=SWEEP_JOBS, log=_quiet),
                metric="manifest.resume_s")
            resumed = [s for _, s, _ in result or ()]
        skipped = sum(s == "skipped" for s in resumed)
        run.sample("manifest.rows_skipped", skipped / len(manifest.rows), "share")
        run.require(opid, skipped == len(manifest.rows), f"resume statuses {resumed}")
        run.require(opid, _outputs(out) == files, "resume changed the output files")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    run.sample("manifest.output_bytes", sum(len(b) for b in files.values()), "B")
    run.expect_pinned(sweep_op, "output_digest", _digest(files))
    delivered = 0
    for row in manifest.rows:
        try:
            delivered += _check_row(run, sweep_op, row, files)
        except Exception as exc:  # a malformed output file fails the sweep
            run.fail(sweep_op, f"{row.basename()}: unreadable output: {type(exc).__name__}: {exc}")
    if sweep_s:
        run.sample("sim_pkts_per_s", delivered / sweep_s, "pkt/s")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_setup(run, dfly):
    return {f: _build_fabric(run, dfly, f, shiftless=f in run.scale.witness)
            for f in run.scale.synth}


def _edge_digest(cdg) -> str:
    h = hashlib.sha256()
    for u in sorted(cdg.succ):
        for v in sorted(cdg.succ[u]):
            h.update(f"{u[0]},{u[1]},{v[0]},{v[1]};".encode())
    return h.hexdigest()[:16]


def _route(dfly, topo, cfg, src, dst):
    return [(ch.cid, vl) for ch, vl in dfly.routing.route_walk(topo, cfg, src, dst)]


def _witness(run, dfly, topo, cfg):
    cdg = run.span("deadlock.build_cdg", dfly.build_cdg, topo, cfg)
    return cdg, run.span("deadlock.check_deadlock_free", dfly.check_deadlock_free, cdg)


def _roundtrip(run, dfly, cfg):
    text = run.span("routing.emit_fabric_dump", dfly.emit_fabric_dump, cfg)
    parsed = run.span("routing.parse_fabric_dump", dfly.parse_fabric_dump, text)
    return text, run.span("routing.emit_fabric_dump", dfly.emit_fabric_dump, parsed)


def verify_pass(run, dfly, fabrics):
    rng = random.Random(run.seed)
    for f in run.scale.cdg:
        topo, routes = fabrics[f]
        n = endnodes(f)
        for e in ENGINES:
            tag = f"{e}.{n}"
            opid, cdg, dt = run.op("deadlock.build_cdg", dfly.build_cdg, topo, routes[e],
                                   metric=f"deadlock.build_cdg_s.{tag}")
            if cdg is None:
                run.skip("deadlock.check_deadlock_free", f"{tag}: no CDG to check")
                continue
            run.sample(f"deadlock.routes_per_s.{tag}", n * (n - 1) / dt, "1/s")
            run.sample(f"deadlock.cdg_edges.{tag}", cdg.num_edges, "count")
            run.expect(opid, f"{tag}/edges", cdg.num_edges)
            run.expect(opid, f"{tag}/vertices", len(cdg.vertices))
            run.expect(opid, f"{tag}/edge_digest", _edge_digest(cdg))
            for _ in range(SPOT_PAIRS):
                src, dst = rng.sample(range(n), 2)
                seq = _route(dfly, topo, routes[e], src, dst)
                run.require(opid, all(v in cdg.succ.get(u, ()) for u, v in zip(seq, seq[1:])),
                            f"{tag}: route {src}->{dst} has a dependency missing from the CDG")
            opid, report, _ = run.op("deadlock.check_deadlock_free", dfly.check_deadlock_free,
                                     cdg, metric=f"deadlock.check_s.{tag}")
            if report is not None:
                run.require(opid, report.acyclic, f"{tag}: cyclic CDG")
            del cdg

    for f in run.scale.witness:
        topo, routes = fabrics[f]
        n = endnodes(f)
        cfg = routes["dla-noshift"]
        opid, result, _ = run.op("deadlock.witness", _witness, run, dfly, topo, cfg,
                                 metric=f"deadlock.witness_s.{n}")
        if result is None:
            continue
        cdg, report = result
        run.require(opid, not report.acyclic, f"witness {n}: shift-disabled dla reported acyclic")
        cycle, flows = report.cycle, report.inducing_flows
        run.expect(opid, f"witness.{n}/cycle", repr((cycle, flows)))
        for i, u in enumerate(cycle):
            v = cycle[(i + 1) % len(cycle)]
            run.require(opid, v in cdg.succ.get(u, ()), f"witness {n}: edge {u}->{v} not in CDG")
            seq = _route(dfly, topo, cfg, *flows[i])
            run.require(opid, any(seq[k] == u and seq[k + 1] == v for k in range(len(seq) - 1)),
                        f"witness {n}: flow {flows[i]} does not induce {u}->{v}")

    topo, routes = fabrics[run.scale.dump]
    n = endnodes(run.scale.dump)
    opid, result, _ = run.op("routing.dump_roundtrip", _roundtrip, run, dfly, routes["d3r"],
                             metric=f"routing.dump_roundtrip_s.{n}")
    if result is not None:
        text, again = result
        blob = text.encode()
        run.require(opid, again == text, "dump round trip is not byte-identical")
        run.sample(f"routing.dump_bytes.{n}", len(blob), "B")
        run.expect(opid, f"dump.{n}/bytes", len(blob))
        run.expect(opid, f"dump.{n}/digest", hashlib.sha256(blob).hexdigest()[:16])


WORKLOADS = {
    "sat72": (sat72_setup, sat72_pass),
    "sweep72": (sweep72_setup, sweep72_pass),
    "verify": (verify_setup, verify_pass),
}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def _self_times(spans, wall):
    """Per-layer self time of one traced pass; 'bench' is what no span covers."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".")[0]
        out[layer] += s["end"] - s["start"] - child.get(s["id"], 0.0)
    out["bench"] = wall - sum(out.values())
    return out


def _src_loc():
    loc = {}
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                loc[name[:-3]] = sum(1 for line in fh if line.strip())
    return loc


def run_workload(workload, seed, seconds, trace, scale=FULL, goldens=None, record=None,
                 out_dir=OUT) -> Report:
    """Set up repeatedly, then repeat the timed pass for `seconds`.

    With `trace`, untraced and traced passes alternate (sweep72 then runs its
    rows serially through run_row in both), and the spans are written to
    out_dir. `record`, when a dict, collects observed goldens instead of
    checking them.
    """
    if goldens is None and record is None:
        with open(GOLDENS) as fh:
            goldens = json.load(fh)
    setup, one_pass = WORKLOADS[workload]
    run = Run(workload, seed, scale, goldens, record, bool(trace), out_dir)

    def set_up(min_reps, min_s):
        """Repeat set-up at least min_reps times and for min_s; returns the last."""
        run.phase = "setup"
        started = time.perf_counter()
        reps, state = 0, None
        while reps < min_reps or (
                reps < SETUP_MAX_REPS and time.perf_counter() - started < min_s):
            state = None
            gc.collect()  # every repetition starts from the same heap
            t0 = time.perf_counter()
            dfly = run.span("bench.import", _fresh_import)
            state = setup(run, dfly)
            run.sample("setup_s", time.perf_counter() - t0, "s")
            reps += 1
        return dfly, state

    # Half the set-up repetitions run before the passes and half after them,
    # so that their median spans the run and not only its start.
    run.tracing = bool(trace)
    min_reps, min_s = scale.setup_reps
    dfly, state = set_up((min_reps + 1) // 2, min_s / 2)

    run.phase = "pass"
    started = time.perf_counter()
    while run.pass_no == 0 or time.perf_counter() - started < seconds:
        for traced in ((False, True) if trace else (False,)):
            run.tracing = traced
            run.pass_no += 1
            run.pass_wall = 0.0
            gc.collect()
            one_pass(run, dfly, state)
            if not traced:
                run.sample("trace.untraced_wall_s" if trace else "wall_s", run.pass_wall, "s")
                continue
            run.sample("trace.wall_s", run.pass_wall, "s")
            spans = [s for s in run.spans if s["phase"] == "pass" and s["pass"] == run.pass_no]
            run.sample("trace.spans", len(spans), "count")
            for layer, t in _self_times(spans, run.pass_wall).items():
                run.sample(f"self_s.{layer}", t, "s")
    run.tracing = False
    state = None
    set_up(min_reps // 2, min_s / 2)

    metrics = {name: (statistics.median(v), run.units[name]) for name, v in run.samples.items()}
    if trace:
        metrics["wall_s"] = metrics["trace.untraced_wall_s"]
        metrics["trace.overhead_s"] = (
            metrics["trace.wall_s"][0] - metrics["trace.untraced_wall_s"][0], "s")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "scale": scale.name,
                       "spans": run.spans}, fh)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    metrics["failed_share"] = (len(run.failed_ops) / run.attempted, "share")
    info = dict(run.info)
    for module, loc in _src_loc().items():
        info[f"src.loc.{module}"] = (loc, "lines")
    return Report(metrics, info, run.attempted, len(run.failed_ops), run.failures)


def result_line(report: Report, trace: bool, scale=FULL) -> dict:
    """The closing JSON object; metrics a workload does not exercise read 0."""
    specs = layer_metric_specs(scale) if trace else END_TO_END
    return {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics.get(name, (0, unit))[0], "unit": unit}
                    for name, unit in specs},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        print(f"no dflysim package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    e2e = {name for name, _ in END_TO_END} | {"sim_pkts_per_s", "failed_share"}
    for name, (value, unit) in sorted(report.metrics.items()):
        print(f"{'e2e' if name in e2e else 'layer'} {name} {value} {unit}")
    for name, (value, unit) in sorted(report.info.items()):
        print(f"info {name} {value} {unit}")
    for message in report.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
