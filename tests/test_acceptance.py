"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 4-6 share one
desk-scale measurement campaign (72 endnodes, uniform traffic, 16 pkt/VL,
fixed seed ensemble) keeping the whole module within its runtime budget.
"""

import concurrent.futures
import functools
import json
import multiprocessing
import os
import statistics
import time

import pytest

from dflysim import (
    DragonflyParams,
    UniformTraffic,
    analytic_flow_counts,
    build_cdg,
    build_topology,
    check_deadlock_free,
    synthesize,
)
from dflysim.manifest import parse_manifest, run_manifest
from dflysim.routing import route_walk
from dflysim.simulator import SimConfig, run_sim
from dflysim.topology import GLOBAL, LOCAL, TERMINAL

from oracles import brute_force_flow_counts

SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
T_975_7DF = 2.365  # two-sided 95 % Student t quantile, len(SEEDS) - 1 degrees of freedom
# reference improvement-factor medians used for the reported (non-gated) bands
REFERENCE_VOQ_FACTORS = {"dla": 1.428, "d3r": 2.373, "updn": 1.412}


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


# ---------------------------------------------------------------------------
# 1. analytic/oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_flow_count_equivalence():
    started = time.perf_counter()
    balanced = []
    p = 1
    while True:
        params = DragonflyParams(2 * p, p, p)
        if params.num_endnodes > 100:
            break
        balanced.append(params)
        p += 1
    assert balanced, "at least one balanced fabric under 100 endnodes"
    for params in balanced:
        a, h, pp = params.a, params.h, params.p
        n = params.num_endnodes
        fc = analytic_flow_counts(params)
        assert fc.f_t == n - 1
        assert fc.f_g == (a * pp) ** 2
        assert fc.f_l == (a * pp) ** 2 + pp ** 2
        topo = build_topology(params)
        counts = brute_force_flow_counts(topo)
        expected = {TERMINAL: fc.f_t, GLOBAL: fc.f_g, LOCAL: fc.f_l}
        for ch in topo.channels:
            assert counts[ch.cid] == expected[ch.kind], (params.label(), ch.kind)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    _report(1, f"route enumeration matches the closed forms exactly on "
               f"{[p.label() for p in balanced]} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. deadlock-freedom suite
# ---------------------------------------------------------------------------

def test_criterion_2_deadlock_freedom_suite():
    started = time.perf_counter()
    for a, h, p in ((4, 2, 2), (6, 3, 3)):
        topo = build_topology(DragonflyParams(a, h, p))
        for engine in ("dla", "d3r", "updn"):
            report = check_deadlock_free(build_cdg(topo, synthesize(topo, engine)))
            assert report.acyclic, f"{engine} on a{a}h{h}p{p}"

    topo = build_topology(DragonflyParams(4, 2, 2))
    config = synthesize(topo, "dla", vl_shift=False)
    cdg = build_cdg(topo, config)
    report = check_deadlock_free(cdg)
    assert not report.acyclic
    cycle = report.cycle
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        assert v in cdg.succ[u], "witness edge missing from the CDG"
        src, dst = report.inducing_flows[i]
        seq = [(ch.cid, vl) for ch, vl in route_walk(topo, config, src, dst)]
        assert any(seq[k] == u and seq[k + 1] == v for k in range(len(seq) - 1)), \
            "inducing flow does not create its witness edge"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    _report(2, f"dla/d3r/updn acyclic at 72 and 342 endnodes; shift-disabled dla "
               f"cyclic with a {len(cycle)}-vertex verified witness; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. resource accounting at the four study sizes
# ---------------------------------------------------------------------------

def test_criterion_3_resource_accounting():
    expected = {"dla": (1, 2), "d3r": (2, 2), "updn": (1, 1)}
    sizes = ((4, 2, 2, 72), (6, 3, 3, 342), (8, 4, 4, 1056), (10, 5, 5, 2550))
    for a, h, p, n in sizes:
        params = DragonflyParams(a, h, p)
        assert params.num_endnodes == n
        topo = build_topology(params)
        for engine, want in expected.items():
            config = synthesize(topo, engine)
            assert config.resources == want, (engine, n, config.resources)
    _report(3, "synthesized (SL, VL) counts are dla=(1,2) d3r=(2,2) updn=(1,1) "
               "at 72, 342, 1056 and 2550 endnodes")


# ---------------------------------------------------------------------------
# 4-6. desk-scale measurement campaign (shared runs)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _desk_fabric(engine):
    topo = build_topology(DragonflyParams(4, 2, 2))
    return topo, synthesize(topo, engine)


def _saturation(run):
    """Accepted throughput of one (engine, voq, buffer depth, seed) run."""
    engine, voq, depth, seed = run
    topo, routing = _desk_fabric(engine)
    return run_sim(SimConfig(topology=topo, routing=routing, pattern=UniformTraffic(),
                             offered_load=1.0, voq=voq, buffer_depth=depth,
                             seed=seed)).accepted


@pytest.fixture(scope="module")
def campaign():
    """Saturation throughput at 72 endnodes, uniform traffic, 16 pkt/VL,
    averaged over a fixed seed ensemble, for every engine with and without
    VOQ; plus the DLA/VOQ buffer-depth series, which reuses the dla/VOQ
    cell's 16 pkt/VL runs. Deterministic: the runs are independent and
    seeded, and every average sums the same values in seed order on any pool
    size. "runs" maps each (engine, voq, buffer depth, seed) run to its
    accepted throughput."""
    cells = [(engine, voq) for engine in ("dla", "d3r", "updn") for voq in (False, True)]
    depths = (1, 2, 4, 8, 16, 32)
    spawn = multiprocessing.get_context("spawn")  # workers import this module afresh
    with concurrent.futures.ProcessPoolExecutor(os.cpu_count(), mp_context=spawn) as pool:
        started = time.perf_counter()
        runs = [(engine, voq, 16, seed) for engine, voq in cells for seed in SEEDS]
        accepted = dict(zip(runs, pool.map(_saturation, runs)))
        factors_elapsed = time.perf_counter() - started
        sat = {cell: sum(accepted[(*cell, 16, seed)] for seed in SEEDS) / len(SEEDS)
               for cell in cells}

        runs = [("dla", True, depth, seed) for depth in depths for seed in SEEDS[:2]]
        runs = [run for run in runs if run not in accepted]
        accepted.update(zip(runs, pool.map(_saturation, runs)))
        depth_series = {depth: sum(accepted[("dla", True, depth, seed)] for seed in SEEDS[:2]) / 2
                        for depth in depths}
    return {"sat": sat, "depths": depth_series, "factors_elapsed": factors_elapsed,
            "runs": accepted}


def test_criterion_4_voq_improvement_ordering(campaign):
    """VOQ must help every engine, and d3r's improvement factor must exceed
    dla's and updn's.

    Known red: under this switch model (shared per-VL credit pools, VL-0
    injection, destination-group-order lanes for d3r, per-output round-robin
    over (input, VL)), d3r loses slightly on both the VOQ and no-VOQ sides,
    so its factor ties dla's instead of exceeding it. The factor>1 and
    d3r>updn clauses hold; the d3r>dla clause does not emerge, at these
    windows or at steady state. Measured numbers are printed below.
    """
    sat = campaign["sat"]
    factors = {e: sat[(e, True)] / sat[(e, False)] for e in ("dla", "d3r", "updn")}
    notes = []
    for engine, factor in factors.items():
        med = REFERENCE_VOQ_FACTORS[engine]
        lo, hi = med * 0.65, med * 1.35
        inside = "inside" if lo <= factor <= hi else "outside"
        notes.append(f"{engine}={factor:.4f} ({inside} reported band "
                     f"[{lo:.2f}, {hi:.2f}] around {med})")
    print(f"\nACCEPTANCE 4 measurements: saturation "
          + "; ".join(f"{e}{'/voq' if v else ''}={sat[(e, v)]:.4f}"
                      for e in ("dla", "d3r", "updn") for v in (True, False)))
    print("ACCEPTANCE 4 factors: " + "; ".join(notes)
          + f"; campaign took {campaign['factors_elapsed'] / 60:.1f} min")
    runs = campaign["runs"]
    per_seed = {e: [runs[(e, True, 16, seed)] / runs[(e, False, 16, seed)] for seed in SEEDS]
                for e in factors}
    for engine, seed_factors in per_seed.items():
        print(f"ACCEPTANCE 4 per-seed {engine} factors: "
              + " ".join(f"{f:.4f}" for f in seed_factors))
    diffs = [d3r - dla for d3r, dla in zip(per_seed["d3r"], per_seed["dla"])]
    mean = statistics.fmean(diffs)
    half = T_975_7DF * statistics.stdev(diffs) / len(diffs) ** 0.5
    print("ACCEPTANCE 4 paired d3r - dla: " + " ".join(f"{d:+.4f}" for d in diffs)
          + f"; mean {mean:+.4f}, 95 % t-interval [{mean - half:+.4f}, {mean + half:+.4f}]")
    ok = (
        campaign["factors_elapsed"] < 1800
        and all(f > 1.0 for f in factors.values())
        and factors["d3r"] > factors["updn"]
        and factors["d3r"] > factors["dla"]
    )
    print(f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} — VOQ factors all > 1 "
          f"and d3r leads dla and updn")
    assert campaign["factors_elapsed"] < 1800, "runtime budget exceeded"
    for engine, factor in factors.items():
        assert factor > 1.0, f"{engine}: VOQ must improve saturation throughput"
    assert factors["d3r"] > factors["updn"], factors
    assert factors["d3r"] > factors["dla"], factors


def test_criterion_5_buffer_monotonicity_and_plateau(campaign):
    d = campaign["depths"]
    series = [d[k] for k in (1, 2, 4, 8, 16)]
    assert all(b >= a for a, b in zip(series, series[1:])), d
    gain_16_over_8 = d[16] - d[8]
    gain_32_over_16 = d[32] - d[16]
    assert gain_32_over_16 < gain_16_over_8, d
    _report(5, "dla/VOQ saturation non-decreasing over depths 1..16 "
               f"({', '.join(f'{k}:{d[k]:.3f}' for k in (1, 2, 4, 8, 16, 32))}); "
               f"16->32 gain {gain_32_over_16:.4f} < 8->16 gain {gain_16_over_8:.4f}")


def test_criterion_6_engine_ordering_under_uniform(campaign):
    sat = campaign["sat"]
    dla, d3r, updn = sat[("dla", True)], sat[("d3r", True)], sat[("updn", True)]
    assert updn < dla and updn < d3r, "updn must be strictly the lowest"
    assert dla >= d3r - 0.02, (dla, d3r)
    _report(6, f"with VOQ and 16 pkt/VL: updn={updn:.3f} strictly lowest; "
               f"dla={dla:.3f} within 2% of d3r={d3r:.3f} or better")


# ---------------------------------------------------------------------------
# 7. determinism of sweeps
# ---------------------------------------------------------------------------

def test_criterion_7_sweep_determinism(tmp_path):
    manifest = parse_manifest(
        "version=1\n\n"
        "params=2,1,1\nengine=dla\nvoq=on\nbuffer=4\npattern=uniform\n"
        "loads=0.3,0.7\nseeds=5\nwarmup_ms=0.05\nmeasure_ms=0.2\n\n"
        "params=2,1,1\nengine=d3r\nvoq=off\nbuffer=2\npattern=uniform\n"
        "loads=0.5\nseeds=1,2\nwarmup_ms=0.05\nmeasure_ms=0.2\n"
    )
    dirs = [tmp_path / "first", tmp_path / "second"]
    blobs = []
    for out_dir in dirs:
        run_manifest(manifest, str(out_dir), log=lambda *_: None)
        blobs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert blobs[0] == blobs[1]
    assert any(name.endswith(".csv") for name in blobs[0])
    _report(7, "re-running an identical manifest reproduces byte-identical "
               f"CSV/JSON outputs ({len(blobs[0])} files compared)")


# ---------------------------------------------------------------------------
# 8. explicit desk-scale exclusions
# ---------------------------------------------------------------------------

def test_criterion_8_desk_scale_exclusions(tmp_path, capsys):
    """The 1056- and 2550-endnode throughput curves and the real-cluster
    workload results are not reproduced here; criteria 1-6 stand in with
    property checks and small-instance oracles. 342-endnode simulations exist
    only as opt-in slow tests, and the sweep CLI refuses fabrics beyond 400
    endnodes unless forced."""
    import os
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shipped = parse_manifest(open(os.path.join(here, "manifests", "desk72.manifest")).read())
    assert all(r.params.num_endnodes == 72 for r in shipped.rows)

    from dflysim.cli import main
    big = (
        "version=1\n\n"
        "params=8,4,4\nengine=dla\nvoq=on\nbuffer=16\npattern=uniform\n"
        "loads=0.1\nseeds=1\n"
    )
    path = tmp_path / "big.manifest"
    path.write_text(big)
    assert main(["sweep", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    capsys.readouterr()

    text = open(os.path.join(here, "tests", "test_acceptance.py")).read()
    assert "@pytest.mark.slow" in text
    _report(8, "large-fabric simulation is out of desk scope (simulation gated "
               "past 400 endnodes; 342-endnode runs are opt-in slow tests); "
               "synthesis-only checks cover 1056/2550 in criterion 3")


# ---------------------------------------------------------------------------
# optional slow coverage: the 342-endnode fabric under simulation
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_slow_342_endnode_simulation():
    topo = build_topology(DragonflyParams(6, 3, 3))
    routing = synthesize(topo, "dla")
    r = run_sim(SimConfig(topology=topo, routing=routing, pattern=UniformTraffic(),
                          offered_load=1.0, voq=True, buffer_depth=16, seed=1))
    assert r.accepted > 0.7
    print(f"\n342-endnode dla/VOQ saturation: {r.accepted:.3f}")
