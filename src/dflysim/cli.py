"""Command-line entry point: build, route, verify, sweep, plot-data.

Exit codes: 0 success, 1 verification failure (or failed sweep rows),
2 usage/configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .deadlock import build_cdg, check_deadlock_free
from .errors import DflyError
from .manifest import CSV_HEADER, parse_manifest, run_manifest
from .routing import ENGINES, emit_fabric_dump, synthesize
from .topology import DragonflyParams, analytic_flow_counts, build_topology

ENV_OUT_DIR = "DFLYSIM_OUTPUT_DIR"


def cmd_build(args) -> int:
    params = DragonflyParams.parse(args.params)
    topo = build_topology(params)
    print(f"N={params.num_endnodes} groups={params.g} "
          f"switches={params.num_switches} radix={params.radix}")
    if params.g == params.max_groups:
        fc = analytic_flow_counts(params)
        print(f"flows: ft={fc.f_t} fg={fc.f_g} fl={fc.f_l} "
              f"fg/fl={fc.ratio_g_over_l:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(topo.dump())
        print(f"wrote {args.out}")
    return 0


def cmd_route(args) -> int:
    params = DragonflyParams.parse(args.params)
    topo = build_topology(params)
    config = synthesize(topo, args.engine, vl_shift=not args.disable_vl_shift)
    sls, vls = config.resources
    print(f"engine={config.engine} sls={sls} vls={vls}")
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(emit_fabric_dump(config))
        print(f"wrote {args.dump}")
    return 0


def cmd_verify(args) -> int:
    params = DragonflyParams.parse(args.params)
    topo = build_topology(params)
    config = synthesize(topo, args.engine, vl_shift=not args.disable_vl_shift)
    report = check_deadlock_free(build_cdg(topo, config))
    print(report.describe(topo))
    return 0 if report.acyclic else 1


def cmd_sweep(args) -> int:
    with open(args.manifest) as fh:
        manifest = parse_manifest(fh.read())
    large = [r for r in manifest.rows if r.params.num_endnodes > 400]
    if large and not args.large:
        rows = ", ".join(str(r.index) for r in large)
        print(f"error: rows {rows} exceed 400 endnodes; desk-scale runs of that size "
              f"take hours — pass --large to run them anyway", file=sys.stderr)
        return 2
    out_dir = args.out_dir or manifest.output_dir or os.environ.get(ENV_OUT_DIR) or "results"
    statuses = run_manifest(manifest, out_dir, jobs=args.jobs, force=args.force)
    failed = [(i, d) for i, s, d in statuses if s == "failed"]
    if failed:
        print(f"{len(failed)} of {len(statuses)} rows failed:", file=sys.stderr)
        for index, detail in failed:
            print(f"  row {index:02d}: {detail}", file=sys.stderr)
        return 1
    return 0


def cmd_plot_data(args) -> int:
    rows = []
    try:
        for path in args.files:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#") or line == CSV_HEADER:
                        continue
                    load, accepted, engine, voq, buffer_depth, seed = line.split(",")
                    rows.append((engine, int(voq), int(buffer_depth), float(load),
                                 int(seed), accepted))
    except ValueError as exc:  # a short line, a bad number, or bytes that are not UTF-8
        print(f"error: {path}: not a result file ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return 2
    rows.sort()
    lines = [CSV_HEADER]
    for engine, voq, buffer_depth, load, seed, accepted in rows:
        lines.append(f"{load:.6g},{accepted},{engine},{voq},{buffer_depth},{seed}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dflysim",
        description="Dragonfly fabric toolkit: topology, routing, verification, simulation",
    )
    top.add_argument("--version", action="version", version=f"dflysim {__version__}")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="build a topology, print its shape and flow counts")
    p.add_argument("--params", required=True, metavar="a,h,p[,g]")
    p.add_argument("--out", help="write the topology channel dump to this file")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("route", help="synthesize LFT and SL2VL tables for one engine")
    p.add_argument("--engine", required=True, choices=list(ENGINES))
    p.add_argument("--params", required=True, metavar="a,h,p[,g]")
    p.add_argument("--dump", help="write the fabric dump to this file")
    p.add_argument("--disable-vl-shift", action="store_true",
                   help="diagnostic: suppress the dla VL shift")
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("verify", help="prove or refute deadlock freedom via the CDG")
    p.add_argument("--engine", required=True, choices=list(ENGINES))
    p.add_argument("--params", required=True, metavar="a,h,p[,g]")
    p.add_argument("--disable-vl-shift", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="run every row of an experiment manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir", help=f"output directory (default: manifest, ${ENV_OUT_DIR}, or ./results)")
    p.add_argument("--jobs", type=int, default=1, help="parallel row workers")
    p.add_argument("--force", action="store_true", help="re-run rows even if outputs exist")
    p.add_argument("--large", action="store_true",
                   help="allow rows beyond 400 endnodes (slow)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("plot-data", help="merge result CSVs into one sorted table")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_plot_data)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (DflyError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
