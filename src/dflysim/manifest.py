"""Experiment manifests: line-oriented key=value stanzas driving sweep runs.

A manifest is blank-line-separated records. The first record is the header
(must carry version=1, may set output_dir); every following record is one
experiment row:

    version=1
    output_dir=results

    params=4,2,2
    engine=dla
    voq=on
    buffer=16
    pattern=uniform
    loads=0.1,0.2,0.3
    seeds=1

Each row produces exactly one CSV and one JSON result file, named by row
index and row hash. A row whose JSON file already exists with a matching row
hash is skipped, so re-running an unchanged manifest is a no-op and partially
completed sweeps resume where they stopped.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from . import __version__
from .errors import InvalidParams, ManifestError
from .routing import ENGINES, synthesize
from .simulator import DATA_VLS, SimConfig, check_run_params, sweep
from .topology import DragonflyParams, build_topology
from .traffic import make_pattern

CSV_HEADER = "load,accepted,engine,voq,buffer,seed"

_TRUE = {"1", "true", "on", "yes"}
_FALSE = {"0", "false", "off", "no"}


@dataclass
class ManifestRow:
    index: int                      # 1-based position in the manifest
    params: DragonflyParams
    engine: str
    voq: bool
    buffer_depth: int
    pattern: str
    loads: list[float]
    seeds: list[int]
    warmup_ms: float = 0.2
    measure_ms: float = 1.0
    pattern_args: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        p = self.params
        return {
            "params": [p.a, p.h, p.p, p.g],
            "engine": self.engine,
            "voq": self.voq,
            "buffer": self.buffer_depth,
            "pattern": self.pattern,
            "pattern_args": self.pattern_args,
            "loads": self.loads,
            "seeds": self.seeds,
            "warmup_ms": self.warmup_ms,
            "measure_ms": self.measure_ms,
            "data_vls": DATA_VLS,  # fixed; the key keeps row hashes stable
        }

    @property
    def row_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def basename(self) -> str:
        q = "voq" if self.voq else "novoq"
        return (
            f"row{self.index:02d}_{self.engine}_{q}_b{self.buffer_depth}"
            f"_{self.pattern}_{self.row_hash[:8]}"
        )


@dataclass
class Manifest:
    rows: list[ManifestRow]
    output_dir: str | None
    manifest_hash: str


def _records(text: str):
    rec: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines() + [""], 1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if rec:
                yield rec
                rec = {}
            continue
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in rec:
            raise ManifestError(f"line {lineno}: duplicate key {key!r} in record")
        rec[key] = value


def _parse_bool(value: str, what: str) -> bool:
    v = value.lower()
    if v in _TRUE:
        return True
    if v in _FALSE:
        return False
    raise ManifestError(f"{what}: expected on/off, got {value!r}")


_ROW_KEYS = {
    "params", "engine", "voq", "buffer", "pattern", "loads", "seeds",
    "warmup_ms", "measure_ms", "hotspot_fraction", "stencil_dims",
}
_PATTERN_KEYS = {"hotspot_fraction": "hotspot", "stencil_dims": "stencil3d"}


def parse_manifest(text: str) -> Manifest:
    records = list(_records(text))
    if not records:
        raise ManifestError("empty manifest (missing version header)")
    header = records[0]
    if header.get("version") != "1":
        raise ManifestError("manifest header must declare version=1")
    unknown = set(header) - {"version", "output_dir"}
    if unknown:
        raise ManifestError(f"unknown header keys: {sorted(unknown)}")

    rows = []
    for index, rec in enumerate(records[1:], 1):
        where = f"row {index}"
        unknown = set(rec) - _ROW_KEYS
        if unknown:
            raise ManifestError(f"{where}: unknown keys {sorted(unknown)}")
        missing = {"params", "engine", "voq", "buffer", "pattern", "loads", "seeds"} - set(rec)
        if missing:
            raise ManifestError(f"{where}: missing keys {sorted(missing)}")
        engine = rec["engine"]
        if engine not in ENGINES:
            raise ManifestError(
                f"{where}: unknown engine {engine!r} (expected one of {sorted(ENGINES)})"
            )
        for key, pattern in _PATTERN_KEYS.items():
            if key in rec and rec["pattern"] != pattern:
                raise ManifestError(f"{where}: {key} applies only to pattern={pattern}")
        pattern_args: dict = {}
        try:
            params = DragonflyParams.parse(rec["params"])
            loads = [float(w) for w in rec["loads"].split(",") if w.strip()]
            seeds = [int(w) for w in rec["seeds"].split(",") if w.strip()]
            buffer_depth = int(rec["buffer"])
            warmup_ms = float(rec.get("warmup_ms", 0.2))
            measure_ms = float(rec.get("measure_ms", 1.0))
            if "hotspot_fraction" in rec:
                pattern_args["fraction"] = float(rec["hotspot_fraction"])
            if "stencil_dims" in rec:
                pattern_args["dims"] = [int(w) for w in rec["stencil_dims"].split(",")]
            check_run_params(buffer_depth, warmup_ms * 1e-3, measure_ms * 1e-3, loads, seeds)
            # checks the pattern's name, arguments and fit without building its tables
            make_pattern(rec["pattern"], **pattern_args).check_fit(params.num_endnodes)
        except (ValueError, InvalidParams) as exc:
            raise ManifestError(f"{where}: {exc}") from None
        if not loads:
            raise ManifestError(f"{where}: needs at least one load")
        if not seeds:
            raise ManifestError(f"{where}: needs at least one seed")
        rows.append(ManifestRow(
            index=index,
            params=params,
            engine=engine,
            voq=_parse_bool(rec["voq"], f"{where}: voq"),
            buffer_depth=buffer_depth,
            pattern=rec["pattern"],
            loads=loads,
            seeds=seeds,
            warmup_ms=warmup_ms,
            measure_ms=measure_ms,
            pattern_args=pattern_args,
        ))
    manifest_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    return Manifest(rows=rows, output_dir=header.get("output_dir"), manifest_hash=manifest_hash)


def _already_done(row: ManifestRow, out_dir: str) -> bool:
    """True when the row's JSON output exists with the same row hash, was written
    by this tool version (a model change bumps __version__), and its CSV exists."""
    base = os.path.join(out_dir, row.basename())
    try:
        with open(base + ".json") as fh:
            prior = json.load(fh)
        return (prior.get("row_hash") == row.row_hash
                and prior.get("tool") == f"dflysim/{__version__}"
                and os.path.exists(base + ".csv"))
    except (OSError, ValueError, AttributeError):  # missing or unreadable: run again
        return False


def run_row(row: ManifestRow, out_dir: str, manifest_hash: str, force: bool = False) -> str:
    """Execute one manifest row; returns 'done' or 'skipped'.

    Writes <basename>.csv and <basename>.json atomically. Skips the row, unless
    forced, when a run of this tool version has already written both (resume
    semantics).
    """
    if not force and _already_done(row, out_dir):
        return "skipped"
    base = os.path.join(out_dir, row.basename())
    json_path, csv_path = base + ".json", base + ".csv"
    tool = f"dflysim/{__version__}"
    topo = build_topology(row.params)
    routing = synthesize(topo, row.engine)
    runs = []
    sim_config = None
    csv_lines = [f"# manifest={manifest_hash} tool={tool} row={row.row_hash}",
                 CSV_HEADER]
    for seed in row.seeds:
        config = SimConfig(
            topology=topo,
            routing=routing,
            pattern=make_pattern(row.pattern, **row.pattern_args),
            voq=row.voq,
            buffer_depth=row.buffer_depth,
            warmup_s=row.warmup_ms * 1e-3,
            measure_s=row.measure_ms * 1e-3,
            seed=seed,
        )
        if sim_config is None:
            # the full simulator configuration; load and seed vary per run
            sim_config = {k: v for k, v in config.canonical().items()
                          if k not in ("offered_load", "seed")}
        for result in sweep(config, row.loads):
            csv_lines.append(f"{result.offered:.6g},{result.accepted:.6f},{result.engine},"
                             f"{int(result.voq)},{result.buffer_depth},{result.seed}")
            runs.append({
                "config_hash": result.config_hash,
                "offered": result.offered,
                "accepted": result.accepted,
                "seed": result.seed,
                "injected_packets": result.injected_packets,
                "delivered_packets": result.delivered_packets,
                "measured_packets": result.measured_packets,
                "counted_endnodes": result.counted_endnodes,
                "per_endnode": list(result.per_endnode),
            })
    doc = {
        "format_version": 1,
        "tool": tool,
        "manifest_hash": manifest_hash,
        "row_hash": row.row_hash,
        "row": row.canonical(),
        "sim_config": sim_config,
        "runs": runs,
    }
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(csv_path, "\n".join(csv_lines) + "\n")
    _atomic_write(json_path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return "done"


def _atomic_write(path: str, content: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(content)
    os.replace(tmp, path)


def _row_task(args):
    row, out_dir, manifest_hash, force = args
    try:
        return row.index, run_row(row, out_dir, manifest_hash, force), ""
    except Exception as exc:  # reported per row, never aborts the pool
        return row.index, "failed", f"{type(exc).__name__}: {exc}"


def run_manifest(manifest: Manifest, out_dir: str, jobs: int = 1, force: bool = False,
                 log=print) -> list[tuple[int, str, str]]:
    """Run every row; returns [(row index, status, detail)] in row order.

    Rows already done are skipped first, here. The rest run in min(jobs,
    rows to run) worker processes, or in this process when that is 1: a pool
    may start all its workers at once, rows or not.
    """
    if jobs < 1:
        raise InvalidParams(f"jobs must be at least 1, got {jobs}")
    os.makedirs(out_dir, exist_ok=True)
    done = {row.index for row in manifest.rows if not force and _already_done(row, out_dir)}
    tasks = [(row, out_dir, manifest.manifest_hash, True)
             for row in manifest.rows if row.index not in done]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        ran = [_row_task(t) for t in tasks]
    else:
        # imported here: loading the pool's module costs a run that starts none about 2.5 MB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            ran = list(pool.map(_row_task, tasks))
    statuses = sorted(ran + [(index, "skipped", "") for index in done])
    for index, status, detail in statuses:
        row = manifest.rows[index - 1]
        note = f" ({detail})" if detail else ""
        log(f"row {index:02d} {row.engine} {row.basename()}: {status}{note}")
    return statuses
