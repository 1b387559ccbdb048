import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflysim import __version__
from dflysim import manifest as manifest_mod
from dflysim.cli import main
from dflysim.manifest import CSV_HEADER, parse_manifest
from dflysim.errors import DflyError, ManifestError
from dflysim.routing import parse_fabric_dump

TINY_MANIFEST = """\
version=1

params=2,1,1
engine=dla
voq=on
buffer=4
pattern=uniform
loads=0.2,0.6
seeds=1
warmup_ms=0.05
measure_ms=0.2

params=2,1,1
engine=updn
voq=off
buffer=2
pattern=uniform
loads=0.4
seeds=3,4
warmup_ms=0.05
measure_ms=0.2
"""


def test_build_prints_shape_and_flows(capsys):
    assert main(["build", "--params", "4,2,2"]) == 0
    out = capsys.readouterr().out
    assert "N=72 groups=9" in out
    assert "ft=71 fg=64 fl=68" in out


def test_build_large_size(capsys):
    assert main(["build", "--params", "10,5,5"]) == 0
    assert "N=2550" in capsys.readouterr().out


def test_build_invalid_params_exits_2(capsys):
    assert main(["build", "--params", "0,1,1"]) == 2
    assert "error" in capsys.readouterr().err


def test_build_writes_topology_dump(tmp_path, capsys):
    out = tmp_path / "topo.txt"
    assert main(["build", "--params", "1,1,1,2", "--out", str(out)]) == 0
    text = out.read_text()
    assert "s0:1 -> s1:1 kind=gc group=0" in text


def test_route_dump_round_trips(tmp_path, capsys):
    dump = tmp_path / "fabric.txt"
    assert main(["route", "--engine", "d3r", "--params", "2,1,1", "--dump", str(dump)]) == 0
    assert "engine=d3r sls=2 vls=2" in capsys.readouterr().out
    config = parse_fabric_dump(dump.read_text())
    assert config.engine == "d3r"
    assert config.resources == (2, 2)


def test_verify_exit_codes(capsys):
    assert main(["verify", "--engine", "dla", "--params", "4,2,2"]) == 0
    assert "ACYCLIC" in capsys.readouterr().out
    assert main(["verify", "--engine", "dla", "--params", "4,2,2",
                 "--disable-vl-shift"]) == 1
    out = capsys.readouterr().out
    assert "CYCLE" in out and "vl=0" in out
    assert main(["verify", "--engine", "updn", "--params", "2,1,1"]) == 0


def test_verify_usage_error_is_2(capsys):
    assert main(["verify", "--engine", "lash", "--params", "4,2,2"]) == 2
    assert main(["verify", "--engine", "dla", "--params", "nope"]) == 2


@pytest.mark.parametrize("verb", ["route", "verify"])
@pytest.mark.parametrize("engine", ["d3r", "updn"])
def test_disable_vl_shift_on_engine_without_shift_is_2(verb, engine, capsys):
    assert main([verb, "--engine", engine, "--params", "2,1,1", "--disable-vl-shift"]) == 2
    assert "no VL shift" in capsys.readouterr().err


def test_console_entry_point_runs():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dflysim.cli", "verify", "--engine", "updn",
         "--params", "1,1,1,2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "ACYCLIC" in proc.stdout


# -- sweep ---------------------------------------------------------------------

def _write_manifest(tmp_path, text=TINY_MANIFEST):
    path = tmp_path / "exp.manifest"
    path.write_text(text)
    return path


def test_sweep_produces_one_file_pair_per_row(tmp_path, capsys):
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    csvs = sorted(p.name for p in out_dir.glob("*.csv"))
    jsons = sorted(p.name for p in out_dir.glob("*.json"))
    assert len(csvs) == 2 and len(jsons) == 2
    text = (out_dir / csvs[0]).read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# manifest=") and "tool=dflysim/" in lines[0]
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + 2  # two load points, one seed
    doc = json.loads((out_dir / jsons[0]).read_text())
    assert doc["row"]["engine"] == "dla"
    assert len(doc["runs"]) == 2
    # the document embeds the full simulator configuration
    for key in ("link_rate", "mtu", "flit_size", "data_vls", "voq",
                "buffer_depth", "warmup_s", "measure_s", "pattern",
                "link_latency_s", "pipeline_latency_s", "credit_latency_s"):
        assert key in doc["sim_config"], key
    assert doc["sim_config"]["link_rate"] == 32_000_000_000
    assert doc["manifest_hash"] and doc["tool"].startswith("dflysim/")
    # second row: one load, two seeds
    doc2 = json.loads((out_dir / jsons[1]).read_text())
    assert doc2["row"]["engine"] == "updn"
    assert len(doc2["runs"]) == 2
    assert [r["seed"] for r in doc2["runs"]] == [3, 4]


def test_sweep_rerun_is_noop_and_force_is_identical(tmp_path, capsys):
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    assert "skipped" in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == files
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir), "--force"]) == 0
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == files


@pytest.mark.parametrize("edit", [lambda doc: dict(doc, tool="dflysim/0.0.0"), lambda doc: []],
                         ids=["older-tool", "not-an-object"])
def test_sweep_reruns_a_row_whose_output_it_cannot_trust(tmp_path, capsys, edit):
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    first = sorted(out_dir.glob("row01_*.json"))[0]
    want = first.read_text()
    first.write_text(json.dumps(edit(json.loads(want))))
    capsys.readouterr()
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert [line.rsplit(": ", 1)[1] for line in out.splitlines() if line.startswith("row ")] \
        == ["done", "skipped"]
    assert first.read_text() == want


def test_sweep_reruns_a_row_whose_output_is_not_utf8(tmp_path, capsys):
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    first = sorted(out_dir.glob("row01_*.json"))[0]
    want = first.read_text()
    first.write_bytes(b"\xff{}")
    capsys.readouterr()
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir), "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert [line.rsplit(": ", 1)[1] for line in out.splitlines() if line.startswith("row ")] \
        == ["done", "skipped"]
    assert first.read_text() == want


def test_sweep_empty_manifest_is_ok(tmp_path):
    manifest = _write_manifest(tmp_path, "version=1\n")
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    assert list(out_dir.glob("*.csv")) == []


def test_sweep_unknown_engine_names_the_row(tmp_path, capsys):
    bad = TINY_MANIFEST.replace("engine=updn", "engine=lash")
    manifest = _write_manifest(tmp_path, bad)
    assert main(["sweep", str(manifest), "--out-dir", str(tmp_path / "o")]) == 2
    assert "row 2" in capsys.readouterr().err


def test_sweep_rejects_bad_version(tmp_path, capsys):
    manifest = _write_manifest(tmp_path, "version=9\n")
    assert main(["sweep", str(manifest)]) == 2


def test_package_version_matches_pyproject():
    # the version stamps every sweep file, so resume reads it; keep both in step
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        assert tomllib.load(f)["project"]["version"] == __version__


def test_sweep_reports_partially_failed_rows(tmp_path, capsys):
    # a directory where row 2's JSON goes makes that row fail at run time
    # while the healthy row still completes
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    row2 = parse_manifest(TINY_MANIFEST).rows[1]
    (out_dir / (row2.basename() + ".json")).mkdir(parents=True)
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "row 02" in err and "1 of 2 rows failed" in err
    # the good row's output exists
    assert sorted(p.suffix for p in out_dir.glob("row01_*") if p.is_file()) == [".csv", ".json"]


def test_sweep_honors_env_output_dir(tmp_path, monkeypatch, capsys):
    manifest = _write_manifest(tmp_path, TINY_MANIFEST.split("\n\n")[0] + "\n\n" +
                               TINY_MANIFEST.split("\n\n")[1] + "\n")
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("DFLYSIM_OUTPUT_DIR", str(env_dir))
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", str(manifest)]) == 0
    assert len(list(env_dir.glob("*.csv"))) == 1


@pytest.mark.parametrize("old, new", [
    ("buffer=4", "buffer=abc"),
    ("buffer=4", "buffer=0"),
    ("warmup_ms=0.05", "warmup_ms=x"),
    ("measure_ms=0.2", "measure_ms=x"),
    ("buffer=4", "buffer=4\ndata_vls=x"),
    ("buffer=4", "buffer=4\ndata_vls=20"),
    ("buffer=4", "buffer=4\ndata_vls=1"),  # data_vls is no key, whatever its value
    ("warmup_ms=0.05", "warmup_ms=-1"),
    ("measure_ms=0.2", "measure_ms=0"),
    ("pattern=uniform", "pattern=hotspot\nhotspot_fraction=x"),
    ("pattern=uniform", "pattern=stencil3d\nstencil_dims=2,x,1"),
    ("warmup_ms=0.05", "warmup_ms=inf"),
    ("warmup_ms=0.05", "warmup_ms=1e300"),  # finite, but not in picoseconds
    ("measure_ms=0.2", "measure_ms=inf"),
    ("pattern=uniform", "pattern=hotspot\nhotspot_fraction=nan"),
    ("pattern=uniform", "pattern=hotspot\nhotspot_fraction=5"),
    ("pattern=uniform", "pattern=hotspot"),  # 6 endnodes give no hot source
    ("pattern=uniform", "pattern=stencil3d\nstencil_dims=1,2"),
    ("pattern=uniform", "pattern=stencil3d\nstencil_dims=-1,-2,3"),
    ("pattern=uniform", "pattern=stencil3d\nstencil_dims=0,0,0"),
    ("pattern=uniform", "pattern=stencil3d\nstencil_dims=1,2,4"),  # 8 != 6 endnodes
    ("pattern=uniform", "pattern=tornado"),
    ("pattern=uniform", "pattern=uniform\nhotspot_fraction=0.1"),  # another pattern's key
    ("pattern=uniform", "pattern=uniform\nstencil_dims=1,2,3"),
    ("loads=0.2,0.6", "loads="),  # no load: the row would sweep nothing
    ("loads=0.2,0.6", "loads=, ,"),
    ("seeds=1", "seeds=-1"),  # ran as seed 1 under another config hash
    ("seeds=1", "seeds=1,-2"),
    ("seeds=1", "seeds=1.0"),
])
def test_sweep_bad_row_value_names_the_row_and_exits_2(tmp_path, capsys, old, new):
    manifest = _write_manifest(tmp_path, TINY_MANIFEST.replace(old, new, 1))
    out_dir = tmp_path / "o"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 2
    assert "row 1" in capsys.readouterr().err
    assert not out_dir.exists()  # rejected while parsing, before any row runs


def test_sweep_non_utf8_manifest_exits_2(tmp_path, capsys):
    manifest = tmp_path / "exp.manifest"
    manifest.write_bytes(b"version=1\n\nparams=2,1,1\xff\n")
    assert main(["sweep", str(manifest), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs rows in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, pool", [(1, None), (2, 2), (3, 2)])
def test_sweep_starts_no_more_workers_than_rows(tmp_path, monkeypatch, capsys, jobs, pool):
    monkeypatch.setattr(manifest_mod, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir), "--jobs", str(jobs)]) == 0
    assert _RecordingPool.sizes == ([] if pool is None else [pool])
    assert len(list(out_dir.glob("*.json"))) == 2


class _RefusingPool:
    def __init__(self, max_workers):
        raise AssertionError("a pool was started with no row to run")


def test_resuming_a_complete_sweep_starts_no_pool(tmp_path, monkeypatch, capsys):
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    first = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(manifest_mod, "ProcessPoolExecutor", _RefusingPool)
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir), "--jobs", "2"]) == 0
    resumed = capsys.readouterr().out.splitlines()
    assert resumed == [line.replace(": done", ": skipped") for line in first]
    assert len(resumed) == 2
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == files


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_exits_2(tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.setattr(manifest_mod, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir), "--jobs", jobs]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert _RecordingPool.sizes == [] and not out_dir.exists()


def test_sweep_gates_large_fabrics(tmp_path, capsys):
    big = TINY_MANIFEST.replace("params=2,1,1", "params=8,4,4")
    manifest = _write_manifest(tmp_path, big)
    assert main(["sweep", str(manifest), "--out-dir", str(tmp_path / "o")]) == 2
    assert "--large" in capsys.readouterr().err


def test_sweep_gates_a_large_row_without_building_its_pattern(tmp_path, capsys):
    # 90,300 endnodes: binding the stencil to the fabric while parsing peaked at 28.9 MB
    huge = ("version=1\n\nparams=30,10,10\nengine=dla\nvoq=on\nbuffer=4\n"
            "pattern=stencil3d\nloads=0.1\nseeds=1\n")
    tracemalloc.start()
    try:
        assert parse_manifest(huge).rows[0].params.num_endnodes == 90_300
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    manifest = _write_manifest(tmp_path, huge)
    assert main(["sweep", str(manifest), "--out-dir", str(tmp_path / "o")]) == 2
    assert "rows 1 exceed 400 endnodes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_manifest_parser_rejects_garbage():
    with pytest.raises(ManifestError):
        parse_manifest("")
    with pytest.raises(ManifestError):
        parse_manifest("version=1\n\nparams=2,1,1\n")  # missing row keys
    with pytest.raises(ManifestError):
        parse_manifest("version=1\n\nnonsense line\n")
    with pytest.raises(ManifestError, match=r"unknown header keys: \['color'\]"):
        parse_manifest(TINY_MANIFEST.replace("version=1\n", "version=1\ncolor=red\n", 1))
    with pytest.raises(ManifestError):
        parse_manifest(TINY_MANIFEST.replace("voq=on", "voq=maybe"))
    with pytest.raises(ManifestError):
        parse_manifest(TINY_MANIFEST.replace("loads=0.2,0.6", "loads=0.6,0.2"))


def _assert_parses_or_refuses(text):
    """A manifest either parses into rows that each run something, or is refused
    with a typed error (exit 2 on the command line); nothing else escapes."""
    try:
        manifest = parse_manifest(text)
    except DflyError:
        return
    assert all(row.loads and row.seeds for row in manifest.rows)


_MANIFEST_KEYS = ["version", "output_dir", "params", "engine", "voq", "buffer", "pattern",
                  "loads", "seeds", "warmup_ms", "measure_ms", "hotspot_fraction",
                  "stencil_dims", "data_vls", "", "#loads"]
# A replaced value has at most 4 characters or is the small 1,2,3, and a mutant
# makes at most three edits, so none builds a fabric of more than about 100 k
# endnodes while parsing.
_MANIFEST_VALUES = (st.text(alphabet="0123456789,.-+eE nafi=#", max_size=4)
                    | st.sampled_from(["uniform", "stencil3d", "hotspot", "tornado",
                                       "dla", "d3r", "updn", "on", "off", "nan", "-inf", "1,2,3"]))


_LINE_EDITS = ["drop", "swap", "key", "value", "empty", "blank", "digit"]


@st.composite
def _mutated_manifests(draw):
    """TINY_MANIFEST with one to three of its row lines edited; the
    arbitrary-text test covers headers."""
    header, rows = TINY_MANIFEST.split("\n\n", 1)
    lines = rows.split("\n")
    for op in draw(st.lists(st.sampled_from(_LINE_EDITS), min_size=1, max_size=3)):
        i = draw(st.integers(0, len(lines) - 2))  # the last line is the empty one after a newline
        key, _, value = lines[i].partition("=")
        if op == "drop":
            del lines[i]
        elif op == "swap":
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif op == "key":
            lines[i] = draw(st.sampled_from(_MANIFEST_KEYS)) + "=" + value
        elif op == "value":
            lines[i] = key + "=" + draw(_MANIFEST_VALUES)
        elif op == "empty":
            lines[i] = key + "=" + draw(st.sampled_from(["", ",", " , "]))
        elif op == "blank":
            lines.insert(i, "")
        else:  # a digit, comma, point or space into the value
            at = draw(st.integers(0, len(value)))
            lines[i] = key + "=" + value[:at] + draw(st.sampled_from("0123456789,. ")) + value[at:]
    return header + "\n\n" + "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=_mutated_manifests())
def test_mutated_manifests_parse_or_are_refused(text):
    _assert_parses_or_refuses(text)


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=80) | st.text(alphabet="version=1\nparams,.0123456789 ", max_size=80))
def test_arbitrary_text_parses_or_is_refused(text):
    _assert_parses_or_refuses(text)


def test_shipped_desk_manifest_parses():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    text = open(os.path.join(here, "manifests", "desk72.manifest")).read()
    m = parse_manifest(text)
    assert len(m.rows) == 36  # 3 engines x voq on/off x 6 buffer depths
    assert {r.engine for r in m.rows} == {"dla", "d3r", "updn"}
    assert {r.buffer_depth for r in m.rows} == {1, 2, 4, 8, 16, 32}
    assert all(r.params.num_endnodes == 72 for r in m.rows)
    assert all(len(r.loads) == 10 for r in m.rows)


# -- plot-data -------------------------------------------------------------------

def test_plot_data_merges_and_sorts(tmp_path, capsys):
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()  # drain sweep status lines
    csvs = [str(p) for p in sorted(out_dir.glob("*.csv"))]
    assert main(["plot-data", *csvs]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER == "load,accepted,engine,voq,buffer,seed"
    assert len(lines) == 1 + 4  # 2 + 2 data rows
    # sorted by engine, voq, buffer, load, seed
    keys = [tuple(l.split(",")[2:5]) + (l.split(",")[0],) for l in lines[1:]]
    assert keys == sorted(keys)
    merged = tmp_path / "merged.csv"
    assert main(["plot-data", *csvs, "--out", str(merged)]) == 0
    assert merged.read_text().splitlines()[0] == CSV_HEADER


def test_plot_data_reads_only_the_csv_files(tmp_path, capsys):
    manifest = _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(manifest), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    doc = sorted(out_dir.glob("*.json"))[0]
    assert main(["plot-data", str(doc)]) == 2
    assert f"error: {doc}: not a result file" in capsys.readouterr().err


@pytest.mark.parametrize("name, content", [
    ("short.csv", "0.1,0.1,dla\n"),
    ("norow.json", '{"runs": []}'),
    ("broken.json", "{not json"),
])
def test_plot_data_malformed_input_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    path.write_text(content)
    assert main(["plot-data", str(path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err
