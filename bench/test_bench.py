"""Tests of the benchmark itself, at toy scale (the (2,1,1) fabric, short windows).

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench


def _names(report):
    return {name: unit for name, (_, unit) in report.metrics.items()}


@pytest.fixture(scope="module")
def toy_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return {(w, trace): bench.run_workload(w, 1, 0, trace, scale=bench.TOY, out_dir=str(out))
            for w in bench.WORKLOADS for trace in (False, True)}


def test_benchmark_json_lists_the_harness_metrics():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == bench.layer_metric_specs(bench.FULL))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_named_metric_appears_with_its_unit(workload, toy_reports):
    untraced = _names(toy_reports[(workload, False)])
    traced = _names(toy_reports[(workload, True)])
    for name, unit in bench.END_TO_END:
        assert untraced[name] == unit and traced[name] == unit
    for name, unit in bench.layer_metric_specs(bench.TOY, workload):
        assert traced[name] == unit, name
        if not name.startswith(bench.TRACE_ONLY_PREFIXES + bench.SERIAL_ONLY_PREFIXES):
            assert untraced[name] == unit, name


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_and_untraced_runs_emit_the_same_metric_names(workload, toy_reports):
    untraced = set(_names(toy_reports[(workload, False)]))
    traced = set(_names(toy_reports[(workload, True)]))
    only_traced = {n for n in traced if n.startswith(bench.TRACE_ONLY_PREFIXES)}
    # sweep72's traced runs time each row serially; its untraced runs use jobs=2
    only_serial = {n for n in traced if n.startswith(bench.SERIAL_ONLY_PREFIXES)}
    assert bool(only_serial) == (workload == "sweep72")
    assert traced - only_traced - only_serial == untraced


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_goldens_hold_and_self_times_account_for_wall(workload, toy_reports):
    for trace in (False, True):
        report = toy_reports[(workload, trace)]
        assert report.failed == 0, report.failures
        assert report.metrics["failed_share"][0] == 0
    m = toy_reports[(workload, True)].metrics
    layers = sum(m[f"self_s.{layer}"][0] for layer in bench.LAYERS + ("bench",))
    assert layers == pytest.approx(m["trace.wall_s"][0], rel=1e-9)
    assert m["self_s.bench"][0] < 0.01 * m["trace.wall_s"][0]


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_result_line_carries_the_declared_metrics(workload, toy_reports):
    for trace in (False, True):
        line = bench.result_line(toy_reports[(workload, trace)], trace, bench.TOY)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        specs = bench.layer_metric_specs(bench.TOY) if trace else bench.END_TO_END
        assert [(n, v["unit"]) for n, v in line["metrics"].items()] == list(specs)
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_a_wrong_golden_raises_failed_share(workload, tmp_path):
    with open(bench.GOLDENS) as fh:
        goldens = json.load(fh)
    key = next(k for k in sorted(goldens) if k.startswith(f"toy/{workload}/"))
    goldens[key] = "wrong"
    report = bench.run_workload(workload, 1, 0, False, scale=bench.TOY, goldens=goldens,
                                out_dir=str(tmp_path))
    assert report.metrics["failed_share"][0] > 0
    assert any(key in message for message in report.failures)
    assert not bench.result_line(report, False, bench.TOY)["correct"]


def test_a_malformed_output_file_is_a_failed_operation(tmp_path, monkeypatch):
    outputs = bench._outputs

    def truncated(out_dir):
        files = outputs(out_dir)
        name = min(n for n in files if n.endswith(".json"))
        files[name] = files[name][:len(files[name]) // 2]
        return files

    monkeypatch.setattr(bench, "_outputs", truncated)
    report = bench.run_workload("sweep72", 3, 0, False, scale=bench.TOY, out_dir=str(tmp_path))
    assert report.metrics["failed_share"][0] > 0
    assert any("unreadable output: JSONDecodeError" in message for message in report.failures)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sat72", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
