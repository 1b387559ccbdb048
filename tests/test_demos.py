"""The short demos and the README's library example run to completion: they call
the public API end to end. README's manifest key list matches the parser."""

import os
import re
import subprocess
import sys

import pytest

from dflysim import manifest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = ["01_build_and_inspect.py", "02_routing_tables.py", "03_deadlock_analysis.py"]


def _run(*args):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_demo(demo):
    return _run(os.path.join(ROOT, "demos", demo))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    _run_demo(demo)


@pytest.mark.slow
def test_throughput_demo_shows_the_stall():
    assert "DeadlockDetected: fabric locked at" in _run_demo("04_throughput_study.py")


def _readme():
    with open(os.path.join(ROOT, "README.md")) as f:
        return f.read()


def test_readme_library_example_runs():
    section = _readme().split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "synthesize(" in example
    assert 0 < float(_run("-c", example)) <= 1  # it prints the accepted throughput


def test_readme_lists_the_manifest_row_keys():
    paragraph = _readme().split("\n`sweep` consumes", 1)[1].split("\n\n", 1)[0]
    listed = paragraph.split("one record per experiment row", 1)[1].split(")", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(manifest._ROW_KEYS)
