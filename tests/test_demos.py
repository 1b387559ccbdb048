"""The short demos and the README's library example run to completion: they call
the public API end to end."""

import os
import subprocess
import sys

import pytest

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
    assert "DeadlockDetected: no delivery for" in _run_demo("04_throughput_study.py")


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md")) as f:
        section = f.read().split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "synthesize(" in example
    assert 0 < float(_run("-c", example)) <= 1  # it prints the accepted throughput
