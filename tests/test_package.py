"""The package imports the standard library only (zero runtime dependencies)."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dflysim"

# every module the package imports, so that a new one shows in review: the
# package's fresh import is most of a short benchmark run's setup time
IMPORTED = {
    "__future__", "argparse", "array", "collections", "concurrent", "dataclasses",
    "hashlib", "heapq", "itertools", "json", "math", "os", "random", "sys",
}


def _imported_modules(path) -> set[str]:
    """The top-level module of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_package_imports_only_these_standard_modules():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    imported = set().union(*map(_imported_modules, files))
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names
    assert imported == IMPORTED


def test_the_package_has_no_assert_statement():
    # `python -O` strips asserts, and every invariant must still hold there
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert on lines {lines}"


def test_importing_the_package_loads_no_process_pool():
    # a sweep imports concurrent.futures when it starts a pool; a run that starts
    # none would pay about 2.5 MB of memory for it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dflysim, dflysim.manifest; "
                               "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
