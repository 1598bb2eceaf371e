"""Every name a library module imports is used, no check in the package is
an assert statement, the package exports what it imports and nothing that
only tests read, predictions never load numpy, the command line starts no
BLAS thread pool, and the README's library example runs."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dccover

MODULES = sorted(
    path for path in Path(dccover.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd(os)\n") == ["b (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_check_is_an_assert_statement():
    # python -O strips assert statements, so every check in the package,
    # __init__ included, raises explicitly and survives optimized mode.
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(dccover.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_all_lists_every_public_name_of_the_package():
    # dir() lists the lazily imported names too, and getattr resolves them,
    # so a name the lazy table gets wrong fails here.
    public = {
        name
        for name in dir(dccover)
        if not name.startswith("_") and not inspect.ismodule(getattr(dccover, name))
    }
    assert set(dccover.__all__) == public


def names_read(source: str) -> set[str]:
    tree = ast.parse(source)
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def readme_library_section() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return re.search(r"^## Library\n(.*?)(?=^## |\Z)", readme, re.M | re.S).group(1)


def test_every_exported_name_is_used_by_the_package_or_documented():
    # A name only tests read belongs in the tests: each exported name is
    # read by a library module (a definition is no read, and __init__ only
    # exports), or the README's Library section names it.
    read = set().union(*(names_read(path.read_text()) for path in MODULES))
    library = readme_library_section()
    idle = [
        name
        for name in dccover.__all__
        if name not in read and not re.search(rf"\b{name}\b", library)
    ]
    assert idle == []


PREDICT = """
import os, sys
import dccover
from dccover.census import main

info = dccover.divisor_info(dccover.FpPoly(7, (1, 1, 1)), 3, 0)
dccover.lifting_report(info)
argv = ["census", "--p", "3,5", "--n", "3..6", "--verify", sys.argv[1]]
assert main([*argv, "--out", os.devnull]) == 0
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize("verify, loaded", [("none", "False"), ("lifts", "True")])
def test_predictions_never_load_numpy(verify, loaded):
    # The prediction side is plain Python; only a verified row loads the
    # numpy engine.  The lifts run shows the check can see numpy load.
    src = str(Path(dccover.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PREDICT, verify],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.stderr == ""
    assert done.stdout.strip() == loaded


BLAS = """
import os
from dccover.census import main

assert main(["census", "--p", "3", "--n", "3..4", "--verify", "lifts", "--out", os.devnull]) == 0
tasks = "/proc/self/task"
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir(tasks)) if os.path.isdir(tasks) else "-")
"""


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_the_command_line_runs_numpy_with_one_blas_thread(preset, want):
    # numpy does no BLAS work here, so the CLI asks OpenBLAS for one thread
    # before numpy loads; a value the user has set is kept.  Where the
    # kernel lists a process's threads, the unset run has only the main one.
    src = str(Path(dccover.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run(
        [sys.executable, "-c", BLAS],
        capture_output=True, text=True, env={**env, "PYTHONPATH": src}, timeout=120,
    )
    assert done.stderr == ""
    value, threads = done.stdout.split()
    assert value == want
    if preset is None and threads != "-":
        assert threads == "1"


def test_the_readme_library_example_runs():
    example = re.search(r"^```python\n(.*?)^```", readme_library_section(), re.M | re.S)
    exec(compile(example.group(1), "README.md", "exec"), {})
