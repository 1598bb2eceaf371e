"""Every name a library module imports is used, the package exports what it
imports, and the README's library example runs."""

import ast
import inspect
import re
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


def test_all_lists_every_public_name_of_the_package():
    public = {
        name
        for name, value in vars(dccover).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(dccover.__all__) == public


def test_the_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(example.group(1), "README.md", "exec"), {})
