"""Every module-level import of the package is read by its module.

An import left behind when the code that read it is deleted still loads, so
nothing else fails on it.  Names listed in ``__all__`` (re-exports) and lines
marked ``# noqa: F401`` are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "modeconv"


def _module_imports(nodes):
    """(name bound, first and last line) for each import outside functions and classes."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], (node.lineno, node.end_lineno)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _module_imports(ast.iter_child_nodes(node))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"line {first}: {name}"
        for name, (first, last) in _module_imports(tree.body)
        if name not in read and name not in _exported(tree) and "# noqa: F401" not in "".join(lines[first - 1 : last])
    ]
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\n\nprint(sys.argv, tau)\n")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name, _ in _module_imports(tree.body) if name not in read] == ["os", "pi"]
