"""Every module-level import of the package is read by its module, and no import cycle.

An import left behind when the code that read it is deleted still loads, so
nothing else fails on it.  Names listed in ``__all__`` (re-exports) and lines
marked ``# noqa: F401`` are exempt.

The intra-package imports, those under ``TYPE_CHECKING`` and inside functions
included, form an acyclic graph: a cycle that only a static-only or deferred
import keeps from failing at load time is still two modules that each need
the other.
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


def _import_graph(sources):
    """Module name -> the package modules it imports, from {module name: source}."""
    graph = {}
    for name, source in sources.items():
        targets = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    parts = node.module.split(".") if node.module else []
                elif node.level == 0 and node.module.split(".")[0] == PACKAGE.name:
                    parts = node.module.split(".")[1:]
                else:
                    continue
                if parts:
                    targets.add(parts[0])
                else:  # from the package itself: a module, or a name of its __init__
                    targets.update(alias.name if alias.name in sources else "__init__" for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == PACKAGE.name:
                        targets.add(parts[1] if len(parts) > 1 else "__init__")
        graph[name] = targets & set(sources) - {name}
    return graph


def _cycle(graph):
    """One import cycle as a list of modules, first repeated last, or None."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name) :] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(graph[name]):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        found = visit(name)
        if found:
            return found
    return None


def test_the_package_has_no_import_cycle():
    graph = _import_graph({path.stem: path.read_text() for path in PACKAGE.glob("*.py")})
    assert "converter" in graph["ensemble"]
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_the_check_finds_a_cycle_behind_type_checking():
    sources = {
        "__init__": "from .a import f\n",
        "a": "from .b import g\n",
        "b": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .a import f\n",
        "c": "def later():\n    from modeconv import a\n",
    }
    assert _cycle(_import_graph(sources)) == ["a", "b", "a"]
    del sources["b"]
    sources["a"] = "import modeconv.c\n"
    assert _import_graph(sources) == {"__init__": {"a"}, "a": {"c"}, "c": {"a"}}
    assert _cycle(_import_graph(sources)) == ["a", "c", "a"]
