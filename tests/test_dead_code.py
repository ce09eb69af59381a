"""Every top-level definition and method of the package has a product
caller, and every import is used.

A `def`, `class` or assignment at the top of a `src/cycsets` module, and a
method of a class there, must be reachable by name from the `cycsets`
entry point (`cli.run` and the module's `__main__` block) or from the
benchmark (`bench/*.py` apart from its own tests), following the names each
reached definition uses.  A class brings along what its body uses outside
its methods, and its dunder methods, which Python calls for it; any other
method is reached only when an attribute of its name is used, so a local
variable that shares its name does not keep it.  Code that only tests reach
is dead library code: it goes, or moves into the tests.  The walk goes by
name, not by module or class, so it can only err towards calling something
reachable.  No linter ships with the project, so the unused-import check
lives here too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cycsets

PACKAGE = Path(cycsets.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"
ENTRY = "run"  # [project.scripts] cycsets = "cycsets.cli:run"


def _is_method(node: ast.stmt) -> bool:
    """A function in a class body that Python does not call by itself."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def _names_used(node: ast.AST) -> set[str]:
    """The names a node uses: a bare name or import as itself, an
    attribute as `.name`."""
    parts = [node]
    if isinstance(node, ast.ClassDef):  # its methods are entries of their own
        parts = [child for child in ast.iter_child_nodes(node) if not _is_method(child)]
    used = set()
    for sub in (sub for part in parts for sub in ast.walk(part)):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add("." + sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rpartition(".")[2])
    return used


def _defined(node: ast.stmt) -> list[tuple[str, str, ast.AST]]:
    """(name it is reached by, name it is reported as, node) for each
    definition of a top-level statement, its class's methods included.  A
    method is reached by `.name` only, so a local variable of the same name
    does not reach it."""
    if isinstance(node, ast.ClassDef):
        methods = [("." + f.name, f"{node.name}.{f.name}", f) for f in node.body if _is_method(f)]
        return [(node.name, node.name, node), *methods]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [(node.name, node.name, node)]
    if isinstance(node, ast.Assign):
        names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        return [(name, name, node) for name in names]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [(node.target.id, node.target.id, node)]
    return []


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreachable_definitions() -> list[str]:
    # name -> [(module, reported name, node)]
    defs: dict[str, list[tuple[str, str, ast.AST]]] = {}
    roots: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            found = _defined(node)
            for name, label, sub in found:
                defs.setdefault(name, []).append((path.stem, label, sub))
            if path.stem == "cli" and not found:  # imports and the __main__ block
                roots |= _names_used(node)
    bench = [p for p in sorted(BENCH.glob("*.py")) if not p.name.startswith("test_")]
    assert bench, f"no benchmark sources found under {BENCH}"
    for path in bench:
        roots |= _names_used(_parse(path))
    roots.add(ENTRY)

    reached: set[tuple[str, str]] = set()
    todo = list(roots)
    seen = set(todo)
    while todo:
        name = todo.pop()
        for key in {name, name.lstrip(".")}:  # `.name` also reaches a module's name
            for module, label, node in defs.get(key, ()):
                reached.add((module, label))
                for used in _names_used(node) - seen:
                    seen.add(used)
                    todo.append(used)
    return sorted(
        f"{module}.{label}"
        for places in defs.values()
        for module, label, _ in places
        if (module, label) not in reached
    )


def unused_imports() -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    imported.setdefault(bound, node.lineno)
        # annotations are expressions in the tree, so they count as uses
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [f"{path.name}:{line}:{name}" for name, line in imported.items() if name not in used]
    return sorted(out)


def test_every_top_level_definition_is_reachable_from_the_cli_or_bench():
    assert unreachable_definitions() == []


def test_every_import_is_used():
    assert unused_imports() == []


def test_the_walk_sees_a_dead_definition_and_a_dead_import(tmp_path, monkeypatch):
    # the scan itself: a definition, a method of a reached class and an
    # import that nothing reaches are reported; so is a method named like
    # `code`, a local variable of the entry point `cli.run`
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "orphan.py").write_text("from math import comb\n\n\ndef lonely():\n    return 1\n")
    bitgraph = (tmp_path / "bitgraph.py").read_text()
    spare = (
        "class Graph:\n    def spare_method(self):\n        return lonely_helper()\n\n"
        "    def code(self):\n        return 0\n\n"
    )
    assert bitgraph.count("class Graph:\n") == 1
    (tmp_path / "bitgraph.py").write_text(
        bitgraph.replace("class Graph:\n", spare)
        + "\n\ndef lonely_helper():\n    return 2\n"
    )
    assert "code" in _names_used(next(
        node for node in _parse(PACKAGE / "cli.py").body if getattr(node, "name", "") == ENTRY
    ))
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    assert unreachable_definitions() == [
        "bitgraph.Graph.code", "bitgraph.Graph.spare_method", "bitgraph.lonely_helper",
        "orphan.lonely",
    ]
    assert unused_imports() == ["orphan.py:1:comb"]
