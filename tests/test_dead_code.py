"""Every top-level definition of the package has a product caller, and
every import is used.

A `def`, `class` or assignment at the top of a `src/cycsets` module must be
reachable by name from the `cycsets` entry point (`cli.entry` and the
module's `__main__` block) or from the benchmark (`bench/*.py` apart from
its own tests), following the names each reached definition uses.  Code
that only tests reach is dead library code: it goes, or moves into the
tests.  The walk goes by name, not by module, so it can only err towards
calling something reachable.  No linter ships with the project, so the
unused-import check lives here too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cycsets

PACKAGE = Path(cycsets.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"
ENTRY = "entry"  # [project.scripts] cycsets = "cycsets.cli:entry"


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rpartition(".")[2])
    return used


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreachable_definitions() -> list[str]:
    defs: dict[str, list[tuple[str, ast.stmt]]] = {}  # name -> [(module, statement)]
    roots: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            names = _defined(node)
            for name in names:
                defs.setdefault(name, []).append((path.stem, node))
            if path.stem == "cli" and not names:  # imports and the __main__ block
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
        for module, node in defs.get(name, ()):
            reached.add((module, name))
            for used in _names_used(node) - seen:
                seen.add(used)
                todo.append(used)
    return sorted(
        f"{module}.{name}"
        for name, places in defs.items()
        for module, _ in places
        if (module, name) not in reached
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
    # the scan itself: a definition and an import nothing reaches are reported
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "orphan.py").write_text("from math import comb\n\n\ndef lonely():\n    return 1\n")
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    assert unreachable_definitions() == ["orphan.lonely"]
    assert unused_imports() == ["orphan.py:1:comb"]
