"""Every private top-level function and class of the package has a caller.

A private helper that nothing in `src/cycsets` references is dead code
(tests may not be its only users); this keeps such helpers from piling up.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cycsets

PACKAGE = Path(cycsets.__file__).parent


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_private_top_level_definitions_are_referenced():
    # (module, top-level statement index) -> names that statement uses
    uses = {}
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for i, node in enumerate(tree.body):
            uses[path.name, i] = _names_used(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                private.append((path.name, i, node.name))
    assert private  # the scan sees the package's helpers at all
    dead = [
        f"{module}:{name}"
        for module, i, name in private
        if not any(name in names for key, names in uses.items() if key != (module, i))
    ]
    assert dead == []
