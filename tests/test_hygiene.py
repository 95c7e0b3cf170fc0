"""Source hygiene checks that need no import of the package: stdlib ast only."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polycount"


def _names(node: ast.AST) -> Counter:
    """Every bare name and attribute name read or written under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_helper_is_referenced():
    # a private module-level function or class that nothing in the package
    # names, apart from its own body, is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    dead = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and everywhere[node.name] == _names(node)[node.name]
    ]
    assert trees
    assert dead == []
