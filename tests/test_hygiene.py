"""Source hygiene checks that need no import of the package: stdlib ast only."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polycount"


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


#: Imports kept on purpose although their module never names them.
#: perfbench/tracing.py times the symbolic layer by wrapping identities.eval_term,
#: so that name must stay bound in identities until the tracer wraps something else.
UNUSED_IMPORTS_ALLOWED = {("identities.py", "eval_term")}


def _bound_by_imports(tree: ast.Module):
    """(name, line) of every name a module-level import binds, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level __all__."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }


def test_every_import_is_named():
    # a module-level import that its module never names (nor lists in __all__) is dead
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = _names(tree).keys() | _exported(tree)
        unused += [
            f"{path.name}:{line}:{name}"
            for name, line in _bound_by_imports(tree)
            if name not in named and (path.name, name) not in UNUSED_IMPORTS_ALLOWED
        ]
    assert unused == []


def test_every_public_method_is_named():
    # a public method of a package class that no file of the package, the
    # tests or the benchmark names is dead API
    named = sum((_names(ast.parse(path.read_text(encoding="utf-8")))
                 for folder in (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
                 for path in sorted(folder.rglob("*.py"))), Counter())
    methods = [
        (path.name, cls.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]
    assert methods
    assert [f"{module}:{cls}.{name}" for module, cls, name in methods if not named[name]] == []


def _named_with_imports(tree: ast.AST) -> Counter:
    """_names, plus each name an import statement reads (binom_expr in `binom_expr as C`)."""
    named = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name.rpartition(".")[2] for alias in node.names)
    return named


def test_every_public_function_and_class_is_named():
    # a public module-level function or class of the package that nothing
    # names -- no file of the package outside its own body, of the tests or
    # of the benchmark -- is dead API
    named = sum((_named_with_imports(ast.parse(path.read_text(encoding="utf-8")))
                 for folder in (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
                 for path in sorted(folder.rglob("*.py"))), Counter())
    public = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    assert public
    assert [f"{module}:{node.name}" for module, node in public
            if named[node.name] == _names(node)[node.name]] == []


def test_no_json_dump_is_indented():
    # an indent= sends json.dumps through the pure-Python encoder, which holds a
    # chunk per token; reports and tables go through cli._Writer, one record per line
    indented = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Attribute, ast.Name))
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("dump", "dumps", "JSONEncoder")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert indented == []


def test_cli_holds_no_whole_report():
    # the CLI writes each report as its parts are made; merging the parts, or
    # turning a whole report into one dict, would hold every record of the run
    # again.  The one to_dict it may name is a single check record's.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    held = [
        f"cli.py:{node.lineno}:{ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("merge", "to_dict")
        and not (node.attr == "to_dict" and isinstance(node.value, ast.Name)
                 and node.value.id == "CheckRecord")
    ]
    assert held == []
