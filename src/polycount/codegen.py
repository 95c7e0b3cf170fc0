"""Regenerate ``polycount.evaluators``, the registry's evaluator factories as modules.

    python -m polycount.codegen

One registry run and one certificate mutation report build one evaluator
factory per expression shape (``symbolic._factory``).  This writes the
source that ``symbolic._Emitter`` gives each of those shapes into two
modules per registry family, in the order the runs build them:
``evaluators/<family>.py`` for its pointwise checks and
``evaluators/<family>_kernels.py`` for its telescoping checks and their
mutants (a large one in parts, ``_1.py``, ...), and each shape's key into
``evaluators/__init__.py``.  A shape that several families or both kinds of
check build goes to the first that builds it.  Python caches the bytecode of
these modules like any other, so a process that evaluates the registry loads
its factories instead of compiling them.

Rerun it after any change to the registry or the emitter:
``tests/test_symbolic.py`` fails until the modules match what it writes.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

from . import identities, symbolic

PACKAGE = Path(__file__).resolve().parent / "evaluators"
GENERATED = "Generated by ``python -m polycount.codegen``; do not edit."
#: Factory source per module at most, so that compiling a module without its
#: cached bytecode costs no more memory than compiling ``identities.py`` does
#: (at most 3.6 against 4.6 MiB of peak RSS); a family with more is cut into parts.
PART_BYTES = 32_000


def _emitted() -> dict[tuple[str, str], dict[str, str]]:
    """(family, checks) -> {shape key: factory source}, in build order, each under its first.

    Each family's pointwise checks run first, then its telescoping checks
    and their mutants, so that a caller that evaluates only the trees of
    pointwise checks, as the quadrant and weights reports do, imports none
    of the larger kernel modules.  Each factory is compiled afresh from its
    emitted source, so neither the modules on disk nor the process's cache
    decides what is emitted.
    """
    registry = identities.registry()
    sources: dict[tuple[str, str], dict[str, str]] = {}
    built: dict[str, Callable] = {}

    def record(key: str, expr: symbolic.Expr, ints: bool) -> Callable:
        make = built.get(key)
        if make is None:
            name = f"_make{len(built)}"
            source = group[key] = symbolic._Emitter(ints).source(expr, name)
            make = built[key] = symbolic._build(source, name)
        return make

    saved = symbolic._factory
    symbolic._factory = record
    try:
        for family in sorted({name.partition("/")[0] for name in registry}):
            checks = [chk for name, chk in sorted(registry.items())
                      if name.partition("/")[0] == family]
            group = sources[family, "pointwise"] = {}
            for chk in checks:
                if not chk.axes:
                    identities.run_check(chk)
            group = sources[family, "telescoping"] = {}
            for chk in checks:
                if chk.axes:
                    identities.run_check(chk)
            identities.certificate_mutation_report(f"{family}/*")
    finally:
        symbolic._factory = saved
    return sources


def _parts(shapes: dict[str, str]) -> list[dict[str, str]]:
    """The shapes in build order, cut into runs of at most PART_BYTES of source each."""
    parts: list[dict[str, str]] = [{}]
    size = 0
    for key, source in shapes.items():
        if parts[-1] and size + len(source) > PART_BYTES:
            parts.append({})
            size = 0
        parts[-1][key] = source
        size += len(source)
    return parts


def render() -> dict[str, str]:
    """The text of every module of ``polycount.evaluators``, by file name."""
    files, index = {}, []
    first = 0  # factories are numbered in build order, through the whole table
    for (family, checks), shapes in _emitted().items():
        if not shapes:
            continue
        parts = _parts(shapes)
        for number, part in enumerate(parts, start=1):
            module = (family.replace("-", "_") + ("_kernels" if checks == "telescoping" else "")
                      + (f"_{number}" if len(parts) > 1 else ""))
            index += [f"    {key!r}: ({module!r}, {at}),\n" for at, key in enumerate(part)]
            files[f"{module}.py"] = "".join([
                f'"""Evaluator factories of shapes that the {family}/* {checks} checks'
                f'{" and their mutants" if checks == "telescoping" else ""} build first.\n\n',
                f'{GENERATED}\n"""\n\n',
                "from ..symbolic import _NAMESPACE\n\n",
                "globals().update(_NAMESPACE)\n\n\n",
                "\n\n".join(part.values()),
                "\n\nFACTORIES = (\n",
                *(f"    _make{first + at},\n" for at in range(len(part))),
                ")\n",
            ])
            first += len(part)
    files["__init__.py"] = "".join([
        '"""The identity registry\'s evaluator factories, in modules by registry family.\n\n',
        "SHAPES maps the key (``symbolic._shape``) of every shape that a registry run\n",
        "and a certificate mutation report build to its module and its place in that\n",
        "module's FACTORIES.  ``symbolic._factory`` imports a module the first time\n",
        "it meets one of its shapes, and compiles only shapes that are not here.\n\n",
        f'{GENERATED}\n"""\n\n',
        "SHAPES = {\n",
        *index,
        "}\n",
    ])
    return files


def main() -> int:
    files = render()
    PACKAGE.mkdir(exist_ok=True)
    for path in PACKAGE.glob("*.py"):
        if path.name not in files:
            path.unlink()
    for name, text in files.items():
        (PACKAGE / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(files)} modules to {PACKAGE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
