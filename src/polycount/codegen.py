"""Regenerate ``polycount.evaluators``, the registry's evaluator factories as modules.

    python -m polycount.codegen

One registry run and one certificate mutation report build one evaluator
factory per expression shape (``symbolic._factory``).  This writes the
source that ``symbolic._Emitter`` gives each of those shapes into one module
per registry family, ``evaluators/<family>.py``, in the order the runs build
them (a large family in parts, ``<family>_1.py``, ...), and each shape's key
into ``evaluators/__init__.py``.  A shape that several families build goes
to the first of them in name order.  Python caches the bytecode of these
modules like any other, so a process that evaluates the registry loads its
factories instead of compiling them.

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


def _emitted() -> dict[str, dict[str, str]]:
    """family -> {shape key: factory source}, in build order, each shape under its first family.

    The runs go family by family, each factory compiled afresh from its
    emitted source, so neither the modules on disk nor the process's cache
    decides what is emitted.
    """
    families = sorted({name.partition("/")[0] for name in identities.registry()})
    sources: dict[str, dict[str, str]] = {family: {} for family in families}
    built: dict[str, Callable] = {}

    def record(key: str, expr: symbolic.Expr, ints: bool) -> Callable:
        make = built.get(key)
        if make is None:
            name = f"_make{len(built)}"
            source = sources[family][key] = symbolic._Emitter(ints).source(expr, name)
            make = built[key] = symbolic._build(source, name)
        return make

    saved = symbolic._factory
    symbolic._factory = record
    try:
        for family in families:
            identities.run_registry(f"{family}/*")
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
    for family, shapes in _emitted().items():
        if not shapes:
            continue
        parts = _parts(shapes)
        for number, part in enumerate(parts, start=1):
            module = family.replace("-", "_") + (f"_{number}" if len(parts) > 1 else "")
            index += [f"    {key!r}: ({module!r}, {at}),\n" for at, key in enumerate(part)]
            files[f"{module}.py"] = "".join([
                f'"""Evaluator factories of shapes that the {family}/* checks build first.\n\n',
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
