"""Command-line front end.

Subcommands: count, table, extend, and verify {strip, diagonal, corollary,
weights, quadrants, identities}.  Exit codes: 0 all checks pass, 1 a check
failed, 2 usage error (also an unwritable --out, or a standard output that
is closed or cannot be written), 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import partial
from pathlib import Path

from .cache import entry_payload, load_entry, resolve_cache_dir, save_entry
from .errors import CheckFailedError, ParameterError, ResourceLimitError
from .exact import binom
from .lattice import (
    DEFAULT_STATE_CAP,
    LatticeSpec,
    brute_force_count,
    count_configurations,
    count_polynomial,
    count_tables,
)
from .recurrences import (
    check_steps,
    corollary_windows,
    diagonal_windows,
    extend_diagonal,
    fit_polynomial,
    seed_from_enumeration,
    strip_windows,
    verify_diagonal,
    verify_diagonal_corollary,
    verify_strip,
    window_residuals,
)
from .reports import CheckRecord, Report
from .weights import (
    RhsModel,
    accumulate_lhs,
    accumulate_rhs,
    build_weight_grid,
    rhs_closed_form,
    verify_quadrant_lemmas,
    verify_rhs_column_sums,
)
from . import identities

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_range(text: str) -> list[int]:
    """Inclusive 'a..b' range, or a single integer."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_fraction(text: str) -> Fraction:
    """An exact rational such as '2', '-1' or '7/3'."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _stdout(text: str | None = None) -> None:
    """Write text to standard output, or flush it; an OSError there is a usage error.

    It cuts the output short (`| head`, a full device), which no check decides.
    """
    try:
        if text is None:
            sys.stdout.flush()
        else:
            sys.stdout.write(text)
    except OSError as exc:
        _discard_stdout()
        why = "was closed" if isinstance(exc, BrokenPipeError) else f"could not be written ({exc})"
        raise ParameterError(f"standard output {why}; the output is incomplete") from exc


class _Writer:
    """One record-holding output, written a part at a time as each part exists.

    The output is a head, one line per record and a tail.  With a JSON
    `indent` the records form a list at that indent, each compact on its own
    line; without one they are plain lines.  A part goes out as its opening
    and then its joined lines, so nothing is written before the first part
    exists, and no part is kept once written.
    """

    def __init__(self, write, head: str = "", indent: str | None = None) -> None:
        self.write = write
        self.pending = head
        if indent is None:
            self.open, self.sep, self.end, self.bare = "", "\n", "\n", ""
        else:
            line = f"\n{indent}  "
            self.open, self.sep, self.end, self.bare = "[" + line, "," + line, f"\n{indent}]", "[]"
        self.empty = True

    def part(self, lines: list[str]) -> None:
        if lines:
            self.write(self.pending + (self.open if self.empty else self.sep))
            self.write(self.sep.join(lines))
            self.pending, self.empty = "", False

    def close(self, tail: str) -> None:
        self.write(self.pending + (self.bare if self.empty else self.end) + tail)


def _text_line(c: CheckRecord) -> str:
    line = f"{c.status:4s} {c.name} " + " ".join(f"{k}={v}" for k, v in c.params.items())
    if c.status in ("FAIL", "info"):
        return line + f" expected={c.expected} actual={c.actual}"
    if c.actual not in ("ok", "") and len(c.actual) <= 48:
        return line + f" value={c.actual}"
    return line


def _write_report(parts: Iterable[Report], args, title: str, started: float) -> int:
    """Write a verify report to stdout, each part's records as soon as the part exists.

    Only the running count of each status is kept.  The text footer, and the
    JSON keys that sort after "checks" (wall_time read after the last
    record), are written from those counts.  Returns the exit code.
    """
    counts = {"pass": 0, "FAIL": 0, "info": 0}
    as_json = args.format == "json"
    writer = (_Writer(_stdout, '{\n  "checks": ', indent="  ") if as_json
              else _Writer(_stdout))
    for report in parts:
        for c in report.checks:
            counts[c.status] += 1
        writer.part(list(map(_ENCODE, map(CheckRecord.to_dict, report.checks))) if as_json
                    else list(map(_text_line, report.checks)))
    if not as_json:
        info = f", {counts['info']} info" if counts["info"] else ""
        writer.close(f"# {counts['pass']} passed, {counts['FAIL']} failed{info}\n")
    else:
        tail = {
            "command": f"verify {args.target}",
            "ok": not counts["FAIL"],
            "params": {k: str(v) for k, v in sorted(vars(args).items())
                       if k not in ("func", "format") and v is not None},
            "summary": {"total": sum(counts.values()), "passed": counts["pass"],
                        "failed": counts["FAIL"], "info": counts["info"]},
            "title": title,
            "wall_time": round(time.perf_counter() - started, 6),
        }
        writer.close("".join(f",\n  {_ENCODE(k)}: {_ENCODE(v)}" for k, v in tail.items())
                     + "\n}\n")
    return EXIT_CHECK_FAILED if counts["FAIL"] else EXIT_OK


def cmd_count(args) -> int:
    spec = LatticeSpec(n=args.n, m=args.m, k=args.k)
    if args.all_s:
        if args.method == "brute":
            raise ParameterError("--method brute counts one s; it cannot be used with --all-s")
        rows = list(enumerate(count_polynomial(spec, state_cap=args.state_cap).counts))
        doc = {"counts": [str(c) for _, c in rows]}
    else:
        if args.s is None:
            raise ParameterError("one of --s or --all-s is required")
        if args.method == "brute":
            value = brute_force_count(spec, args.s)
        else:
            value = count_configurations(spec, args.s, state_cap=args.state_cap)
        rows = [(args.s, value)]
        doc = {"s": args.s, "count": str(value)}
    if args.format == "json":
        _stdout(json.dumps({"k": spec.k, "n": spec.n, "m": spec.m, **doc}, sort_keys=True) + "\n")
    elif args.format == "csv":
        _stdout("n,m,s,count\n" + "".join(f"{spec.n},{spec.m},{sv},{cv}\n" for sv, cv in rows))
    else:
        _stdout(" ".join(str(c) for _, c in rows) + "\n")
    return EXIT_OK


def _check_out(path: str) -> None:
    """Refuse an --out that cannot be written, before any sweep or cache write."""
    out = Path(path)
    if not out.parent.is_dir():
        problem = "no such directory"
    elif out.is_dir():
        problem = "is a directory"
    elif not os.access(out if out.exists() else out.parent, os.W_OK):
        problem = "not writable"
    else:
        return
    raise ParameterError(f"cannot write --out {path}: {problem}")


def cmd_table(args) -> int:
    # the largest entry: rejects a bad k or an empty range before any work
    LatticeSpec(n=args.n_max, m=args.m_max, k=args.k)
    if args.out:
        _check_out(args.out)
    cache_dir = resolve_cache_dir(args.cache_dir)
    try:  # as save_entry would, but before any sweep
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot write cache directory {cache_dir}: {exc}") from exc
    if not os.access(cache_dir, os.W_OK):
        raise ParameterError(f"cannot write cache directory {cache_dir}: not writable")
    points = [(n, m) for n in range(1, args.n_max + 1) for m in range(1, args.m_max + 1)]
    tables = count_tables(args.k, points, state_cap=args.state_cap)
    entries = [tables[p] for p in points]
    # one entry per unordered lattice; (6, 2) goes in as (2, 6) whether or not (2, 6) is asked for
    for table in {(min(p), max(p)): tables[p] for p in points}.values():
        save_entry(cache_dir, table)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                _write_table(fh.write, entries, args.format)
        except OSError as exc:
            raise ParameterError(f"cannot write --out {args.out}: {exc}") from exc
    else:
        _write_table(_stdout, entries, args.format)
    return EXIT_OK


def _write_table(write, entries: list, fmt: str) -> None:
    """Write the table one entry at a time: CSV rows, or a JSON list of cache payloads."""
    if fmt == "csv":
        writer = _Writer(write, "n,m,s,count\n")
        for table in entries:
            n, m = table.spec.n, table.spec.m
            writer.part([f"{n},{m},{sv},{cv}" for sv, cv in enumerate(table.counts)])
    else:
        writer = _Writer(write, indent="")
        for table in entries:
            writer.part([_ENCODE(entry_payload(table))])
    writer.close("\n" if fmt == "json" else "")


def _verify_windows(args) -> tuple[str, Iterator[Report]]:
    """A strip, diagonal or corollary command's title and its verifier calls, one report each.

    Every call's windows are validated, and the one count_tables sweep run,
    before this returns; the sweep counts every window point at max(--s), at
    most one sweep per distinct shorter side, and each verifier call, made as
    its report is wanted, reads its counts from that one set of tables.
    """
    if args.n is None:
        raise ParameterError(f"verify {args.target} requires --n")
    if args.target == "strip" and args.m is None:
        raise ParameterError("verify strip requires --m")
    enforce = {"enforce_range": not args.unsafe_range}
    if args.target == "strip":
        title, plan, verify = "strip recurrence", strip_windows, verify_strip
        calls = [((args.k, n, sv, args.m), enforce) for n in args.n for sv in args.s]
    else:
        if args.target == "diagonal":
            title, plan, verify = "diagonal recurrence", diagonal_windows, verify_diagonal
        else:
            title, plan, verify = ("diagonal corollary", corollary_windows,
                                   verify_diagonal_corollary)
        ms = args.m if args.m is not None else args.n
        points = [(n, m) for n in args.n for m in ms]
        calls = [((args.k, sv, points), enforce) for sv in args.s]
    window_points = [p for a, kw in calls for p in plan(*a, **kw).points()]
    tables = count_tables(args.k, window_points, max(args.s), args.state_cap)
    return title, (verify(*a, tables=tables, **kw) for a, kw in calls)


def _weight_parts(args) -> Iterator[Report]:
    """verify weights, two reports per s: the grid's own checks, then its column sums."""
    model = RhsModel(lam=args.lam, eta=args.eta, n=args.anchor_n)
    for sv in args.s:
        report = Report(title="weight grid")
        grid = build_weight_grid(sv)
        cells = accumulate_lhs(grid)
        bad = []
        for ii in range(2 * sv + 1):
            for jj in range(2 * sv + 1):
                want = 2 * (-1) ** ii * binom(2 * sv, ii) if ii == jj else 0
                if cells[ii][jj] != want:
                    bad.append((ii, jj, cells[ii][jj], want))
        report.record("cancellation", {"s": sv}, "diagonal 2(-1)^i C(2s,i), zero elsewhere",
                      "ok" if not bad else str(bad[:4]), passed=not bad)
        total = accumulate_rhs(grid, model)
        report.record(
            "rhs-total",
            {"s": sv, "lambda": str(args.lam), "eta": str(args.eta),
             "anchor_n": args.anchor_n},
            str(rhs_closed_form(sv, args.lam)),
            str(total),
        )
        yield report
        yield verify_rhs_column_sums(sv)


#: the verify options each target reads; it refuses any other that is not at its default
_VERIFY_READS = {
    "strip": ("k", "s", "n", "m", "unsafe_range"),
    "diagonal": ("k", "s", "n", "m", "unsafe_range"),
    "corollary": ("k", "s", "n", "m", "unsafe_range"),
    "weights": ("s", "lam", "eta", "anchor_n"),
    "quadrants": ("s",),
    "identities": ("filter",),
}


def cmd_verify(args, options: Iterable[argparse.Action]) -> int:
    """Run a verify command, writing its report one part at a time.

    Every parameter is checked before the first write: an option (of the
    parser's actions in options) that the target does not read must keep its
    default, the window commands plan every window before their one sweep,
    --s a..b runs from its lowest s (the only one weights and quadrants can
    refuse), and an identity filter is matched before its report is written.
    """
    started = time.perf_counter()
    for action in options:
        if (action.dest not in _VERIFY_READS[args.target]
                and getattr(args, action.dest) != action.default):
            raise ParameterError(f"verify {args.target} does not read {action.option_strings[0]}")
    if args.target in ("strip", "diagonal", "corollary"):
        title, parts = _verify_windows(args)
    elif args.target == "weights":
        title, parts = "weight grid", _weight_parts(args)
    elif args.target == "quadrants":
        title, parts = "quadrant lemmas", (verify_quadrant_lemmas(sv) for sv in args.s)
    elif args.target == "identities":
        report = identities.run_registry(args.filter)
        if not report.checks:
            raise ParameterError(f"--filter {args.filter!r} matches no identity check")
        title, parts = report.title, [report]
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterError(f"unknown verify target {args.target}")
    return _write_report(parts, args, title, started)


def cmd_extend(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    k, s = args.k, args.s

    def cached_count(n: int, m: int) -> int:
        table = load_entry(cache_dir, k, n, m)
        if table is not None:
            return table.count(s)
        return count_configurations(LatticeSpec(n=n, m=m, k=k), s, state_cap=args.state_cap)

    check_steps(args.steps)  # like the seed range check, before any count
    seed = seed_from_enumeration(k, s, args.anchor_n, args.anchor_m, count=cached_count)
    extended = extend_diagonal(seed, args.steps)
    residuals = window_residuals(seed, extended)
    if not args.no_crosscheck:
        polynomial = fit_polynomial(k, s, args.state_cap)
        for idx, value in enumerate(extended, start=1):
            n, m = args.anchor_n + idx, args.anchor_m + idx
            expected = polynomial(n, m)
            if expected != value:
                raise CheckFailedError(f"extension mismatch at ({n},{m}): recurrence {value} "
                                       f"!= quadrant polynomial {expected}")
    crosschecked = [] if args.no_crosscheck else list(range(1, len(extended) + 1))
    if args.format == "json":
        _stdout(json.dumps({
            "k": k, "s": s, "anchor_n": args.anchor_n, "anchor_m": args.anchor_m,
            "extended": [str(v) for v in extended],
            "crosschecked_steps": crosschecked,
            "residuals": residuals,
        }, sort_keys=True) + "\n")
    else:
        for idx, value in enumerate(extended, start=1):
            _stdout(f"a({args.anchor_n + idx},{args.anchor_m + idx}) = {value}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycount",
        description="Exact rod-covering counts on open rectangular lattices, "
                    "with recurrence and identity verification.",
    )
    parser.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                        help="cap on the live profiles the transfer sweep may carry")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count configurations of s rods")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--s", type=int)
    which.add_argument("--all-s", action="store_true")
    p.add_argument("--method", choices=("transfer", "brute"), default="transfer")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "table", help="tabulate counts and populate the cache",
        description="Print a(n, m, k, s) for every s on each n x m lattice with n <= "
                    "--n-max and m <= --m-max, and store each table in the cache. "
                    "The cache holds one file per (k, min(n, m), max(n, m)); a lattice "
                    "and its transpose share it.")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--out", help="write the table here instead of stdout; checked "
                                 "for writability before any work")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--cache-dir", help="cache directory (default: $POLYCOUNT_CACHE, "
                                       "else the platform cache directory)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="verify recurrences, weights, identities")
    p.add_argument("target", choices=(
        "strip", "diagonal", "corollary", "weights", "quadrants", "identities"))
    options = [
        p.add_argument("--k", type=int, default=2),
        p.add_argument("--s", type=_parse_range, default=[1]),
        p.add_argument("--n", type=_parse_range, default=None),
        p.add_argument("--m", type=_parse_range, default=None),
        p.add_argument("--lambda", dest="lam", type=_parse_fraction, default=Fraction(2)),
        p.add_argument("--eta", type=_parse_fraction, default=Fraction(-1)),
        p.add_argument("--anchor-n", type=int, default=30),
        p.add_argument("--filter", default="*"),
        p.add_argument("--unsafe-range", action="store_true",
                       help="report (without asserting) outside the proven range"),
    ]
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=partial(cmd_verify, options=options))

    p = sub.add_parser("extend", help="extend counts along a diagonal")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--anchor-n", type=int, required=True)
    p.add_argument("--anchor-m", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--no-crosscheck", action="store_true",
                   help="skip checking every extended value against the quadrant "
                        "polynomial certified on held-out DP counts")
    p.add_argument("--cache-dir")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_extend)
    return parser


def _discard_stdout() -> None:
    """Point a failed stdout at the null device, so the interpreter's last flush succeeds."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file: nothing flushes it at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        _stdout()  # a closed pipe or a full device shows here, not at interpreter exit
        return code
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CheckFailedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
