"""Self-test of the benchmark's references and checks.

    python3 perfbench/selftest.py

Confirms the closed-form references against the library's brute-force
oracle on small lattices and against the values the paper quotes, then shows
that a correct output passes every check while a corrupted output, or a
corrupted reference, is counted as a failed operation.  Exits 0 when all of
that holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from polycount import LatticeSpec, brute_force_count, cli, count_polynomial, hseq  # noqa: E402

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def failures(item: dict, out: dict) -> int:
    tally = checks.Tally()
    checks.check_item(tally, item, out)
    return len(tally.failures)


def cli_out(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "cache_dir": ""}


@contextlib.contextmanager
def corrupted(name: str):
    """Replace checks.<name> by a reference that is off by one."""
    original = getattr(checks, name)
    setattr(checks, name, lambda *a: original(*a) + 1)
    try:
        yield
    finally:
        setattr(checks, name, original)


def references() -> None:
    for n in range(1, 7):
        for m in range(1, 7):
            for k in (2, 3):
                spec = LatticeSpec(n, m, k)
                expect(checks.one_rod(n, m, k) == brute_force_count(spec, 1), f"one_rod {spec}")
                expect(checks.rod_pairs(n, m, k) == brute_force_count(spec, 2),
                       f"rod_pairs {spec}")
            if n * m <= 25:
                expect(checks.dimer_triples(n, m) == brute_force_count(LatticeSpec(n, m, 2), 3),
                       f"dimer_triples {n}x{m}")
    quoted = {(16, 2): 113612, (40, 2): 4856516}
    for (d, k), value in quoted.items():
        expect(checks.rod_pairs(d, d, k) == value, f"a({d},{d},{k},2) != {value}")
    expect(checks.one_rod(40, 40, 2) == 3120 and checks.one_rod(40, 40, 3) == 3040, "one_rod 40")


def corruption() -> None:
    item = {"id": "count 5x6 k2 s3", "kind": "count_polynomial", "check": "count",
            "n": 5, "m": 6, "k": 2, "s": 3}
    out = {"counts": list(count_polynomial(LatticeSpec(5, 6, 2), s_max=3).counts), "brute": None}
    expect(failures(item, out) == 0, "count: correct output failed")
    bad = copy.deepcopy(out)
    bad["counts"][3] += 1
    expect(failures(item, bad) > 0, "count: corrupted output passed")
    with corrupted("dimer_triples"):
        expect(failures(item, out) > 0, "count: corrupted reference passed")

    item = {"id": "extend", "kind": "cli", "check": "extend", "k": 2, "s": 2, "anchor": 9,
            "steps": 3, "crosscheck": 3}
    out = cli_out(["extend", "--k", "2", "--s", "2", "--anchor-n", "9", "--anchor-m", "9",
                   "--steps", "3", "--cache-dir", str(HERE.parent / ".perfbench" / "selftest"),
                   "--format", "json"])
    expect(failures(item, out) == 0, "extend: correct output failed")
    doc = json.loads(out["stdout"])
    doc["extended"][-1] = str(int(doc["extended"][-1]) + 1)
    expect(failures(item, {**out, "stdout": json.dumps(doc)}) > 0, "extend: corrupted output passed")
    with corrupted("rod_pairs"):
        expect(failures(item, out) > 0, "extend: corrupted reference passed")
    expect(failures(item, {**out, "rc": 1}) > 0, "extend: nonzero exit passed")

    item = {"id": "strip", "kind": "cli", "check": "strip", "k": 2, "n": [2, 3], "s": [1, 2],
            "m": [4, 5]}
    out = cli_out(["verify", "strip", "--k", "2", "--n", "2..3", "--s", "1..2", "--m", "4..5",
                   "--format", "json"])
    expect(failures(item, out) == 0, "strip: correct output failed")
    doc = json.loads(out["stdout"])
    doc["checks"][0]["actual"] = "0"
    expect(failures(item, {**out, "stdout": json.dumps(doc)}) > 0, "strip: corrupted output passed")
    doc = json.loads(out["stdout"])
    del doc["checks"][-1]
    expect(failures(item, {**out, "stdout": json.dumps(doc)}) > 0, "strip: missing window passed")
    with corrupted("strip_rhs"):
        expect(failures(item, out) > 0, "strip: corrupted reference passed")

    item = {"id": "verify identities", "kind": "cli", "check": "registry"}
    records = [{"name": name, "status": "pass", "params": {"tested": t, "skipped": sk}}
               for name, (t, sk) in checks.PINNED["registry"].items()]
    out = {"rc": 0, "stdout": json.dumps({"checks": records}), "stderr": "", "cache_dir": ""}
    expect(failures(item, out) == 0, "registry: correct output failed")
    records[5]["params"]["tested"] += 1
    expect(failures(item, {**out, "stdout": json.dumps({"checks": records})}) > 0,
           "registry: corrupted point count passed")

    item = {"id": "h routes s4", "kind": "h_routes", "check": "h_routes", "s": 4}
    cells = [(i, j) for i in range(4) for j in range(1, 5)]
    routes = {"recursive": {c: hseq.h_recursive(4, *c) for c in cells},
              "explicit": {c: hseq.h_explicit(4, *c) for c in cells},
              "gf": {(i, j): v for i in range(4)
                     for j, v in enumerate(hseq.h_from_gf(4, i, 4), start=1)},
              "double_gf": hseq.h_from_double_gf(4, 3, 4)}
    expect(failures(item, {"routes": routes}) == 0, "h routes: correct output failed")
    routes["gf"][(1, 3)] += 1
    expect(failures(item, {"routes": routes}) > 0, "h routes: corrupted output passed")

    expect(failures(item, {"error": "RuntimeError()"}) == 1, "an exception was not one failure")


def main() -> int:
    references()
    corruption()
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
