"""Independent references and the output checks built on them.

Every reference here comes from a route other than the transfer DP being
measured: closed forms, an edge-matching count on the grid graph, the
library's brute-force oracle (computed by the worker after the timed region)
and values pinned from the paper or from the seed's registry run.  Each
asserted comparison is one operation; a failed one is counted into the
workload's error rate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text(encoding="utf-8"))

#: Domino tilings of the n x n square, a(n, n, 2, n*n/2) (Kasteleyn).
DOMINO_TILINGS = {(4, 4): 36, (6, 6): 6728, (8, 8): 12988816}


# -- references ---------------------------------------------------------------

def one_rod(n: int, m: int, k: int) -> int:
    """a(n, m, k, 1): every horizontal and every vertical rod position."""
    return n * max(0, m - k + 1) + m * max(0, n - k + 1)


def rod_pairs(n: int, m: int, k: int) -> int:
    """a(n, m, k, 2): all position pairs minus the pairs that overlap.

    Two rods in one row overlap when their starts differ by less than k (same
    for columns); a horizontal and a vertical rod meet in at most one cell, so
    crossing pairs number (cells covered by horizontals) x (by verticals).
    """
    h, v = max(0, m - k + 1), max(0, n - k + 1)
    positions = n * h + m * v
    same_row = n * sum(max(0, h - d) for d in range(1, k))
    same_col = m * sum(max(0, v - d) for d in range(1, k))
    return math.comb(positions, 2) - same_row - same_col - (k * h) * (k * v)


def dimer_triples(n: int, m: int) -> int:
    """a(n, m, 2, 3): 3-matchings of the n x m grid graph.

    Every 3-matching is counted once for each of its edges e, as a 2-matching
    of the graph with e's endpoints removed; a 2-matching count is all edge
    pairs minus the pairs sharing a vertex.  The grid has no triangles, so a
    vertex next to both endpoints of e cannot occur.
    """
    def nbrs(r: int, c: int) -> list[tuple[int, int]]:
        cand = ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
        return [(a, b) for a, b in cand if 0 <= a < n and 0 <= b < m]

    deg = {(r, c): len(nbrs(r, c)) for r in range(n) for c in range(m)}
    edges = [((r, c), (r, c + 1)) for r in range(n) for c in range(m - 1)]
    edges += [((r, c), (r + 1, c)) for r in range(n - 1) for c in range(m)]
    incident_pairs = sum(math.comb(d, 2) for d in deg.values())
    total = 0
    for u, v in edges:
        e_rest = len(edges) - deg[u] - deg[v] + 1
        pairs_rest = incident_pairs - math.comb(deg[u], 2) - math.comb(deg[v], 2)
        for w in nbrs(*u) + nbrs(*v):
            if w not in (u, v):
                pairs_rest -= deg[w] - 1
        total += math.comb(e_rest, 2) - pairs_rest
    if total % 3:
        raise ArithmeticError("3-matching count is not divisible by 3")
    return total // 3


def strip_rhs(n: int, k: int, s: int) -> int:
    return (2 * n - k + 1) ** s


def diagonal_rhs(s: int) -> int:
    return 2**s * math.factorial(2 * s) // math.factorial(s)


def h_column_sum(s: int, j: int) -> int:
    return (-1) ** (j + 1) * (s - 1) * math.comb(s - 1, j - 1)


def weights_rhs_total(s: int, lam: int) -> int:
    return lam**s * math.comb(2 * s, s) * math.factorial(s)


# -- tally ----------------------------------------------------------------------

class Tally:
    """Attempted and failed operations, with a message for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# -- per-item checks ----------------------------------------------------------

def _lattice_counts(tally: Tally, where: str, n: int, m: int, k: int, counts: list[int],
                    full: bool) -> None:
    """Checks shared by every count vector, from whichever command printed it."""
    cap = n * m // k
    if full:
        tally.expect(len(counts) == cap + 1, f"{where}: {len(counts)} counts, capacity {cap}")
    tally.expect(counts[0] == 1, f"{where}: a(s=0)={counts[0]}")
    if cap >= 1:
        tally.expect(counts[1] == one_rod(n, m, k), f"{where}: a(s=1)={counts[1]}")
    if cap >= 2 and len(counts) > 2:
        tally.expect(counts[2] == rod_pairs(n, m, k), f"{where}: a(s=2)={counts[2]}")
    if k == 2 and (n, m) in DOMINO_TILINGS and full:
        tally.expect(counts[-1] == DOMINO_TILINGS[(n, m)], f"{where}: tilings={counts[-1]}")


def check_count(tally: Tally, item: dict, out: dict) -> None:
    n, m, k, s = item["n"], item["m"], item["k"], item["s"]
    counts = out["counts"]
    where = f"a({n},{m},{k},.)"
    if not tally.expect(len(counts) == s + 1, f"{where}: {len(counts)} counts for s_max={s}"):
        return
    _lattice_counts(tally, where, n, m, k, counts, full=False)
    if out.get("brute") is not None:
        tally.expect(counts[s] == out["brute"], f"{where}: s={s} {counts[s]} != brute {out['brute']}")
    if k == 2 and s == 3:
        tally.expect(counts[3] == dimer_triples(n, m), f"{where}: s=3 {counts[3]}")


def _cli_ok(tally: Tally, item: dict, out: dict):
    """One operation for the command itself; returns its parsed stdout or None."""
    if not tally.expect(out["rc"] == 0, f"{item['id']}: exit {out['rc']} {out['stderr'][-200:]}"):
        return None
    return out["stdout"]


def _table_by_lattice(tally: Tally, item: dict, out: dict, tables: dict) -> None:
    k = item["k"]
    want = {(n, m) for n in range(1, item["n_max"] + 1) for m in range(1, item["m_max"] + 1)}
    tally.expect(set(tables) == want, f"{item['id']}: lattices {sorted(set(tables) ^ want)[:4]}")
    for (n, m), counts in sorted(tables.items()):
        _lattice_counts(tally, f"{item['id']} a({n},{m})", n, m, k, counts, full=True)
    tally.expect(any(Path(out["cache_dir"]).iterdir()), f"{item['id']}: cache left empty")


def check_table_csv(tally: Tally, item: dict, out: dict) -> None:
    text = _cli_ok(tally, item, out)
    if text is None:
        return
    lines = text.strip().splitlines()
    rows: dict[tuple[int, int], dict[int, int]] = {}
    if tally.expect(lines[0] == "n,m,s,count", f"{item['id']}: header {lines[0]!r}"):
        for line in lines[1:]:
            n, m, s, c = (int(x) for x in line.split(","))
            rows.setdefault((n, m), {})[s] = c
    tables = {key: [row[s] for s in range(len(row))] for key, row in rows.items()}
    _table_by_lattice(tally, item, out, tables)


def check_table_json(tally: Tally, item: dict, out: dict) -> None:
    text = _cli_ok(tally, item, out)
    if text is None:
        return
    tables = {}
    for entry in json.loads(text):
        tally.expect(entry["k"] == item["k"], f"{item['id']}: entry for k={entry['k']}")
        tables[(entry["n"], entry["m"])] = [int(c) for c in entry["counts"]]
    _table_by_lattice(tally, item, out, tables)


def check_extend(tally: Tally, item: dict, out: dict) -> None:
    text = _cli_ok(tally, item, out)
    if text is None:
        return
    doc = json.loads(text)
    k, s, anchor = item["k"], item["s"], item["anchor"]
    ref = {1: one_rod, 2: rod_pairs}[s]
    values = [int(v) for v in doc["extended"]]
    tally.expect(len(values) == item["steps"], f"{item['id']}: {len(values)} steps")
    for idx, value in enumerate(values, start=1):
        d = anchor + idx
        tally.expect(value == ref(d, d, k), f"{item['id']}: a({d},{d},{k},{s})={value}")
    want = list(range(1, item["crosscheck"] + 1))
    tally.expect(doc["crosschecked_steps"] == want,
                 f"{item['id']}: crosschecked {doc['crosschecked_steps']}")


def _windows(tally: Tally, item: dict, out: dict, expected: dict) -> None:
    """expected: (n, m, s) -> right-hand side, one operation per window."""
    text = _cli_ok(tally, item, out)
    if text is None:
        return
    got = {}
    for rec in json.loads(text)["checks"]:
        p = rec["params"]
        got[(p["n"], p["m"], p["s"])] = rec
    tally.expect(set(got) <= set(expected), f"{item['id']}: {len(set(got) - set(expected))} "
                                            f"unexpected windows")
    for key, rhs in sorted(expected.items()):
        rec = got.get(key)
        ok = (rec is not None and rec["status"] == "pass" and rec["actual"] == str(rhs)
              and rec["params"].get("in_range", True))
        tally.expect(ok, f"{item['id']}: window {key} {rec} != {rhs}")


def check_strip(tally: Tally, item: dict, out: dict) -> None:
    k = item["k"]
    _windows(tally, item, out, {(n, m, s): strip_rhs(n, k, s)
                                for n in item["n"] for s in item["s"] for m in item["m"]})


def check_diagonal(tally: Tally, item: dict, out: dict) -> None:
    _windows(tally, item, out, {(n, m, s): diagonal_rhs(s)
                                for s in item["s"] for n in item["n"] for m in item["n"]})


def check_corollary(tally: Tally, item: dict, out: dict) -> None:
    _windows(tally, item, out, {(n, m, s): 0
                                for s in item["s"] for n in item["n"] for m in item["n"]})


def check_registry(tally: Tally, item: dict, out: dict) -> None:
    text = _cli_ok(tally, item, out)
    if text is None:
        return
    got = {rec["name"]: rec for rec in json.loads(text)["checks"]}
    pins = PINNED["registry"]
    tally.expect(set(got) == set(pins), f"{item['id']}: checks {sorted(set(got) ^ set(pins))}")
    for name, (tested, skipped) in sorted(pins.items()):
        rec = got.get(name)
        ok = (rec is not None and rec["status"] == "pass"
              and rec["params"]["tested"] == tested and rec["params"]["skipped"] == skipped)
        tally.expect(ok, f"{item['id']}: {name} {rec and rec['params']} != {tested}/{skipped}")


def _all_pass(tally: Tally, item: dict, records: list[dict]) -> None:
    tally.expect(len(records) == PINNED["records"][item["id"]],
                 f"{item['id']}: {len(records)} records")
    for rec in records:
        tally.expect(rec["status"] == "pass", f"{item['id']}: {rec['name']} {rec['params']}")


def check_quadrants(tally: Tally, item: dict, out: dict) -> None:
    text = _cli_ok(tally, item, out)
    if text is not None:
        _all_pass(tally, item, json.loads(text)["checks"])


def check_weights(tally: Tally, item: dict, out: dict) -> None:
    text = _cli_ok(tally, item, out)
    if text is None:
        return
    records = json.loads(text)["checks"]
    _all_pass(tally, item, records)
    totals = {rec["params"]["s"]: rec["actual"] for rec in records if rec["name"] == "rhs-total"}
    for s in item["s"]:
        want = str(weights_rhs_total(s, item["lam"]))
        tally.expect(totals.get(s) == want, f"{item['id']}: rhs-total s={s} {totals.get(s)}")


def check_mutation(tally: Tally, item: dict, out: dict) -> None:
    got = {rec["name"]: rec for rec in out["report"]["checks"]}
    want = PINNED["mutation"][item["pattern"]]
    tally.expect(sorted(got) == want, f"{item['id']}: certificates {sorted(got)}")
    for name in want:
        rec = got.get(name)
        tally.expect(rec is not None and rec["status"] == "pass",
                     f"{item['id']}: {name} {rec and rec['actual']}")


def check_h_routes(tally: Tally, item: dict, out: dict) -> None:
    s = item["s"]
    routes = out["routes"]
    for i in range(s):
        for j in range(1, s + 1):
            values = {name: r.get((i, j)) for name, r in routes.items()}
            tally.expect(len(set(values.values())) == 1, f"h({s},{i},{j}) routes {values}")
    for j in range(1, s + 1):
        total = sum(routes["recursive"][(i, j)] for i in range(s))
        tally.expect(total == h_column_sum(s, j), f"column sum h({s},.,{j})={total}")


CHECKS = {
    "count": check_count,
    "table_csv": check_table_csv,
    "table_json": check_table_json,
    "extend": check_extend,
    "strip": check_strip,
    "diagonal": check_diagonal,
    "corollary": check_corollary,
    "registry": check_registry,
    "quadrants": check_quadrants,
    "weights": check_weights,
    "mutation": check_mutation,
    "h_routes": check_h_routes,
}


def check_item(tally: Tally, item: dict, out: dict) -> None:
    """Check one item's output; an exception while running it is one failure."""
    if "error" in out:
        tally.expect(False, f"{item['id']}: {out['error']}")
        return
    try:
        CHECKS[item["check"]](tally, item, out)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        tally.expect(False, f"{item['id']}: malformed output ({exc!r})")
