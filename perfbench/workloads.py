"""The fixed work lists of the four workloads, and their seed-given order.

Every item is a plain dict so it can be sent to a worker as JSON.  CLI items
carry an argv in which the token ``{cache}`` stands for the run's private
cache directory.  ``after`` names the items that must run first (an
``extend`` reads the cache its ``table`` wrote); the seed permutes the order
of everything else.
"""

from __future__ import annotations

import random

CACHE = "{cache}"


def _cli(item_id: str, argv: list[str], check: str, after=(), **extra) -> dict:
    return {"id": item_id, "kind": "cli", "argv": argv, "check": check,
            "after": list(after), **extra}


def _sparse() -> list[dict]:
    return [
        {"id": f"count {n}x{m} k{k} s{s}", "kind": "count_polynomial",
         "n": n, "m": m, "k": k, "s": s, "check": "count", "after": []}
        for n, m, k, s in ((9, 12, 4, 2), (12, 12, 3, 2), (12, 12, 2, 3), (16, 16, 2, 2))
    ]


def _dense() -> list[dict]:
    def extend(k, s, anchor, steps):
        return _cli(
            f"extend k{k} s{s} anchor {anchor} steps {steps}",
            ["extend", "--k", str(k), "--s", str(s), "--anchor-n", str(anchor),
             "--anchor-m", str(anchor), "--steps", str(steps), "--no-crosscheck",
             "--cache-dir", CACHE, "--format", "json"],
            "extend", after=[f"table k{k}"], k=k, s=s, anchor=anchor, steps=steps,
            crosscheck=0)

    return [
        _cli("table k2", ["table", "--k", "2", "--n-max", "9", "--m-max", "9",
                          "--format", "csv", "--cache-dir", CACHE],
             "table_csv", k=2, n_max=9, m_max=9),
        _cli("table k3", ["table", "--k", "3", "--n-max", "8", "--m-max", "8",
                          "--format", "json", "--cache-dir", CACHE],
             "table_json", k=3, n_max=8, m_max=8),
        extend(2, 2, 9, 31),
        extend(2, 1, 9, 31),
        extend(3, 1, 8, 32),
    ]


def _span(lo: int, hi: int) -> list[int]:
    return list(range(lo, hi + 1))


def _verify_grid() -> list[dict]:
    def window_cmd(target, k, **ranges):
        argv = ["verify", target, "--k", str(k)]
        for flag, (lo, hi) in ranges.items():
            argv += [f"--{flag}", f"{lo}..{hi}"]
        return _cli(f"verify {target} k{k}", argv + ["--format", "json"], target, k=k,
                    **{flag: _span(lo, hi) for flag, (lo, hi) in ranges.items()})

    return [
        window_cmd("strip", 2, n=(2, 8), s=(1, 3), m=(6, 14)),
        window_cmd("strip", 3, n=(3, 8), s=(1, 3), m=(9, 14)),
        window_cmd("diagonal", 2, s=(1, 2), n=(6, 14)),
        window_cmd("corollary", 2, s=(1, 2), n=(7, 15)),
        _cli("extend k2 s2 anchor 10 steps 8",
             ["extend", "--k", "2", "--s", "2", "--anchor-n", "10", "--anchor-m", "10",
              "--steps", "8", "--cache-dir", CACHE, "--format", "json"],
             "extend", k=2, s=2, anchor=10, steps=8, crosscheck=8),
    ]


def _identity_harness() -> list[dict]:
    items = [
        _cli("verify identities", ["verify", "identities", "--format", "json"],
             "registry"),
        _cli("verify quadrants", ["verify", "quadrants", "--s", "2..6", "--format", "json"],
             "quadrants"),
        _cli("verify weights", ["verify", "weights", "--s", "1..6", "--format", "json"],
             "weights", s=_span(1, 6), lam=2),
    ]
    items += [
        {"id": f"mutants {p}", "kind": "mutation", "pattern": p, "check": "mutation",
         "after": []}
        for p in ("gf/*", "double-gf/*", "rhs/*", "appendix-d/*")
    ]
    items += [
        {"id": f"h routes s{s}", "kind": "h_routes", "s": s, "check": "h_routes",
         "after": []}
        for s in range(4, 8)
    ]
    return items


WORKLOADS = {
    "sparse-count": _sparse,
    "dense-table": _dense,
    "verify-grid": _verify_grid,
    "identity-harness": _identity_harness,
}


def work_list(workload: str, seed: int) -> list[dict]:
    """The workload's items in a seed-given order that respects ``after``."""
    pending = WORKLOADS[workload]()
    rng = random.Random(seed)
    done: set[str] = set()
    order = []
    while pending:
        ready = [it for it in pending if done.issuperset(it["after"])]
        pick = ready[rng.randrange(len(ready))]
        pending.remove(pick)
        done.add(pick["id"])
        order.append(pick)
    return order
