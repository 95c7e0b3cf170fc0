from __future__ import annotations

import math

import pytest

from polycount import recurrences
from polycount.errors import CheckFailedError, ParameterError
from polycount.lattice import CountTable, LatticeSpec, count_configurations, count_tables
from polycount.recurrences import (
    DiagonalSeed,
    corollary_windows,
    diagonal_windows,
    diagonal_rhs,
    extend_diagonal,
    fit_polynomial,
    seed_from_enumeration,
    strip_windows,
    verify_diagonal,
    verify_diagonal_corollary,
    verify_strip,
    window_residuals,
)


def test_strip_examples():
    r = verify_strip(2, 2, 1, range(2, 9))
    assert r.ok and all(c.expected == "3" for c in r.checks)
    r = verify_strip(2, 3, 1, range(2, 9))
    assert r.ok and all(c.expected == "5" for c in r.checks)
    r = verify_strip(3, 3, 2, range(6, 11))
    assert r.ok and all(c.expected == "16" for c in r.checks)


def test_strip_preconditions():
    with pytest.raises(ParameterError):
        verify_strip(3, 2, 1, range(3, 5))  # n < k
    with pytest.raises(ParameterError):
        verify_strip(2, 2, 2, range(3, 5))  # m below k*s
    with pytest.raises(ParameterError):
        fit_polynomial(2, -1)


def test_diagonal_examples():
    r = verify_diagonal(2, 1, [(n, n) for n in range(3, 9)])
    assert r.ok and all(c.expected == "4" for c in r.checks)
    r = verify_diagonal(2, 2, [(n, n) for n in range(6, 10)])
    assert r.ok and all(c.expected == "48" for c in r.checks)
    r = verify_diagonal(3, 1, [(4, 5)])
    assert r.ok and r.checks[0].expected == "4"


def test_diagonal_rhs_independent_of_k():
    for s in (1, 2):
        values = set()
        for k in (2, 3, 4):
            lo = (k + 1) * s
            r = verify_diagonal(k, s, [(lo + 1, lo + 2)])
            assert r.ok
            values.add(r.checks[0].expected)
        assert values == {str(diagonal_rhs(s))}


def test_diagonal_range_enforcement():
    with pytest.raises(ParameterError):
        verify_diagonal(2, 2, [(5, 6)])
    r = verify_diagonal(2, 2, [(5, 6)], enforce_range=False)
    assert r.ok  # reported, not asserted
    assert r.checks[0].params["in_range"] is False
    with pytest.raises(ParameterError):
        # even report-only mode cannot evaluate a window leaving the lattice
        verify_diagonal(2, 1, [(2, 5)], enforce_range=False)


KEYS = ["k", "n", "m", "s", "in_range"]


@pytest.mark.parametrize("report, name, rows", [
    (lambda: verify_strip(2, 3, 1, range(2, 5)), "strip",
     [("5", "5", "pass")] * 3),
    (lambda: verify_strip(3, 3, 2, [6, 7]), "strip",
     [("16", "16", "pass")] * 2),
    (lambda: verify_strip(2, 3, 2, [3, 4], enforce_range=False), "strip",
     [("25", "22", "info"), ("25", "25", "pass")]),
    (lambda: verify_diagonal(2, 1, [(3, 3), (3, 5)]), "diagonal",
     [("4", "4", "pass")] * 2),
    (lambda: verify_diagonal(2, 2, [(5, 6), (6, 6)], enforce_range=False), "diagonal",
     [("48", "46", "info"), ("48", "48", "pass")]),
    (lambda: verify_diagonal_corollary(3, 1, [(5, 5), (4, 6)], enforce_range=False),
     "corollary", [("0", "0", "pass"), ("0", "-3", "info")]),
], ids=["strip-k2", "strip-k3", "strip-unsafe", "diagonal", "diagonal-unsafe",
        "corollary-unsafe"])
def test_window_records(report, name, rows):
    records = [c.to_dict() for c in report().checks]
    assert [(d["expected"], d["actual"], d["status"]) for d in records] == rows
    assert {d["name"] for d in records} == {name}
    assert all(list(d["params"]) == KEYS for d in records)
    # a window is info exactly when it lies outside its proven range
    assert all(d["params"]["in_range"] == (d["status"] != "info") for d in records)


def test_out_of_range_window_is_info():
    r = verify_diagonal(2, 2, [(5, 6)], enforce_range=False)
    rec = r.checks[0].to_dict()
    assert rec["status"] == "info"
    assert (rec["expected"], rec["actual"]) == ("48", "46")
    assert r.summary() == {"total": 1, "passed": 0, "failed": 0, "info": 1}
    assert r.ok and not r.failures  # reported, never asserted


def test_corollary():
    r = verify_diagonal_corollary(2, 1, [(n, n) for n in range(4, 9)])
    assert r.ok
    r = verify_diagonal_corollary(2, 2, [(n, n) for n in range(7, 10)])
    assert r.ok
    r = verify_diagonal_corollary(4, 1, [(n, n) for n in range(6, 9)])
    assert r.ok
    with pytest.raises(ParameterError):
        verify_diagonal_corollary(2, 1, [(3, 3)])


def test_extension_square():
    seed = seed_from_enumeration(2, 1, 6, 6)
    assert extend_diagonal(seed, 3) == [84, 112, 144]
    assert window_residuals(seed, [84, 112, 144]) == [0, 0, 0]


def test_extension_matches_enumeration():
    seed = seed_from_enumeration(2, 2, 10, 10)
    ext = extend_diagonal(seed, 2)
    direct = [count_configurations(LatticeSpec(n, n, 2), 2) for n in (11, 12)]
    assert ext == direct


def test_extension_nonsquare_seed():
    seed = DiagonalSeed(k=2, s=1, anchor_n=6, anchor_m=7, counts=(49, 71))
    assert extend_diagonal(seed, 1) == [97]


def test_seed_validation():
    # the first extension window, topped at (2, 2), lies below n, m >= 3
    with pytest.raises(ParameterError, match=r"n >= 3, m >= 3; got \(2,2\)"):
        DiagonalSeed(k=2, s=1, anchor_n=1, anchor_m=1, counts=(0, 4))
    # one anchor further, its window (3,3), (2,2), (1,1) is asserted
    assert extend_diagonal(DiagonalSeed(k=2, s=1, anchor_n=2, anchor_m=2, counts=(0, 4)), 1) \
        == [12]
    with pytest.raises(ParameterError):
        DiagonalSeed(k=2, s=1, anchor_n=6, anchor_m=6, counts=(1, 2, 3))
    with pytest.raises(ParameterError):
        extend_diagonal(seed_from_enumeration(2, 1, 6, 6), 0)


def _no_count(n, m):
    raise AssertionError(f"counted ({n},{m}) before checking the range")


def test_seed_range_checked_before_any_count():
    # the first extension window tops at (11, 201), below n, m >= (k+1)s = 12
    with pytest.raises(ParameterError, match=r"diagonal window asserted only for "
                                             r"n >= 12, m >= 12; got \(11,201\)"):
        seed_from_enumeration(2, 4, 10, 200, count=_no_count)


def test_seeds_are_accepted_exactly_where_the_first_window_is_asserted():
    # anchors (k+1)s - 1 .. (k+3)s - 2 hold seed points below (k+1)s, but the
    # window each extension step solves lies in the diagonal range
    cases = [(k, s, a, a + d) for k in (2, 3) for s in (1, 2)
             for a in range((k + 1) * s - 1, (k + 3) * s - 1) for d in (0, 1, 3)]
    assert len(cases) == 36
    steps = 4
    for k in (2, 3):
        mine = [(s, an, am) for kk, s, an, am in cases if kk == k]
        tables = count_tables(k, [(an + t, am + t) for s, an, am in mine
                                  for t in range(1 - 2 * s, steps + 1)], 2)
        for s, an, am in mine:
            seed = seed_from_enumeration(
                k, s, an, am, count=lambda n, m, s=s: tables[n, m].counts[s])
            assert seed.counts == tuple(tables[an + t, am + t].counts[s]
                                        for t in range(1 - 2 * s, 1))
            assert extend_diagonal(seed, steps) == [
                tables[an + t, am + t].counts[s] for t in range(1, steps + 1)], (k, s, an, am)
        for s in (1, 2):
            below = (k + 1) * s - 2  # its first window tops at (k+1)s - 1
            for an, am in ((below, below + 5), (below + 5, below)):
                with pytest.raises(ParameterError, match="diagonal window asserted only"):
                    seed_from_enumeration(k, s, an, am, count=_no_count)


@pytest.mark.parametrize("k", range(2, 7))
def test_window_bounds_are_k_minus_1_s_plus_the_width(k):
    # each bound is (k-1)s plus the window's width along every axis it moves,
    # which gives the paper's three; the strip's fixed width keeps n >= k
    def in_range(plan):
        return [flag for _, _, flag in plan.checked]

    for s in range(0, 9):
        ms = range(s + 1, k * s + 3)
        for n in (k, k + 1):
            plan = strip_windows(k, n, s, ms, enforce_range=False)
            assert in_range(plan) == [m >= k * s for m in ms], (k, s)
        if s:
            with pytest.raises(ParameterError, match=f"n >= {k}, m >= {k * s};"):
                strip_windows(k, k, s, [k * s - 1])
    for s in range(1, 9):
        for plan_of, bound, width in ((diagonal_windows, (k + 1) * s, 2 * s),
                                      (corollary_windows, (k + 1) * s + 1, 2 * s + 1)):
            around = range(max(width + 1, bound - 2), bound + 2)
            points = [(n, m) for n in around for m in around]
            plan = plan_of(k, s, points, enforce_range=False)
            assert in_range(plan) == [n >= bound and m >= bound for n, m in points], (k, s)
            with pytest.raises(ParameterError, match=f"n >= {bound}, m >= {bound};"):
                plan_of(k, s, [(bound, bound - 1)])


@pytest.mark.parametrize("k, s", [(2, 1), (2, 2), (3, 2), (2, 3), (4, 2)])
def test_fit_polynomial_matches_dp_on_the_quadrant(k, s):
    poly = fit_polynomial(k, s)
    lo = max(k, (k - 1) * s)
    points = [(n, m) for n in range(lo, lo + s + 5) for m in range(lo, lo + s + 5)]
    tables = count_tables(k, points, s)
    assert all(poly(n, m) == tables[n, m].counts[s] for n, m in points)
    # its 2s-th diagonal difference is the diagonal constant, far from the fit
    window = [poly(90 - i, 70 - i) for i in range(2 * s + 1)]
    assert sum((-1) ** i * math.comb(2 * s, i) * v for i, v in enumerate(window)) \
        == diagonal_rhs(s)
    with pytest.raises(ParameterError, match="quadrant"):
        poly(lo - 1, lo + 3)


def _bump_dp(monkeypatch, point):
    real = recurrences.count_tables

    def off_by_one(k, points, s_max=None, state_cap=None):
        tables = real(k, points, s_max, state_cap)
        t = tables[point]
        tables[point] = CountTable(t.spec, t.counts[:-1] + (t.counts[-1] + 1,))
        return tables

    monkeypatch.setattr(recurrences, "count_tables", off_by_one)


@pytest.mark.parametrize("point", [(2, 3), (4, 4), (5, 2), (3, 5), (5, 5)],
                         ids=["block", "block-corner", "held-out-n", "held-out-m",
                              "held-out-both"])
def test_fit_polynomial_refuses_a_wrong_dp_value(monkeypatch, point):
    # k=2, s=2: block n, m in 2..4, held-out points at n = 5 or m = 5
    _bump_dp(monkeypatch, point)
    with pytest.raises(CheckFailedError, match="quadrant polynomial k=2 s=2"):
        fit_polynomial(2, 2)


def test_fit_polynomial_checks_the_leading_coefficient(monkeypatch):
    # twice every count is still a polynomial, so only the leading coefficient shows it
    real = recurrences.count_tables

    def doubled(k, points, s_max=None, state_cap=None):
        return {p: CountTable(t.spec, tuple(2 * c for c in t.counts))
                for p, t in real(k, points, s_max, state_cap).items()}

    monkeypatch.setattr(recurrences, "count_tables", doubled)
    with pytest.raises(CheckFailedError, match="leading Newton coefficient 16, not 2"):
        fit_polynomial(2, 2)


def test_diagonal_rhs_values():
    assert diagonal_rhs(1) == 4
    assert diagonal_rhs(2) == 48
    assert diagonal_rhs(3) == 960
