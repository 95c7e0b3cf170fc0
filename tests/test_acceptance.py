"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every equality is exact; there are no tolerances anywhere.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from polycount.exact import binom
from polycount.errors import ResourceLimitError
from polycount.hseq import h_explicit, h_from_double_gf, h_from_gf, h_recursive
from polycount.identities import certificate_mutation_report, run_registry
from polycount.lattice import (
    LatticeSpec,
    brute_force_count,
    count_configurations,
    count_polynomial,
)
from polycount.recurrences import (
    diagonal_rhs,
    extend_diagonal,
    seed_from_enumeration,
    verify_diagonal,
    verify_diagonal_corollary,
    verify_strip,
    window_residuals,
)
from polycount.weights import (
    RhsModel,
    accumulate_lhs,
    accumulate_rhs,
    build_weight_grid,
    rhs_closed_form,
    verify_quadrant_lemmas,
)

from tests.test_hseq import TABLE_S4, TABLE_S5


def _announce(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_diagonal_recurrence():
    checked = 0
    ok = True
    for k in (2, 3):
        for s in (1, 2):
            lo = (k + 1) * s
            points = [(n, m) for n in range(lo, 13) for m in range(lo, 13)]
            report = verify_diagonal(k, s, points)
            ok = ok and report.ok
            assert all(c.expected == str(diagonal_rhs(s)) for c in report.checks)
            checked += len(report.checks)
    _announce(1, "diagonal recurrence equals 2^s (2s)!/s! on the full grid", ok,
              f"{checked} windows")


def test_criterion_02_diagonal_corollary():
    checked = 0
    ok = True
    for k in (2, 3):
        for s in (1, 2):
            lo = (k + 1) * s + 1
            points = [(n, m) for n in range(lo, 14) for m in range(lo, 14)]
            report = verify_diagonal_corollary(k, s, points)
            ok = ok and report.ok
            checked += len(report.checks)
    _announce(2, "odd-length alternating diagonal sum vanishes on the shifted grid",
              ok, f"{checked} windows")


def test_criterion_03_strip_recurrence():
    checked = 0
    ok = True
    for k in (2, 3, 4):
        for n in range(k, 9):
            for s in (1, 2, 3):
                report = verify_strip(k, n, s, range(k * s, 15))
                ok = ok and report.ok
                assert all(c.expected == str((2 * n - k + 1) ** s) for c in report.checks)
                checked += len(report.checks)
    _announce(3, "strip recurrence equals (2n-k+1)^s", ok, f"{checked} windows")


def test_criterion_04_reference_tables():
    ok = True
    for s, table in ((4, TABLE_S4), (5, TABLE_S5)):
        gf_rows = {i: h_from_gf(s, i, s) for i in range(s)}
        dgf = h_from_double_gf(s, s - 1, s)
        for (i, j), value in table.items():
            ok = ok and h_recursive(s, i, j) == value
            ok = ok and h_explicit(s, i, j) == value
            ok = ok and gf_rows[i][j - 1] == value
            ok = ok and dgf[(i, j)] == value
    _announce(4, "all 25 reference h entries match on all four routes", ok,
              f"{len(TABLE_S4) + len(TABLE_S5)} entries x 4 routes")


def test_criterion_05_oracle_equivalence():
    checked = 0
    ok = True
    for n in range(1, 17):
        for m in range(n, 17):
            if n * m > 16:
                continue
            for k in (2, 3, 4):
                spec = LatticeSpec(n, m, k)
                for s in range(spec.capacity + 2):
                    ok = ok and brute_force_count(spec, s) == count_configurations(spec, s)
                    checked += 1
    _announce(5, "brute-force oracle equals transfer counting on nm <= 16", ok,
              f"{checked} comparisons")


def test_criterion_06_weight_grid_cancellation():
    ok = True
    for s in range(1, 7):
        cells = accumulate_lhs(build_weight_grid(s))
        for i in range(2 * s + 1):
            for j in range(2 * s + 1):
                expected = 2 * (-1) ** i * binom(2 * s, i) if i == j else 0
                ok = ok and cells[i][j] == expected
    _announce(6, "per-cell coefficients cancel off-diagonal, double on-diagonal", ok,
              "s = 1..6")


def test_criterion_07_overall_rhs():
    ok = True
    for s in range(1, 7):
        grid = build_weight_grid(s)
        triples = (
            (Fraction(2), Fraction(-1), 4 * s + 3),
            (Fraction(2), Fraction(9, 2), 57),
            (Fraction(3, 2), Fraction(-4), 6 * s + 1),
        )
        for lam, eta, n in triples:
            total = accumulate_rhs(grid, RhsModel(lam, eta, n))
            ok = ok and total == rhs_closed_form(s, lam)
    _announce(7, "summed right-hand sides equal lambda^s C(2s,s) s! for all anchors",
              ok, "s = 1..6, 3 (lambda, eta, n) triples each")


def test_criterion_08_quadrant_suite():
    ok = True
    cells = 0
    for s in (2, 3, 4, 5):
        report = verify_quadrant_lemmas(s)
        ok = ok and report.ok
        cells += len(report.checks)
    _announce(8, "every per-cell, per-term quadrant identity holds", ok,
              f"{cells} records for s = 2..5")


def test_criterion_09_identity_registry():
    report = run_registry("*")
    ok = report.ok
    mutation = certificate_mutation_report("*")
    ok = ok and mutation.ok
    _announce(
        9,
        "all registered identity checks pass and every certificate "
        "perturbation is detected",
        ok,
        f"{len(report.checks)} checks, {len(mutation.checks)} mutated certificates",
    )


def _dimer_pair_count(n: int, m: int) -> int:
    """Independent oracle for s=2, k=2: all position pairs minus clashes."""
    positions = n * (m - 1) + m * (n - 1)
    clashes = 0
    for r in range(n):
        for c in range(m):
            degree = (r > 0) + (r < n - 1) + (c > 0) + (c < m - 1)
            clashes += math.comb(degree, 2)
    return math.comb(positions, 2) - clashes


def test_criterion_10_extension_consistency():
    ok = True
    # recurrence-extended counts reproduce direct enumeration
    for s, anchor in ((1, 8), (2, 10)):
        seed = seed_from_enumeration(2, s, anchor, anchor)
        ext = extend_diagonal(seed, 3)
        direct = [count_configurations(LatticeSpec(anchor + d, anchor + d, 2), s)
                  for d in (1, 2, 3)]
        ok = ok and ext == direct
        ok = ok and window_residuals(seed, ext) == [0, 0, 0]
    # reach 40x40: beyond the brute-force oracle, but within the live-frontier sweep
    with pytest.raises(ResourceLimitError):
        brute_force_count(LatticeSpec(40, 40, 2), 2)
    seed = seed_from_enumeration(2, 2, 12, 12)
    steps = 28
    ext = extend_diagonal(seed, steps)
    ok = ok and not any(window_residuals(seed, ext))
    direct = count_polynomial(LatticeSpec(40, 40, 2), s_max=2).counts[2]
    ok = ok and ext[-1] == direct == _dimer_pair_count(40, 40)
    _announce(10, "diagonal extension matches enumeration and reaches 40x40 exactly",
              ok, f"a(40,40) = {ext[-1]}")
