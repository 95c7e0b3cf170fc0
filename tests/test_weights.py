from __future__ import annotations

import copy
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from polycount import identities, lattice
from polycount.errors import ParameterError
from polycount.exact import binom
from polycount.identities import registry
from polycount.recurrences import diagonal_rhs
from polycount.symbolic import compile_term
from polycount.weights import (
    RhsModel,
    accumulate_lhs,
    accumulate_rhs,
    alpha_p1,
    build_weight_grid,
    cell_region,
    grid_applied_to_counts,
    rhs_closed_form,
    verify_quadrant_lemmas,
    verify_rhs_column_sums,
)
from polycount.weights import _accumulate, _footprint, _per_term_cells
from tests.test_hseq import fraction_h_terms


def _weight_map(grid, tag):
    return {
        (p.i, p.j): p.weight
        for p in grid.placements
        if p.set_tag == tag
    }


def test_placement_examples():
    g4 = build_weight_grid(4)
    p1 = _weight_map(g4, "P1")
    assert p1[(0, 0)] == 1
    assert p1[(2, 1)] == -4
    p2 = _weight_map(g4, "P2")
    assert p2[(1, 3)] == -20
    g5 = build_weight_grid(5)
    p2 = _weight_map(g5, "P2")
    assert p2[(8, 1)] == -125


def test_placement_counts():
    for s in range(1, 7):
        grid = build_weight_grid(s)
        p1v = [p for p in grid.placements if p.set_tag == "P1"]
        assert len(p1v) == (s + 1) * (s + 2) // 2 + s * (s + 1) // 2
        # every footprint stays inside the square
        for p in grid.placements:
            assert 0 <= p.i <= 2 * s and 0 <= p.j <= 2 * s
            assert p.j + s <= 2 * s


def test_the_grid_lists_each_vertical_identity_once():
    # the horizontal identities are mirrors, applied by transposition, not listed
    for s in range(1, 9):
        grid = build_weight_grid(s)
        assert len(grid.placements) == (s + 1) * (2 * s + 1), s
        assert len({(p.i, p.j, p.set_tag) for p in grid.placements}) == len(grid.placements)


def test_accumulate_lhs_examples():
    g1 = build_weight_grid(1)
    cells = accumulate_lhs(g1)
    assert [cells[i][i] for i in range(3)] == [2, -4, 2]
    assert all(cells[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    g4 = build_weight_grid(4)
    assert accumulate_lhs(g4)[2][2] == 2 * binom(8, 2)
    g5 = build_weight_grid(5)
    assert accumulate_lhs(g5)[7][3] == 0


def test_full_cancellation():
    for s in range(1, 7):
        cells = accumulate_lhs(build_weight_grid(s))
        for i in range(2 * s + 1):
            for j in range(2 * s + 1):
                expected = 2 * (-1) ** i * binom(2 * s, i) if i == j else 0
                assert cells[i][j] == expected, (s, i, j)


def test_alpha_formula_matches_accumulation():
    for s in range(1, 7):
        grid = build_weight_grid(s)
        cells = _accumulate(grid, ("P1",))
        for i in range(2 * s + 1):
            for j in range(2 * s + 1):
                assert alpha_p1(s, i, j) == cells[i][j] + cells[j][i], (s, i, j)


def test_alpha_examples():
    assert alpha_p1(4, 3, 3) == 2 * (-1) ** 3 * binom(8, 3)
    assert alpha_p1(2, 0, 1) == -1
    assert alpha_p1(3, 6, 6) == 2
    for i, j in ((-1, 0), (0, 7), (7, 7)):
        with pytest.raises(ParameterError):
            alpha_p1(3, i, j)


def test_rhs_accumulation():
    assert accumulate_rhs(build_weight_grid(1), RhsModel(Fraction(2), Fraction(-1), 10)) == 4
    assert accumulate_rhs(build_weight_grid(3), RhsModel(Fraction(2), Fraction(5), 40)) == 960
    assert accumulate_rhs(build_weight_grid(2), RhsModel(Fraction(1), Fraction(0), 9)) == 12
    assert accumulate_rhs(build_weight_grid(4), RhsModel(Fraction(2), Fraction(-1), 30)) == 26880


def test_rhs_invariance():
    for s in range(1, 7):
        grid = build_weight_grid(s)
        for lam, eta, n in (
            (Fraction(2), Fraction(-1), 4 * s + 1),
            (Fraction(2), Fraction(7, 3), 100),
            (Fraction(5, 2), Fraction(0), 2 * s + 9),
        ):
            total = accumulate_rhs(grid, RhsModel(lam, eta, n))
            assert total == rhs_closed_form(s, lam), (s, lam, eta, n)


def test_rhs_column_sums():
    for s in range(1, 7):
        assert verify_rhs_column_sums(s).ok
    r = verify_rhs_column_sums(4)
    by_key = {(c.name, c.params["i"]): c for c in r.checks}
    assert by_key[("binomial-column-sum", 0)].actual == "1"
    assert by_key[("h-column-sum", 1)].actual == "-39"
    r2 = verify_rhs_column_sums(2)
    by_key = {(c.name, c.params["i"]): c for c in r2.checks}
    assert by_key[("binomial-column-sum", 2)].actual == "0"
    with pytest.raises(ParameterError):
        verify_rhs_column_sums(0)


def test_quadrant_lemmas():
    for s in range(1, 7):
        report = verify_quadrant_lemmas(s)
        assert report.ok, report.failures[:3]


def test_cell_regions_partition():
    for s in (1, 2, 3):
        seen = {}
        for i in range(2 * s + 1):
            for j in range(2 * s + 1):
                seen[(i, j)] = cell_region(s, i, j)
        assert seen[(s, s)] == "q3-diagonal"
        assert len(seen) == (2 * s + 1) ** 2


def residual_sum(s, i, j):
    """The residual double sum the quadrant report reads: the registry's tree."""
    return compile_term(registry()["q3/double-sum-value"].lhs)({"s": s, "i": i, "j": j})


def test_residual_double_sum_values():
    assert residual_sum(4, 7, 5) == (-1) ** 6 * binom(8, 5) == 56
    assert residual_sum(3, 4, 4) == 0
    for s in (1, 2, 3):
        for j in range(s, 2 * s + 1):
            for i in range(j + 1, 2 * s + 1):
                assert residual_sum(s, i, j) == (-1) ** (j + 1) * binom(2 * s, j)
            assert residual_sum(s, j, j) == 0


def test_stirling_power_sums():
    for s in range(1, 11):
        for t in range(0, s + 2):
            total = sum((-1) ** (i + s) * i ** (s + 1 - t) * math.comb(s, i)
                        for i in range(s + 1))
            if t == 0:
                assert total == s * math.factorial(s + 1) // 2
            elif t == 1:
                assert total == math.factorial(s)
            else:
                assert total == 0


def test_grid_applied_to_real_counts():
    for s in (1, 2):
        k = 2
        n = m = k * s + 2 * s + 1
        grid = build_weight_grid(s)
        assert grid_applied_to_counts(grid, k, n, m) == 2 * diagonal_rhs(s)
        assert grid_applied_to_counts(grid, k, n, m + 2) == 2 * diagonal_rhs(s)
        # the mirrored arrangement on the transposed lattice
        assert grid_applied_to_counts(grid, k, m + 2, n) == 2 * diagonal_rhs(s)
    with pytest.raises(Exception):
        grid_applied_to_counts(build_weight_grid(2), 2, 5, 5)


def test_grid_applied_to_any_numbers_leaves_the_diagonal_sum(monkeypatch):
    # on numbers that satisfy no strip identity, only the whole arrangement,
    # each vertical cell with its mirror, cancels off the diagonal
    def value(n, m):
        return 2 ** n * 3 ** m

    monkeypatch.setattr(lattice, "count_tables", lambda k, points, s_max: {
        p: SimpleNamespace(count=lambda s, p=p: value(*p)) for p in points})
    for s, n, m in ((1, 5, 7), (2, 9, 8), (3, 13, 12)):
        want = sum(2 * (-1) ** i * binom(2 * s, i) * value(n - i, m - i) for i in range(2 * s + 1))
        assert grid_applied_to_counts(build_weight_grid(s), 2, n, m) == want, s


def fraction_residual_sum(s, i, j):
    """The residual double sum summand by summand over Fractions."""
    total = Fraction(0)
    for jp in range(s + 1):
        for t in range(1, s - jp + 1):
            total += (
                Fraction((-1) ** (jp + t + 1), t)
                * binom(i - jp - 1, s + t - 1)
                * binom(s, t - 1)
                * binom(s, j - jp)
                / binom(s - jp, t)
            )
    return Fraction((-1) ** (s + i + j) * i) * binom(2 * s, i) * total


def test_residual_double_sum_matches_the_fraction_form():
    for s in range(1, 8):
        for i in range(2 * s + 1):
            for j in range(2 * s + 1):
                assert residual_sum(s, i, j) == fraction_residual_sum(s, i, j), (s, i, j)


def _transpose(cells):
    return [list(row) for row in zip(*cells)]


def test_per_term_cells_add_up_to_the_placed_h_family():
    # the formally extended family, which the quadrant lemmas check term by
    # term, has the cells of the placed P2 identities that verify weights
    # sums; the horizontal cells are the vertical ones transposed
    for s in range(1, 9):
        grid = build_weight_grid(s)
        alpha, beta = _per_term_cells(s)
        total = [[sum(beta[t][ci][cj] for t in (1, 2, 3)) for cj in range(grid.size)]
                 for ci in range(grid.size)]
        for tag, cells in (("P1", alpha), ("P2", total)):
            assert cells == _accumulate(grid, (tag,)), (s, tag)


def test_per_term_cells_match_a_fraction_accumulation():
    for s in range(1, 8):
        n = 2 * s + 1
        want = {(t, o): [[Fraction(0)] * n for _ in range(n)] for t in (1, 2, 3) for o in "vh"}
        for i in range(n):
            for j0 in range(s + 1):
                if i < s:
                    terms = fraction_h_terms(s, i, j0)
                else:
                    terms = [(-1) ** s * x for x in fraction_h_terms(s, 2 * s - i, s - j0)]
                for tn, w in zip((1, 2, 3), terms):
                    # the horizontal identity's footprint is the vertical one's, transposed
                    for ci, cj, c in _footprint(s, i, j0):
                        want[(tn, "v")][ci][cj] += w * c
                        want[(tn, "h")][cj][ci] += w * c
        _, beta = _per_term_cells(s)
        assert sorted(beta) == [1, 2, 3]
        for t in (1, 2, 3):
            assert beta[t] == want[(t, "v")], (s, t)
            assert _transpose(beta[t]) == want[(t, "h")], (s, t)
        assert {type(x) for row in beta[1] + beta[2] for x in row} == {int}
        assert {type(x) for row in beta[3] for x in row} == {Fraction}


#: each registry check whose rhs a weights report asserts, and the records
#: (name, s, i, j) of the report at s = 4 that this rhs decides
RHS_RECORDS = {
    "q3/double-sum-value": lambda name, s, i, j: name == "residual-double-sum-value",
    "q3/double-sum-step-diagonal":
        lambda name, s, i, j: name == "residual-double-sum-step" and i == j,
    "rhs/alternating-partial-sum":
        lambda name, s, i, j: (name == "binomial-column-sum" and i <= s
                               or name == "h-column-sum" and i < s),
    "rhs/alternating-partial-sum-upper":
        lambda name, s, i, j: name in ("binomial-column-sum", "h-column-sum") and i > s,
    "rhs/second-term-column": lambda name, s, i, j: name == "second-term-column-sum",
    "rhs/third-term-column": lambda name, s, i, j: name == "third-term-column-sum",
}


@pytest.mark.parametrize("check", sorted(RHS_RECORDS))
def test_the_weights_reports_expect_the_registrys_closed_forms(check, monkeypatch):
    # a registry whose one rhs is off by one must fail exactly the records
    # that closed form decides, so the reports assert the proved object
    s = 4
    patched = dict(identities.registry())
    wrong = copy.copy(patched[check])
    wrong.rhs = wrong.rhs + 1
    patched[check] = wrong
    monkeypatch.setattr(identities, "_REGISTRY", patched)
    records = [c for report in (verify_quadrant_lemmas(s), verify_rhs_column_sums(s))
               for c in report.checks]
    key = [(c.name, c.params["s"], c.params["i"], c.params.get("j")) for c in records]
    failed = {k for k, c in zip(key, records) if c.status == "FAIL"}
    decided = {k for k in key if RHS_RECORDS[check](*k)}
    assert failed and failed == decided
