from __future__ import annotations

from fractions import Fraction

import pytest

from polycount.errors import ParameterError
from polycount.exact import binom
from polycount.hseq import (
    column_sum,
    column_sum_closed_form,
    gf_recursion_residual,
    gf_series,
    h_domain,
    h_explicit,
    h_from_double_gf,
    h_from_gf,
    h_recursive,
    h_terms,
)
from polycount.identities import registry
from polycount.symbolic import compile_term

TABLE_S4 = {
    (0, 1): 3, (0, 2): 5, (0, 3): 5, (0, 4): 0,
    (1, 2): -14, (1, 3): -20, (1, 4): -5,
    (2, 3): 24, (2, 4): 15,
    (3, 4): -13,
}
TABLE_S5 = {
    (0, 1): 4, (0, 2): 9, (0, 3): 14, (0, 4): 14, (0, 5): 0,
    (1, 2): -25, (1, 3): -55, (1, 4): -70, (1, 5): -14,
    (2, 3): 65, (2, 4): 125, (2, 5): 56,
    (3, 4): -85, (3, 5): -79,
    (4, 5): 41,
}


@pytest.mark.parametrize("s,table", [(4, TABLE_S4), (5, TABLE_S5)])
def test_reference_tables_all_routes(s, table):
    gf_rows = {i: h_from_gf(s, i, s) for i in range(s)}
    dgf = h_from_double_gf(s, s - 1, s)
    for (i, j), value in table.items():
        assert h_recursive(s, i, j) == value
        assert h_explicit(s, i, j) == value
        assert gf_rows[i][j - 1] == value
        assert dgf[(i, j)] == value


def test_specific_entries():
    assert h_recursive(4, 0, 1) == 3
    assert h_recursive(4, 2, 3) == 24
    assert h_recursive(5, 4, 5) == 41
    assert h_recursive(4, 3, 2) == 0  # zero branch j <= i
    assert h_explicit(4, 1, 4) == -5
    assert h_explicit(5, 2, 4) == 125
    assert h_explicit(6, 0, 1) == 5
    assert h_from_gf(4, 1, 4) == [0, -14, -20, -5]
    assert h_from_gf(5, 0, 5) == [4, 9, 14, 14, 0]
    assert h_from_gf(3, 2, 2) == [0, 0]
    assert h_from_double_gf(4, 2, 3)[(2, 3)] == 24
    assert h_from_double_gf(5, 3, 5)[(3, 5)] == -79
    assert h_from_double_gf(4, 2, 1)[(2, 1)] == 0


def test_four_way_agreement():
    for s in range(1, 9):
        gf_rows = {i: h_from_gf(s, i, s) for i in range(s)}
        dgf = h_from_double_gf(s, max(s - 1, 1), s)
        for i in range(s):
            for j in range(1, s + 1):
                values = {
                    h_recursive(s, i, j),
                    h_explicit(s, i, j),
                    gf_rows[i][j - 1],
                    dgf[(i, j)],
                }
                assert len(values) == 1, (s, i, j, values)


def test_zero_region_and_corner():
    for s in range(1, 8):
        assert h_recursive(s, 0, s) == 0
        for i in range(s):
            for j in range(1, i + 1):
                assert h_recursive(s, i, j) == 0
                assert h_explicit(s, i, j) == 0


def test_domain_flag():
    assert h_domain(4, 0, 1)
    assert not h_domain(4, 4, 1)
    assert not h_domain(4, 0, 5)
    assert not h_domain(4, -1, 1)
    # out-of-domain queries answer zero rather than extrapolating
    assert h_recursive(4, 4, 4) == 0
    assert h_explicit(4, 0, 5) == 0


def test_explicit_terms_sum_to_h():
    for s in range(1, 7):
        for i in range(s):
            for j in range(1, s + 1):
                assert sum(h_terms(s, i, j)) == h_recursive(s, i, j)


def test_closed_forms_first_entries():
    for s in range(1, 9):
        assert h_recursive(s, 0, 1) == s - 1
        if s >= 2:
            assert 2 * h_recursive(s, 0, 2) == (s + 1) * (s - 2)
            assert 2 * h_recursive(s, 1, 2) == -s * (3 * s - 5)
        if s >= 3:
            assert 6 * h_recursive(s, 0, 3) == (s + 1) * (s + 2) * (s - 3)
            assert 6 * h_recursive(s, 1, 3) == -s * (s + 1) * (5 * s - 14)
            assert 6 * h_recursive(s, 2, 3) == s * (7 * s * s - 21 * s + 8)


def test_column_sums():
    assert column_sum(4, 3) == 9
    assert column_sum(4, 4) == -3
    assert column_sum(5, 1) == 4
    for s in range(1, 9):
        for j in range(1, s + 1):
            assert column_sum(s, j) == column_sum_closed_form(s, j)


def test_gf_recursion():
    for s in range(3, 9):
        for i in range(2, s):
            assert all(r == 0 for r in gf_recursion_residual(s, i, s))


def test_parameter_validation():
    with pytest.raises(ParameterError):
        h_recursive(0, 0, 1)
    with pytest.raises(ParameterError):
        h_from_gf(4, 4, 4)
    with pytest.raises(ParameterError):
        h_from_gf(4, 1, 5)  # beyond the coherent range
    with pytest.raises(ParameterError):
        h_from_double_gf(3, 1, 0)
    for s, i in ((3, -1), (3, 3)):
        with pytest.raises(ParameterError):
            gf_series(s, i, 4)
    for s, i in ((3, 0), (3, 3)):
        with pytest.raises(ParameterError):
            gf_recursion_residual(s, i, 4)
    for s, j in ((3, 0), (3, 4)):
        with pytest.raises(ParameterError):
            column_sum(s, j)


def fraction_h_terms(s, i, j):
    """The explicit formula's three addends, term by term over Fractions."""
    t1 = Fraction(0)
    if j <= i:
        t1 = Fraction((-1) ** (j + 1)) * binom(s, j)
    t2 = Fraction(0)
    if s + j - i - 1 >= 0:
        t2 = Fraction((-1) ** (i + 1)) * binom(2 * s, i) * binom(s + j - i - 1, s)
    acc = Fraction(0)
    for t in range(i + 1):
        acc += Fraction((-1) ** t, 2 * s - t) * binom(i, t) * binom(s - t - 1 + j, j)
    return t1, t2, Fraction((-1) ** i * (2 * s - i)) * binom(2 * s, i) * acc


def test_h_terms_match_the_fraction_form():
    # every (i, j) the quadrant lemmas read, the shifted (2s - i, s - j0) included
    for s in range(1, 8):
        for i in range(s + 1):
            for j in range(s + 1):
                terms = h_terms(s, i, j)
                assert terms == fraction_h_terms(s, i, j), (s, i, j)
                assert [type(t) for t in terms] == [int, int, Fraction]
        for i in range(s + 1, 2 * s):  # the rest of the documented domain
            assert h_terms(s, i, s + 3) == fraction_h_terms(s, i, s + 3)


def test_h_terms_domain():
    for s, i, j in ((2, 4, 0), (1, 2, 0), (3, -1, 1), (3, 0, -1)):
        with pytest.raises(ParameterError):
            h_terms(s, i, j)
    assert h_terms(2, 3, 0) == fraction_h_terms(2, 3, 0)


def test_the_third_term_is_the_registrys_t_sum():
    # the explicit route's third term is (-1)^i (2s-i) C(2s,i) times the inner
    # t-sum that q4/inner-sum-transform states, read at jp = j
    inner = compile_term(registry()["q4/inner-sum-transform"].lhs)
    for s in range(1, 9):
        for i in range(2 * s):
            for j in range(s + 4):
                want = (-1) ** i * (2 * s - i) * binom(2 * s, i) * inner({"s": s, "i": i, "jp": j})
                assert h_terms(s, i, j)[2] == want, (s, i, j)
