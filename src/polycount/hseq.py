"""The two-dimensional integer coefficient sequence h(s, i, j).

Defined for s >= 1 on the triangle 0 <= i <= s-1, 1 <= j <= s, with
h(s, i, j) = 0 whenever j <= i.  Four independent computation routes are
provided: the defining recursion, an explicit three-term formula, expansion
of the per-row ordinary generating function, and expansion of the bivariate
generating function.  All arithmetic is exact; integrality is asserted, not
assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import ParameterError
from .exact import as_integer, binom


def _require_s(s: int) -> None:
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")


def h_domain(s: int, i: int, j: int) -> bool:
    """True when (i, j) lies in the sequence's defined triangle for this s."""
    return 0 <= i <= s - 1 and 1 <= j <= s


@lru_cache(maxsize=None)
def _h_frac(s: int, i: int, j: int) -> Fraction:
    if j <= i:
        return Fraction(0)
    if i == 0:
        return binom(s + j - 1, j) * Fraction(s - j, s)
    return (
        -Fraction(s - j + 1, i) * _h_frac(s, i - 1, j - 1)
        - Fraction(j - i, i) * _h_frac(s, i - 1, j)
    )


def h_recursive(s: int, i: int, j: int) -> int:
    """h(s, i, j) by the defining recursion; 0 outside the domain triangle."""
    _require_s(s)
    if not h_domain(s, i, j):
        return 0
    return as_integer(_h_frac(s, i, j), f"h({s},{i},{j})")


def h_terms(s: int, i: int, j: int) -> tuple[int, int, Fraction]:
    """The three addends of the explicit formula, exactly.

    Defined for 0 <= i < 2s and j >= 0, not just the domain triangle: the
    cancellation proofs apply the individual terms at shifted indices where
    the full h vanishes.  Outside that range the third term's 1/(2s - t)
    has a pole at t = 2s, and ParameterError is raised.  The first two terms
    are integer products.  The second is gated on s+j-i-1 >= 0; inside the
    triangle the gate never fires, but at i = s it stops the generalized
    binomial C(-1, s) from leaking in.  The third term's sum runs over one
    common denominator, (2s - i)(2s - i + 1)...(2s), which every 2s - t with
    t <= i divides, so it costs one Fraction.
    """
    _require_s(s)
    if not (0 <= i < 2 * s and j >= 0):
        raise ParameterError(f"h_terms needs 0 <= i < {2 * s} and j >= 0, got ({i}, {j})")
    t1 = (-1) ** (j + 1) * binom(s, j) if j <= i else 0
    t2 = 0
    if s + j - i - 1 >= 0:
        t2 = (-1) ** (i + 1) * binom(2 * s, i) * binom(s + j - i - 1, s)
    den = math.prod(range(2 * s - i, 2 * s + 1))
    num = sum((-1) ** t * (den // (2 * s - t)) * binom(i, t) * binom(s - t - 1 + j, j)
              for t in range(i + 1))
    t3 = Fraction((-1) ** i * (2 * s - i) * binom(2 * s, i) * num, den)
    return t1, t2, t3


def h_explicit(s: int, i: int, j: int) -> int:
    """h(s, i, j) by the explicit three-term formula; 0 outside the domain."""
    _require_s(s)
    if not h_domain(s, i, j):
        return 0
    t1, t2, t3 = h_terms(s, i, j)
    return as_integer(t1 + t2 + t3, f"h({s},{i},{j})")


# -- truncated power series over exact rationals ----------------------------

def _ser_zero(order: int) -> list[Fraction]:
    return [Fraction(0)] * (order + 1)


def _ser_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return [x + y for x, y in zip(a, b)]


def _ser_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = _ser_zero(order)
    for p, x in enumerate(a):
        if x == 0 or p > order:
            continue
        for q, y in enumerate(b):
            if p + q > order:
                break
            if y:
                out[p + q] += x * y
    return out


def _ser_diff(a: list[Fraction]) -> list[Fraction]:
    return [Fraction(p + 1) * a[p + 1] for p in range(len(a) - 1)] + [Fraction(0)]


def _ser_one_minus_x_pow(e: int, order: int) -> list[Fraction]:
    """(1 - x)**e truncated to x**order, for any integer exponent e."""
    out = _ser_zero(order)
    if e >= 0:
        for j in range(min(e, order) + 1):
            out[j] = Fraction((-1) ** j * math.comb(e, j))
    else:
        p = -e
        for j in range(order + 1):
            out[j] = Fraction(binom(p - 1 + j, j))
    return out


def gf_series(s: int, i: int, order: int) -> list[Fraction]:
    """Coefficients x**0..x**order of the row generating function H_i(x)."""
    _require_s(s)
    if not 0 <= i <= s - 1:
        raise ParameterError(f"i must be in [0, {s - 1}], got {i}")
    out = _ser_zero(order)
    for j in range(min(i, order) + 1):
        out[j] += Fraction((-1) ** (j + 1)) * binom(s, j)
    if i + 1 <= order:
        tail = _ser_one_minus_x_pow(-(s + 1), order - i - 1)
        c2 = Fraction((-1) ** (i + 1)) * binom(2 * s, i)
        for q, y in enumerate(tail):
            out[i + 1 + q] += c2 * y
    c3 = Fraction((-1) ** i * (2 * s - i)) * binom(2 * s, i)
    for t in range(i + 1):
        w = c3 * Fraction((-1) ** t, 2 * s - t) * binom(i, t)
        for q, y in enumerate(_ser_one_minus_x_pow(-(s - t), order)):
            out[q] += w * y
    return out


def h_from_gf(s: int, i: int, j_max: int) -> list[int]:
    """Coefficients of x**1..x**j_max of H_i(x), as exact integers.

    The sequence is only coherent up to j = s (the routes diverge beyond the
    triangle), so j_max must not exceed s.
    """
    _require_s(s)
    if not 0 <= i <= s - 1:
        raise ParameterError(f"i must be in [0, {s - 1}], got {i}")
    if not 1 <= j_max <= s:
        raise ParameterError(f"j_max must be in [1, {s}], got {j_max}")
    ser = gf_series(s, i, j_max)
    return [as_integer(ser[j], f"[x^{j}] H_{i}") for j in range(1, j_max + 1)]


def gf_recursion_residual(s: int, i: int, order: int) -> list[Fraction]:
    """Coefficientwise residual of the generating-function recursion.

    Returns H_i - ( -(s*x/i - 1)*H_{i-1} + x*(x-1)/i * H_{i-1}' ), truncated
    to the given order; all zeros when the recursion holds.
    """
    _require_s(s)
    if not 1 <= i <= s - 1:
        raise ParameterError(f"i must be in [1, {s - 1}], got {i}")
    prev = gf_series(s, i - 1, order)
    cur = gf_series(s, i, order)
    lin = [Fraction(0)] * (order + 1)
    lin[0] = Fraction(1)
    if order >= 1:
        lin[1] = Fraction(-s, i)
    rhs = _ser_mul(lin, prev, order)
    xx = _ser_zero(order)
    if order >= 1:
        xx[1] = Fraction(-1, i)
    if order >= 2:
        xx[2] = Fraction(1, i)
    rhs = _ser_add(rhs, _ser_mul(xx, _ser_diff(prev), order))
    return [c - r for c, r in zip(cur, rhs)]


# -- bivariate route ---------------------------------------------------------

def _biv_mul(a, b, zi: int, xj: int):
    out = [[Fraction(0)] * (xj + 1) for _ in range(zi + 1)]
    for pi, row in enumerate(a):
        for pj, x in enumerate(row):
            if x == 0:
                continue
            for qi in range(zi + 1 - pi):
                brow = b[qi]
                for qj in range(xj + 1 - pj):
                    y = brow[qj]
                    if y:
                        out[pi + qi][pj + qj] += x * y
    return out


def h_from_double_gf(s: int, i_max: int, j_max: int) -> dict[tuple[int, int], int]:
    """Coefficients of x**j z**i of the bivariate generating function.

    Expands -(1-xz)**s/(1-z) - x(1-xz)**(2s)/(1-x)**(s+1)
    + (1-xz)**(2s)/((1-x)**s (1-z)) and reads off h(s, i, j).  The mapping is
    clamped to the domain triangle (i <= s-1, j <= s): beyond it the series
    keeps going but no longer tracks the recursion.
    """
    _require_s(s)
    if i_max < 0 or j_max < 1:
        raise ParameterError("truncation orders must cover at least one coefficient")
    zi, xj = min(i_max, s - 1), min(j_max, s)

    def one_minus_xz_pow(e: int):
        m = [[Fraction(0)] * (xj + 1) for _ in range(zi + 1)]
        for a in range(min(e, zi, xj) + 1):
            m[a][a] = Fraction((-1) ** a * math.comb(e, a))
        return m

    inv_one_minus_z = [[Fraction(1 if j == 0 else 0) for j in range(xj + 1)] for _ in range(zi + 1)]
    def inv_one_minus_x_pow(p: int):
        return [
            [Fraction(binom(p - 1 + j, j)) if i == 0 else Fraction(0) for j in range(xj + 1)]
            for i in range(zi + 1)
        ]

    total = [[Fraction(0)] * (xj + 1) for _ in range(zi + 1)]

    part1 = _biv_mul(one_minus_xz_pow(s), inv_one_minus_z, zi, xj)
    part2 = _biv_mul(one_minus_xz_pow(2 * s), inv_one_minus_x_pow(s + 1), zi, xj)
    part3 = _biv_mul(
        _biv_mul(one_minus_xz_pow(2 * s), inv_one_minus_x_pow(s), zi, xj),
        inv_one_minus_z,
        zi,
        xj,
    )
    for i in range(zi + 1):
        for j in range(xj + 1):
            v = -part1[i][j] + part3[i][j]
            if j >= 1:
                v -= part2[i][j - 1]
            total[i][j] = v

    return {
        (i, j): as_integer(total[i][j], f"[x^{j} z^{i}]")
        for i in range(zi + 1)
        for j in range(1, xj + 1)
    }


def column_sum(s: int, j: int) -> int:
    """Sum of column j of the triangle: sum over i of h(s, i, j)."""
    _require_s(s)
    if not 1 <= j <= s:
        raise ParameterError(f"j must be in [1, {s}], got {j}")
    return sum(h_recursive(s, i, j) for i in range(j))


def column_sum_closed_form(s: int, j: int) -> int:
    """(-1)**(j+1) (s-1) C(s-1, j-1), the closed form of column_sum."""
    return (-1) ** (j + 1) * (s - 1) * binom(s - 1, j - 1)
