"""The weighted arrangement of strip identities inside the (2s+1)^2 square.

Two families of strip recurrences are placed at offsets (i, j) from the
square's top-right corner: one weighted by alternating binomials, one by the
h(s, i, j) sequence.  Summing all of them makes every off-diagonal
coefficient cancel and leaves 2(-1)^i C(2s, i) on the diagonal; the summed
right-hand sides collapse to lambda**s C(2s, s) s! independent of the anchor
column and of the strip constant's intercept.  This module builds the
arrangement, accumulates coefficients, and re-verifies each per-cell
cancellation the construction relies on, term by term.  Every horizontal
identity mirrors a vertical one with the same weight, so the grid lists the
vertical identities only, and whatever applies the whole arrangement adds
the transpose of their cells.  The closed forms the reports expect (residual
values and column sums) are the rhs trees of the identity registry's checks,
the objects its certificates prove.

Offset convention: site (i, j) means lattice cell (n - i, m - j).  A
vertical identity placed at (i, j) spans sites (i, j) .. (i, j + s); its
mirror, the horizontal one at (j, i), spans (j, i) .. (j + s, i).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ParameterError
from .exact import as_integer, binom
from .hseq import h_recursive, h_terms
from .identities import registry
from .records import Frozen, set_field
from .reports import Report
from .symbolic import compile_term


class PlacedIdentity(Frozen):
    __slots__ = ("i", "j", "set_tag", "weight")

    def __init__(self, i: int, j: int, set_tag: str, weight: int) -> None:
        set_field(self, "i", i)
        set_field(self, "j", j)
        set_field(self, "set_tag", set_tag)  # "P1" | "P2"
        set_field(self, "weight", weight)


class WeightGrid(Frozen):
    __slots__ = ("s", "placements")

    def __init__(self, s: int, placements: tuple[PlacedIdentity, ...]) -> None:
        set_field(self, "s", s)
        set_field(self, "placements", placements)

    @property
    def size(self) -> int:
        return 2 * self.s + 1


class RhsModel(Frozen):
    """Strip right-hand side c(x) = lam*x + eta, evaluated at column n - i."""

    __slots__ = ("lam", "eta", "n")

    def __init__(self, lam: Fraction, eta: Fraction, n: int) -> None:
        set_field(self, "lam", lam)
        set_field(self, "eta", eta)
        set_field(self, "n", n)


def _h_entry(s: int, i: int, j: int) -> tuple[int, tuple[int, int]]:
    """The entry (sign, (i', j')) an h-weighted vertical identity at (i, j)
    carries: h(s, i, j) left of column s, (-1)**s h(s, 2s-i, s-j) from it on."""
    return (1, (i, j)) if i < s else ((-1) ** s, (2 * s - i, s - j))


def build_weight_grid(s: int) -> WeightGrid:
    """The vertical identities of both families for a given rod count s.

    Binomial-weighted ones sit at 0 <= j <= i for i <= s and at
    i-s <= j <= s for i > s.  An h-weighted one sits wherever its entry
    (``_h_entry``) is h(s, i', j') with i' < j': strictly above the diagonal
    (i < s, i < j <= s) and strictly below the band (i > s, j < i-s).  The
    horizontal identities are their mirrors across the main diagonal, with
    the same weights, and are not listed.
    """
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    placements: list[PlacedIdentity] = []
    for i in range(2 * s + 1):
        for j in range(max(0, i - s), min(i, s) + 1):
            placements.append(PlacedIdentity(i, j, "P1", (-1) ** j * binom(s, j)))
    for i in range(2 * s + 1):
        for j in range(s + 1):
            sign, at = _h_entry(s, i, j)
            if at[0] < at[1]:
                placements.append(PlacedIdentity(i, j, "P2", sign * h_recursive(s, *at)))
    return WeightGrid(s=s, placements=tuple(placements))


def _footprint(s: int, i: int, j: int) -> list[tuple[int, int, int]]:
    """The s+1 sites (i, j + t) of a vertical strip identity placed at (i, j),
    each with its coefficient (-1)**t C(s, t)."""
    return [(i, j + t, (-1) ** t * binom(s, t)) for t in range(s + 1)]


def _accumulate(grid: WeightGrid, tags: tuple[str, ...]) -> list[list[int]]:
    """Per-cell coefficients of the vertical identities tagged with tags."""
    n = grid.size
    cells = [[0] * n for _ in range(n)]
    for p in grid.placements:
        if p.set_tag in tags:
            for ci, cj, c in _footprint(grid.s, p.i, p.j):
                cells[ci][cj] += p.weight * c
    return cells


def accumulate_lhs(grid: WeightGrid) -> list[list[int]]:
    """Per-cell coefficient of a(n-i, m-j) after summing every identity: the
    vertical cells plus their transpose, the horizontal ones."""
    cells = _accumulate(grid, ("P1", "P2"))
    return [[cells[i][j] + cells[j][i] for j in range(grid.size)] for i in range(grid.size)]


def alpha_p1(s: int, i: int, j: int) -> int:
    """Coefficient of a(n-i, m-j) from the binomial-weighted family alone.

    One clamped convolution sum, read at (i, j) for the vertical identities
    and at the mirror (j, i) for the horizontal ones; equals the direct
    accumulation of the placements for every cell of the square.
    """
    if not (0 <= i <= 2 * s and 0 <= j <= 2 * s):
        raise ParameterError(f"cell ({i},{j}) outside the {2*s+1}x{2*s+1} square")
    lo, hi = max(0, i - s, j - s), min(s, i, j)
    return sum((-1) ** b * sum(binom(s, t) * binom(s, b - t) for t in range(lo, hi + 1))
               for b in (j, i))


def accumulate_rhs(grid: WeightGrid, model: RhsModel) -> Fraction:
    """Sum of weight * c(n - i)**s over the vertical identities.

    Equals lam**s C(2s, s) s! for every anchor n and intercept eta; the
    horizontal total matches it by symmetry.
    """
    s = grid.s
    total = Fraction(0)
    for p in grid.placements:
        c = model.lam * (model.n - p.i) + model.eta
        total += p.weight * c**s
    return total


def rhs_closed_form(s: int, lam: Fraction) -> Fraction:
    return lam**s * binom(2 * s, s) * math.factorial(s)


# -- per-term coefficient accumulation ---------------------------------------


def _per_term_cells(s: int) -> tuple[list[list[int]], dict[int, list[list[Union[int, Fraction]]]]]:
    """The vertical cells of both families: alpha of the binomial family, and
    beta[t] of the h family's explicit term t (t = 1, 2, 3).

    A horizontal identity is the transpose of a vertical one with the same
    weight, so the horizontal cells are these, transposed.  The h-weighted
    family is extended formally to every column 0..2s with the full offset
    range 0..s, each identity carrying the entry ``_h_entry`` gives it, so
    each explicit term can be tracked separately; the extra placements
    carry zero total weight.  Column s takes the second-quadrant form: the
    corner cell belongs to the lower square's treatment.  Terms 1
    and 2 are integers.  Every third term read here has i <= s, so its
    denominator divides D = s(s+1)...(2s): term 3 accumulates integer
    numerators over D and becomes a Fraction once per cell, at the end.
    """
    grid = build_weight_grid(s)
    alpha = _accumulate(grid, ("P1",))
    n = grid.size
    common = math.prod(range(s, 2 * s + 1))
    beta = {t: [[0] * n for _ in range(n)] for t in (1, 2, 3)}
    for i in range(n):
        for j0 in range(s + 1):
            sign, at = _h_entry(s, i, j0)
            t1, t2, t3 = h_terms(s, *at)
            scaled = as_integer(t3 * common, f"D * h_terms({s}, {at[0]}, {at[1]})[2]")
            for t, w in ((1, t1), (2, t2), (3, scaled)):
                if w == 0:
                    continue
                cells = beta[t]
                for ci, cj, c in _footprint(s, i, j0):
                    cells[ci][cj] += sign * w * c
    beta[3] = [[Fraction(x, common) for x in row] for row in beta[3]]
    return alpha, beta


def cell_region(s: int, i: int, j: int) -> str:
    """Assign each cell of the square to exactly one proof region."""
    if i == j:
        return "q3-diagonal" if i >= s else "q1-diagonal"
    if i <= s and j <= s:
        return "q1-lower" if i < j else "q1-upper"
    if i >= s and j >= s:
        return "q3-upper" if i > j else "q3-lower"
    return "q4" if i < s else "q2"


def verify_quadrant_lemmas(s: int) -> Report:
    """Re-check every per-cell, per-term cancellation in all four quadrants.

    Each cell is assigned to one region; the region's term-level identities
    are evaluated in exact arithmetic and any residual is reported with the
    cell coordinates and the term that failed.  A horizontal cell is read as
    the transposed vertical one.  The residual double sum of the third term
    and its i-step are the registry's own trees (the lhs of
    ``q3/double-sum-value`` and ``q3/double-sum-step-*``), and their expected
    values are the rhs of ``q3/double-sum-value`` and
    ``q3/double-sum-step-diagonal``: the objects its certificates prove,
    compiled once per call.
    """
    alpha, beta = _per_term_cells(s)
    reg = registry()
    residual = compile_term(reg["q3/double-sum-value"].lhs)
    residual_value = compile_term(reg["q3/double-sum-value"].rhs)
    residual_step = compile_term(reg["q3/double-sum-step-diagonal"].lhs)
    step_value = compile_term(reg["q3/double-sum-step-diagonal"].rhs)
    n = 2 * s + 1
    report = Report(title=f"quadrant cancellation lemmas s={s}")

    def rec(name: str, i: int, j: int, actual: Fraction, expected) -> None:
        report.record(
            name, {"s": s, "i": i, "j": j, "region": cell_region(s, i, j)}, expected, actual
        )

    terms = {0: alpha, **beta}  # term 0: the binomial family

    def cell(t: int, o: str, i: int, j: int) -> Fraction:
        # term t's o-oriented cell: a horizontal one is the vertical one transposed
        return terms[t][i][j] if o == "v" else terms[t][j][i]

    def h_family(o: str, i: int, j: int) -> Fraction:
        return sum(cell(t, o, i, j) for t in (1, 2, 3))

    name = {"v": "vertical", "h": "horizontal"}

    def one_family(o: str, i: int, j: int) -> None:
        # only the o-oriented h-family reaches the cell: its terms cancel the
        # binomial family term by term, and the mirrored family is absent
        other = "h" if o == "v" else "v"
        rec(f"{name[o]}-first-term-cancels", i, j, cell(0, o, i, j) + cell(1, o, i, j), 0)
        rec(f"{name[o]}-second-term-cancels", i, j, cell(0, other, i, j) + cell(2, o, i, j), 0)
        rec(f"{name[o]}-third-term-vanishes", i, j, cell(3, o, i, j), 0)
        rec(f"{name[other]}-family-absent", i, j, h_family(other, i, j), 0)

    for i in range(n):
        for j in range(n):
            region = cell_region(s, i, j)
            if region in ("q1-lower", "q3-upper"):
                one_family("v", i, j)
                if region == "q3-upper":
                    env = {"s": s, "i": i, "j": j}
                    rec("residual-double-sum-value", i, j, residual(env), residual_value(env))
            elif region in ("q1-upper", "q3-lower"):
                one_family("h", i, j)
            elif region == "q1-diagonal":
                rec("h-family-avoids-diagonal", i, j,
                    h_family("v", i, j) + h_family("h", i, j), 0)
                rec("binomial-family-diagonal", i, j, cell(0, "v", i, j) + cell(0, "h", i, j),
                    2 * (-1) ** i * binom(2 * s, i))
            elif region in ("q4", "q2"):
                rec("vertical-first-term-cancels", i, j,
                    cell(0, "v", i, j) + cell(1, "v", i, j), 0)
                rec("horizontal-first-term-cancels", i, j,
                    cell(0, "h", i, j) + cell(1, "h", i, j), 0)
                rec("second-v-cancels-third-h", i, j, cell(2, "v", i, j) + cell(3, "h", i, j), 0)
                rec("second-h-cancels-third-v", i, j, cell(2, "h", i, j) + cell(3, "v", i, j), 0)
            else:  # q3-diagonal
                sign = (-1) ** i * binom(2 * s, i)
                rec("first-term-diagonal", i, j, cell(1, "v", i, j), -sign)
                rec("second-term-diagonal-vanishes", i, j, cell(2, "v", i, j), 0)
                rec("third-term-diagonal", i, j, cell(3, "v", i, j), sign)
                rec("residual-double-sum-vanishes", i, j, residual({"s": s, "i": i, "j": i}), 0)
                rec("binomial-family-diagonal", i, j, cell(0, "v", i, j) + cell(0, "h", i, j),
                    2 * sign)

    # first-order step of the residual double sum, i >= j >= s
    for j in range(s, n):
        for i in range(j, 2 * s):
            env = {"s": s, "i": i, "j": j}
            report.record("residual-double-sum-step", env, step_value(env) if i == j else 0,
                          residual_step(env))
    return report


def verify_rhs_column_sums(s: int) -> Report:
    """Column-by-column weight sums of the vertical identities vs closed forms.

    The closed forms are the rhs trees of the registry's ``rhs/*`` checks,
    compiled once per call: ``rhs/alternating-partial-sum`` (its ``-upper``
    sibling for i > s) for the binomial family, that value times a constant
    for the h family, ``rhs/second-term-column`` and ``rhs/third-term-column``
    for the per-term sums.  The actual sums are read off the placed weights
    and ``h_terms``.
    """
    grid = build_weight_grid(s)
    reg = registry()
    partial, partial_upper, second, third = (
        compile_term(reg[f"rhs/{name}"].rhs) for name in (
            "alternating-partial-sum", "alternating-partial-sum-upper",
            "second-term-column", "third-term-column"))
    report = Report(title=f"rhs column sums s={s}")
    col = {"P1": [0] * (2 * s + 1), "P2": [0] * (2 * s + 1)}
    for p in grid.placements:
        col[p.set_tag][p.i] += p.weight

    extra = Fraction(binom(2 * s, s - 1), s) - 1
    for i in range(2 * s + 1):
        x = (partial if i <= s else partial_upper)({"s": s, "i": i})
        report.record("binomial-column-sum", {"s": s, "i": i}, x, col["P1"][i])
        # no h-weighted identity sits in column s
        report.record("h-column-sum", {"s": s, "i": i}, x * extra if i != s else Fraction(0),
                      Fraction(col["P2"][i]))

    # per-term column sums in the upper square
    for i in range(s):
        y2 = sum(h_terms(s, i, jp)[1] for jp in range(i + 1, s + 1))
        report.record("second-term-column-sum", {"s": s, "i": i},
                      Fraction((-1) ** (i + 1)) * binom(2 * s, i) * second({"s": s, "i": i}), y2)
        y3 = sum(h_terms(s, i, jp)[2] for jp in range(i + 1, s + 1))
        report.record("third-term-column-sum", {"s": s, "i": i}, third({"s": s, "i": i}), y3)
    return report


def grid_applied_to_counts(grid: WeightGrid, k: int, n: int, m: int) -> int:
    """Sum of weight * (strip-identity left side on real counts) over the
    whole arrangement.

    Each footprint cell (ci, cj) of a vertical identity is applied at lattice
    point (n - ci, m - cj), and its mirror, the horizontal identity's cell,
    at (n - cj, m - ci).  Every identity must satisfy the strip
    preconditions, which needs n, m >= k*s + 2*s.
    """
    from .lattice import count_tables

    s = grid.s
    if n < k * s + 2 * s or m < k * s + 2 * s:
        raise ParameterError(
            f"lattice {n}x{m} too small for every strip precondition at k={k}, s={s}"
        )
    terms = [(p.weight * c, point)
             for p in grid.placements
             for ci, cj, c in _footprint(s, p.i, p.j)
             for point in ((n - ci, m - cj), (n - cj, m - ci))]
    tables = count_tables(k, (point for _, point in terms), s_max=s)
    return sum(c * tables[point].count(s) for c, point in terms)
