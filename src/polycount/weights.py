"""The weighted arrangement of strip identities inside the (2s+1)^2 square.

Two families of strip recurrences are placed at offsets (i, j) from the
square's top-right corner: one weighted by alternating binomials, one by the
h(s, i, j) sequence.  Summing all of them makes every off-diagonal
coefficient cancel and leaves 2(-1)^i C(2s, i) on the diagonal; the summed
right-hand sides collapse to lambda**s C(2s, s) s! independent of the anchor
column and of the strip constant's intercept.  This module builds the
arrangement, accumulates coefficients, and re-verifies each per-cell
cancellation the construction relies on, term by term.

Offset convention: site (i, j) means lattice cell (n - i, m - j).  A
vertical identity placed at (i, j) spans sites (i, j) .. (i, j + s); a
horizontal one spans (i, j) .. (i + s, j).
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
    __slots__ = ("orientation", "i", "j", "set_tag", "weight")

    def __init__(self, orientation: str, i: int, j: int, set_tag: str, weight: int) -> None:
        set_field(self, "orientation", orientation)  # "vertical" | "horizontal"
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

    def vertical(self) -> list[PlacedIdentity]:
        return [p for p in self.placements if p.orientation == "vertical"]


class RhsModel(Frozen):
    """Strip right-hand side c(x) = lam*x + eta, evaluated at column n - i."""

    __slots__ = ("lam", "eta", "n")

    def __init__(self, lam: Fraction, eta: Fraction, n: int) -> None:
        set_field(self, "lam", lam)
        set_field(self, "eta", eta)
        set_field(self, "n", n)


def build_weight_grid(s: int) -> WeightGrid:
    """All placed identities of both families for a given rod count s.

    Binomial-weighted verticals sit at 0 <= j <= i for i <= s and at
    i-s <= j <= s for i > s; h-weighted verticals sit strictly above the
    diagonal (i < s, i < j <= s) and, with weight (-1)**s h(s, 2s-i, s-j),
    strictly below the band (i > s, j < i-s).  Horizontal placements mirror
    the vertical ones across the main diagonal with identical weights.
    """
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    placements: list[PlacedIdentity] = []
    for i in range(2 * s + 1):
        for j in range(max(0, i - s), min(i, s) + 1):
            w = (-1) ** j * binom(s, j)
            placements.append(PlacedIdentity("vertical", i, j, "P1", w))
            placements.append(PlacedIdentity("horizontal", j, i, "P1", w))
    for i in range(s):
        for j in range(i + 1, s + 1):
            w = h_recursive(s, i, j)
            placements.append(PlacedIdentity("vertical", i, j, "P2", w))
            placements.append(PlacedIdentity("horizontal", j, i, "P2", w))
    for i in range(s + 1, 2 * s + 1):
        for j in range(0, i - s):
            w = (-1) ** s * h_recursive(s, 2 * s - i, s - j)
            placements.append(PlacedIdentity("vertical", i, j, "P2", w))
            placements.append(PlacedIdentity("horizontal", j, i, "P2", w))
    return WeightGrid(s=s, placements=tuple(placements))


def _footprint(s: int, orientation: str, i: int, j: int) -> list[tuple[int, int, int]]:
    """The s+1 sites (i', j') of a strip identity placed at (i, j), each with
    its coefficient (-1)**t C(s, t)."""
    if orientation == "vertical":
        return [(i, j + t, (-1) ** t * binom(s, t)) for t in range(s + 1)]
    return [(i + t, j, (-1) ** t * binom(s, t)) for t in range(s + 1)]


def _accumulate(grid: WeightGrid, tags: tuple[str, ...],
                orientations: tuple[str, ...] = ("vertical", "horizontal")) -> list[list[int]]:
    n = grid.size
    cells = [[0] * n for _ in range(n)]
    for p in grid.placements:
        if p.set_tag in tags and p.orientation in orientations:
            for ci, cj, c in _footprint(grid.s, p.orientation, p.i, p.j):
                cells[ci][cj] += p.weight * c
    return cells


def accumulate_lhs(grid: WeightGrid) -> list[list[int]]:
    """Per-cell coefficient of a(n-i, m-j) after summing every identity."""
    return _accumulate(grid, ("P1", "P2"))


def alpha_p1(s: int, i: int, j: int) -> int:
    """Coefficient of a(n-i, m-j) from the binomial-weighted family alone.

    Two clamped convolution sums, one per direction; equals the direct
    accumulation of the placements for every cell of the square.
    """
    if not (0 <= i <= 2 * s and 0 <= j <= 2 * s):
        raise ParameterError(f"cell ({i},{j}) outside the {2*s+1}x{2*s+1} square")
    lo = max(0, i - s, j - s)
    hi = min(s, i, j)
    sum_v = sum(binom(s, j0) * binom(s, j - j0) for j0 in range(lo, hi + 1))
    sum_h = sum(binom(s, i0) * binom(s, i - i0) for i0 in range(lo, hi + 1))
    return (-1) ** j * sum_v + (-1) ** i * sum_h


def accumulate_rhs(grid: WeightGrid, model: RhsModel) -> Fraction:
    """Sum of weight * c(n - i)**s over the vertical identities.

    Equals lam**s C(2s, s) s! for every anchor n and intercept eta; the
    horizontal total matches it by symmetry.
    """
    s = grid.s
    total = Fraction(0)
    for p in grid.vertical():
        c = model.lam * (model.n - p.i) + model.eta
        total += p.weight * c**s
    return total


def rhs_closed_form(s: int, lam: Fraction) -> Fraction:
    return lam**s * binom(2 * s, s) * math.factorial(s)


# -- per-term coefficient accumulation ---------------------------------------

#: keys: (term, orientation) with term in {1,2,3} and orientation "v"/"h";
#: the cells of terms 1 and 2 are ints, those of term 3 Fractions
PerTermCells = dict[tuple[int, str], list[list[Union[int, Fraction]]]]


def _per_term_cells(s: int) -> tuple[list[list[int]], list[list[int]], PerTermCells]:
    """alpha_v, alpha_h, and the h-family coefficients split by explicit term.

    The h-weighted family is extended formally to every column (and mirrored
    row) 0..2s with the full offset range 0..s, so each explicit term can be
    tracked separately; the extra placements carry zero total weight.  Column
    s takes the second-quadrant form: the corner cell belongs to the lower
    square's treatment.  Terms 1 and 2 are integers.  Every third term read
    here has i <= s, so its denominator divides D = s(s+1)...(2s): term 3
    accumulates integer numerators over D and becomes a Fraction once per
    cell, at the end.
    """
    grid = build_weight_grid(s)
    alpha_v = _accumulate(grid, ("P1",), ("vertical",))
    alpha_h = _accumulate(grid, ("P1",), ("horizontal",))
    n = grid.size
    common = math.prod(range(s, 2 * s + 1))
    beta: PerTermCells = {
        (t, o): [[0] * n for _ in range(n)] for t in (1, 2, 3) for o in ("v", "h")
    }
    for i in range(n):
        for j0 in range(s + 1):
            at, sign = ((i, j0), 1) if i < s else ((2 * s - i, s - j0), (-1) ** s)
            t1, t2, t3 = h_terms(s, *at)
            scaled = as_integer(t3 * common, f"D * h_terms({s}, {at[0]}, {at[1]})[2]")
            for tn, w in ((1, t1), (2, t2), (3, scaled)):
                if w == 0:
                    continue
                w *= sign
                for o, orientation, place in (("v", "vertical", (i, j0)),
                                              ("h", "horizontal", (j0, i))):
                    cells = beta[(tn, o)]
                    for ci, cj, c in _footprint(s, orientation, *place):
                        cells[ci][cj] += w * c
    for o in ("v", "h"):
        beta[(3, o)] = [[Fraction(x, common) for x in row] for row in beta[(3, o)]]
    return alpha_v, alpha_h, beta


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
    cell coordinates and the term that failed.  The residual double sum of
    the third term and its i-step are the registry's own trees (the lhs of
    ``q3/double-sum-value`` and ``q3/double-sum-step-*``), the objects its
    certificates prove, compiled once per call.
    """
    alpha_v, alpha_h, beta = _per_term_cells(s)
    reg = registry()
    residual = compile_term(reg["q3/double-sum-value"].lhs)
    residual_step = compile_term(reg["q3/double-sum-step-diagonal"].lhs)
    n = 2 * s + 1
    report = Report(title=f"quadrant cancellation lemmas s={s}")

    def rec(name: str, i: int, j: int, actual: Fraction, expected) -> None:
        report.record(
            name, {"s": s, "i": i, "j": j, "region": cell_region(s, i, j)}, expected, actual
        )

    def b(t: int, o: str, i: int, j: int) -> Fraction:
        return beta[(t, o)][i][j]

    def b_full(o: str, i: int, j: int) -> Fraction:
        return sum(beta[(t, o)][i][j] for t in (1, 2, 3))

    alpha = {"v": alpha_v, "h": alpha_h}
    name = {"v": "vertical", "h": "horizontal"}

    def one_family(o: str, i: int, j: int) -> None:
        # only the o-oriented h-family reaches the cell: its terms cancel the
        # binomial family term by term, and the mirrored family is absent
        other = "h" if o == "v" else "v"
        rec(f"{name[o]}-first-term-cancels", i, j, alpha[o][i][j] + b(1, o, i, j), 0)
        rec(f"{name[o]}-second-term-cancels", i, j, alpha[other][i][j] + b(2, o, i, j), 0)
        rec(f"{name[o]}-third-term-vanishes", i, j, b(3, o, i, j), 0)
        rec(f"{name[other]}-family-absent", i, j, b_full(other, i, j), 0)

    for i in range(n):
        for j in range(n):
            region = cell_region(s, i, j)
            if region in ("q1-lower", "q3-upper"):
                one_family("v", i, j)
                if region == "q3-upper":
                    rec(
                        "residual-double-sum-value",
                        i,
                        j,
                        residual({"s": s, "i": i, "j": j}),
                        (-1) ** (j + 1) * binom(2 * s, j),
                    )
            elif region in ("q1-upper", "q3-lower"):
                one_family("h", i, j)
            elif region == "q1-diagonal":
                rec("h-family-avoids-diagonal", i, j, b_full("v", i, j) + b_full("h", i, j), 0)
                rec(
                    "binomial-family-diagonal",
                    i,
                    j,
                    alpha_v[i][j] + alpha_h[i][j],
                    2 * (-1) ** i * binom(2 * s, i),
                )
            elif region in ("q4", "q2"):
                rec("vertical-first-term-cancels", i, j, alpha_v[i][j] + b(1, "v", i, j), 0)
                rec("horizontal-first-term-cancels", i, j, alpha_h[i][j] + b(1, "h", i, j), 0)
                rec("second-v-cancels-third-h", i, j, b(2, "v", i, j) + b(3, "h", i, j), 0)
                rec("second-h-cancels-third-v", i, j, b(2, "h", i, j) + b(3, "v", i, j), 0)
            else:  # q3-diagonal
                sign = (-1) ** i * binom(2 * s, i)
                rec("first-term-diagonal", i, j, b(1, "v", i, j), -sign)
                rec("second-term-diagonal-vanishes", i, j, b(2, "v", i, j), 0)
                rec("third-term-diagonal", i, j, b(3, "v", i, j), sign)
                rec("residual-double-sum-vanishes", i, j, residual({"s": s, "i": i, "j": i}), 0)
                rec(
                    "binomial-family-diagonal",
                    i,
                    j,
                    alpha_v[i][j] + alpha_h[i][j],
                    2 * sign,
                )

    # first-order step of the residual double sum, i >= j >= s
    for j in range(s, n):
        for i in range(j, 2 * s):
            expected = (-1) ** (j + 1) * binom(2 * s, i) if i == j else 0
            report.record("residual-double-sum-step", {"s": s, "i": i, "j": j}, expected,
                          residual_step({"s": s, "i": i, "j": j}))
    return report


def verify_rhs_column_sums(s: int) -> Report:
    """Column-by-column weight sums of the vertical identities vs closed forms."""
    grid = build_weight_grid(s)
    report = Report(title=f"rhs column sums s={s}")
    col_p1 = [0] * (2 * s + 1)
    col_p2 = [0] * (2 * s + 1)
    for p in grid.vertical():
        if p.set_tag == "P1":
            col_p1[p.i] += p.weight
        else:
            col_p2[p.i] += p.weight

    extra = Fraction(binom(2 * s, s - 1), s) - 1
    for i in range(2 * s + 1):
        if i <= s:
            x = (-1) ** i * binom(s - 1, i)
        else:
            x = (-1) ** (s + i) * binom(s - 1, 2 * s - i)
        report.record("binomial-column-sum", {"s": s, "i": i}, x, col_p1[i])
        if i < s:
            y = (-1) ** i * binom(s - 1, i) * extra
        elif i == s:
            y = Fraction(0)
        else:
            # second-quadrant placements carry the (-1)**s factor
            y = (-1) ** s * (-1) ** i * binom(s - 1, 2 * s - i) * extra
        report.record("h-column-sum", {"s": s, "i": i}, y, Fraction(col_p2[i]))

    # per-term column sums in the upper square
    for i in range(s):
        y2 = sum(h_terms(s, i, jp)[1] for jp in range(i + 1, s + 1))
        report.record(
            "second-term-column-sum",
            {"s": s, "i": i},
            Fraction((-1) ** (i + 1)) * binom(2 * s, i) * binom(2 * s - i, s + 1),
            y2,
        )
        y3 = sum(h_terms(s, i, jp)[2] for jp in range(i + 1, s + 1))
        closed = (
            Fraction((-1) ** i * (2 * s - i), s)
            * binom(2 * s, i)
            * binom(2 * s - i - 1, s)
            * (1 - Fraction(1, 2 * binom(2 * s - 1, s)))
        )
        report.record("third-term-column-sum", {"s": s, "i": i}, closed, y3)
    return report


def grid_applied_to_counts(grid: WeightGrid, k: int, n: int, m: int) -> int:
    """Sum of weight * (strip-identity left side on real counts) over the grid.

    Every placed identity must satisfy the strip preconditions, which needs
    n, m >= k*s + 2*s.
    """
    from .lattice import count_tables

    s = grid.s
    if n < k * s + 2 * s or m < k * s + 2 * s:
        raise ParameterError(
            f"lattice {n}x{m} too small for every strip precondition at k={k}, s={s}"
        )
    terms = [(p.weight * c, (n - ci, m - cj))
             for p in grid.placements
             for ci, cj, c in _footprint(s, p.orientation, p.i, p.j)]
    tables = count_tables(k, (point for _, point in terms), s_max=s)
    return sum(c * tables[point].count(s) for c, point in terms)
