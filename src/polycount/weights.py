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
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .exact import binom
from .hseq import h_recursive, h_terms
from .reports import Report


@dataclass(frozen=True)
class PlacedIdentity:
    orientation: str  # "vertical" | "horizontal"
    i: int
    j: int
    set_tag: str  # "P1" | "P2"
    weight: int


@dataclass(frozen=True)
class WeightGrid:
    s: int
    placements: tuple[PlacedIdentity, ...]

    @property
    def size(self) -> int:
        return 2 * self.s + 1

    def vertical(self) -> list[PlacedIdentity]:
        return [p for p in self.placements if p.orientation == "vertical"]


@dataclass(frozen=True)
class RhsModel:
    """Strip right-hand side c(x) = lam*x + eta, evaluated at column n - i."""

    lam: Fraction
    eta: Fraction
    n: int


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

#: keys: (term, orientation) with term in {1,2,3} and orientation "v"/"h"
PerTermCells = dict[tuple[int, str], list[list[Fraction]]]


def _per_term_cells(s: int) -> tuple[list[list[int]], list[list[int]], PerTermCells]:
    """alpha_v, alpha_h, and the h-family coefficients split by explicit term.

    The h-weighted family is extended formally to every column (and mirrored
    row) 0..2s with the full offset range 0..s, so each explicit term can be
    tracked separately; the extra placements carry zero total weight.  Column
    s takes the second-quadrant form: the corner cell belongs to the lower
    square's treatment.
    """
    grid = build_weight_grid(s)
    alpha_v = _accumulate(grid, ("P1",), ("vertical",))
    alpha_h = _accumulate(grid, ("P1",), ("horizontal",))
    n = grid.size
    beta: PerTermCells = {
        (t, o): [[Fraction(0)] * n for _ in range(n)] for t in (1, 2, 3) for o in ("v", "h")
    }
    for i in range(n):
        for j0 in range(s + 1):
            if i < s:
                terms = h_terms(s, i, j0)
            else:
                terms = tuple((-1) ** s * x for x in h_terms(s, 2 * s - i, s - j0))
            for tn, w in zip((1, 2, 3), terms):
                if w == 0:
                    continue
                for o, orientation, at in (("v", "vertical", (i, j0)),
                                           ("h", "horizontal", (j0, i))):
                    for ci, cj, c in _footprint(s, orientation, *at):
                        beta[(tn, o)][ci][cj] += w * c
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


def third_term_residual_sum(s: int, i: int, j: int) -> Fraction:
    """The double sum left over after the closed-form part of the third term.

    Vanishes on the diagonal; equals (-1)**(j+1) C(2s, j) strictly above it
    in the lower square (i > j >= s).
    """
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


def verify_quadrant_lemmas(s: int) -> Report:
    """Re-check every per-cell, per-term cancellation in all four quadrants.

    Each cell is assigned to one region; the region's term-level identities
    are evaluated in exact arithmetic and any residual is reported with the
    cell coordinates and the term that failed.
    """
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    alpha_v, alpha_h, beta = _per_term_cells(s)
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
                        third_term_residual_sum(s, i, j),
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
                rec("residual-double-sum-vanishes", i, j, third_term_residual_sum(s, i, i), 0)
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
            step = third_term_residual_sum(s, i + 1, j) - third_term_residual_sum(s, i, j)
            expected = (-1) ** (j + 1) * binom(2 * s, i) if i == j else 0
            report.record(
                "residual-double-sum-step",
                {"s": s, "i": i, "j": j},
                expected,
                step,
            )
    return report


def verify_rhs_column_sums(s: int) -> Report:
    """Column-by-column weight sums of the vertical identities vs closed forms."""
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
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
