"""Strip and diagonal recurrences on the covering counts, verified and applied.

The strip recurrence fixes the width n and alternates along the length m with
constant right-hand side (2n-k+1)**s.  The diagonal recurrence alternates
along (n-i, m-i) with right-hand side 2**s (2s)!/s!, independent of k, n, m.
Both are exact integer identities; verification reports residuals, never
tolerances.  Each verifier call validates its windows first (WindowPlan),
so a caller can gather the windows of many calls into one count_tables call.
The diagonal recurrence also extends counts along a diagonal past what
direct enumeration can reach.  The extension is crosschecked against an
independent route: the quadrant polynomial that the strip theorem implies
(fit_polynomial), certified on held-out DP values before use.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CheckFailedError, ParameterError
from .lattice import (
    DEFAULT_STATE_CAP,
    CountTable,
    LatticeSpec,
    count_configurations,
    count_tables,
)
from .records import Frozen, set_field
from .reports import Report


class StripConstant(Frozen):
    """c(n, k) = 2n - k + 1, defined for strips at least as wide as the rod."""

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int) -> None:
        if n < k:
            raise ParameterError(f"strip constant needs n >= k, got n={n}, k={k}")
        set_field(self, "n", n)
        set_field(self, "k", k)

    @property
    def value(self) -> int:
        return 2 * self.n - self.k + 1


def diagonal_rhs(s: int) -> int:
    """2**s (2s)!/s!, the diagonal alternating-sum constant."""
    return 2**s * math.factorial(2 * s) // math.factorial(s)


def _alternating_sum(terms: Sequence[int]) -> int:
    """sum_i (-1)**i C(w, i) terms[i] over a window of w + 1 terms."""
    w = len(terms) - 1
    return sum((-1) ** i * math.comb(w, i) * t for i, t in enumerate(terms))


class WindowPlan(Frozen):
    """The validated windows of one verifier call.

    checked holds (n, m, in_range) for each point; its window is
    a(n - i*dn, m - i), i = 0..width, reduced by the alternating binomial sum
    and compared with rhs.
    """

    __slots__ = ("title", "name", "k", "s", "dn", "width", "rhs", "checked")

    def __init__(self, title: str, name: str, k: int, s: int, dn: int, width: int, rhs: int,
                 checked: tuple[tuple[int, int, bool], ...]) -> None:
        set_field(self, "title", title)
        set_field(self, "name", name)
        set_field(self, "k", k)
        set_field(self, "s", s)
        set_field(self, "dn", dn)
        set_field(self, "width", width)
        set_field(self, "rhs", rhs)
        set_field(self, "checked", checked)

    def window(self, n: int, m: int) -> list[tuple[int, int]]:
        return [(n - i * self.dn, m - i) for i in range(self.width + 1)]

    def points(self) -> list[tuple[int, int]]:
        """Every lattice point a window of this call reads."""
        return [p for n, m, _ in self.checked for p in self.window(n, m)]

    def report(
        self,
        state_cap: int = DEFAULT_STATE_CAP,
        tables: Mapping[tuple[int, int], CountTable] | None = None,
    ) -> Report:
        """Record each window, reading counts from tables or, without them, one count_tables call.

        A table counted at any s_max >= s serves.  An out-of-range window's
        residual is recorded with status info, never asserted.
        """
        if tables is None:
            tables = count_tables(self.k, self.points(), self.s, state_cap)
        report = Report(title=self.title)
        for n, m, in_range in self.checked:
            lhs = _alternating_sum([tables[p].counts[self.s] for p in self.window(n, m)])
            params = {"k": self.k, "n": n, "m": m, "s": self.s, "in_range": in_range}
            report.record(self.name, params, self.rhs, lhs).info = not in_range
        return report


def _plan(
    title: str,
    name: str,
    k: int,
    s: int,
    points: Iterable[tuple[int, int]],
    *,
    dn: int,
    width: int,
    rhs: int,
    bound: tuple[int, int],
    enforce_range: bool,
) -> WindowPlan:
    """Range-check every point before any count: a point below bound = (n_min, m_min)
    raises unless enforce_range is off, and a window leaving the lattice always raises."""
    checked = []
    for n, m in points:
        in_range = n >= bound[0] and m >= bound[1]
        if not in_range and enforce_range:
            raise ParameterError(
                f"{name} window asserted only for n >= {bound[0]}, m >= {bound[1]}; "
                f"got ({n},{m})"
            )
        if n - width * dn < 1 or m - width < 1:
            raise ParameterError(
                f"{name} window of {width + 1} counts below ({n},{m}) leaves the lattice"
            )
        checked.append((n, m, in_range))
    return WindowPlan(title, name, k, s, dn, width, rhs, tuple(checked))


def strip_windows(
    k: int, n: int, s: int, m_range: Iterable[int], enforce_range: bool = True
) -> WindowPlan:
    """The windows verify_strip checks, validated."""
    if n < k:
        raise ParameterError(f"strip recurrence needs n >= k, got n={n}, k={k}")
    if s < 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    return _plan(
        f"strip recurrence k={k} n={n} s={s}", "strip", k, s, [(n, m) for m in m_range],
        dn=0, width=s, rhs=StripConstant(n, k).value ** s, bound=(k, k * s),
        enforce_range=enforce_range,
    )


def diagonal_windows(
    k: int, s: int, points: Iterable[tuple[int, int]], enforce_range: bool = True
) -> WindowPlan:
    """The windows verify_diagonal checks, validated."""
    if s < 1:
        raise ParameterError(f"diagonal recurrence needs s >= 1, got {s}")
    bound = (k + 1) * s
    return _plan(
        f"diagonal recurrence k={k} s={s}", "diagonal", k, s, points,
        dn=1, width=2 * s, rhs=diagonal_rhs(s), bound=(bound, bound),
        enforce_range=enforce_range,
    )


def corollary_windows(
    k: int, s: int, points: Iterable[tuple[int, int]], enforce_range: bool = True
) -> WindowPlan:
    """The windows verify_diagonal_corollary checks, validated."""
    if s < 1:
        raise ParameterError(f"diagonal corollary needs s >= 1, got {s}")
    bound = (k + 1) * s + 1
    return _plan(
        f"diagonal corollary k={k} s={s}", "corollary", k, s, points,
        dn=1, width=2 * s + 1, rhs=0, bound=(bound, bound),
        enforce_range=enforce_range,
    )


def verify_strip(
    k: int,
    n: int,
    s: int,
    m_range: Iterable[int],
    state_cap: int = DEFAULT_STATE_CAP,
    enforce_range: bool = True,
    tables: Mapping[tuple[int, int], CountTable] | None = None,
) -> Report:
    """Check sum_i (-1)**i C(s,i) a(n, m-i, s) == (2n-k+1)**s for each m >= k*s.

    Every m must be >= k*s unless enforce_range is off, in which case
    out-of-range residuals are reported without being asserted.  Counts come
    from tables when given (see WindowPlan.report).
    """
    return strip_windows(k, n, s, m_range, enforce_range).report(state_cap, tables)


def verify_diagonal(
    k: int,
    s: int,
    points: Iterable[tuple[int, int]],
    state_cap: int = DEFAULT_STATE_CAP,
    enforce_range: bool = True,
    tables: Mapping[tuple[int, int], CountTable] | None = None,
) -> Report:
    """Check the 2s+1 term alternating diagonal sum against 2**s (2s)!/s!.

    Each point (n, m) must satisfy n, m >= (k+1)s unless enforce_range is
    off, in which case out-of-range residuals are reported without being
    asserted.  Counts come from tables when given (see WindowPlan.report).
    """
    return diagonal_windows(k, s, points, enforce_range).report(state_cap, tables)


def verify_diagonal_corollary(
    k: int,
    s: int,
    points: Iterable[tuple[int, int]],
    state_cap: int = DEFAULT_STATE_CAP,
    enforce_range: bool = True,
    tables: Mapping[tuple[int, int], CountTable] | None = None,
) -> Report:
    """Check the (2s+2)-term alternating diagonal sum vanishes for n, m > (k+1)s.

    Counts come from tables when given (see WindowPlan.report).
    """
    return corollary_windows(k, s, points, enforce_range).report(state_cap, tables)


def _check_seed_window(k: int, s: int, anchor_n: int, anchor_m: int) -> None:
    bound = (k + 1) * s
    oldest_n = anchor_n - (2 * s - 1)
    oldest_m = anchor_m - (2 * s - 1)
    if oldest_n < bound or oldest_m < bound:
        raise ParameterError(
            f"seed window reaches ({oldest_n},{oldest_m}) below the proven "
            f"range n,m >= {bound}"
        )


class DiagonalSeed(Frozen):
    """A window of 2s consecutive diagonal counts ending at the anchor.

    counts[t] = a(anchor_n - (2s-1) + t, anchor_m - (2s-1) + t) for
    t = 0..2s-1; extension appends values at (anchor_n + 1, anchor_m + 1)
    onward.  Every seed entry must sit inside the recurrence's proven range.
    """

    __slots__ = ("k", "s", "anchor_n", "anchor_m", "counts")

    def __init__(self, k: int, s: int, anchor_n: int, anchor_m: int,
                 counts: tuple[int, ...]) -> None:
        if s < 1:
            raise ParameterError(f"seed needs s >= 1, got {s}")
        if len(counts) != 2 * s:
            raise ParameterError(f"seed must hold exactly {2 * s} counts, got {len(counts)}")
        _check_seed_window(k, s, anchor_n, anchor_m)
        set_field(self, "k", k)
        set_field(self, "s", s)
        set_field(self, "anchor_n", anchor_n)
        set_field(self, "anchor_m", anchor_m)
        set_field(self, "counts", counts)


def seed_from_enumeration(
    k: int,
    s: int,
    anchor_n: int,
    anchor_m: int,
    state_cap: int = DEFAULT_STATE_CAP,
    count: Callable[[int, int], int] | None = None,
) -> DiagonalSeed:
    """Build a seed from the 2s diagonal counts ending at the anchor.

    count(n, m) supplies a(n, m, k, s); by default it is direct enumeration.
    The seed window's range is checked before any count is made.
    """
    _check_seed_window(k, s, anchor_n, anchor_m)
    if count is None:
        def count(n: int, m: int) -> int:
            return count_configurations(LatticeSpec(n, m, k), s, state_cap=state_cap)
    w = 2 * s
    counts = tuple(count(anchor_n - (w - 1) + t, anchor_m - (w - 1) + t) for t in range(w))
    return DiagonalSeed(k=k, s=s, anchor_n=anchor_n, anchor_m=anchor_m, counts=counts)


def _newton(values: list[int]) -> list[int]:
    """Forward differences Delta**j values[0], j = 0..len-1: the Newton coefficients."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def fit_polynomial(
    k: int, s: int, state_cap: int = DEFAULT_STATE_CAP
) -> Callable[[int, int], int]:
    """a(n, m, k, s) on the quadrant n, m >= lo = max(k, (k-1)s), as a certified polynomial.

    The strip recurrence and its transpose make the s-th differences in m
    and in n constant on the quadrant, so there a(n, m) is a polynomial of
    degree at most s in each variable (finite differences, Stanley, EC1
    ch. 1).  Its Newton form is
        sum_{i, j <= s} c[i][j] C(n - lo, i) C(m - lo, j),
    with c[i][j] the (i, j)-th forward difference of the (s+1)**2 block of
    DP values at (lo, lo).  That form is conditional on the strip theorem,
    so it is certified before use: 2(s+1)+1 held-out DP values beyond the
    block in n, in m and in both must equal it, and c[s][s] must equal
    2**s s!, which makes its 2s-th diagonal difference 2**s (2s)!/s!.
    Every value comes from one count_tables call, never from the cache.
    The polynomial is never used to check the strip recurrence itself;
    verify_strip does that on DP counts.

    Returns the evaluator, which refuses points outside the quadrant.
    Raises CheckFailedError when the certificate fails.
    """
    if s < 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    lo = max(k, (k - 1) * s)
    top = lo + s + 1
    block = [(lo + i, lo + j) for i in range(s + 1) for j in range(s + 1)]
    held_out = [(top, lo + j) for j in range(s + 1)]
    held_out += [(lo + i, top) for i in range(s + 1)] + [(top, top)]
    tables = count_tables(k, block + held_out, s, state_cap)
    rows = [_newton([tables[lo + i, lo + j].counts[s] for j in range(s + 1)])
            for i in range(s + 1)]
    coeffs = [_newton(list(column)) for column in zip(*rows)]  # coeffs[j][i], j in m

    def evaluate(n: int, m: int) -> int:
        if n < lo or m < lo:
            raise ParameterError(
                f"quadrant polynomial holds only for n, m >= {lo}; got ({n},{m})"
            )
        bn = [math.comb(n - lo, i) for i in range(s + 1)]
        return sum(
            math.comb(m - lo, j) * sum(c * b for c, b in zip(column, bn))
            for j, column in enumerate(coeffs)
        )

    for n, m in held_out:
        fitted, counted = evaluate(n, m), tables[n, m].counts[s]
        if fitted != counted:
            raise CheckFailedError(
                f"quadrant polynomial k={k} s={s} gives {fitted} at held-out "
                f"({n},{m}), the DP {counted}"
            )
    leading = 2**s * math.factorial(s)
    if coeffs[s][s] != leading:
        raise CheckFailedError(
            f"quadrant polynomial k={k} s={s} has leading Newton coefficient "
            f"{coeffs[s][s]}, not 2**s s! = {leading}"
        )
    return evaluate


def check_steps(steps: int) -> None:
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")


def extend_diagonal(seed: DiagonalSeed, steps: int) -> list[int]:
    """Append `steps` new diagonal counts beyond the seed anchor.

    Solves the diagonal recurrence for its leading term:
    a(n, m) = rhs - sum_{i=1}^{2s} (-1)**i C(2s,i) a(n-i, m-i).
    """
    check_steps(steps)
    rhs = diagonal_rhs(seed.s)
    window = list(seed.counts)  # ascending, ends at the anchor
    out: list[int] = []
    for _ in range(steps):
        nxt = rhs - _alternating_sum([0, *reversed(window)])  # unknown leading term as 0
        out.append(nxt)
        window.append(nxt)
        window.pop(0)
    return out


def window_residuals(seed: DiagonalSeed, extended: Sequence[int]) -> list[int]:
    """Residuals of every full recurrence window over seed + extended values."""
    w = 2 * seed.s
    values = list(seed.counts) + list(extended)
    return [
        _alternating_sum(values[t - w : t + 1][::-1]) - diagonal_rhs(seed.s)
        for t in range(w, len(values))
    ]
