"""Strip and diagonal recurrences on the covering counts, verified and applied.

The strip recurrence fixes the width n and alternates along the length m with
constant right-hand side (2n-k+1)**s.  The diagonal recurrence alternates
along (n-i, m-i) with right-hand side 2**s (2s)!/s!, independent of k, n, m.
Both are exact integer identities; verification reports residuals, never
tolerances.  The diagonal recurrence also extends counts along a diagonal
past what direct enumeration can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ParameterError
from .lattice import DEFAULT_STATE_CAP, LatticeSpec, count_configurations, count_tables
from .reports import Report


@dataclass(frozen=True)
class StripConstant:
    """c(n, k) = 2n - k + 1, defined for strips at least as wide as the rod."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < self.k:
            raise ParameterError(f"strip constant needs n >= k, got n={self.n}, k={self.k}")

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


def _verify_windows(
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
    state_cap: int,
) -> Report:
    """Check the window a(n - i*dn, m - i), i = 0..width, against rhs at each point.

    Every window count comes from one count_tables call.  A point below
    bound = (n_min, m_min) raises unless enforce_range is off; its residual is
    then recorded with status info, never asserted.
    """
    checked: list[tuple[int, int, bool]] = []
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

    def window(n: int, m: int) -> list[tuple[int, int]]:
        return [(n - i * dn, m - i) for i in range(width + 1)]

    tables = count_tables(k, (p for n, m, _ in checked for p in window(n, m)), s, state_cap)
    report = Report(title=title)
    for n, m, in_range in checked:
        lhs = _alternating_sum([tables[p].counts[s] for p in window(n, m)])
        params = {"k": k, "n": n, "m": m, "s": s}
        if dn:  # only diagonal windows may be reported outside their range
            params["in_range"] = in_range
        report.record(name, params, rhs, lhs).info = not in_range
    return report


def verify_strip(
    k: int,
    n: int,
    s: int,
    m_range: Iterable[int],
    state_cap: int = DEFAULT_STATE_CAP,
) -> Report:
    """Check sum_i (-1)**i C(s,i) a(n, m-i, s) == (2n-k+1)**s for each m >= k*s."""
    if n < k:
        raise ParameterError(f"strip recurrence needs n >= k, got n={n}, k={k}")
    if s < 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    return _verify_windows(
        f"strip recurrence k={k} n={n} s={s}", "strip", k, s, [(n, m) for m in m_range],
        dn=0, width=s, rhs=StripConstant(n, k).value ** s, bound=(k, k * s),
        enforce_range=True, state_cap=state_cap,
    )


def verify_diagonal(
    k: int,
    s: int,
    points: Iterable[tuple[int, int]],
    state_cap: int = DEFAULT_STATE_CAP,
    enforce_range: bool = True,
) -> Report:
    """Check the 2s+1 term alternating diagonal sum against 2**s (2s)!/s!.

    Each point (n, m) must satisfy n, m >= (k+1)s unless enforce_range is
    off, in which case out-of-range residuals are reported without being
    asserted.
    """
    if s < 1:
        raise ParameterError(f"diagonal recurrence needs s >= 1, got {s}")
    bound = (k + 1) * s
    return _verify_windows(
        f"diagonal recurrence k={k} s={s}", "diagonal", k, s, points,
        dn=1, width=2 * s, rhs=diagonal_rhs(s), bound=(bound, bound),
        enforce_range=enforce_range, state_cap=state_cap,
    )


def verify_diagonal_corollary(
    k: int,
    s: int,
    points: Iterable[tuple[int, int]],
    state_cap: int = DEFAULT_STATE_CAP,
    enforce_range: bool = True,
) -> Report:
    """Check the (2s+2)-term alternating diagonal sum vanishes for n, m > (k+1)s."""
    if s < 1:
        raise ParameterError(f"diagonal corollary needs s >= 1, got {s}")
    bound = (k + 1) * s + 1
    return _verify_windows(
        f"diagonal corollary k={k} s={s}", "corollary", k, s, points,
        dn=1, width=2 * s + 1, rhs=0, bound=(bound, bound),
        enforce_range=enforce_range, state_cap=state_cap,
    )


@dataclass(frozen=True)
class DiagonalSeed:
    """A window of 2s consecutive diagonal counts ending at the anchor.

    counts[t] = a(anchor_n - (2s-1) + t, anchor_m - (2s-1) + t) for
    t = 0..2s-1; extension appends values at (anchor_n + 1, anchor_m + 1)
    onward.  Every seed entry must sit inside the recurrence's proven range.
    """

    k: int
    s: int
    anchor_n: int
    anchor_m: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ParameterError(f"seed needs s >= 1, got {self.s}")
        if len(self.counts) != 2 * self.s:
            raise ParameterError(
                f"seed must hold exactly {2 * self.s} counts, got {len(self.counts)}"
            )
        bound = (self.k + 1) * self.s
        oldest_n = self.anchor_n - (2 * self.s - 1)
        oldest_m = self.anchor_m - (2 * self.s - 1)
        if oldest_n < bound or oldest_m < bound:
            raise ParameterError(
                f"seed window reaches ({oldest_n},{oldest_m}) below the proven "
                f"range n,m >= {bound}"
            )


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
    """
    if count is None:
        def count(n: int, m: int) -> int:
            return count_configurations(LatticeSpec(n, m, k), s, state_cap=state_cap)
    w = 2 * s
    counts = tuple(count(anchor_n - (w - 1) + t, anchor_m - (w - 1) + t) for t in range(w))
    return DiagonalSeed(k=k, s=s, anchor_n=anchor_n, anchor_m=anchor_m, counts=counts)


def extend_diagonal(seed: DiagonalSeed, steps: int) -> list[int]:
    """Append `steps` new diagonal counts beyond the seed anchor.

    Solves the diagonal recurrence for its leading term:
    a(n, m) = rhs - sum_{i=1}^{2s} (-1)**i C(2s,i) a(n-i, m-i).
    """
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
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
