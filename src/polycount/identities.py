"""Registry of exactly-checkable summation identities, certificates and
antidifferences used by the cancellation proofs.

Each entry is a named check over a grid of integer (or rational)
assignments, evaluated in exact arithmetic.  Each identity is stated once up
to renaming, each instance built by ``symbolic.substitute`` from the object
that states it, and every check that states, sums or substitutes into a
proof object reads that one object.  The stock lemmas, which share no node
with another check, are appendix-c/alternating-shifted,
appendix-d/rising-binomial-antidifference, double-gf/outer-assembly,
double-gf/outer-sum-recurrence and gf/product-rule-antidifference
(``tests/test_identities.py`` gives their reasons).  A check's data picks
its runner: a check with summation axes telescopes, any other is pointwise.
Its ``kind`` is only the label the reports print.

* ``_run_pointwise``: ``lhs`` and ``rhs`` agree at every grid point.

  - ``pointwise``: any two expressions;
  - ``closed-form-sum``: ``lhs`` is a finite ``Sum`` and ``rhs`` its closed
    form;
  - ``boundary-lemma``: generic summation-by-parts bookkeeping for double
    sums over rectangles and triangles: the double sum of
    ``Delta_i G_i + Delta_j G_j`` over the region against its two single
    boundary sums.  The terms blend two sample pairs through the grid
    variable ``w`` in {0, 1}: ``G = (1 - w) A + w B``.

* ``_run_telescoping``: at every summation point,
  sum_d b_d(p) F(p+d, k) = sum over the axes of G(k+1) - G(k), then the
  declared ``inhom`` against the same combination of definite sums (bounds
  taken at the grid point).  Each axis ``(index, lower, upper, label, g,
  pole_free)`` is one summation index, outer first.  Its G is ``g * F`` for
  the labels ``certificate`` and ``certificate2`` and ``g`` itself for
  ``antidifference``; a ``pole_free`` expression, where given, is a form of
  that G without its removable poles.  The runner telescopes it instead, and
  fails wherever G is defined and differs from it, at every summation point
  and one step up.

  - ``certificate-recurrence``: one ``certificate`` axis;
  - ``double-sum-recurrence``: a ``certificate`` and a ``certificate2``
    axis, one certificate per summation index;
  - ``antidifference``: one ``antidifference`` axis and no coefficients, so
    the left side is F itself and ``inhom`` is the closed form of the sum.

Each ``run_check`` call compiles the check's expressions once
(``symbolic.compile_term``) and then walks the grid.  A telescoping check
compiles into kernels (``_kernels``), trees built with ``substitute`` from
the check's own objects: T, the sum over the axes of G(p + e_a) - G(p); R,
sum_d b_d F(p + d); and S, sum_d b_d times the nested definite sums of
F(p + d).  So each summation point costs one call of T and one of R, and
each grid point one of S.  Grid points that hit a pole, or whose summation
bounds are not integers, are skipped and counted; a check whose grid is
entirely skipped fails as degenerate.  The harness also adds one to each
constant of each axis's g, one at a time, and confirms the check then fails
(a wrong certificate cannot slip through).  A mutant is T's own compiled
code called with that constant bumped wherever T holds that constant
(``symbolic.mutants``): ``substitute`` keeps g's constant objects, so T's
step of g holds them too.  For an axis with a ``pole_free`` form, T
telescopes g·F instead.  A mutant shares the check's other kernels, so
nothing is built or compiled per mutant.  One failing point is enough, so
each mutant runs with ``fail_fast`` and stops at its first failure; the
registry run keeps every failure.
"""

from __future__ import annotations

import fnmatch
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .records import Record
from .reports import Report
from .symbolic import (
    Add,
    Compiled,
    Const,
    Expr,
    PoleError,
    Sum,
    Var,
    _as_int,
    binom_expr as C,
    compile_term,
    # Unused here, but perfbench/tracing.py wraps identities.eval_term; drop the
    # import once the benchmark wraps compile_term instead (see CHANGES.md).
    eval_term,  # noqa: F401
    fact_expr,
    mutants,
    sign_expr as SG,
    substitute,
    syms,
)

s, i, j, jp, ip, t, n, x, z, a, b, c, u = syms("s i j jp ip t n x z a b c u")

GridFn = Callable[[], Iterable[dict]]
# one summation index: (index, lower, upper, label, g, pole_free)
Axis = tuple[str, Expr, Expr, str, Expr, Expr | None]


class IdentityCheck(Record):
    __slots__ = ("name", "kind", "description", "grid", "lhs", "rhs", "summand", "param",
                 "coeffs", "axes", "inhom")

    def __init__(
        self,
        name: str,
        kind: str,
        description: str,
        grid: GridFn,
        # pointwise kinds: lhs against rhs
        lhs: Expr | None = None,
        rhs: Expr | None = None,
        # telescoping kinds: sum_d coeffs[d] F(param + d) against the axes' G
        summand: Expr | None = None,
        param: str | None = None,
        coeffs: tuple[Expr, ...] | None = None,
        axes: tuple[Axis, ...] = (),
        # the declared value of the summed combination; with no coeffs, the
        # closed form of the sum itself
        inhom: Expr | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.description = description
        self.grid = grid
        self.lhs = lhs
        self.rhs = rhs
        self.summand = summand
        self.param = param
        self.coeffs = coeffs
        self.axes = axes
        self.inhom = inhom


class CheckOutcome(Record):
    """Points tested and skipped by one run_check call, and its failures."""

    __slots__ = ("tested", "skipped", "failures")

    def __init__(self) -> None:
        self.tested = 0
        self.skipped = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        # run_check records a grid with no tested point as a failure
        return not self.failures


def _run_pointwise(chk: IdentityCheck, out: CheckOutcome) -> Iterator[str]:
    lhs_of, rhs_of = compile_term(chk.lhs), compile_term(chk.rhs)
    for env in chk.grid():
        try:
            lhs = lhs_of(env)
            rhs = rhs_of(env)
        except PoleError:
            out.skipped += 1
            continue
        out.tested += 1
        if lhs != rhs:
            yield f"{env}: lhs={lhs} rhs={rhs}"


class Kernels(Record):
    """A telescoping check compiled into the evaluators its runner calls.

    ``bounds`` holds each axis's index and bound evaluators, outer first.
    At a summation point p, ``telescoped`` is T(p), the sum over the axes of
    G(p + e_a) - G(p), and ``recurrence`` is R(p), sum_d b_d F(p + d).
    ``compare`` holds, per axis with a pole-free form, its label and index,
    g·F minus the pole-free form at p and at p + e_a, and the two sides.
    At a grid point, ``summed`` is sum_d b_d times the definite sums of
    F(p + d) and ``declared`` is inhom, or both are None.  ``tree`` is T's
    tree (``_telescoped``); a mutant bumps a constant of a g wherever T
    holds that constant.
    """

    __slots__ = ("bounds", "telescoped", "recurrence", "compare", "summed", "declared", "tree")

    def __init__(self, bounds: list, telescoped: Compiled, recurrence: Compiled,
                 compare: tuple, summed: Compiled | None, declared: Compiled | None,
                 tree: Expr) -> None:
        self.bounds = bounds
        self.telescoped = telescoped
        self.recurrence = recurrence
        self.compare = compare
        self.summed = summed
        self.declared = declared
        self.tree = tree


def _telescoped(chk: IdentityCheck, plain: str | None = None) -> Expr:
    """T, the sum over the axes of G(p + e_a) - G(p).

    An axis's G is its pole-free form where it has one and its label is
    not plain, and then T holds none of its g; else G is g·F, or g for an
    antidifference.
    """
    terms = []
    for index, _, _, label, g, pole_free in chk.axes:
        step = Var(index) + 1
        if pole_free is not None and label != plain:
            terms.append(substitute(pole_free, index, step) - pole_free)
        elif label == "antidifference":
            terms.append(substitute(g, index, step) - g)
        else:
            terms.append(substitute(g, index, step) * substitute(chk.summand, index, step)
                         - g * chk.summand)
    return Add(tuple(terms))


def _kernels(chk: IdentityCheck) -> Kernels:
    """Build and compile the check's kernels; set-up stays cheap, since only runs call this."""
    summand, param = chk.summand, chk.param
    # with no coeffs the left side is F itself: one coefficient, 1
    shifted = [(bd, substitute(summand, param, Var(param) + d) if d else summand)
               for d, bd in enumerate(chk.coeffs or (Const(Fraction(1)),))]
    compare = []
    for index, _, _, label, g, pole_free in chk.axes:
        if pole_free is not None:
            sides = (g if label == "antidifference" else g * summand, pole_free)
            differs = sides[0] - sides[1]
            compare.append((label, index, compile_term(differs),
                            compile_term(substitute(differs, index, Var(index) + 1)), sides))
    summed = declared = None
    if chk.inhom is not None:
        sums = []
        for bd, fd in shifted:
            for index, lower, upper, *_ in reversed(chk.axes):
                fd = Sum(index, lower, upper, fd)
            sums.append(bd * fd)
        summed, declared = compile_term(Add(tuple(sums))), compile_term(chk.inhom)
    tree = _telescoped(chk)
    return Kernels(
        [(index, compile_term(lower), compile_term(upper)) for index, lower, upper, *_ in chk.axes],
        compile_term(tree), compile_term(Add(tuple(bd * fd for bd, fd in shifted))),
        tuple(compare), summed, declared, tree)


def _run_telescoping(chk: IdentityCheck, out: CheckOutcome, kernels: Kernels) -> Iterator[str]:
    """sum_d b_d F(p+d) = sum over the axes of Delta G, pointwise and summed.

    At each summation point p the runner first compares g·F with each
    pole-free form, at p and one step up, skipping a comparison that hits a
    pole; then it evaluates T(p) and, where that is defined, R(p).  A pole
    in either skips the point.  At each grid point it then compares the
    summed side with the declared inhom, where the check has one.
    """
    bounds, telescoped, recurrence = kernels.bounds, kernels.telescoped, kernels.recurrence
    for env in chk.grid():
        try:
            points = [env]
            for index, lower, upper in bounds:
                points = [
                    {**e, index: k} for e in points
                    for k in range(_as_int(lower(e), "sum bound"),
                                   _as_int(upper(e), "sum bound") + 1)
                ]
        except PoleError:
            out.skipped += 1
            continue
        for e in points:
            for label, index, here, up, sides in kernels.compare:
                for step, differs in ((0, here), (1, up)):
                    try:
                        if not differs(e):
                            continue
                    except PoleError:
                        continue  # a removable pole of the G that g gives
                    p = {**e, index: e[index] + 1} if step else e
                    expected, simplified = (compile_term(side)(p) for side in sides)
                    yield f"{p}: {label} G={expected} pole-free={simplified}"
            try:
                delta = telescoped(e)
                lhs = recurrence(e)
            except PoleError:
                out.skipped += 1
                continue
            out.tested += 1
            if lhs != delta:
                yield f"{e}: recurrence={lhs} telescoped={delta}"
        if kernels.summed is not None:
            try:
                lhs = kernels.summed(env)
                rhs = kernels.declared(env)
            except PoleError:
                out.skipped += 1
                continue
            out.tested += 1
            if lhs != rhs:
                yield f"{env}: summed={lhs} declared={rhs}"


def run_check(chk: IdentityCheck, fail_fast: bool = False,
              mutant: Kernels | None = None) -> CheckOutcome:
    """Run the check over its whole grid; with fail_fast, stop at its first failure.

    A check with axes telescopes, any other is pointwise.  Expressions are
    compiled here, once per call, so building the registry stays cheap.  A
    mutant's kernels stand in for the check's own.
    """
    out = CheckOutcome()
    runner = (_run_telescoping(chk, out, mutant or _kernels(chk)) if chk.axes
              else _run_pointwise(chk, out))
    for failure in runner:
        out.failures.append(failure)
        if fail_fast:
            break
    if out.tested == 0:
        out.failures.append("degenerate grid: every point was skipped")
    return out


# -- grid helpers -------------------------------------------------------------

_X_SAMPLES = (Fraction(1, 3), Fraction(-1, 2), Fraction(3))
_Z_SAMPLES = (Fraction(2), Fraction(1, 2), Fraction(-2, 3))


# -- the registry -------------------------------------------------------------

def build_registry() -> dict[str, IdentityCheck]:
    checks: list[IdentityCheck] = []
    add = checks.append

    def at(expr: Expr, **values) -> Expr:
        """expr with each name replaced by its value, in turn: an instance of expr."""
        for name, value in values.items():
            expr = substitute(expr, name, value)
        return expr

    # ---- binomial identities ------------------------------------------------
    chu = Sum("j", Const(Fraction(0)), a, C(a, j) * C(b, c - j))
    chu_closed = C(a + b, c)
    add(IdentityCheck(
        name="appendix-c/chu-vandermonde",
        kind="closed-form-sum",
        description="sum_j C(a,j) C(b,c-j) = C(a+b,c)",
        lhs=chu,
        rhs=chu_closed,
        grid=lambda: [
            {"a": av, "b": bv, "c": cv}
            for av in range(0, 7) for bv in range(0, 7) for cv in range(0, av + bv + 1)
        ],
    ))
    add(IdentityCheck(
        name="appendix-c/alternating-shifted",
        kind="closed-form-sum",
        description="sum_k (-1)^k C(n,k) C(a+k,c) = (-1)^n C(a, c-n)",
        lhs=Sum("j", Const(Fraction(0)), n, SG(j) * C(n, j) * C(a + j, c)),
        rhs=SG(n) * C(a, c - n),
        grid=lambda: [
            {"n": nv, "a": av, "c": cv}
            for nv in range(0, 7) for av in range(-2, 7) for cv in range(0, 7)
        ],
    ))
    vanishing = Sum("jp", Const(Fraction(0)), j, SG(jp) * C(s - t + jp, jp) * C(s, j - jp))
    add(IdentityCheck(
        name="appendix-c/convolution-vanishing",
        kind="closed-form-sum",
        description="sum_{jp} (-1)^jp C(s-t+jp,jp) C(s,j-jp) = (-1)^j C(j-t,j)",
        lhs=vanishing,
        rhs=SG(j) * C(j - t, j),
        grid=lambda: [
            {"s": sv, "t": tv, "j": jv}
            for sv in range(1, 7) for tv in range(-1, sv + 2) for jv in range(0, sv + 1)
        ],
    ))

    # ---- stock antidifferences ----------------------------------------------
    add(IdentityCheck(
        name="appendix-d/rising-binomial-antidifference",
        kind="antidifference",
        description="C(s+b+jp, jp-1) is an antidifference of C(s+b+jp, jp)",
        summand=C(s + b + jp, jp),
        axes=(("jp", Const(Fraction(0)), u, "antidifference", C(s + b + jp, jp - 1), None),),
        inhom=C(s + b + u + 1, u),
        grid=lambda: [
            {"s": sv, "b": bv, "u": uv}
            for sv in range(1, 6) for bv in range(-3, 4) for uv in range(0, sv + 3)
        ],
    ))
    # the alternating partial sum of a binomial row, which the rhs column sums read
    alternating, alternating_closed = SG(jp) * C(s, jp), SG(u) * C(s - 1, u)
    add(IdentityCheck(
        name="appendix-d/alternating-binomial-antidifference",
        kind="antidifference",
        description="(-1)^(jp+1) C(s-1,jp-1) is an antidifference of (-1)^jp C(s,jp)",
        summand=alternating,
        axes=(
            ("jp", Const(Fraction(0)), u, "antidifference", SG(jp + 1) * C(s - 1, jp - 1), None),
        ),
        inhom=alternating_closed,
        grid=lambda: [
            {"s": sv, "u": uv} for sv in range(1, 9) for uv in range(0, sv + 2)
        ],
    ))

    # ---- boundary bookkeeping for double sums --------------------------------
    vi, vj, w = syms("vi vj w")
    zero = Const(Fraction(0))

    # two sample pairs (A_i, A_j) and (B_i, B_j), blended as G = (1 - w) A + w B
    def g_i(p, q) -> Expr:
        return (1 - w) * C(p + q, 2) + w * (2 * p - q) ** 2

    def g_j(p, q) -> Expr:
        return (1 - w) * p * q + w * C(2 * q + p, 3)

    # the inner upper bound of the region, and its boundary sum along i
    for shape, desc, top, i_edge in (
        ("rectangle", "independent lower/upper bounds", vj,
         Sum("j", zero, vj, g_i(vi + 1, j) - g_i(0, j))),
        ("triangle", "inner upper bound equals the outer index", i,
         Sum("j", zero, vi, g_i(vi + 1, j) - g_i(j, j))),
        ("antitriangle", "inner upper bound is the complement of the outer index", vi - i,
         Sum("j", zero, vi, g_i(vi - j + 1, j) - g_i(0, j))),
    ):
        add(IdentityCheck(
            name=f"appendix-b/{shape}-boundary",
            kind="boundary-lemma",
            description=f"telescoped double sum over a {shape} region ({desc}) "
                        "equals its two single boundary sums",
            lhs=Sum("i", zero, vi, Sum("j", zero, top,
                                       g_i(i + 1, j) - g_i(i, j) + g_j(i, j + 1) - g_j(i, j))),
            rhs=Sum("i", zero, vi, g_j(i, top + 1) - g_j(i, 0)) + i_edge,
            grid=lambda: [
                {"vi": iv, "vj": jv, "w": wv}
                for iv in range(1, 7) for jv in range(1, 5) for wv in (0, 1)
            ],
        ))

    # ---- generating-function product rule (row recursion, third part) --------
    f_one = (
        SG(i + t) * (2 * s - i) * C(2 * s, i) * C(i, t)
        * (1 / (2 * s - t)) * (1 / (1 - x) ** (s - t))
        * (-(s * x / (i + 1) - 1) - x * (s - t) / (i + 1))
    )
    f_two = (
        SG(i + t + 1) * (2 * s - i - 1) * C(2 * s, i + 1) * C(i + 1, t)
        * (1 / (2 * s - t)) * (1 / (1 - x) ** (s - t))
    )
    add(IdentityCheck(
        name="gf/product-rule-antidifference",
        kind="antidifference",
        description="difference of the two third-part summands in the row "
                    "recursion telescopes via (-1)^(i+t+1) C(2s,i+1) C(i,t-1) (1-x)^(t-s)",
        summand=f_one - f_two,
        axes=(
            ("t", Const(Fraction(0)), i, "antidifference",
             SG(i + t + 1) * C(2 * s, i + 1) * C(i, t - 1) * (1 / (1 - x) ** (s - t)), None),
        ),
        inhom=C(2 * s, i + 1) * (1 - x) ** (i + 1 - s),
        grid=lambda: [
            {"s": sv, "i": iv, "x": xv}
            for sv in range(1, 6) for iv in range(0, sv) for xv in _X_SAMPLES
        ],
    ))

    # ---- bivariate generating function --------------------------------------
    inner_coefficient = SG(i) * (2 * s - i) * C(2 * s, i) * C(i, t) * z**i
    add(IdentityCheck(
        name="double-gf/inner-coefficient-recurrence",
        kind="certificate-recurrence",
        description="the z-coefficient sum S(t) of the third part satisfies "
                    "-(2s-t-1) z S(t) + (z-1)(t+1) S(t+1) = 0",
        summand=inner_coefficient,
        param="t",
        coeffs=(-(2 * s - t - 1) * z, (z - 1) * (t + 1)),
        axes=(("i", Const(Fraction(0)), 2 * s, "certificate", i - t, None),),
        inhom=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "t": tv, "z": zv}
            for sv in range(1, 5) for tv in range(0, 2 * sv - 1) for zv in _Z_SAMPLES
        ],
    ))
    add(IdentityCheck(
        name="double-gf/inner-coefficient-closed-form",
        kind="closed-form-sum",
        description="S(t) = -2s z^t (z-1)^(2s-t-1) C(2s-1,t)",
        lhs=Sum("i", Const(Fraction(0)), 2 * s, inner_coefficient),
        rhs=-2 * s * z**t * (z - 1) ** (2 * s - t - 1) * C(2 * s - 1, t),
        grid=lambda: [
            {"s": sv, "t": tv, "z": zv}
            for sv in range(1, 5) for tv in range(0, 2 * sv) for zv in _Z_SAMPLES
        ],
    ))
    add(IdentityCheck(
        name="double-gf/outer-sum-recurrence",
        kind="certificate-recurrence",
        description="the alternating t-sum of the third part obeys "
                    "(xz-1)^2 S(s) + (x-1) S(s+1) = 0 via its certificate",
        summand=SG(t) * 2 * s * z**t * (z - 1) ** (2 * s - t - 1) * C(2 * s - 1, t)
                / ((2 * s - t) * (1 - x) ** (s - t)),
        param="s",
        coeffs=((x * z - 1) ** 2, x - 1),
        axes=(
            ("t", Const(Fraction(0)), 2 * s - 1, "certificate",
             t * (z - 1) * (2 * x * z + 2 * z * s - 3 + 2 * z * s * x + z - 4 * s - z * x * t + t)
             / ((2 * s + 2 - t) * (2 * s - t + 1)), None),
        ),
        inhom=None,
        grid=lambda: [
            {"s": sv, "z": zv, "x": xv}
            for sv in range(1, 5) for zv in _Z_SAMPLES for xv in _X_SAMPLES
        ],
    ))
    add(IdentityCheck(
        name="double-gf/outer-assembly",
        kind="closed-form-sum",
        description="sum_t (-1)^t z^t (z-1)^(2s-t-1) C(2s,t) (1-x)^(t-s) "
                    "= (xz-1)^(2s) / ((1-x)^s (z-1))",
        lhs=Sum("t", Const(Fraction(0)), 2 * s,
                SG(t) * z**t * (z - 1) ** (2 * s - t - 1) * C(2 * s, t) * (1 - x) ** (t - s)),
        rhs=(x * z - 1) ** (2 * s) / ((1 - x) ** s * (z - 1)),
        grid=lambda: [
            {"s": sv, "z": zv, "x": xv}
            for sv in range(1, 6) for zv in _Z_SAMPLES for xv in _X_SAMPLES
        ],
    ))

    # ---- upper square, strict lower triangle ---------------------------------
    # chu-vandermonde at a = b = s: its summand over ip at c = i, and over jp at c = j
    vertical_body = at(chu.body, j=ip, a=s, b=s, c=i)
    vertical = Sum("ip", Const(Fraction(0)), i, vertical_body)
    vertical_closed = at(chu_closed, a=s, b=s, c=i)
    horizontal = Sum("jp", Const(Fraction(0)), i, at(chu.body, j=jp, a=s, b=s, c=j))
    add(IdentityCheck(
        name="q1/vertical-convolution",
        kind="closed-form-sum",
        description="sum_{i'=0}^{i} C(s,i') C(s,i-i') = C(2s,i) for i <= s",
        lhs=vertical,
        rhs=vertical_closed,
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 8) for iv in range(0, sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q1/alpha-reduction",
        kind="pointwise",
        description="the horizontal half of the binomial-family coefficient "
                    "collapses to (-1)^i C(2s,i) above the diagonal",
        lhs=SG(j) * horizontal + SG(i) * vertical,
        rhs=SG(j) * horizontal + SG(i) * C(2 * s, i),
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 7) for iv in range(0, sv) for jv in range(iv + 1, sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q1/first-term-cancellation",
        kind="pointwise",
        description="first-term contribution of the h-family plus the vertical "
                    "binomial-family coefficient vanishes above the diagonal",
        lhs=Sum("jp", Const(Fraction(0)), i,
                SG(j - jp) * SG(jp + 1) * C(s, jp) * C(s, j - jp))
            + SG(j) * horizontal,
        rhs=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 7) for iv in range(0, sv) for jv in range(iv + 1, sv + 1)
        ],
    ))
    # the binomial of the h family's second term at (i, jp), which the rhs column sums read
    second_binomial = C(s + jp - i - 1, s)
    add(IdentityCheck(
        name="q1/second-term-value",
        kind="closed-form-sum",
        description="sum_{jp=i+1}^{j} (-1)^(j-jp) C(s+jp-i-1,s) C(s,j-jp) = 1",
        lhs=Sum("jp", i + 1, j, SG(j - jp) * second_binomial * C(s, j - jp)),
        rhs=Const(Fraction(1)),
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 8) for iv in range(0, sv) for jv in range(iv + 1, sv + 1)
        ],
    ))
    third_vanishing = substitute(vanishing, "t", t + 1)
    add(IdentityCheck(
        name="q1/third-term-vanishes",
        kind="closed-form-sum",
        description="sum_{jp=0}^{j} (-1)^jp C(s-t-1+jp,jp) C(s,j-jp) = 0 for 0 <= t < j",
        lhs=third_vanishing,
        rhs=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "t": tv, "j": jv}
            for sv in range(1, 7) for jv in range(1, sv + 1) for tv in range(0, jv)
        ],
    ))

    # ---- lower square, strict upper triangle ---------------------------------
    add(IdentityCheck(
        name="q3/horizontal-chu",
        kind="closed-form-sum",
        description="sum_{i'=j-s}^{s} C(s,i') C(s,i-i') = C(2s,i) when i >= j",
        lhs=Sum("ip", j - s, s, vertical_body),
        rhs=vertical_closed,
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 7) for jv in range(sv, 2 * sv + 1) for iv in range(jv, 2 * sv + 1)
        ],
    ))
    second_term = SG(jp) * C(i - jp - 1, s) * C(s, j - jp)
    second_sum = Sum("jp", Const(Fraction(0)), i - 1, second_term)
    add(IdentityCheck(
        name="q3/second-term-sum-interior",
        kind="closed-form-sum",
        description="sum_{jp=0}^{i-1} (-1)^jp C(i-jp-1,s) C(s,j-jp) = (-1)^(s+j) "
                    "for s <= j < i",
        lhs=second_sum,
        rhs=SG(s + j),
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 7) for iv in range(sv + 1, 2 * sv + 1) for jv in range(sv, iv)
        ],
    ))
    add(IdentityCheck(
        name="q3/second-term-sum-boundary",
        kind="closed-form-sum",
        description="the same sum vanishes once j >= i (in the band j >= s)",
        lhs=second_sum,
        rhs=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 7) for iv in range(sv + 1, 2 * sv + 1)
            for jv in range(iv, 2 * sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q3/second-term-recurrence",
        kind="certificate-recurrence",
        description="the second-term summand satisfies a first-order recurrence "
                    "in j with equal coefficient polynomials",
        summand=second_term,
        param="j",
        coeffs=(i - j - 1, i - j - 1),
        axes=(
            ("jp", Const(Fraction(0)), i - 1, "certificate",
             (i - jp) * (-s + j - jp) / (j + 1 - jp), None),
        ),
        inhom=None,
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 6) for iv in range(sv + 1, 2 * sv + 1)
            for jv in range(sv, 2 * sv)
        ],
    ))
    inner_term = SG(t) / (2 * s - t) * C(2 * s - i, t) * C(2 * s - t - 1 - jp, s - jp)
    inner_sum = Sum("t", Const(Fraction(0)), 2 * s - i, inner_term)
    add(IdentityCheck(
        name="q3/inner-sum-recurrence",
        kind="certificate-recurrence",
        description="the inner t-sum of the third-term double sum obeys a "
                    "second-order recurrence in jp",
        summand=inner_term,
        param="jp",
        coeffs=(
            -(jp - s) * (i - jp - s - 1),
            2 * i * jp - i * s - 2 * jp * jp + 2 * i - 5 * jp + s - 3,
            -(jp + 2) * (i - jp - 2),
        ),
        axes=(
            ("t", Const(Fraction(0)), 2 * s - i, "certificate",
             t * (jp - s) * (2 * s - t) / (-2 * s + t + 1 + jp), None),
        ),
        inhom=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "i": iv, "jp": jpv}
            for sv in range(2, 6) for iv in range(sv + 1, 2 * sv + 1)
            for jpv in range(0, sv - 1)
        ],
    ))
    inner_closed = SG(s + i + jp) / i * C(s, jp) / C(2 * s, i)
    add(IdentityCheck(
        name="q3/inner-sum-closed-form",
        kind="closed-form-sum",
        description="for jp >= i-s the inner t-sum equals "
                    "(-1)^(s+i+jp)/i * C(s,jp)/C(2s,i)",
        lhs=inner_sum,
        rhs=inner_closed,
        grid=lambda: [
            {"s": sv, "i": iv, "jp": jpv}
            for sv in range(1, 7) for iv in range(sv + 1, 2 * sv + 1)
            for jpv in range(max(0, iv - sv), sv + 1)
        ],
    ))
    correction_term = SG(t + 1) / t * C(i - jp - 1, s + t - 1) * C(s, t - 1) / C(s - jp, t)
    correction = Sum("t", Const(Fraction(1)), s - jp, correction_term)
    add(IdentityCheck(
        name="q3/correction-vanishes",
        kind="pointwise",
        description="the correction sum is empty of support once jp >= i-s",
        lhs=correction,
        rhs=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "i": iv, "jp": jpv}
            for sv in range(1, 7) for iv in range(sv + 1, 2 * sv + 1)
            for jpv in range(max(0, iv - sv), sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q3/inner-sum-with-correction",
        kind="pointwise",
        description="for every jp in [0,s] the inner t-sum equals the closed "
                    "form plus the correction sum",
        lhs=inner_sum,
        rhs=inner_closed + correction,
        grid=lambda: [
            {"s": sv, "i": iv, "jp": jpv}
            for sv in range(1, 7) for iv in range(sv + 1, 2 * sv + 1)
            for jpv in range(0, sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q3/correction-recurrence",
        kind="certificate-recurrence",
        description="the correction summand obeys a first-order recurrence in jp",
        summand=correction_term,
        param="jp",
        coeffs=(s - jp, jp + 1),
        axes=(
            ("t", Const(Fraction(1)), s - jp, "certificate",
             (s + t - 1) * (jp - s) / (i - jp - 1), None),
        ),
        inhom=None,
        grid=lambda: [
            {"s": sv, "i": iv, "jp": jpv}
            for sv in range(2, 7) for iv in range(sv + 1, 2 * sv + 1)
            for jpv in range(0, sv)
        ],
    ))
    add(IdentityCheck(
        name="q3/correction-summed-step",
        kind="pointwise",
        description="(s-jp) S(jp) + (jp+1) S(jp+1) = s C(i-jp-1,s)/(i-jp-1) "
                    "for the correction sums",
        lhs=(s - jp) * correction + (jp + 1) * substitute(correction, "jp", jp + 1),
        rhs=s * C(i - jp - 1, s) / (i - jp - 1),
        grid=lambda: [
            {"s": sv, "i": iv, "jp": jpv}
            for sv in range(2, 7) for iv in range(sv + 1, 2 * sv + 1)
            for jpv in range(0, sv)
        ],
    ))
    breakpoint_term = SG(t) / (2 * s - t) * C(2 * s - i, t) * C(3 * s - t - i, 2 * s - i + 1)
    add(IdentityCheck(
        name="q3/breakpoint-value",
        kind="closed-form-sum",
        description="at jp = i-s-1 the inner t-sum equals 1/(2s-i+1) "
                    "- C(s,i-s-1)/(i C(2s,i))",
        lhs=Sum("t", Const(Fraction(0)), 2 * s - i, breakpoint_term),
        rhs=1 / (2 * s - i + 1) - C(s, i - s - 1) / (i * C(2 * s, i)),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(2, 8) for iv in range(sv + 1, 2 * sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q3/breakpoint-recurrence",
        kind="certificate-recurrence",
        description="the jp = i-s-1 summand obeys a second-order recurrence in i",
        summand=breakpoint_term,
        param="i",
        coeffs=(
            (i - 2 * s - 1) * i,
            -(2 * i - s + 1) * (i - 2 * s),
            (i - s + 1) * (i - 2 * s + 1),
        ),
        axes=(
            ("t", Const(Fraction(0)), 2 * s - i, "certificate",
             -(i - 2 * s - 1) * s * (2 * s - t) * t / ((i - 2 * s) * (-3 * s + t + i)), None),
        ),
        inhom=None,
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(2, 8) for iv in range(sv + 1, 2 * sv - 1)
        ],
    ))
    # the factor of the jp-convolution of the inner sum's closed form and of its residual
    residual_factor = SG(s + i + j) * i * C(2 * s, i)
    add(IdentityCheck(
        name="q3/first-term-outer-sum",
        kind="pointwise",
        description="the closed-form part of the inner sum, convolved over jp, "
                    "gives (-1)^j C(2s,j)",
        lhs=residual_factor
            * Sum("jp", Const(Fraction(0)), s, SG(jp) * inner_closed * C(s, j - jp)),
        rhs=SG(j) * C(2 * s, j),
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 7) for iv in range(sv + 1, 2 * sv + 1)
            for jv in range(sv, 2 * sv + 1)
        ],
    ))

    # the residual double sum, its i-step and its recurrence
    residual_body = (SG(jp + t + 1) / t * C(i - jp - 1, s + t - 1) * C(s, t - 1)
                     * C(s, j - jp) / C(s - jp, t))
    residual = residual_factor * Sum(
        "jp", Const(Fraction(0)), s, Sum("t", Const(Fraction(1)), s - jp, residual_body))
    residual_step = substitute(residual, "i", i + 1) - residual

    add(IdentityCheck(
        name="q3/double-sum-value",
        kind="pointwise",
        description="the residual double sum equals (-1)^(j+1) C(2s,j) strictly "
                    "above the diagonal of the lower square",
        lhs=residual,
        rhs=SG(j + 1) * C(2 * s, j),
        grid=lambda: [
            {"s": sv, "j": jv, "i": iv}
            for sv in range(1, 6) for jv in range(sv, 2 * sv + 1)
            for iv in range(jv + 1, 2 * sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q3/double-sum-diagonal-vanishes",
        kind="pointwise",
        description="the residual double sum vanishes on the diagonal",
        lhs=residual,
        rhs=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "j": iv, "i": iv}
            for sv in range(1, 7) for iv in range(sv, 2 * sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q3/double-sum-recurrence",
        kind="double-sum-recurrence",
        description="the residual double-sum summand satisfies -F(i)+F(i+1) = "
                    "Delta_t(R_t F) with R_jp = 0",
        # (-1)^(s+j+1) times the residual's own factor and body: its sign is free of i
        summand=SG(s + j + 1) * residual_factor * residual_body,
        param="i",
        coeffs=(Const(Fraction(-1)), Const(Fraction(1))),
        axes=(
            ("jp", Const(Fraction(0)), s, "certificate", Const(Fraction(0)), None),
            ("t", Const(Fraction(1)), s - jp, "certificate2",
             (s - jp - t + 1) * (s + t - 1) / (i * (-jp + i + 1 - s - t)), None),
        ),
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(2, 6) for jv in range(sv, 2 * sv + 1)
            for iv in range(sv, 2 * sv)
        ],
    ))
    add(IdentityCheck(
        name="q3/double-sum-step-offdiagonal",
        kind="pointwise",
        description="one i-step of the residual double sum is homogeneous "
                    "strictly above the diagonal",
        lhs=residual_step,
        rhs=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "j": jv, "i": iv}
            for sv in range(1, 6) for jv in range(sv, 2 * sv)
            for iv in range(jv + 1, 2 * sv)
        ],
    ))
    add(IdentityCheck(
        name="q3/double-sum-step-diagonal",
        kind="pointwise",
        description="on the diagonal the i-step of the residual double sum "
                    "produces (-1)^(j+1) C(2s,i)",
        lhs=residual_step,
        rhs=SG(j + 1) * C(2 * s, i),
        grid=lambda: [
            {"s": sv, "j": iv, "i": iv}
            for sv in range(1, 7) for iv in range(sv, 2 * sv)
        ],
    ))
    gt_boundary = SG(i + jp + 1) * C(2 * s, i) * C(i - jp - 1, s - 1) * C(s, j - jp)
    add(IdentityCheck(
        name="q3/inhom-boundary-term",
        kind="pointwise",
        description="the inner certificate evaluated at t=1 reduces to "
                    "(-1)^(i+jp+1) C(2s,i) C(i-jp-1,s-1) C(s,j-jp)",
        lhs=SG(i + 1 + jp) * s / (i - s - jp) * C(2 * s, i)
            * C(i - jp - 1, s) * C(s, j - jp),
        rhs=gt_boundary,
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv, "jp": jpv}
            for sv in range(2, 6) for iv in range(sv, 2 * sv)
            for jv in range(sv, 2 * sv + 1) for jpv in range(0, sv)
            if iv - sv - jpv != 0
        ],
    ))
    add(IdentityCheck(
        name="q3/inhom-antidifference",
        kind="antidifference",
        description="above the diagonal the t=1 boundary term telescopes in jp "
                    "via (-1)^(i+jp) C(2s,i) C(i-jp,i-j) C(i-j-1,i-s-jp)",
        summand=gt_boundary,
        axes=(
            ("jp", Const(Fraction(0)), s, "antidifference",
             SG(i + jp) * C(2 * s, i) * C(i - jp, i - j) * C(i - j - 1, i - s - jp), None),
        ),
        inhom=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "j": jv, "i": iv}
            for sv in range(1, 7) for jv in range(sv, 2 * sv + 1)
            for iv in range(jv + 1, 2 * sv + 1)
        ],
    ))
    gt_diag = Sum("jp", Const(Fraction(0)), s - 1, substitute(gt_boundary, "j", i))
    add(IdentityCheck(
        name="q3/inhom-diagonal-recurrence",
        kind="pointwise",
        description="on the diagonal the summed boundary term obeys "
                    "(i-2s) g(i) + (i+1) g(i+1) = 0; the printed pointwise "
                    "certificate is vacuous over the integers (its zero factor "
                    "covers the summand's whole support), so the summed "
                    "recurrence is checked instead",
        lhs=(i - 2 * s) * gt_diag + (i + 1) * substitute(gt_diag, "i", i + 1),
        rhs=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 8) for iv in range(sv, 2 * sv - 1)
        ],
    ))
    add(IdentityCheck(
        name="q3/inhom-diagonal-value",
        kind="closed-form-sum",
        description="on the diagonal the jp-sum of the boundary term equals "
                    "(-1)^(s+1) C(2s,i) for s <= i <= 2s-1",
        lhs=gt_diag,
        rhs=SG(s + 1) * C(2 * s, i),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 8) for iv in range(sv, 2 * sv)
        ],
    ))
    top_row_term = (SG(s + j) * 2 * s * SG(jp + t + 1) / t * C(2 * s - jp - 1, s + t - 1)
                    * C(s, t - 1) * C(s, j - jp) / C(s - jp, t))
    second_piece = SG(s + jp + j) * C(s, j - jp) * C(2 * s - 1 - jp, s - 1)
    add(IdentityCheck(
        name="q3/top-row-antidifference",
        kind="antidifference",
        description="in the bottom row of the square the inner t-sum telescopes "
                    "directly",
        summand=top_row_term,
        axes=(
            ("t", Const(Fraction(1)), s - jp, "antidifference",
             SG(s + j + jp + t) * (s + t - 1) / t * C(2 * s - 1 - jp, s + t - 1)
             * C(s, t - 1) * C(s, j - jp) / C(s - jp, t), None),
        ),
        inhom=None,
        grid=lambda: [
            {"s": sv, "j": jv, "jp": jpv}
            for sv in range(1, 7) for jv in range(sv, 2 * sv + 1) for jpv in range(0, sv)
        ],
    ))
    add(IdentityCheck(
        name="q3/top-row-inner-value",
        kind="pointwise",
        description="the telescoped bottom-row inner sum splits into a "
                    "convolution part and a second piece",
        lhs=Sum("t", Const(Fraction(1)), s - jp, top_row_term),
        rhs=SG(j + 1) * C(s, jp) * C(s, j - jp) + second_piece,
        grid=lambda: [
            {"s": sv, "j": jv, "jp": jpv}
            for sv in range(1, 7) for jv in range(sv, 2 * sv + 1) for jpv in range(0, sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q3/top-row-second-piece-antidifference",
        kind="antidifference",
        description="the second piece telescopes in jp via "
                    "(-1)^(s+jp+j) s/(j-2s) C(2s-jp,s) C(s-1,j-jp)",
        summand=second_piece,
        axes=(
            ("jp", Const(Fraction(0)), s, "antidifference",
             SG(s + jp + j) * s / (j - 2 * s) * C(2 * s - jp, s) * C(s - 1, j - jp), None),
        ),
        inhom=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "j": jv} for sv in range(1, 8) for jv in range(sv, 2 * sv)
        ],
    ))

    # ---- mixed quadrant (upper-right) ----------------------------------------
    # the third term's inner t-sum, which the raw double sum and the column sums
    # read; its binomial C(s-t-1+jp, jp) is the one q1/third-term-vanishes convolves
    third_binomial = third_vanishing.body.factors[0].factors[1]
    third_inner = Sum("t", Const(Fraction(0)), i, SG(t) / (2 * s - t) * C(i, t) * third_binomial)
    add(IdentityCheck(
        name="q4/inner-sum-transform",
        kind="pointwise",
        description="the inner t-sum in the mixed quadrant splits into a closed "
                    "form plus a correction over t <= jp",
        lhs=third_inner,
        rhs=SG(i + jp) / (2 * s - i) * C(s, jp) / C(2 * s, i)
            + Sum("t", Const(Fraction(1)), jp,
                  SG(t + 1) / t * C(s, t - 1) * C(s + jp - i - 1, s + t - 1) / C(jp, t)),
        grid=lambda: [
            {"s": sv, "i": iv, "jp": jpv}
            for sv in range(1, 7) for iv in range(0, sv + 1) for jpv in range(0, sv + 1)
        ],
    ))
    beta3v_raw = SG(i + j + 1) * (2 * s - i) * C(2 * s, i) * Sum(
        "jp", Const(Fraction(0)), s, SG(jp) * C(s, j - jp) * third_inner)
    beta3v_factor = SG(i + j) * (2 * s - i) * C(2 * s, i)
    beta3v_body = (SG(jp + t) / t * C(s, t - 1) * C(s + jp - i - 1, s + t - 1)
                   * C(s, j - jp) / C(jp, t))
    beta3v = beta3v_factor * Sum(
        "jp", Const(Fraction(0)), s, Sum("t", Const(Fraction(1)), jp, beta3v_body))

    add(IdentityCheck(
        name="q4/transformed-double-sum",
        kind="pointwise",
        description="the raw third-term double sum equals its transformed form "
                    "with the extracted (-1)^(j+1) C(2s,j)",
        lhs=beta3v_raw,
        rhs=SG(j + 1) * C(2 * s, j) + beta3v,
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 6) for iv in range(0, sv + 1) for jv in range(sv, 2 * sv + 1)
        ],
    ))
    beta2h_term = SG(s + i + j + ip) * C(2 * s, j) * C(j - ip - 1, s) * C(s, i - ip)
    add(IdentityCheck(
        name="q4/beta2h-recurrence",
        kind="certificate-recurrence",
        description="the horizontal second-term sum satisfies a first-order "
                    "recurrence in i",
        summand=beta2h_term,
        param="i",
        coeffs=(-i - 1 + j, i - j + 1),
        axes=(
            ("ip", Const(Fraction(0)), s, "certificate",
             (j - ip) * (-s + i - ip) / (i + 1 - ip), None),
        ),
        inhom=None,
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(2, 6) for iv in range(0, sv) for jv in range(sv + 1, 2 * sv + 1)
        ],
    ))
    beta2h = Sum("ip", Const(Fraction(0)), s, beta2h_term)
    step_rhs = C(2 * s, i + 1) * C(2 * s - i - 1, j - i - 1) * C(j - i - 2, j - s - 1)
    beta3v_step = SG(i + j + s) * step_rhs
    add(IdentityCheck(
        name="q4/beta2h-step",
        kind="pointwise",
        description="one i-step of the horizontal second-term sum equals "
                    "(-1)^(i+j+s+1) C(2s,i+1) C(2s-i-1,j-i-1) C(j-i-2,j-s-1)",
        lhs=substitute(beta2h, "i", i + 1) - beta2h,
        rhs=SG(i + j + s + 1) * step_rhs,
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 7) for iv in range(0, sv) for jv in range(sv + 1, 2 * sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q4/beta3v-step",
        kind="pointwise",
        description="one i-step of the transformed third-term double sum equals "
                    "the same quantity with opposite sign",
        lhs=substitute(beta3v, "i", i + 1) - beta3v,
        rhs=beta3v_step,
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(1, 7) for iv in range(0, sv) for jv in range(sv + 1, 2 * sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q4/beta3v-recurrence",
        kind="double-sum-recurrence",
        description="the transformed third-term summand satisfies -F(i)+F(i+1) "
                    "= Delta_t(R_t F) with R_jp = 0",
        summand=beta3v_factor * beta3v_body,
        param="i",
        coeffs=(Const(Fraction(-1)), Const(Fraction(1))),
        axes=(
            ("jp", Const(Fraction(0)), s, "certificate", Const(Fraction(0)), None),
            # the last field is a pole-free form of G = certificate2 * summand
            ("t", Const(Fraction(1)), jp, "certificate2",
             -(jp - t + 1) * (s + t - 1) / ((-s - jp + i + 1) * (i + 1)),
             -SG(i + j + jp + t) * (s + t - 1) * (2 * s - i)
             / ((i + 1 - s - jp) * (i + 1)) * C(2 * s, i) * C(s, t - 1)
             * C(s + jp - i - 1, s + t - 1) * C(s, j - jp) / C(jp, t - 1)),
        ),
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(2, 6) for iv in range(0, sv) for jv in range(sv + 1, 2 * sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q4/step-inner-antidifference",
        kind="antidifference",
        description="the single sum left by the multisum telescoping is itself "
                    "telescoping in jp",
        summand=SG(i + j + jp) * s * (i - 2 * s) / ((-s - jp + i + 1) * (i + 1))
                * C(2 * s, i) * C(s + jp - i - 1, s) * C(s, j - jp),
        axes=(
            ("jp", Const(Fraction(1)), s, "antidifference",
             SG(i + j + jp + 1) * C(2 * s, i + 1) * C(s + jp - i - 2, j - i - 1)
             * C(j - i - 2, j - jp), None),
        ),
        inhom=beta3v_step,
        grid=lambda: [
            {"s": sv, "i": iv, "j": jv}
            for sv in range(2, 7) for iv in range(0, sv) for jv in range(sv + 1, 2 * sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q4/initial-value-second-horizontal",
        kind="pointwise",
        description="at i = 0 the horizontal second-term sum is "
                    "(-1)^(s+j) C(2s,j) C(j-1,s)",
        lhs=substitute(beta2h, "i", 0),
        rhs=SG(s + j) * C(2 * s, j) * C(j - 1, s),
        grid=lambda: [
            {"s": sv, "j": jv} for sv in range(1, 8) for jv in range(sv + 1, 2 * sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="q4/initial-value-third-vertical",
        kind="closed-form-sum",
        description="sum_jp (-1)^jp C(s-1+jp,jp) C(s,j-jp) = (-1)^s C(2s,j) C(j-1,s)",
        lhs=Sum("jp", Const(Fraction(0)), s, substitute(third_vanishing.body, "t", 0)),
        rhs=SG(s) * C(2 * s, j) * C(j - 1, s),
        grid=lambda: [
            {"s": sv, "j": jv} for sv in range(1, 8) for jv in range(sv, 2 * sv + 1)
        ],
    ))

    # ---- right-hand-side bookkeeping -----------------------------------------
    add(IdentityCheck(
        name="rhs/alternating-partial-sum",
        kind="closed-form-sum",
        description="sum_{jp=0}^{i} (-1)^jp C(s,jp) = (-1)^i C(s-1,i)",
        lhs=Sum("jp", Const(Fraction(0)), i, alternating),
        rhs=substitute(alternating_closed, "u", i),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 9) for iv in range(0, sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="rhs/alternating-partial-sum-upper",
        kind="closed-form-sum",
        description="sum_{jp=i-s}^{s} (-1)^jp C(s,jp) = (-1)^(s+i) C(s-1,2s-i)",
        lhs=Sum("jp", i - s, s, alternating),
        rhs=SG(s + i) * C(s - 1, 2 * s - i),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 9) for iv in range(sv + 1, 2 * sv + 1)
        ],
    ))
    # the power sums of a binomial row, one per t
    stirling = Sum("i", Const(Fraction(0)), s, SG(i + s) * i ** (s + 1 - t) * C(s, i))
    add(IdentityCheck(
        name="rhs/stirling-t0",
        kind="closed-form-sum",
        description="sum_i (-1)^(i+s) i^(s+1) C(s,i) = s (s+1)!/2",
        lhs=substitute(stirling, "t", 0),
        rhs=s * fact_expr(s + 1) / 2,
        grid=lambda: [{"s": sv} for sv in range(1, 11)],
    ))
    add(IdentityCheck(
        name="rhs/stirling-t1",
        kind="closed-form-sum",
        description="sum_i (-1)^(i+s) i^s C(s,i) = s!",
        lhs=substitute(stirling, "t", 1),
        rhs=fact_expr(s),
        grid=lambda: [{"s": sv} for sv in range(1, 11)],
    ))
    add(IdentityCheck(
        name="rhs/stirling-higher",
        kind="closed-form-sum",
        description="sum_i (-1)^(i+s) i^(s+1-t) C(s,i) = 0 for t > 1",
        lhs=stirling,
        rhs=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "t": tv} for sv in range(2, 11) for tv in range(2, sv + 1)
        ],
    ))
    add(IdentityCheck(
        name="rhs/second-term-column",
        kind="closed-form-sum",
        description="sum_{jp=i+1}^{s} C(s+jp-i-1,s) = C(2s-i,s+1)",
        lhs=Sum("jp", i + 1, s, second_binomial),
        rhs=C(2 * s - i, s + 1),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 9) for iv in range(0, sv)
        ],
    ))
    add(IdentityCheck(
        name="rhs/third-term-column",
        kind="pointwise",
        description="the double sum of third-term column weights has the closed "
                    "form (2s-i)/s C(2s,i) C(2s-i-1,s) (1 - 1/(2 C(2s-1,s)))",
        lhs=SG(i) * (2 * s - i) * C(2 * s, i) * Sum("jp", i + 1, s, third_inner),
        rhs=SG(i) * (2 * s - i) / s * C(2 * s, i) * C(2 * s - i - 1, s)
            * (1 - 1 / (2 * C(2 * s - 1, s))),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 8) for iv in range(0, sv)
        ],
    ))
    h3_first = SG(t) / (2 * s - t) * C(i, t) * C(2 * s - t, s - t)
    h3_second = SG(t) / (2 * s - t) * C(i, t) * C(s - t + i, s - t)
    add(IdentityCheck(
        name="rhs/h3-first-sum",
        kind="closed-form-sum",
        description="sum_t (-1)^t/(2s-t) C(i,t) C(2s-t,s-t) = C(2s-i-1,s)/s",
        lhs=Sum("t", Const(Fraction(0)), i, h3_first),
        rhs=C(2 * s - i - 1, s) / s,
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 9) for iv in range(0, sv)
        ],
    ))
    add(IdentityCheck(
        name="rhs/h3-second-sum",
        kind="closed-form-sum",
        description="sum_t (-1)^t/(2s-t) C(i,t) C(s-t+i,s-t) "
                    "= C(2s-i-1,s)/(2s C(2s-1,s))",
        lhs=Sum("t", Const(Fraction(0)), i, h3_second),
        rhs=C(2 * s - i - 1, s) / (2 * s * C(2 * s - 1, s)),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 9) for iv in range(0, sv)
        ],
    ))
    add(IdentityCheck(
        name="rhs/h3-first-sum-recurrence",
        kind="certificate-recurrence",
        description="the first column-sum summand obeys "
                    "(s-i-1) F(i) + (i-2s+1) F(i+1) = Delta_t(R F)",
        summand=h3_first,
        param="i",
        coeffs=(s - i - 1, i - 2 * s + 1),
        axes=(("t", Const(Fraction(0)), s, "certificate", t * (2 * s - t) / (i - t + 1), None),),
        inhom=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 9) for iv in range(0, sv - 1)
        ],
    ))
    add(IdentityCheck(
        name="rhs/h3-second-sum-recurrence",
        kind="certificate-recurrence",
        description="the second column-sum summand obeys "
                    "-(i+1)(i-s+1) F(i) + (i+1)(i-2s+1) F(i+1) = Delta_t(R F)",
        summand=h3_second,
        param="i",
        coeffs=(-(i + 1) * (i - s + 1), (i + 1) * (i - 2 * s + 1)),
        axes=(
            ("t", Const(Fraction(0)), s, "certificate",
             t * (2 * s - t) * (s - t + i + 1) / (i - t + 1), None),
        ),
        inhom=Const(Fraction(0)),
        grid=lambda: [
            {"s": sv, "i": iv} for sv in range(1, 9) for iv in range(0, sv - 1)
        ],
    ))

    registry = {}
    for chk in checks:
        if chk.name in registry:
            raise ValueError(f"duplicate check name {chk.name}")
        registry[chk.name] = chk
    return registry


_REGISTRY: dict[str, IdentityCheck] | None = None


def registry() -> dict[str, IdentityCheck]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = build_registry()
    return _REGISTRY


def run_registry(pattern: str = "*") -> Report:
    """Run every registered check whose name matches the glob pattern."""
    report = Report(title=f"identity registry [{pattern}]")
    for name, chk in sorted(registry().items()):
        if not fnmatch.fnmatch(name, pattern):
            continue
        out = run_check(chk)
        report.record(
            name,
            {"kind": chk.kind, "tested": out.tested, "skipped": out.skipped},
            "all points agree",
            "ok" if out.passed else "; ".join(out.failures[:3]),
            passed=out.passed,
        )
    return report


def _mutants(chk: IdentityCheck) -> Iterator[tuple[str, Kernels]]:
    """Each single-constant bump of the check's certificates, labelled, as kernels.

    A mutant bumps one constant of an axis's g wherever T holds that
    constant, which for an axis with a pole-free form is T with g·F in its
    place, and runs without that axis's comparison.  Every mutant calls the
    factory of its T with the bumped constants and shares the check's other
    kernels.  No certificate holds one constant object twice, so each
    constant of g is one mutant.
    """
    if not chk.axes:
        return
    kernels = _kernels(chk)
    for _, _, _, label, g, pole_free in chk.axes:
        tree = kernels.tree if pole_free is None else _telescoped(chk, plain=label)
        compare = tuple(entry for entry in kernels.compare if entry[0] != label)
        for idx, telescoped in enumerate(mutants(tree, g)):
            yield f"{chk.name}:{label}[{idx}]", Kernels(
                kernels.bounds, telescoped, kernels.recurrence, compare,
                kernels.summed, kernels.declared, tree)


def mutation_survivors(chk: IdentityCheck) -> list[str]:
    """Names of single-coefficient certificate perturbations that go undetected.

    Each constant of each axis's g (a certificate or an antidifference) is
    bumped by one; the check must then fail.  One failing point is enough,
    so each mutant runs only up to its first failure.  An empty list means
    the harness catches every such corruption.
    """
    return [label for label, mutant in _mutants(chk)
            if run_check(chk, fail_fast=True, mutant=mutant).passed]


def certificate_mutation_report(pattern: str = "*") -> Report:
    report = Report(title=f"certificate mutation detection [{pattern}]")
    for name, chk in sorted(registry().items()):
        if not chk.axes or not fnmatch.fnmatch(name, pattern):
            continue
        bad = mutation_survivors(chk)
        report.record(
            name,
            {"kind": chk.kind},
            "every perturbed certificate detected",
            "ok" if not bad else f"undetected: {bad}",
            passed=not bad,
        )
    return report
