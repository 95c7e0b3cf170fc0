from __future__ import annotations

import copy
import fnmatch
import hashlib
from fractions import Fraction

from polycount.identities import (
    Const,
    IdentityCheck,
    _mutants,
    build_registry,
    mutation_survivors,
    registry,
    run_check,
    run_registry,
)
from polycount.symbolic import (
    Expr,
    PoleError,
    Sum,
    binom_expr as C,
    compile_term,
    eval_term,
    mutants,
    syms,
)

a, s, i, j, jp, t, k = syms("a s i j jp t k")


def replace(chk: IdentityCheck, **changes) -> IdentityCheck:
    """A copy of chk with the given fields changed; the registry's check stays as it is."""
    changed = copy.copy(chk)
    for name, value in changes.items():
        setattr(changed, name, value)
    return changed


def test_registry_builds_uniquely():
    reg = build_registry()
    assert len(reg) > 50
    assert "q3/double-sum-recurrence" in reg
    assert "appendix-c/chu-vandermonde" in reg


def test_registry_all_pass():
    report = run_registry("*")
    assert report.ok, [c.name for c in report.failures]
    # every check exercised a healthy number of points
    for c in report.checks:
        assert c.params["tested"] >= 10, (c.name, c.params)


def test_registry_group_filters():
    for pattern in ("appendix-c/*", "appendix-d/*", "appendix-b/*",
                    "q1/*", "q3/*", "q4/*", "rhs/*", "double-gf/*", "gf/*"):
        report = run_registry(pattern)
        assert report.checks, pattern
        assert report.ok, pattern


def test_empty_filter_is_success():
    report = run_registry("no-such-check-*")
    assert report.checks == []
    assert report.ok


def test_chu_vandermonde_point():
    chk = registry()["appendix-c/chu-vandermonde"]
    assert (chk.lhs.index, chk.lhs.lower, chk.lhs.upper) == ("j", Const(Fraction(0)), a)
    total = eval_term(
        Sum("j", Const(Fraction(0)), Const(Fraction(3)), chk.lhs.body),
        {"a": 3, "b": 4, "c": 2},
    )
    assert total == 21
    assert eval_term(chk.lhs, {"a": 3, "b": 4, "c": 2}) == 21
    assert eval_term(chk.rhs, {"a": 3, "b": 4, "c": 2}) == 21


def test_convolution_vanishing_point():
    chk = registry()["appendix-c/convolution-vanishing"]
    env = {"s": 5, "t": 2, "j": 3}
    assert (chk.lhs.index, chk.lhs.lower, chk.lhs.upper) == ("jp", Const(Fraction(0)), j)
    total = sum(
        eval_term(chk.lhs.body, {**env, "jp": v}) for v in range(0, 4)
    )
    assert total == 0
    assert eval_term(chk.lhs, env) == 0
    assert eval_term(chk.rhs, env) == 0


def test_stirling_point():
    total = sum((-1) ** (iv + 3) * iv ** 3 * eval_term(C(s, i), {"s": 3, "i": iv})
                for iv in range(4))
    assert total == 6  # 3 - 24 + 27


def test_alternating_antidifference_point():
    # 1 - 4 + 6 = 3 = C(3,2)
    chk = registry()["appendix-d/alternating-binomial-antidifference"]
    env = {"s": 4, "u": 2}
    total = sum(eval_term(chk.summand, {**env, "jp": v}) for v in range(0, 3))
    assert total == 3
    assert eval_term(chk.inhom, env) == 3


def test_inner_sum_certificate_point():
    chk = registry()["q3/inner-sum-recurrence"]
    env = {"s": 4, "i": 6, "jp": 2, "t": 1}
    lhs = Fraction(0)
    for d, bd in enumerate(chk.coeffs):
        lhs += eval_term(bd, env) * eval_term(chk.summand, {**env, "jp": 2 + d})
    ((index, _, _, label, certificate, pole_free),) = chk.axes
    assert (index, label, pole_free) == ("t", "certificate", None)
    g = certificate * chk.summand
    rhs = eval_term(g, {**env, "t": 2}) - eval_term(g, env)
    assert lhs == rhs


def test_beta2h_step_point():
    chk = registry()["q4/beta2h-step"]
    env = {"s": 3, "i": 1, "j": 5}
    assert eval_term(chk.lhs, env) == eval_term(chk.rhs, env) == 120


def test_degenerate_grid_fails():
    chk = IdentityCheck(
        name="degenerate",
        kind="closed-form-sum",
        description="every point poles out",
        lhs=Sum("j", Const(Fraction(0)), Const(Fraction(1)), s / (s - s)),
        rhs=Const(Fraction(0)),
        grid=lambda: [{"s": 1}, {"s": 2}],
    )
    out = run_check(chk)
    assert not out.passed
    assert out.tested == 0 and out.skipped == 2


def test_non_integer_bound_skips_the_grid_point():
    # sum_{k=0}^{s/2} k = C(s/2 + 1, 2) via G = (k-1)/2 * k; odd s has no integer bound
    chk = IdentityCheck(
        name="half-range",
        kind="certificate-recurrence",
        description="the upper bound s/2 is an integer only for even s",
        summand=k,
        param="s",
        coeffs=(Const(Fraction(1)),),
        axes=(("k", Const(Fraction(0)), s / 2, "certificate", (k - 1) / 2, None),),
        inhom=C(s / 2 + 1, 2),
        grid=lambda: [{"s": sv} for sv in range(1, 5)],
    )
    out = run_check(chk)
    assert out.passed, out.failures
    # s = 2: points k = 0, 1 and the summed check; s = 4: k = 0, 1, 2 and the summed check
    assert (out.tested, out.skipped) == (7, 2)


def test_each_check_carries_the_data_of_its_kind():
    # the data picks the runner, so each kind must carry exactly the data its runner reads
    labels = {
        "certificate-recurrence": ("certificate",),
        "antidifference": ("antidifference",),
        "double-sum-recurrence": ("certificate", "certificate2"),
    }
    reg = registry()
    assert len(reg) == 63
    for name, chk in reg.items():
        if chk.kind in ("pointwise", "boundary-lemma", "closed-form-sum"):
            assert chk.lhs is not None and chk.rhs is not None and chk.axes == (), name
            assert (chk.summand, chk.param, chk.coeffs, chk.inhom) == (None,) * 4, name
            assert isinstance(chk.lhs, Sum) or chk.kind != "closed-form-sum", name
        else:
            assert [axis[3] for axis in chk.axes] == list(labels[chk.kind]), name
            assert all(len(axis) == 6 for axis in chk.axes), name
            assert chk.lhs is None and chk.rhs is None and chk.summand is not None, name
            assert (chk.coeffs is None) == (chk.kind == "antidifference"), name
            assert (chk.param is None) == (chk.coeffs is None), name


def test_registry_point_accounting():
    totals = {}
    for c in run_registry("*").checks:
        row = totals.setdefault(c.params["kind"], [0, 0, 0])
        row[0] += 1
        row[1] += c.params["tested"]
        row[2] += c.params["skipped"]
    assert totals == {
        "antidifference": [7, 2712, 112],
        "boundary-lemma": [3, 144, 0],
        "certificate-recurrence": [9, 1741, 401],
        "closed-form-sum": [23, 1851, 0],
        "double-sum-recurrence": [2, 853, 488],
        "pointwise": [19, 1422, 0],
    }
    labels = [label for chk in registry().values() for label, _ in _mutants(chk)]
    assert len(labels) == len(set(labels)) == 134


def _nodes(expr: Expr):
    yield expr
    for name in type(expr).__slots__:
        value = getattr(expr, name)
        for part in value if type(value) is tuple else (value,):
            if isinstance(part, Expr):
                yield from _nodes(part)


#: each telescoping check -> the checks that state a sum of its summand: a
#: closed form, a value or a step
STATED_SUMS = {
    "double-gf/inner-coefficient-recurrence": ["double-gf/inner-coefficient-closed-form"],
    "q3/second-term-recurrence": ["q3/second-term-sum-interior", "q3/second-term-sum-boundary"],
    "q3/inner-sum-recurrence": ["q3/inner-sum-closed-form", "q3/inner-sum-with-correction"],
    "q3/correction-recurrence": ["q3/correction-vanishes", "q3/inner-sum-with-correction",
                                 "q3/correction-summed-step"],
    "q3/breakpoint-recurrence": ["q3/breakpoint-value"],
    "q3/top-row-antidifference": ["q3/top-row-inner-value"],
    "q4/beta2h-recurrence": ["q4/beta2h-step"],
    "rhs/h3-first-sum-recurrence": ["rhs/h3-first-sum"],
    "rhs/h3-second-sum-recurrence": ["rhs/h3-second-sum"],
}


def test_each_telescoped_summand_is_the_body_of_the_sums_it_proves():
    # one object, not an equal copy, so a typo cannot split a proof chain
    reg = registry()
    for name, stating in STATED_SUMS.items():
        summand = reg[name].summand
        for other in stating:
            bodies = [node.body for root in (reg[other].lhs, reg[other].rhs)
                      for node in _nodes(root) if type(node) is Sum]
            assert any(body is summand for body in bodies), (name, other)
    # the top-row inner sum's second piece is what its antidifference telescopes
    assert reg["q3/top-row-inner-value"].rhs.terms[-1] \
        is reg["q3/top-row-second-piece-antidifference"].summand
    # the inner sum's closed form is the one the correction and the outer sum use
    closed = reg["q3/inner-sum-closed-form"].rhs
    for name in ("q3/inner-sum-with-correction", "q3/first-term-outer-sum"):
        chk = reg[name]
        assert any(node is closed for root in (chk.lhs, chk.rhs) for node in _nodes(root)), name


def test_wrong_closed_form_detected():
    chk = registry()["q1/second-term-value"]
    broken = replace(chk, rhs=Const(Fraction(2)))
    assert not run_check(broken).passed


def test_boundary_lemmas_tell_their_shapes_apart():
    # each region's double sum fails against another region's boundary sums
    reg = registry()
    shapes = ("rectangle", "triangle", "antitriangle")
    for shape, other in zip(shapes, shapes[1:] + shapes[:1]):
        chk = reg[f"appendix-b/{shape}-boundary"]
        broken = replace(chk, rhs=reg[f"appendix-b/{other}-boundary"].rhs)
        assert not run_check(broken).passed, (shape, other)


def test_gterm2_tracks_its_certificate():
    # the pole-free inner G must agree with certificate2 * summand wherever
    # the latter is defined, or a mutant run (which drops it) checks a
    # different identity from the registry run
    checks = [chk for chk in registry().values()
              if any(axis[5] is not None for axis in chk.axes)]
    assert [chk.name for chk in checks] == ["q4/beta3v-recurrence"]
    for chk in checks:
        outer, inner = chk.axes
        assert (outer[3], outer[5], inner[3]) == ("certificate", None, "certificate2")
        simplified = run_check(chk)
        plain = run_check(replace(chk, axes=(outer, inner[:5] + (None,))))
        assert simplified.passed and plain.passed, chk.name
        assert (simplified.tested, simplified.skipped) == (601, 0)
        assert (plain.tested, plain.skipped) == (377, 224)


def test_a_wrong_certificate_behind_a_pole_free_form_fails():
    # the registry run telescopes through the pole-free G, so only its
    # comparison with certificate2 * summand sees a wrong certificate2
    chk = registry()["q4/beta3v-recurrence"]
    outer, inner = chk.axes
    wrong_g = Const(Fraction(7)) * inner[4] + Const(Fraction(3))
    out = run_check(replace(chk, axes=(outer, inner[:4] + (wrong_g, inner[5]))))
    assert not out.passed
    assert (out.tested, out.skipped) == (601, 0)  # a mismatch fails, it is never skipped
    assert "certificate2 G=" in out.failures[0] and "pole-free=" in out.failures[0]


def test_summed_checks_fail_on_a_wrong_target_and_skip_its_poles():
    # the mutants bump only an axis's g, so the summed half of the runner
    # (the definite sums against the declared inhom) is tested here
    checks = [chk for chk in registry().values() if chk.axes and chk.inhom is not None]
    assert len(checks) == 10
    for chk in checks:
        out = run_check(chk)
        assert out.passed, (chk.name, out.failures[:1])
        wrong = run_check(replace(chk, inhom=chk.inhom + Const(Fraction(1))))
        assert not wrong.passed and "summed=" in wrong.failures[0], chk.name
        # a target that poles everywhere skips the summed test at every grid point
        poled = run_check(replace(chk, inhom=chk.inhom / Const(Fraction(0))))
        assert poled.passed, (chk.name, poled.failures[:1])
        assert poled.tested + poled.skipped == out.tested + out.skipped, chk.name
        assert poled.skipped - out.skipped == len(wrong.failures), chk.name


def test_mutation_detection_samples():
    reg = registry()
    for name in (
        "q3/second-term-recurrence",
        "appendix-d/alternating-binomial-antidifference",
        "q4/step-inner-antidifference",
    ):
        assert mutation_survivors(reg[name]) == [], name


def test_fail_fast_stops_at_the_first_failure():
    checks = [chk for name, chk in sorted(registry().items())
              if name == "q3/second-term-recurrence" or fnmatch.fnmatch(name, "double-gf/*")]
    seen = 0
    for chk in checks:
        for label, mutant in _mutants(chk):
            full = run_check(chk, mutant=mutant)
            fast = run_check(chk, fail_fast=True, mutant=mutant)
            assert not fast.passed, label
            assert len(fast.failures) == 1, (label, fast.failures)
            assert fast.failures[0] == full.failures[0], label
            assert fast.tested <= full.tested, label
            seen += 1
    assert seen == 22

    # the normal run keeps every failing point
    chk = registry()["q3/second-term-recurrence"]
    label, mutant = next(_mutants(chk))
    assert label == "q3/second-term-recurrence:certificate[0]"
    full = run_check(chk, mutant=mutant)
    fast = run_check(chk, fail_fast=True, mutant=mutant)
    assert (full.tested, full.skipped, len(full.failures)) == (310, 55, 75)
    assert len(set(full.failures)) == 75
    assert fast.tested == 6 and fast.failures == full.failures[:1]


def test_every_mutant_outcome_is_pinned():
    # (label, tested, skipped, failures) of all 134 fail-fast mutant runs, as
    # the tree-copying mutants gave them
    rows = []
    for _, chk in sorted(registry().items()):
        for label, mutant in _mutants(chk):
            out = run_check(chk, fail_fast=True, mutant=mutant)
            rows.append((label, out.tested, out.skipped, out.failures))
    assert len(rows) == 134
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "9d759985a21a32f15320cb36398fc60fa717e43309a306258bf2836b1d92e012")


def test_every_check_and_whole_mutant_run_is_pinned():
    # (name, tested, skipped, failures) of all 63 registry checks, and of all
    # 134 mutants run to the end of their grids, so every failure string counts
    rows = []
    for name, chk in sorted(registry().items()):
        out = run_check(chk)
        rows.append((name, out.tested, out.skipped, out.failures))
    assert len(rows) == 63
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "8dd40f8b2a5790d540194a47c59cae477de7f798a5a3addb07d6bef999eaf692")
    rows = []
    for _, chk in sorted(registry().items()):
        for label, mutant in _mutants(chk):
            out = run_check(chk, mutant=mutant)
            rows.append((label, out.tested, out.skipped, out.failures))
    assert len(rows) == 134
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "a127b9e8961cdc4a70c3678ec922813e4fe34ff05caf66990a53bdd45563134f")


def test_the_pole_free_g_is_read_once_per_point_and_step(monkeypatch):
    # the comparison with g*F reads the pole-free G at each summation point and
    # one step up, and the telescoping reuses those two values (it read them
    # again before, 2,180 calls in all)
    from polycount import identities

    chk = registry()["q4/beta3v-recurrence"]
    pole_free = chk.axes[1][5]
    calls = 0

    def spy(expr, real=identities.compile_term):
        term = real(expr)
        if expr is not pole_free:
            return term

        def counted(env):
            nonlocal calls
            calls += 1
            return term(env)
        return counted

    monkeypatch.setattr(identities, "compile_term", spy)
    out = run_check(chk)
    assert out.passed and (out.tested, out.skipped) == (601, 0)
    assert calls == 2 * 601


def test_certificate_mutants_reuse_the_compiled_code():
    # a mutant differs from its certificate in one constant, which the compiled
    # code takes as a parameter, so re-running a mutant never recompiles
    for name, chk in registry().items():
        for _, _, _, label, g, _ in chk.axes:
            code = compile_term(g).__code__
            for mutant in mutants(g):
                assert mutant.__code__ is code, (name, label)

    chk = registry()["q3/second-term-recurrence"]
    ((_, _, _, _, certificate, _),) = chk.axes
    points = [{**env, "jp": v} for env in chk.grid() for v in range(0, env["i"])]

    def values(term):
        out = []
        for env in points:
            try:
                out.append(term(env))
            except PoleError:
                out.append(None)
        return out

    original = values(compile_term(certificate))
    bumped = mutants(certificate)
    assert len(bumped) == 5
    for mutant in bumped:
        assert values(mutant) != original


#: summand calls of one registry run of each telescoping check: (before each
#: point kept a row of its F values, now).  A runner that evaluates F where
#: G has a pole, and the target does not need it, shows here as a rise.
SUMMAND_CALLS = {
    "appendix-d/alternating-binomial-antidifference": (432, 216),
    "appendix-d/rising-binomial-antidifference": (1540, 770),
    "double-gf/inner-coefficient-recurrence": (2088, 1044),
    "double-gf/outer-sum-recurrence": (612, 468),
    "gf/product-rule-antidifference": (210, 105),
    "q3/breakpoint-recurrence": (325, 260),
    "q3/correction-recurrence": (790, 615),
    "q3/double-sum-recurrence": (2315, 1811),
    "q3/inhom-antidifference": (644, 322),
    "q3/inner-sum-recurrence": (840, 420),
    "q3/second-term-recurrence": (1260, 950),
    "q3/top-row-antidifference": (210, 210),
    "q3/top-row-second-piece-antidifference": (336, 168),
    "q4/beta2h-recurrence": (734, 564),
    "q4/beta3v-recurrence": (3606, 2404),
    "q4/step-inner-antidifference": (880, 440),
    "rhs/h3-first-sum-recurrence": (980, 560),
    "rhs/h3-second-sum-recurrence": (980, 560),
}


def test_summand_call_budget(monkeypatch):
    from polycount import identities

    calls = {}
    for name, chk in sorted(registry().items()):
        if not chk.axes:
            continue

        def spy(expr, chk=chk, real=identities.compile_term):
            term = real(expr)
            if expr is not chk.summand:
                return term

            def counted(env):
                calls[chk.name] = calls.get(chk.name, 0) + 1
                return term(env)
            return counted

        with monkeypatch.context() as patch:
            patch.setattr(identities, "compile_term", spy)
            assert run_check(chk).passed, name
    assert calls == {name: now for name, (_, now) in SUMMAND_CALLS.items()}
    assert all(now <= before for before, now in SUMMAND_CALLS.values())
    assert sum(before for before, _ in SUMMAND_CALLS.values()) == 18782
    assert sum(calls.values()) <= 12600
