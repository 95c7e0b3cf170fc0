from __future__ import annotations

import fnmatch
from dataclasses import replace
from fractions import Fraction

from polycount.identities import (
    Const,
    IdentityCheck,
    _mutants,
    _mutation_fields,
    build_registry,
    mutation_survivors,
    registry,
    run_check,
    run_registry,
)
from polycount.symbolic import (
    PoleError,
    Sum,
    binom_expr as C,
    compile_term,
    count_constants,
    eval_term,
    perturbations,
    syms,
)

s, i, j, jp, t, k = syms("s i j jp t k")


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
    total = eval_term(
        Sum("j", Const(Fraction(0)), Const(Fraction(3)), chk.summand),
        {"a": 3, "b": 4, "c": 2},
    )
    assert total == 21
    assert eval_term(chk.rhs, {"a": 3, "b": 4, "c": 2}) == 21


def test_convolution_vanishing_point():
    chk = registry()["appendix-c/convolution-vanishing"]
    env = {"s": 5, "t": 2, "j": 3}
    total = sum(
        eval_term(chk.summand, {**env, "jp": v}) for v in range(0, 4)
    )
    assert total == 0
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
    g = chk.certificate * chk.summand
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
        summand=s / (s - s),
        index="j",
        lower=Const(Fraction(0)),
        upper=Const(Fraction(1)),
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
        param="s", index="k",
        lower=Const(Fraction(0)), upper=s / 2,
        coeffs=(Const(Fraction(1)),),
        certificate=(k - 1) / 2,
        inhom=C(s / 2 + 1, 2),
        grid=lambda: [{"s": sv} for sv in range(1, 5)],
    )
    out = run_check(chk)
    assert out.passed, out.failures
    # s = 2: points k = 0, 1 and the summed check; s = 4: k = 0, 1, 2 and the summed check
    assert (out.tested, out.skipped) == (7, 2)


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
    mutants = sum(count_constants(getattr(chk, f))
                  for chk in registry().values() for f in _mutation_fields(chk))
    assert mutants == 134


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
    # the latter is defined, or a mutant run (which drops gterm2) checks a
    # different identity from the registry run
    checks = [chk for chk in registry().values() if chk.gterm2 is not None]
    assert [chk.name for chk in checks] == ["q4/beta3v-recurrence"]
    for chk in checks:
        simplified = run_check(chk)
        plain = run_check(replace(chk, gterm2=None))
        assert simplified.passed and plain.passed, chk.name
        assert (simplified.tested, simplified.skipped) == (601, 0)
        assert (plain.tested, plain.skipped) == (377, 224)


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
        for label, trial in _mutants(chk):
            full = run_check(trial)
            fast = run_check(trial, fail_fast=True)
            assert not fast.passed, label
            assert len(fast.failures) == 1, (label, fast.failures)
            assert fast.failures[0] == full.failures[0], label
            assert fast.tested <= full.tested, label
            seen += 1
    assert seen == 22

    # the normal run keeps every failing point
    chk = registry()["q3/second-term-recurrence"]
    label, trial = next(_mutants(chk))
    assert label == "q3/second-term-recurrence:certificate[0]"
    full = run_check(trial)
    fast = run_check(trial, fail_fast=True)
    assert (full.tested, full.skipped, len(full.failures)) == (310, 55, 75)
    assert len(set(full.failures)) == 75
    assert fast.tested == 6 and fast.failures == full.failures[:1]


def test_certificate_mutants_reuse_the_compiled_code():
    # a mutant differs from its certificate in one constant, which the compiled
    # code takes as a parameter, so re-running a mutant never recompiles
    for name, chk in registry().items():
        for f in _mutation_fields(chk):
            code = compile_term(getattr(chk, f)).__code__
            for mutant in perturbations(getattr(chk, f)):
                assert compile_term(mutant).__code__ is code, (name, f)

    chk = registry()["q3/second-term-recurrence"]
    points = [{**env, "jp": v} for env in chk.grid() for v in range(0, env["i"])]

    def values(term):
        out = []
        for env in points:
            try:
                out.append(term(env))
            except PoleError:
                out.append(None)
        return out

    original = values(compile_term(chk.certificate))
    mutants = list(perturbations(chk.certificate))
    assert len(mutants) == count_constants(chk.certificate) >= 5
    for mutant in mutants:
        assert values(compile_term(mutant)) != original
