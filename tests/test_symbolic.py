from __future__ import annotations

from fractions import Fraction

import pytest

from polycount.symbolic import (
    Add,
    Const,
    Mul,
    PoleError,
    Sum,
    binom_expr as C,
    compile_term,
    count_constants,
    eval_term,
    fact_expr,
    perturb_constant,
    perturbations,
    sign_expr as SG,
    syms,
)

s, j, i = syms("s j i")


def test_eval_examples():
    assert eval_term(C(7, 2), {}) == 21
    assert eval_term(SG(j) * C(s, j), {"s": 4, "j": 3}) == -4
    assert eval_term(C(s + j - 1, j) * (s - j) / s, {"s": 5, "j": 2}) == 9


def test_binomial_conventions():
    assert eval_term(C(5, -1), {}) == 0
    assert eval_term(C(3, 5), {}) == 0
    assert eval_term(C(-1, 3), {}) == -1
    assert eval_term(C(-2, 2), {}) == 3
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert eval_term(C(n, k), {}) == eval_term(C(n, n - k), {})


def test_sign_and_pow():
    assert eval_term(SG(-3), {}) == -1
    assert eval_term(SG(0), {}) == 1
    assert eval_term((s + 1) ** 2, {"s": 3}) == 16
    assert eval_term(Const(Fraction(2)) ** (0 - s), {"s": 2}) == Fraction(1, 4)
    assert eval_term(i ** s, {"i": 0, "s": 0}) == 1  # 0**0 in the power-sum lemma


def test_factorial_and_sum():
    assert eval_term(fact_expr(s), {"s": 5}) == 120
    total = Sum("j", Const(Fraction(0)), s, C(s, j))
    assert eval_term(total, {"s": 6}) == 64
    empty = Sum("j", Const(Fraction(3)), Const(Fraction(1)), C(s, j))
    assert eval_term(empty, {"s": 6}) == 0


def test_poles():
    with pytest.raises(PoleError):
        eval_term(s / (s - 3), {"s": 3})
    with pytest.raises(PoleError):
        eval_term(fact_expr(s), {"s": -1})
    with pytest.raises(PoleError):
        eval_term(Const(Fraction(0)) ** (0 - s), {"s": 1})
    with pytest.raises(PoleError):
        eval_term(s, {})  # unbound variable


def test_perturbations():
    expr = (i - j) * (2 * s - j) / (j + 1)
    total = count_constants(expr)
    assert total >= 2
    originals = eval_term(expr, {"i": 5, "j": 2, "s": 4})
    mutated_values = set()
    for idx in range(total):
        mutated = perturb_constant(expr, idx)
        mutated_values.add(eval_term(mutated, {"i": 5, "j": 2, "s": 4}))
    assert originals == Fraction(18, 3)
    assert all(v != originals for v in mutated_values)
    assert len(list(perturbations(expr))) == total
    with pytest.raises(IndexError):
        perturb_constant(expr, total)


def test_compiled_evaluation_is_exact():
    def value(expr, env):
        out = compile_term(expr)(env)
        assert type(out) in (int, Fraction), (expr, env, out)
        return out

    one_third = value(s / j, {"s": 1, "j": 3})
    assert one_third == Fraction(1, 3) and type(one_third) is Fraction
    quarter = value(Const(Fraction(2)) ** (0 - s), {"s": 2})
    assert quarter == Fraction(1, 4) and type(quarter) is Fraction
    assert value(i ** (0 - s), {"i": -2, "s": 3}) == Fraction(-1, 8)
    half = value(Const(Fraction(1, 2)), {})
    assert half == Fraction(1, 2) and type(half) is Fraction
    # ints until a division needs a Fraction, and back to an int when it divides
    assert type(value(SG(j) * C(s, j) * (s - j) + fact_expr(s), {"s": 6, "j": 2})) is int
    assert type(value((2 * s) / s, {"s": 7})) is int
    assert type(value(s * Const(Fraction(1, 2)) * 2, {"s": 3})) is Fraction
    assert value(Add((s, j, s)), {"s": 2, "j": 5}) == 9  # any number of terms
    assert value(Mul((s, j, s)), {"s": 2, "j": 5}) == 20
    assert value(s, {"s": 0.5}) == Fraction(1, 2)  # a float binding is read exactly
    assert type(value(s, {"s": 0.5})) is Fraction

    for expr, env in ((C(7, 2), {}), (s / j, {"s": 1, "j": 3}), (SG(s), {"s": 3})):
        assert type(eval_term(expr, env)) is Fraction

    with pytest.raises(PoleError):
        compile_term(s + j)({"s": 1})  # unbound variable
    half_range = Sum("j", Const(Fraction(0)), s / 2, j)
    with pytest.raises(PoleError):
        compile_term(half_range)({"s": 3})  # non-integer upper bound
    with pytest.raises(PoleError):
        eval_term(half_range, {"s": 3})
    assert eval_term(half_range, {"s": 4}) == 3


def test_compiled_term_matches_eval_term_at_every_point():
    expr = Sum("j", Const(Fraction(0)), s, SG(j) * C(s + j - 1, j) * (s - j) / s) + i ** (j - s)
    compiled = compile_term(expr)
    envs = [{"s": sv, "i": iv, "j": jv} for sv in range(1, 5) for iv in (-2, 3, Fraction(1, 3))
            for jv in range(0, 3)]
    for env in envs:
        assert compiled(env) == eval_term(expr, env), env
    # s = 2: the sum is 1 - 1 + 0, and 2 ** (0 - 2) = 1/4
    assert compiled({"s": 2, "i": 2, "j": 0}) == Fraction(1, 4)
