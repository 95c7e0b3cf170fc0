from __future__ import annotations

import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from polycount.symbolic import (
    Add,
    Binom,
    Const,
    Div,
    Expr,
    Fact,
    Mul,
    PoleError,
    Pow,
    Sign,
    Sum,
    Var,
    binom_expr as C,
    compile_term,
    eval_term,
    fact_expr,
    mutants,
    sign_expr as SG,
    syms,
)

s, j, i = syms("s j i")
SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    # constants in DFS order: -1 (i - j), 2, -1 (2s - j), 1 (j + 1), 1/2
    expr = (i - j) * (2 * s - j) / (j + 1) + Const(Fraction(1, 2))
    env = {"i": 5, "j": 2, "s": 4}
    base = compile_term(expr)
    assert base(env) == Fraction(13, 2)
    bumped = [
        (i + 0 * j) * (2 * s - j) / (j + 1) + Const(Fraction(1, 2)),
        (i - j) * (3 * s - j) / (j + 1) + Const(Fraction(1, 2)),
        (i - j) * (2 * s + 0 * j) / (j + 1) + Const(Fraction(1, 2)),
        (i - j) * (2 * s - j) / (j + 2) + Const(Fraction(1, 2)),
        (i - j) * (2 * s - j) / (j + 1) + Const(Fraction(3, 2)),
    ]
    got = mutants(expr)
    assert [m(env) for m in got] == [compile_term(e)(env) for e in bumped] == [
        Fraction(21, 2), Fraction(21, 2), Fraction(17, 2), 5, Fraction(15, 2)]
    assert type(got[3](env)) is int
    for m in got:
        assert m.__code__ is base.__code__
        assert m(env) != base(env)
        # a non-int binding runs the mutant's own rational variant
        assert m({**env, "s": Fraction(4)}) == m(env)
    assert mutants(i * j) == []


def test_compiled_evaluation_is_exact():
    def value(expr, env):
        out = compile_term(expr)(env)
        # an int exactly when the value is integral, else a reduced Fraction
        assert type(out) is (int if Fraction(out).denominator == 1 else Fraction), (expr, env)
        return out

    one_third = value(s / j, {"s": 1, "j": 3})
    assert one_third == Fraction(1, 3) and type(one_third) is Fraction
    quarter = value(Const(Fraction(2)) ** (0 - s), {"s": 2})
    assert quarter == Fraction(1, 4) and type(quarter) is Fraction
    assert value(i ** (0 - s), {"i": -2, "s": 3}) == Fraction(-1, 8)
    half = value(Const(Fraction(1, 2)), {})
    assert half == Fraction(1, 2) and type(half) is Fraction
    # an int whenever the value is integral, whatever the route to it
    assert type(value(SG(j) * C(s, j) * (s - j) + fact_expr(s), {"s": 6, "j": 2})) is int
    assert type(value((2 * s) / s, {"s": 7})) is int
    assert value(s * Const(Fraction(1, 2)) * 2, {"s": 3}) == 3
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


# -- an independent oracle ----------------------------------------------------

def _whole(q: Fraction) -> int:
    if q.denominator != 1:
        raise PoleError(f"not an integer: {q}")
    return q.numerator


def _oracle(expr, env) -> Fraction:
    """A plain recursive walk over Fractions, sharing no code with compile_term."""
    if isinstance(expr, Const):
        return Fraction(expr.value)
    if isinstance(expr, Var):
        if expr.name not in env:
            raise PoleError(f"unbound {expr.name}")
        return Fraction(env[expr.name])
    if isinstance(expr, Add):
        return sum((_oracle(e, env) for e in expr.terms), Fraction(0))
    if isinstance(expr, Mul):
        return math.prod((_oracle(e, env) for e in expr.factors), start=Fraction(1))
    if isinstance(expr, Div):
        num, den = _oracle(expr.num, env), _oracle(expr.den, env)
        if den == 0:
            raise PoleError("zero denominator")
        return num / den
    if isinstance(expr, Pow):
        base, exp = _oracle(expr.base, env), _whole(_oracle(expr.exp, env))
        if base == 0 and exp < 0:
            raise PoleError("zero to a negative power")
        return base**exp
    if isinstance(expr, Binom):
        a, b = _whole(_oracle(expr.upper, env)), _whole(_oracle(expr.lower, env))
        return Fraction(math.prod(a - t for t in range(b)), math.factorial(b)) if b >= 0 else 0
    if isinstance(expr, Fact):
        a = _whole(_oracle(expr.arg, env))
        if a < 0:
            raise PoleError("factorial of a negative")
        return Fraction(math.factorial(a))
    if isinstance(expr, Sign):
        return Fraction(-1) ** _whole(_oracle(expr.exp, env))
    if isinstance(expr, Sum):
        lo, hi = _whole(_oracle(expr.lower, env)), _whole(_oracle(expr.upper, env))
        return sum((_oracle(expr.body, {**env, expr.index: v}) for v in range(lo, hi + 1)),
                   Fraction(0))
    raise TypeError(expr)


_NAMES = ("a", "b", "c")
_VALUES = (-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 3), 0.5, -1.25, 2.0,
           True)


def _random_const(rng):
    if rng.random() < 0.75:
        return Const(Fraction(rng.randint(-2, 3)))
    return Const(Fraction(rng.choice((-3, -1, 1, 5)), rng.choice((2, 3))))


def _random_small(rng, names):
    """A shallow expression for sum bounds, exponents and factorials: stays small."""
    pick = rng.random()
    if pick < 0.3:
        return Const(Fraction(rng.randint(-1, 4)))
    var = Var(rng.choice(names))
    if pick < 0.6:
        return var
    if pick < 0.85:
        return Add((var, Const(Fraction(rng.randint(-2, 2)))))
    return Div(var, Const(Fraction(2)))  # a half-integer now and then: a pole


def _random_expr(rng, depth, names):
    if depth == 0 or rng.random() < 0.2:
        return _random_const(rng) if rng.random() < 0.4 else Var(rng.choice(names))
    kind = rng.choice(("add", "mul", "div", "pow", "binom", "fact", "sign", "sum", "sum"))
    sub = lambda: _random_expr(rng, depth - 1, names)  # noqa: E731
    if kind == "add":
        return Add(tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == "mul":
        return Mul(tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == "div":
        return Div(sub(), sub())
    if kind == "pow":
        return Pow(sub(), _random_small(rng, names))
    if kind == "binom":
        return Binom(sub(), _random_small(rng, names))
    if kind == "fact":
        return Fact(_random_small(rng, names))
    if kind == "sign":
        return Sign(sub())
    index = rng.choice(("j", "k", "a"))  # "a" shadows a binding; j, k rebind when nested
    inner = names if index in names else names + (index,)
    return Sum(index, _random_small(rng, names), _random_small(rng, names),
               _random_expr(rng, depth - 1, inner))


def _kinds(expr) -> set[str]:
    out = {type(expr).__name__}
    for name in type(expr).__slots__:
        value = getattr(expr, name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Expr):
                out |= _kinds(child)
    return out


def test_compiled_term_agrees_with_an_independent_oracle():
    rng = random.Random(20241018)
    seen = {"int": 0, "fraction": 0, "pole": 0}
    kinds = set()
    for _ in range(500):
        expr = _random_expr(rng, 4, _NAMES)
        kinds |= _kinds(expr)
        term = compile_term(expr)
        for _ in range(5):
            env = {name: rng.choice(_VALUES) for name in _NAMES if rng.random() < 0.85}
            try:
                want = _oracle(expr, env)
            except PoleError:
                with pytest.raises(PoleError):
                    term(env)
                seen["pole"] += 1
                continue
            got = term(env)
            assert got == want, (expr, env)
            assert type(got) is (int if want.denominator == 1 else Fraction), (expr, env)
            seen["int" if want.denominator == 1 else "fraction"] += 1
    assert kinds == {"Const", "Var", "Add", "Mul", "Div", "Pow", "Binom", "Fact", "Sign", "Sum"}
    assert min(seen.values()) >= 200, seen


def test_nested_sums_rebinding_one_index():
    inner = Sum("j", Const(Fraction(0)), j, j * i)  # the inner j runs 0..(outer j)
    outer = Sum("j", Const(Fraction(1)), s, inner + j)
    for env in ({"s": 3, "i": 2, "j": 99}, {"s": 4, "i": Fraction(1, 3)}, {"s": 2, "i": 0.5}):
        assert compile_term(outer)(env) == _oracle(outer, env)
    assert compile_term(outer)({"s": 3, "i": 2}) == 2 * (0 + 1 + 3 + 6) + 6


def test_variables_are_read_only_when_needed():
    empty = Sum("j", Const(Fraction(1)), Const(Fraction(0)), Var("unbound") * j)
    assert compile_term(empty)({}) == 0 and type(compile_term(empty)({})) is int
    with pytest.raises(PoleError):
        compile_term(empty + Var("unbound"))({})
    # what a sum body reads or checks is not reused after the sum, which may be empty
    for lower in (0, 1):
        after = Sum("j", Const(Fraction(lower)), Const(Fraction(0)), C(s, j) + i) + C(s, 2) * i
        assert compile_term(s + after)({"s": 3, "i": 2}) == 3 + (1 - lower) * 3 + 6


def test_names_are_looked_up_never_executed():
    hostile = "a'); import os #"
    assert compile_term(Var(hostile) * 2)({hostile: 7}) == 14
    with pytest.raises(PoleError):
        compile_term(Var(hostile))({})
    index = "j\n    raise SystemExit('executed')"
    total = Sum(index, Const(Fraction(1)), s, Var(index) + Var(hostile))
    assert compile_term(total)({"s": 3, hostile: 1}) == 9


def test_compiled_code_is_shared_by_shape_alone():
    expr = (i - j) * (2 * s - j) / (j + 1) + C(s, 2) * Const(Fraction(1, 2))
    base = compile_term(expr)
    other = (i - j) * (5 * s - j) / (j + 7) + C(s, -3) * Const(Fraction(-7, 3))
    assert compile_term(other).__code__ is base.__code__
    assert all(mutant.__code__ is base.__code__ for mutant in mutants(expr))
    # same nodes and leaves, grouped differently: a different shape
    env = {"s": 1, "i": 2, "j": 3}
    assert compile_term(Mul((Add((s, i)), j)))(env) == 9
    assert compile_term(Mul((Add((s, i, j)),)))(env) == 6
    assert compile_term(Const(Fraction(1, 2)) * s)(env) == Fraction(1, 2)
    assert compile_term(Const(Fraction(2)) * s)(env) == 2


def test_one_tree_has_one_value_under_every_binding_type():
    expr = Sum("j", Const(Fraction(0)), s, SG(j) * C(s, j) * i ** j) / (s + 1) + fact_expr(s) * i
    for ints, others in (({"s": 3, "i": 2}, ({"s": Fraction(3), "i": Fraction(2)},
                                             {"s": 3.0, "i": 2.0}, {"s": 3, "i": 2.0})),
                         ({"s": 1, "i": 1}, ({"s": True, "i": True}, {"s": 1, "i": True}))):
        want = compile_term(expr)(ints)
        assert want == _oracle(expr, ints)
        for env in others:
            got = compile_term(expr)(env)
            assert got == want and type(got) is type(want), env
    # the same pole, at the same point, whatever the binding's type
    for env in ({"s": 3, "i": 2}, {"s": Fraction(3), "i": 2}, {"s": 3.0, "i": True}):
        with pytest.raises(PoleError):
            compile_term(expr + fact_expr(s - 4))(env)
    assert compile_term(i / 2)({"i": True}) == Fraction(1, 2)


def test_a_deep_alternating_chain_compiles():
    expr, want = Var("x"), 2
    for level in range(160):
        if level % 2:
            expr, want = Mul((expr, Var("y"))), -want
        else:
            expr, want = Add((expr, Const(Fraction(level % 3 - 1)))), want + level % 3 - 1
    assert compile_term(expr)({"x": 2, "y": -1}) == want
    assert compile_term(expr)({"x": Fraction(2), "y": -1.0}) == want


def test_rational_variants_compile_once_where_a_binding_needs_one(monkeypatch):
    # with no shipped factories every shape compiles from its tree, as any
    # shape outside polycount.evaluators does
    from polycount import evaluators, identities, symbolic

    sources = []

    def spy_compile(source, *rest):
        sources.append(source)
        return compile(source, *rest)

    monkeypatch.setattr(symbolic, "_FACTORIES", {})
    monkeypatch.setattr(evaluators, "SHAPES", {})
    monkeypatch.setattr(symbolic, "compile", spy_compile, raising=False)
    non_int = set()  # shapes called with some non-int value in the binding
    real_compile_term = identities.compile_term

    def spy_compile_term(expr):
        key = []
        symbolic._shape(expr, key, [], [])
        term = real_compile_term(expr)

        def traced(env):
            if any(type(v) is not int for v in env.values()):
                non_int.add("".join(key))
            return term(env)

        return traced

    monkeypatch.setattr(identities, "compile_term", spy_compile_term)
    assert identities.run_registry().ok
    keys = set(symbolic._FACTORIES)
    assert len(sources) == len(keys)  # each factory compiled once
    rational = {key.removesuffix(symbolic._RATIONAL) for key in keys
                if key.endswith(symbolic._RATIONAL)}
    assert rational and rational <= non_int
    assert sorted(name for name, chk in identities.registry().items()
                  if any(type(v) is not int for env in chk.grid() for v in env.values())) == [
        "double-gf/inner-coefficient-closed-form", "double-gf/inner-coefficient-recurrence",
        "double-gf/outer-assembly", "double-gf/outer-sum-recurrence",
        "gf/product-rule-antidifference"]

    # the registry run compiles every axis's g, even certificate2 of the one
    # check that telescopes through its pole-free G, since it compares the two
    key = []
    _, inner = identities.registry()["q4/beta3v-recurrence"].axes
    assert inner[3] == "certificate2" and inner[5] is not None
    symbolic._shape(inner[4], key, [], [])
    assert "".join(key) in keys
    # mutants bump constants, so they reuse every factory and need no rational variant
    compiled = len(sources)
    assert identities.certificate_mutation_report("*").ok
    assert set(symbolic._FACTORIES) == keys and len(sources) == compiled
    # and the shipped table holds exactly the factories the two runs build
    monkeypatch.undo()
    assert set(evaluators.SHAPES) == keys


def test_shape_keys_tell_every_tree_apart():
    # a key is a string, and trees whose emitted source differs never share one
    from polycount import symbolic

    def key(expr):
        parts = []
        symbolic._shape(expr, parts, [], [])
        return "".join(parts)

    trees = [
        Add((s, Add((j, i)))), Add((Add((s, j)), i)), Add((s, j, i)),
        Mul((Const(Fraction(1)), s)), Mul((Const(Fraction(1, 2)), s)),
        Var("a'b"), Var('a"b'), Var("a:1"), Add((Var("a"), Const(Fraction(1)))),
        Sum("j", Const(Fraction(0)), s, j), Sum("i", Const(Fraction(0)), s, j),
    ]
    keys = [key(tree) for tree in trees]
    assert all(type(k) is str for k in keys)
    assert len(set(keys)) == len(keys)
    assert key(Mul((Const(Fraction(5)), s))) == key(Mul((Const(Fraction(-3)), s)))
    with pytest.raises(TypeError, match="must be a str"):
        compile_term(Var(3))
    with pytest.raises(TypeError, match="must be a str"):
        compile_term(Sum(3, Const(Fraction(0)), s, s))


def test_what_is_not_an_expression_is_refused():
    from polycount import symbolic

    class Stray(Expr):
        __slots__ = ()

    with pytest.raises(TypeError, match="cannot use"):
        s + "x"
    with pytest.raises(TypeError, match="unknown expression node"):
        compile_term(s * Stray())  # _shape meets it first
    with pytest.raises(TypeError, match="unknown expression node"):
        symbolic._Emitter(True).source(s * Stray())


def _run_fresh(script: str) -> str:
    """Run a script in a fresh, isolated interpreter that imports polycount from src/."""
    proc = subprocess.run([sys.executable, "-I", "-c", script, SRC], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_registry_run_compiles_nothing_in_a_fresh_interpreter():
    # every shape that a registry run and a mutation report build ships in
    # polycount.evaluators, which only the first evaluation imports
    out = _run_fresh(
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import polycount, polycount.cli\n"
        "from polycount import identities, symbolic\n"
        "identities.registry()\n"
        "print(sorted(m for m in sys.modules if m.startswith('polycount.evaluators')))\n"
        "sources = []\n"
        "def spy(source, *rest):\n"
        "    sources.append(source)\n"
        "    return compile(source, *rest)\n"
        "symbolic.compile = spy\n"
        "assert identities.run_registry().ok\n"
        "assert identities.certificate_mutation_report('*').ok\n"
        "print(len(sources), len(symbolic._FACTORIES))\n")
    loaded, counts = out.splitlines()
    assert loaded == "[]"
    assert counts == "0 158"


def test_a_tree_outside_the_table_still_compiles(monkeypatch):
    from polycount import evaluators, symbolic

    sources = []

    def spy_compile(source, *rest):
        sources.append(source)
        return compile(source, *rest)

    monkeypatch.setattr(symbolic, "compile", spy_compile, raising=False)
    tree = Sum("q", Const(Fraction(0)), s, C(s, Var("q")) * Var("q") ** 3) / (s + 7)
    parts = []
    symbolic._shape(tree, parts, [], [])
    assert "".join(parts) not in evaluators.SHAPES
    env = {"s": 5}
    want = _oracle(tree, env)
    assert compile_term(tree)(env) == want and compile_term(tree)({"s": 5.0}) == want
    assert len(sources) == 2  # the shape, and its rational variant for the float
    assert "def _make(" in sources[0]


def test_shipped_evaluators_match_the_emitter():
    # polycount.evaluators is what codegen writes from the live registry and
    # emitter, byte for byte; after a registry or emitter change, regenerate it
    from polycount import codegen

    want = {name: text.encode() for name, text in codegen.render().items()}
    have = {path.name: path.read_bytes() for path in codegen.PACKAGE.glob("*.py")}
    stale = sorted(name for name in want.keys() | have.keys() if want.get(name) != have.get(name))
    assert stale == [], f"stale {stale}: run `python -m polycount.codegen` and commit the result"


def test_compiling_a_shipped_module_costs_no_more_than_the_registry():
    # without cached bytecode Python compiles a module from source; no generated
    # one may take more memory for that than identities.py does.  tracemalloc
    # sees the compiler's own allocations, where a child's ru_maxrss would
    # start from this process's
    from polycount import codegen

    def peak(path):
        text = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            compile(text, str(path), "exec")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bound = peak(codegen.PACKAGE.parent / "identities.py")
    peaks = {path.name: peak(path) for path in sorted(codegen.PACKAGE.glob("*.py"))}
    assert len(peaks) > 2 and max(peaks.values()) < bound, (peaks, bound)
