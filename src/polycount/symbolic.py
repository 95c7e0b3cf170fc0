"""Exact evaluation of closed hypergeometric-style expressions.

Expression trees over named integer (or rational) variables, with binomials,
factorials, sign factors, integer powers and finite sums.  Everything
evaluates to an exact Fraction; division by zero or other undefined points
raise PoleError so callers can skip or report them.  Integer constants in a
tree are enumerable and individually perturbable, which the identity harness
uses to prove it would detect a wrong certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Union

from .exact import fbinom

Number = Union[int, Fraction]


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


def _as_int(x: Fraction, where: str) -> int:
    if x.denominator != 1:
        raise PoleError(f"{where} needs an integer, got {x}")
    return x.numerator


def eval_term(expr: Expr, env: Mapping[str, Number]) -> Fraction:
    """Evaluate exactly under the assignment; raise PoleError when undefined.

    Binomials follow the falling-factorial convention: C(a, b) = 0 for b < 0
    and the product a(a-1)...(a-b+1)/b! otherwise, so negative upper indices
    are fine and 0 <= a < b gives 0.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return Fraction(env[expr.name])
        except KeyError:
            raise PoleError(f"unbound variable {expr.name}") from None
    if isinstance(expr, Add):
        return sum((eval_term(t, env) for t in expr.terms), Fraction(0))
    if isinstance(expr, Mul):
        out = Fraction(1)
        for f in expr.factors:
            out *= eval_term(f, env)
        return out
    if isinstance(expr, Div):
        den = eval_term(expr.den, env)
        if den == 0:
            raise PoleError("division by zero")
        return eval_term(expr.num, env) / den
    if isinstance(expr, Pow):
        e = _as_int(eval_term(expr.exp, env), "exponent")
        base = eval_term(expr.base, env)
        if base == 0 and e < 0:
            raise PoleError("zero base with negative exponent")
        return base**e
    if isinstance(expr, Binom):
        a = _as_int(eval_term(expr.upper, env), "binomial upper index")
        b = _as_int(eval_term(expr.lower, env), "binomial lower index")
        return fbinom(a, b)
    if isinstance(expr, Fact):
        a = _as_int(eval_term(expr.arg, env), "factorial argument")
        if a < 0:
            raise PoleError(f"factorial of negative {a}")
        return Fraction(math.factorial(a))
    if isinstance(expr, Sign):
        e = _as_int(eval_term(expr.exp, env), "sign exponent")
        return Fraction(-1 if e % 2 else 1)
    if isinstance(expr, Sum):
        lo = _as_int(eval_term(expr.lower, env), "sum lower bound")
        hi = _as_int(eval_term(expr.upper, env), "sum upper bound")
        total = Fraction(0)
        inner = dict(env)
        for v in range(lo, hi + 1):
            inner[expr.index] = v
            total += eval_term(expr.body, inner)
        return total
    raise TypeError(f"unknown expression node {expr!r}")


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
