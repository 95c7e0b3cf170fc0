"""Exact integer/rational helpers shared across modules."""

from __future__ import annotations

import math
from fractions import Fraction


def binom(a: int, b: int) -> int:
    """Generalized binomial coefficient over the integers.

    C(a, b) = 0 for b < 0, else the falling-factorial product
    a(a-1)...(a-b+1)/b!.  Negative upper indices are allowed, so
    C(-1, b) = (-1)**b.
    """
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b)
    num = 1
    for t in range(b):
        num *= a - t
    return num // math.factorial(b)


def as_integer(x: Fraction, what: str = "value") -> int:
    """Collapse an exact rational that must be integral; raise otherwise."""
    if x.denominator != 1:
        from .errors import IntegralityError

        raise IntegralityError(f"{what} is not an integer: {x}")
    return x.numerator
