"""Evaluator factories of shapes that the appendix-c/* pointwise checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make6(general, k0):
    def term(env):
        try:
            n1 = env['n']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['a']
                if type(n5) is not int: return general(env)
                t6 = n5 + i4
                n7 = env['c']
                if type(n7) is not int: return general(env)
                n2 += (-1 if i4 % 2 else 1) * (_comb(n1, i4) if n1 >= 0 <= i4 else _binom(n1, i4)) * (_comb(t6, n7) if t6 >= 0 <= n7 else _binom(t6, n7))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make7(general, k0):
    def term(env):
        try:
            n1 = env['n']
            if type(n1) is not int: return general(env)
            n2 = env['a']
            if type(n2) is not int: return general(env)
            n3 = env['c']
            if type(n3) is not int: return general(env)
            t4 = n3 + k0 * n1
            return (-1 if n1 % 2 else 1) * (_comb(n2, t4) if n2 >= 0 <= t4 else _binom(n2, t4))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make8(general, k0, k1):
    def term(env):
        try:
            n1 = env['a']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['b']
                if type(n5) is not int: return general(env)
                n6 = env['c']
                if type(n6) is not int: return general(env)
                t7 = n6 + k1 * i4
                n2 += (_comb(n1, i4) if n1 >= 0 <= i4 else _binom(n1, i4)) * (_comb(n5, t7) if n5 >= 0 <= t7 else _binom(n5, t7))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make9(general):
    def term(env):
        try:
            n1 = env['a']
            if type(n1) is not int: return general(env)
            n2 = env['b']
            if type(n2) is not int: return general(env)
            t3 = n1 + n2
            n4 = env['c']
            if type(n4) is not int: return general(env)
            return (_comb(t3, n4) if t3 >= 0 <= n4 else _binom(t3, n4))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make10(general, k0, k1, k2):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['s']
                if type(n5) is not int: return general(env)
                n6 = env['t']
                if type(n6) is not int: return general(env)
                t7 = n5 + k1 * n6 + i4
                t8 = n1 + k2 * i4
                n2 += (-1 if i4 % 2 else 1) * (_comb(t7, i4) if t7 >= 0 <= i4 else _binom(t7, i4)) * (_comb(n5, t8) if n5 >= 0 <= t8 else _binom(n5, t8))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make11(general, k0):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            t3 = n1 + k0 * n2
            return (-1 if n1 % 2 else 1) * (_comb(t3, n1) if t3 >= 0 <= n1 else _binom(t3, n1))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make6,
    _make7,
    _make8,
    _make9,
    _make10,
    _make11,
)
