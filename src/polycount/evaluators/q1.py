"""Evaluator factories of shapes that the q1/* pointwise checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make51(general, k0, k1, k2, k3):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = 0
            for i5 in range(k0, n2 + 1):
                n6 = env['s']
                if type(n6) is not int: return general(env)
                t7 = n1 + k1 * i5
                n3 += (_comb(n6, i5) if n6 >= 0 <= i5 else _binom(n6, i5)) * (_comb(n6, t7) if n6 >= 0 <= t7 else _binom(n6, t7))
            n8 = 0
            for i10 in range(k2, n2 + 1):
                n11 = env['s']
                if type(n11) is not int: return general(env)
                t12 = n2 + k3 * i10
                n8 += (_comb(n11, i10) if n11 >= 0 <= i10 else _binom(n11, i10)) * (_comb(n11, t12) if n11 >= 0 <= t12 else _binom(n11, t12))
            return (-1 if n1 % 2 else 1) * n3 + (-1 if n2 % 2 else 1) * n8
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make52(general, k0, k1, k2):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = 0
            for i5 in range(k0, n2 + 1):
                n6 = env['s']
                if type(n6) is not int: return general(env)
                t7 = n1 + k1 * i5
                n3 += (_comb(n6, i5) if n6 >= 0 <= i5 else _binom(n6, i5)) * (_comb(n6, t7) if n6 >= 0 <= t7 else _binom(n6, t7))
            n8 = env['s']
            if type(n8) is not int: return general(env)
            t9 = k2 * n8
            return (-1 if n1 % 2 else 1) * n3 + (-1 if n2 % 2 else 1) * (_comb(t9, n2) if t9 >= 0 <= n2 else _binom(t9, n2))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make53(general, k0, k1, k2, k3, k4, k5):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['j']
                if type(n5) is not int: return general(env)
                n6 = env['s']
                if type(n6) is not int: return general(env)
                t7 = n5 + k3 * i4
                n2 += (-1 if (n5 + k1 * i4) % 2 else 1) * (-1 if (i4 + k2) % 2 else 1) * (_comb(n6, i4) if n6 >= 0 <= i4 else _binom(n6, i4)) * (_comb(n6, t7) if n6 >= 0 <= t7 else _binom(n6, t7))
            n8 = env['j']
            if type(n8) is not int: return general(env)
            n9 = 0
            for i11 in range(k4, n1 + 1):
                n12 = env['s']
                if type(n12) is not int: return general(env)
                t13 = n8 + k5 * i11
                n9 += (_comb(n12, i11) if n12 >= 0 <= i11 else _binom(n12, i11)) * (_comb(n12, t13) if n12 >= 0 <= t13 else _binom(n12, t13))
            return n2 + (-1 if n8 % 2 else 1) * n9
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make54(general, k0, k1, k2, k3, k4, k5):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = 0
            for i5 in range(n1 + k0, n2 + 1):
                n6 = env['s']
                if type(n6) is not int: return general(env)
                t7 = n6 + i5 + k2 * n1 + k3 * k4
                t8 = n2 + k5 * i5
                n3 += (-1 if (n2 + k1 * i5) % 2 else 1) * (_comb(t7, n6) if t7 >= 0 <= n6 else _binom(t7, n6)) * (_comb(n6, t8) if n6 >= 0 <= t8 else _binom(n6, t8))
            return n3
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make55(general, k0, k1, k2, k3):
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
                t7 = n5 + k1 * (n6 + k2) + i4
                t8 = n1 + k3 * i4
                n2 += (-1 if i4 % 2 else 1) * (_comb(t7, i4) if t7 >= 0 <= i4 else _binom(t7, i4)) * (_comb(n5, t8) if n5 >= 0 <= t8 else _binom(n5, t8))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make56(general, k0, k1):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['s']
                if type(n5) is not int: return general(env)
                t6 = n1 + k1 * i4
                n2 += (_comb(n5, i4) if n5 >= 0 <= i4 else _binom(n5, i4)) * (_comb(n5, t6) if n5 >= 0 <= t6 else _binom(n5, t6))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make57(general):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            t2 = n1 + n1
            n3 = env['i']
            if type(n3) is not int: return general(env)
            return (_comb(t2, n3) if t2 >= 0 <= n3 else _binom(t2, n3))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make51,
    _make52,
    _make53,
    _make54,
    _make55,
    _make56,
    _make57,
)
