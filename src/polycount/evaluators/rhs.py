"""Evaluator factories of shapes that the rhs/* pointwise checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make128(general, k0):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['s']
                if type(n5) is not int: return general(env)
                n2 += (-1 if i4 % 2 else 1) * (_comb(n5, i4) if n5 >= 0 <= i4 else _binom(n5, i4))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make129(general, k0, k1):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = n2 + k0 * k1
            return (-1 if n1 % 2 else 1) * (_comb(t3, n1) if t3 >= 0 <= n1 else _binom(t3, n1))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make130(general, k0):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = 0
            for i5 in range(n1 + k0 * n2, n2 + 1):
                n3 += (-1 if i5 % 2 else 1) * (_comb(n2, i5) if n2 >= 0 <= i5 else _binom(n2, i5))
            return n3
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make131(general, k0, k1, k2, k3):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            t3 = n1 + k0 * k1
            t4 = k2 * n1 + k3 * n2
            return (-1 if (n1 + n2) % 2 else 1) * (_comb(t3, t4) if t3 >= 0 <= t4 else _binom(t3, t4))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make132(general, k0, k1, k2, k3, k4, k5):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k0, n1 + 1):
                n5 = env['s']
                if type(n5) is not int: return general(env)
                t6 = k1 * n5 + k2 * i4
                if not t6: raise PoleError('division by zero')
                n7 = (-1 if i4 % 2 else 1)
                d8 = t6
                if d8 < 0: n7 = -n7; d8 = -d8
                n9 = n7 * (_comb(n1, i4) if n1 >= 0 <= i4 else _binom(n1, i4))
                t10 = k3 * n5 + k4 * i4
                t11 = n5 + k5 * i4
                n12 = n9 * (_comb(t10, t11) if t10 >= 0 <= t11 else _binom(t10, t11))
                if d8 == d3: n2 += n12
                elif not n2: n2 = n12; d3 = d8
                else: n2 = n2 * d8 + n12 * d3; d3 *= d8
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make133(general, k0, k1, k2, k3):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            t3 = k0 * n1 + k1 * n2 + k2 * k3
            if not n1: raise PoleError('division by zero')
            n4 = (_comb(t3, n1) if t3 >= 0 <= n1 else _binom(t3, n1))
            d5 = n1
            if d5 < 0: n4 = -n4; d5 = -d5
            return n4 if d5 == 1 else _value(n4, d5)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make134(general, k0, k1, k2, k3, k4):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k0, n1 + 1):
                n5 = env['s']
                if type(n5) is not int: return general(env)
                t6 = k1 * n5 + k2 * i4
                if not t6: raise PoleError('division by zero')
                n7 = (-1 if i4 % 2 else 1)
                d8 = t6
                if d8 < 0: n7 = -n7; d8 = -d8
                n9 = n7 * (_comb(n1, i4) if n1 >= 0 <= i4 else _binom(n1, i4))
                t10 = n5 + k3 * i4 + n1
                t11 = n5 + k4 * i4
                n12 = n9 * (_comb(t10, t11) if t10 >= 0 <= t11 else _binom(t10, t11))
                if d8 == d3: n2 += n12
                elif not n2: n2 = n12; d3 = d8
                else: n2 = n2 * d8 + n12 * d3; d3 *= d8
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make135(general, k0, k1, k2, k3, k4, k5, k6, k7):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            t3 = k0 * n1 + k1 * n2 + k2 * k3
            t4 = k5 * n1 + k6 * k7
            t5 = k4 * n1 * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1))
            if not t5: raise PoleError('division by zero')
            n6 = (_comb(t3, n1) if t3 >= 0 <= n1 else _binom(t3, n1))
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            return n6 if d7 == 1 else _value(n6, d7)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make136(general, k0, k1, k2, k3):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = 0
            for i5 in range(n1 + k0, n2 + 1):
                t6 = n2 + i5 + k1 * n1 + k2 * k3
                n3 += (_comb(t6, n2) if t6 >= 0 <= n2 else _binom(t6, n2))
            return n3
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make137(general, k0, k1, k2):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            t3 = k0 * n1 + k1 * n2
            t4 = n1 + k2
            return (_comb(t3, t4) if t3 >= 0 <= t4 else _binom(t3, t4))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make138(general, k0, k1, k2):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k0, n1 + 1):
                n5 = env['t']
                if type(n5) is not int: return general(env)
                t6 = n1 + k1 + k2 * n5
                if t6 >= 0: n7 = i4 ** t6; d8 = 1
                elif not i4: raise PoleError('zero base with negative exponent')
                else:
                    n7 = 1; d8 = i4 ** -t6
                    if d8 < 0: n7 = -n7; d8 = -d8
                n9 = (-1 if (i4 + n1) % 2 else 1) * n7
                n10 = n9 * (_comb(n1, i4) if n1 >= 0 <= i4 else _binom(n1, i4))
                if d8 == d3: n2 += n10
                elif not n2: n2 = n10; d3 = d8
                else: n2 = n2 * d8 + n10 * d3; d3 *= d8
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make139(general, k0, k1, k2, k3):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k0, n1 + 1):
                t5 = n1 + k1 + k2 * k3
                if t5 >= 0: n6 = i4 ** t5; d7 = 1
                elif not i4: raise PoleError('zero base with negative exponent')
                else:
                    n6 = 1; d7 = i4 ** -t5
                    if d7 < 0: n6 = -n6; d7 = -d7
                n8 = (-1 if (i4 + n1) % 2 else 1) * n6
                n9 = n8 * (_comb(n1, i4) if n1 >= 0 <= i4 else _binom(n1, i4))
                if d7 == d3: n2 += n9
                elif not n2: n2 = n9; d3 = d7
                else: n2 = n2 * d7 + n9 * d3; d3 *= d7
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make140(general, k0, k1):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            t2 = n1 + k0
            if t2 < 0: raise PoleError(f'factorial of negative {t2}')
            if not k1: raise PoleError('division by zero')
            n3 = n1 * _factorial(t2)
            d4 = k1
            if d4 < 0: n3 = -n3; d4 = -d4
            return n3 if d4 == 1 else _value(n3, d4)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make141(general):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            if n1 < 0: raise PoleError(f'factorial of negative {n1}')
            return _factorial(n1)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make142(general, k0, k1, k2, k3, k4, k5, k6, k7, k8):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = k2 * n2
            n4 = 0; d5 = 1
            for i6 in range(n1 + k3, n2 + 1):
                n7 = 0; d8 = 1
                for i9 in range(k4, n1 + 1):
                    t10 = k5 * n2 + k6 * i9
                    if not t10: raise PoleError('division by zero')
                    n11 = (-1 if i9 % 2 else 1)
                    d12 = t10
                    if d12 < 0: n11 = -n11; d12 = -d12
                    n13 = n11 * (_comb(n1, i9) if n1 >= 0 <= i9 else _binom(n1, i9))
                    t14 = n2 + k7 * (i9 + k8) + i6
                    n15 = n13 * (_comb(t14, i6) if t14 >= 0 <= i6 else _binom(t14, i6))
                    if d12 == d8: n7 += n15
                    elif not n7: n7 = n15; d8 = d12
                    else: n7 = n7 * d12 + n15 * d8; d8 *= d12
                if d8 == d5: n4 += n7
                elif not n4: n4 = n7; d5 = d8
                else: n4 = n4 * d8 + n7 * d5; d5 *= d8
            n16 = (-1 if n1 % 2 else 1) * (k0 * n2 + k1 * n1) * (_comb(t3, n1) if t3 >= 0 <= n1 else _binom(t3, n1)) * n4
            return n16 if d5 == 1 else _value(n16, d5)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make143(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            if not n2: raise PoleError('division by zero')
            n3 = (-1 if n1 % 2 else 1) * (k0 * n2 + k1 * n1)
            d4 = n2
            if d4 < 0: n3 = -n3; d4 = -d4
            t5 = k2 * n2
            n6 = n3 * (_comb(t5, n1) if t5 >= 0 <= n1 else _binom(t5, n1))
            t7 = k3 * n2 + k4 * n1 + k5 * k6
            n8 = n6 * (_comb(t7, n2) if t7 >= 0 <= n2 else _binom(t7, n2))
            t9 = k11 * n2 + k12 * k13
            t10 = k10 * (_comb(t9, n2) if t9 >= 0 <= n2 else _binom(t9, n2))
            if not t10: raise PoleError('division by zero')
            n11 = k9
            d12 = t10
            if d12 < 0: n11 = -n11; d12 = -d12
            n13 = k8 * n11
            n14 = n13 + k7 * d12
            n15 = n8 * n14
            d16 = d4 * d12
            return n15 if d16 == 1 else _value(n15, d16)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make128,
    _make129,
    _make130,
    _make131,
    _make132,
    _make133,
    _make134,
    _make135,
    _make136,
    _make137,
    _make138,
    _make139,
    _make140,
    _make141,
    _make142,
    _make143,
)
