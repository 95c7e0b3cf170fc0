"""Evaluator factories of shapes that the q3/* checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make89(general, k0, k1):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            t2 = k1 * n1
            n3 = env['i']
            if type(n3) is not int: return general(env)
            return (-1 if (n1 + k0) % 2 else 1) * (_comb(t2, n3) if t2 >= 0 <= n3 else _binom(t2, n3))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make90(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = 0; d4 = 1
            for i5 in range(k0, k1 * n1 + k2 * n2 + 1):
                t6 = k3 * n1 + k4 * i5
                if not t6: raise PoleError('division by zero')
                n7 = (-1 if i5 % 2 else 1)
                d8 = t6
                if d8 < 0: n7 = -n7; d8 = -d8
                t9 = k5 * n1 + k6 * n2
                n10 = n7 * (_comb(t9, i5) if t9 >= 0 <= i5 else _binom(t9, i5))
                n11 = env['jp']
                if type(n11) is not int: return general(env)
                t12 = k7 * n1 + k8 * i5 + k9 * k10 + k11 * n11
                t13 = n1 + k12 * n11
                n14 = n10 * (_comb(t12, t13) if t12 >= 0 <= t13 else _binom(t12, t13))
                if d8 == d4: n3 += n14
                elif not n3: n3 = n14; d4 = d8
                else: n3 = n3 * d8 + n14 * d4; d4 *= d8
            return n3 if d4 == 1 else _value(n3, d4)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make91(general, k0):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            if not n2: raise PoleError('division by zero')
            n4 = (-1 if (n1 + n2 + n3) % 2 else 1)
            d5 = n2
            if d5 < 0: n4 = -n4; d5 = -d5
            n6 = n4 * (_comb(n1, n3) if n1 >= 0 <= n3 else _binom(n1, n3))
            t7 = k0 * n1
            t8 = (_comb(t7, n2) if t7 >= 0 <= n2 else _binom(t7, n2))
            if not t8: raise PoleError('division by zero')
            n9 = n6
            d10 = t8 * d5
            if d10 < 0: n9 = -n9; d10 = -d10
            return n9 if d10 == 1 else _value(n9, d10)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make92(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9):
    def term(env):
        try:
            n1 = env['t']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = k0 * n2 + k1 * n1
            if not t3: raise PoleError('division by zero')
            n4 = (-1 if n1 % 2 else 1)
            d5 = t3
            if d5 < 0: n4 = -n4; d5 = -d5
            n6 = env['i']
            if type(n6) is not int: return general(env)
            t7 = k2 * n2 + k3 * n6
            n8 = n4 * (_comb(t7, n1) if t7 >= 0 <= n1 else _binom(t7, n1))
            n9 = env['jp']
            if type(n9) is not int: return general(env)
            t10 = k4 * n2 + k5 * n1 + k6 * k7 + k8 * n9
            t11 = n2 + k9 * n9
            n12 = n8 * (_comb(t10, t11) if t10 >= 0 <= t11 else _binom(t10, t11))
            return n12 if d5 == 1 else _value(n12, d5)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make93(general, k0, k1, k2, k3, k4, k5):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = env['i']
            if type(n3) is not int: return general(env)
            return k0 * (n1 + k1 * n2) * (n3 + k2 * n1 + k3 * n2 + k4 * k5)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make94(general, k0, k1, k2, k3, k4, k5, k6, k7, k8):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            return k0 * n1 * n2 + k1 * n1 * n3 + k2 * k3 * n2 * n2 + k4 * n1 + k5 * k6 * n2 + n3 + k7 * k8
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make95(general, k0, k1, k2, k3, k4):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            return k0 * (n1 + k1) * (n2 + k2 * n1 + k3 * k4)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make96(general, k0, k1, k2, k3, k4):
    def term(env):
        try:
            n1 = env['t']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k3 * n3 + n1 + k4 + n2
            if not t4: raise PoleError('division by zero')
            n5 = n1 * (n2 + k0 * n3) * (k1 * n3 + k2 * n1)
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            return n5 if d6 == 1 else _value(n5, d6)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make97(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            if not n2: raise PoleError('division by zero')
            n4 = (-1 if (n1 + n2 + n3) % 2 else 1)
            d5 = n2
            if d5 < 0: n4 = -n4; d5 = -d5
            n6 = n4 * (_comb(n1, n3) if n1 >= 0 <= n3 else _binom(n1, n3))
            t7 = k0 * n1
            t8 = (_comb(t7, n2) if t7 >= 0 <= n2 else _binom(t7, n2))
            if not t8: raise PoleError('division by zero')
            n9 = n6
            d10 = t8 * d5
            if d10 < 0: n9 = -n9; d10 = -d10
            n11 = 0; d12 = 1
            for i13 in range(k1, n1 + k2 * n3 + 1):
                if not i13: raise PoleError('division by zero')
                n14 = (-1 if (i13 + k3) % 2 else 1)
                d15 = i13
                if d15 < 0: n14 = -n14; d15 = -d15
                t16 = n2 + k4 * n3 + k5 * k6
                t17 = n1 + i13 + k7 * k8
                n18 = n14 * (_comb(t16, t17) if t16 >= 0 <= t17 else _binom(t16, t17))
                t19 = i13 + k9 * k10
                n20 = n18 * (_comb(n1, t19) if n1 >= 0 <= t19 else _binom(n1, t19))
                t21 = n1 + k11 * n3
                t22 = (_comb(t21, i13) if t21 >= 0 <= i13 else _binom(t21, i13))
                if not t22: raise PoleError('division by zero')
                n23 = n20
                d24 = t22 * d15
                if d24 < 0: n23 = -n23; d24 = -d24
                if d24 == d12: n11 += n23
                elif not n11: n11 = n23; d12 = d24
                else: n11 = n11 * d24 + n23 * d12; d12 *= d24
            if d10 == d12: n25 = n9 + n11; d26 = d10
            else: n25 = n9 * d12 + n11 * d10; d26 = d10 * d12
            return n25 if d26 == 1 else _value(n25, d26)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make98(general, k0, k1, k2, k3):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            t3 = n2 + k0 * n1 + k1 * k2
            n4 = env['s']
            if type(n4) is not int: return general(env)
            n5 = env['j']
            if type(n5) is not int: return general(env)
            t6 = n5 + k3 * n1
            return (-1 if n1 % 2 else 1) * (_comb(t3, n4) if t3 >= 0 <= n4 else _binom(t3, n4)) * (_comb(n4, t6) if n4 >= 0 <= t6 else _binom(n4, t6))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make99(general, k0, k1, k2):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            return n1 + k0 * n2 + k1 * k2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make100(general, k0, k1):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            return n1 + k0 * k1
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make101(general, k0, k1, k2, k3, k4):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            n4 = env['j']
            if type(n4) is not int: return general(env)
            t5 = n4 + k3 + k4 * n2
            if not t5: raise PoleError('division by zero')
            n6 = (n1 + k0 * n2) * (k1 * n3 + n4 + k2 * n2)
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            return n6 if d7 == 1 else _value(n6, d7)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make102(general, k0, k1, k2, k3, k4, k5, k6):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + k1 * k2 + 1):
                t5 = n1 + k3 * i4 + k4 * k5
                n6 = env['s']
                if type(n6) is not int: return general(env)
                n7 = env['j']
                if type(n7) is not int: return general(env)
                t8 = n7 + k6 * i4
                n2 += (-1 if i4 % 2 else 1) * (_comb(t5, n6) if t5 >= 0 <= n6 else _binom(t5, n6)) * (_comb(n6, t8) if n6 >= 0 <= t8 else _binom(n6, t8))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make103(general):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            return (-1 if (n1 + n2) % 2 else 1)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make104(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            n4 = env['t']
            if type(n4) is not int: return general(env)
            if not n4: raise PoleError('division by zero')
            n5 = (-1 if (n1 + n2) % 2 else 1) * k0 * n1 * (-1 if (n3 + n4 + k1) % 2 else 1)
            d6 = n4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k2 * n1 + k3 * n3 + k4 * k5
            t8 = n1 + n4 + k6 * k7
            n9 = n5 * (_comb(t7, t8) if t7 >= 0 <= t8 else _binom(t7, t8))
            t10 = n4 + k8 * k9
            n11 = n9 * (_comb(n1, t10) if n1 >= 0 <= t10 else _binom(n1, t10))
            t12 = n2 + k10 * n3
            n13 = n11 * (_comb(n1, t12) if n1 >= 0 <= t12 else _binom(n1, t12))
            t14 = n1 + k11 * n3
            t15 = (_comb(t14, n4) if t14 >= 0 <= n4 else _binom(t14, n4))
            if not t15: raise PoleError('division by zero')
            n16 = n13
            d17 = t15 * d6
            if d17 < 0: n16 = -n16; d17 = -d17
            return n16 if d17 == 1 else _value(n16, d17)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make105(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            n4 = env['t']
            if type(n4) is not int: return general(env)
            if not n4: raise PoleError('division by zero')
            n5 = (-1 if (n1 + n2 + n3 + n4) % 2 else 1) * (n1 + n4 + k0 * k1)
            d6 = n4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k2 * n1 + k3 * k4 + k5 * n3
            t8 = n1 + n4 + k6 * k7
            n9 = n5 * (_comb(t7, t8) if t7 >= 0 <= t8 else _binom(t7, t8))
            t10 = n4 + k8 * k9
            n11 = n9 * (_comb(n1, t10) if n1 >= 0 <= t10 else _binom(n1, t10))
            t12 = n2 + k10 * n3
            n13 = n11 * (_comb(n1, t12) if n1 >= 0 <= t12 else _binom(n1, t12))
            t14 = n1 + k11 * n3
            t15 = (_comb(t14, n4) if t14 >= 0 <= n4 else _binom(t14, n4))
            if not t15: raise PoleError('division by zero')
            n16 = n13
            d17 = t15 * d6
            if d17 < 0: n16 = -n16; d17 = -d17
            return n16 if d17 == 1 else _value(n16, d17)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make106(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = 0; d4 = 1
            for i5 in range(k0, n1 + k1 * n2 + 1):
                n6 = env['j']
                if type(n6) is not int: return general(env)
                if not i5: raise PoleError('division by zero')
                n7 = (-1 if (n1 + n6) % 2 else 1) * k2 * n1 * (-1 if (n2 + i5 + k3) % 2 else 1)
                d8 = i5
                if d8 < 0: n7 = -n7; d8 = -d8
                t9 = k4 * n1 + k5 * n2 + k6 * k7
                t10 = n1 + i5 + k8 * k9
                n11 = n7 * (_comb(t9, t10) if t9 >= 0 <= t10 else _binom(t9, t10))
                t12 = i5 + k10 * k11
                n13 = n11 * (_comb(n1, t12) if n1 >= 0 <= t12 else _binom(n1, t12))
                t14 = n6 + k12 * n2
                n15 = n13 * (_comb(n1, t14) if n1 >= 0 <= t14 else _binom(n1, t14))
                t16 = n1 + k13 * n2
                t17 = (_comb(t16, i5) if t16 >= 0 <= i5 else _binom(t16, i5))
                if not t17: raise PoleError('division by zero')
                n18 = n15
                d19 = t17 * d8
                if d19 < 0: n18 = -n18; d19 = -d19
                if d19 == d4: n3 += n18
                elif not n3: n3 = n18; d4 = d19
                else: n3 = n3 * d19 + n18 * d4; d4 *= d19
            return n3 if d4 == 1 else _value(n3, d4)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make107(general, k0, k1, k2, k3, k4, k5, k6, k7, k8):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            t4 = n1 + k1 * n3
            t5 = n1 + k2 * n3
            t6 = k3 * n2 + k4 * k5 + k6 * n3
            t7 = n2 + k7 * k8
            return (-1 if (n1 + k0) % 2 else 1) * (_comb(n2, n3) if n2 >= 0 <= n3 else _binom(n2, n3)) * (_comb(n2, t4) if n2 >= 0 <= t4 else _binom(n2, t4)) + (-1 if (n2 + n3 + n1) % 2 else 1) * (_comb(n2, t5) if n2 >= 0 <= t5 else _binom(n2, t5)) * (_comb(t6, t7) if t6 >= 0 <= t7 else _binom(t6, t7))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make108(general, k0, k1, k2, k3, k4, k5, k6):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['j']
            if type(n3) is not int: return general(env)
            t4 = n3 + k0 * n2
            t5 = k1 * n1 + k2 * k3 + k4 * n2
            t6 = n1 + k5 * k6
            return (-1 if (n1 + n2 + n3) % 2 else 1) * (_comb(n1, t4) if n1 >= 0 <= t4 else _binom(n1, t4)) * (_comb(t5, t6) if t5 >= 0 <= t6 else _binom(t5, t6))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make109(general, k0, k1, k2, k3, k4, k5, k6):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['j']
            if type(n3) is not int: return general(env)
            t4 = n3 + k0 * k1 * n1
            if not t4: raise PoleError('division by zero')
            n5 = (-1 if (n1 + n2 + n3) % 2 else 1) * n1
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k2 * n1 + k3 * n2
            n8 = n5 * (_comb(t7, n1) if t7 >= 0 <= n1 else _binom(t7, n1))
            t9 = n1 + k4 * k5
            t10 = n3 + k6 * n2
            n11 = n8 * (_comb(t9, t10) if t9 >= 0 <= t10 else _binom(t9, t10))
            return n11 if d6 == 1 else _value(n11, d6)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make89,
    _make90,
    _make91,
    _make92,
    _make93,
    _make94,
    _make95,
    _make96,
    _make97,
    _make98,
    _make99,
    _make100,
    _make101,
    _make102,
    _make103,
    _make104,
    _make105,
    _make106,
    _make107,
    _make108,
    _make109,
)
