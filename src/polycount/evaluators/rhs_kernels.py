"""Evaluator factories of shapes that the rhs/* telescoping checks and their mutants build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make144(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = 0; d4 = 1
            for i5 in range(k3, n1 + 1):
                t6 = k4 * n1 + k5 * i5
                if not t6: raise PoleError('division by zero')
                n7 = (-1 if i5 % 2 else 1)
                d8 = t6
                if d8 < 0: n7 = -n7; d8 = -d8
                n9 = n7 * (_comb(n2, i5) if n2 >= 0 <= i5 else _binom(n2, i5))
                t10 = k6 * n1 + k7 * i5
                t11 = n1 + k8 * i5
                n12 = n9 * (_comb(t10, t11) if t10 >= 0 <= t11 else _binom(t10, t11))
                if d8 == d4: n3 += n12
                elif not n3: n3 = n12; d4 = d8
                else: n3 = n3 * d8 + n12 * d4; d4 *= d8
            n13 = (n1 + k0 * n2 + k1 * k2) * n3
            n14 = 0; d15 = 1
            for i16 in range(k12, n1 + 1):
                t17 = k13 * n1 + k14 * i16
                if not t17: raise PoleError('division by zero')
                n18 = (-1 if i16 % 2 else 1)
                d19 = t17
                if d19 < 0: n18 = -n18; d19 = -d19
                t20 = n2 + k15
                n21 = n18 * (_comb(t20, i16) if t20 >= 0 <= i16 else _binom(t20, i16))
                t22 = k16 * n1 + k17 * i16
                t23 = n1 + k18 * i16
                n24 = n21 * (_comb(t22, t23) if t22 >= 0 <= t23 else _binom(t22, t23))
                if d19 == d15: n14 += n24
                elif not n14: n14 = n24; d15 = d19
                else: n14 = n14 * d19 + n24 * d15; d15 *= d19
            n25 = (n2 + k9 * k10 * n1 + k11) * n14
            if d4 == d15: n26 = n13 + n25; d27 = d4
            else: n26 = n13 * d15 + n25 * d4; d27 = d4 * d15
            return n26 if d27 == 1 else _value(n26, d27)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make145(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26):
    def term(env):
        try:
            n1 = env['t']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = env['i']
            if type(n3) is not int: return general(env)
            t4 = n3 + k4 * (n1 + k5) + k6
            if not t4: raise PoleError('division by zero')
            n5 = (n1 + k0) * (k1 * n2 + k2 * (n1 + k3))
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k8 * n2 + k9 * (n1 + k10)
            if not t7: raise PoleError('division by zero')
            n8 = (-1 if (n1 + k7) % 2 else 1)
            d9 = t7
            if d9 < 0: n8 = -n8; d9 = -d9
            t10 = n1 + k11
            n11 = n8 * (_comb(n3, t10) if n3 >= 0 <= t10 else _binom(n3, t10))
            t12 = k12 * n2 + k13 * (n1 + k14)
            t13 = n2 + k15 * (n1 + k16)
            n14 = n11 * (_comb(t12, t13) if t12 >= 0 <= t13 else _binom(t12, t13))
            n15 = n5 * n14
            d16 = d6 * d9
            t17 = n3 + k20 * n1 + k21
            if not t17: raise PoleError('division by zero')
            n18 = n1 * (k18 * n2 + k19 * n1)
            d19 = t17
            if d19 < 0: n18 = -n18; d19 = -d19
            t20 = k22 * n2 + k23 * n1
            if not t20: raise PoleError('division by zero')
            n21 = (-1 if n1 % 2 else 1)
            d22 = t20
            if d22 < 0: n21 = -n21; d22 = -d22
            n23 = n21 * (_comb(n3, n1) if n3 >= 0 <= n1 else _binom(n3, n1))
            t24 = k24 * n2 + k25 * n1
            t25 = n2 + k26 * n1
            n26 = n23 * (_comb(t24, t25) if t24 >= 0 <= t25 else _binom(t24, t25))
            n27 = n18 * n26
            d28 = d19 * d22
            n29 = k17 * n27
            if d16 == d28: n30 = n15 + n29; d31 = d16
            else: n30 = n15 * d28 + n29 * d16; d31 = d16 * d28
            return n30 if d31 == 1 else _value(n30, d31)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make146(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = env['t']
            if type(n3) is not int: return general(env)
            t4 = k3 * n1 + k4 * n3
            if not t4: raise PoleError('division by zero')
            n5 = (-1 if n3 % 2 else 1)
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            n7 = n5 * (_comb(n2, n3) if n2 >= 0 <= n3 else _binom(n2, n3))
            t8 = k5 * n1 + k6 * n3
            t9 = n1 + k7 * n3
            n10 = n7 * (_comb(t8, t9) if t8 >= 0 <= t9 else _binom(t8, t9))
            n11 = (n1 + k0 * n2 + k1 * k2) * n10
            t12 = k11 * n1 + k12 * n3
            if not t12: raise PoleError('division by zero')
            n13 = (-1 if n3 % 2 else 1)
            d14 = t12
            if d14 < 0: n13 = -n13; d14 = -d14
            t15 = n2 + k13
            n16 = n13 * (_comb(t15, n3) if t15 >= 0 <= n3 else _binom(t15, n3))
            t17 = k14 * n1 + k15 * n3
            t18 = n1 + k16 * n3
            n19 = n16 * (_comb(t17, t18) if t17 >= 0 <= t18 else _binom(t17, t18))
            n20 = (n2 + k8 * k9 * n1 + k10) * n19
            if d6 == d14: n21 = n11 + n20; d22 = d6
            else: n21 = n11 * d14 + n20 * d6; d22 = d6 * d14
            return n21 if d22 == 1 else _value(n21, d22)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make147(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = 0; d4 = 1
            for i5 in range(k4, n2 + 1):
                t6 = k5 * n2 + k6 * i5
                if not t6: raise PoleError('division by zero')
                n7 = (-1 if i5 % 2 else 1)
                d8 = t6
                if d8 < 0: n7 = -n7; d8 = -d8
                n9 = n7 * (_comb(n1, i5) if n1 >= 0 <= i5 else _binom(n1, i5))
                t10 = n2 + k7 * i5 + n1
                t11 = n2 + k8 * i5
                n12 = n9 * (_comb(t10, t11) if t10 >= 0 <= t11 else _binom(t10, t11))
                if d8 == d4: n3 += n12
                elif not n3: n3 = n12; d4 = d8
                else: n3 = n3 * d8 + n12 * d4; d4 *= d8
            n13 = k0 * (n1 + k1) * (n1 + k2 * n2 + k3) * n3
            n14 = 0; d15 = 1
            for i16 in range(k13, n2 + 1):
                t17 = k14 * n2 + k15 * i16
                if not t17: raise PoleError('division by zero')
                n18 = (-1 if i16 % 2 else 1)
                d19 = t17
                if d19 < 0: n18 = -n18; d19 = -d19
                t20 = n1 + k16
                n21 = n18 * (_comb(t20, i16) if t20 >= 0 <= i16 else _binom(t20, i16))
                t22 = n2 + k17 * i16 + n1 + k18
                t23 = n2 + k19 * i16
                n24 = n21 * (_comb(t22, t23) if t22 >= 0 <= t23 else _binom(t22, t23))
                if d19 == d15: n14 += n24
                elif not n14: n14 = n24; d15 = d19
                else: n14 = n14 * d19 + n24 * d15; d15 *= d19
            n25 = (n1 + k9) * (n1 + k10 * k11 * n2 + k12) * n14
            if d4 == d15: n26 = n13 + n25; d27 = d4
            else: n26 = n13 * d15 + n25 * d4; d27 = d4 * d15
            return n26 if d27 == 1 else _value(n26, d27)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make148(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29):
    def term(env):
        try:
            n1 = env['t']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = env['i']
            if type(n3) is not int: return general(env)
            t4 = n3 + k7 * (n1 + k8) + k9
            if not t4: raise PoleError('division by zero')
            n5 = (n1 + k0) * (k1 * n2 + k2 * (n1 + k3)) * (n2 + k4 * (n1 + k5) + n3 + k6)
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k11 * n2 + k12 * (n1 + k13)
            if not t7: raise PoleError('division by zero')
            n8 = (-1 if (n1 + k10) % 2 else 1)
            d9 = t7
            if d9 < 0: n8 = -n8; d9 = -d9
            t10 = n1 + k14
            n11 = n8 * (_comb(n3, t10) if n3 >= 0 <= t10 else _binom(n3, t10))
            t12 = n2 + k15 * (n1 + k16) + n3
            t13 = n2 + k17 * (n1 + k18)
            n14 = n11 * (_comb(t12, t13) if t12 >= 0 <= t13 else _binom(t12, t13))
            n15 = n5 * n14
            d16 = d6 * d9
            t17 = n3 + k24 * n1 + k25
            if not t17: raise PoleError('division by zero')
            n18 = n1 * (k20 * n2 + k21 * n1) * (n2 + k22 * n1 + n3 + k23)
            d19 = t17
            if d19 < 0: n18 = -n18; d19 = -d19
            t20 = k26 * n2 + k27 * n1
            if not t20: raise PoleError('division by zero')
            n21 = (-1 if n1 % 2 else 1)
            d22 = t20
            if d22 < 0: n21 = -n21; d22 = -d22
            n23 = n21 * (_comb(n3, n1) if n3 >= 0 <= n1 else _binom(n3, n1))
            t24 = n2 + k28 * n1 + n3
            t25 = n2 + k29 * n1
            n26 = n23 * (_comb(t24, t25) if t24 >= 0 <= t25 else _binom(t24, t25))
            n27 = n18 * n26
            d28 = d19 * d22
            n29 = k19 * n27
            if d16 == d28: n30 = n15 + n29; d31 = d16
            else: n30 = n15 * d28 + n29 * d16; d31 = d16 * d28
            return n30 if d31 == 1 else _value(n30, d31)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make149(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = env['t']
            if type(n3) is not int: return general(env)
            t4 = k4 * n2 + k5 * n3
            if not t4: raise PoleError('division by zero')
            n5 = (-1 if n3 % 2 else 1)
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            n7 = n5 * (_comb(n1, n3) if n1 >= 0 <= n3 else _binom(n1, n3))
            t8 = n2 + k6 * n3 + n1
            t9 = n2 + k7 * n3
            n10 = n7 * (_comb(t8, t9) if t8 >= 0 <= t9 else _binom(t8, t9))
            n11 = k0 * (n1 + k1) * (n1 + k2 * n2 + k3) * n10
            t12 = k12 * n2 + k13 * n3
            if not t12: raise PoleError('division by zero')
            n13 = (-1 if n3 % 2 else 1)
            d14 = t12
            if d14 < 0: n13 = -n13; d14 = -d14
            t15 = n1 + k14
            n16 = n13 * (_comb(t15, n3) if t15 >= 0 <= n3 else _binom(t15, n3))
            t17 = n2 + k15 * n3 + n1 + k16
            t18 = n2 + k17 * n3
            n19 = n16 * (_comb(t17, t18) if t17 >= 0 <= t18 else _binom(t17, t18))
            n20 = (n1 + k8) * (n1 + k9 * k10 * n2 + k11) * n19
            if d6 == d14: n21 = n11 + n20; d22 = d6
            else: n21 = n11 * d14 + n20 * d6; d22 = d6 * d14
            return n21 if d22 == 1 else _value(n21, d22)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make144,
    _make145,
    _make146,
    _make147,
    _make148,
    _make149,
)
