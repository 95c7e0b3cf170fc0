"""Evaluator factories of shapes that the q4/* pointwise checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make105(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['i']
                if type(n5) is not int: return general(env)
                n6 = env['j']
                if type(n6) is not int: return general(env)
                t7 = k2 * n1
                t8 = n6 + k3 * i4 + k4 * k5
                t9 = n5 + k6 + k7 * i4
                n2 += (-1 if (n1 + n5 + k1 + n6 + i4) % 2 else 1) * (_comb(t7, n6) if t7 >= 0 <= n6 else _binom(t7, n6)) * (_comb(t8, n1) if t8 >= 0 <= n1 else _binom(t8, n1)) * (_comb(n1, t9) if n1 >= 0 <= t9 else _binom(n1, t9))
            n10 = 0
            for i12 in range(k9, n1 + 1):
                n13 = env['i']
                if type(n13) is not int: return general(env)
                n14 = env['j']
                if type(n14) is not int: return general(env)
                t15 = k10 * n1
                t16 = n14 + k11 * i12 + k12 * k13
                t17 = n13 + k14 * i12
                n10 += (-1 if (n1 + n13 + n14 + i12) % 2 else 1) * (_comb(t15, n14) if t15 >= 0 <= n14 else _binom(t15, n14)) * (_comb(t16, n1) if t16 >= 0 <= n1 else _binom(t16, n1)) * (_comb(n1, t17) if n1 >= 0 <= t17 else _binom(n1, t17))
            return n2 + k8 * n10
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make106(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k1 * n3
            t5 = n1 + k2
            t6 = k3 * n3 + k4 * n1 + k5 * k6
            t7 = n2 + k7 * n1 + k8 * k9
            t8 = n2 + k10 * n1 + k11 * k12
            t9 = n2 + k13 * n3 + k14 * k15
            return (-1 if (n1 + n2 + n3 + k0) % 2 else 1) * (_comb(t4, t5) if t4 >= 0 <= t5 else _binom(t4, t5)) * (_comb(t6, t7) if t6 >= 0 <= t7 else _binom(t6, t7)) * (_comb(t8, t9) if t8 >= 0 <= t9 else _binom(t8, t9))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make107(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k4 * n3
            t5 = n1 + k5
            n6 = 0; d7 = 1
            for i8 in range(k6, n3 + 1):
                n9 = 0; d10 = 1
                for i11 in range(k7, i8 + 1):
                    if not i11: raise PoleError('division by zero')
                    n12 = (-1 if (i8 + i11) % 2 else 1)
                    d13 = i11
                    if d13 < 0: n12 = -n12; d13 = -d13
                    t14 = i11 + k8 * k9
                    n15 = n12 * (_comb(n3, t14) if n3 >= 0 <= t14 else _binom(n3, t14))
                    t16 = n3 + i8 + k10 * (n1 + k11) + k12 * k13
                    t17 = n3 + i11 + k14 * k15
                    n18 = n15 * (_comb(t16, t17) if t16 >= 0 <= t17 else _binom(t16, t17))
                    t19 = n2 + k16 * i8
                    n20 = n18 * (_comb(n3, t19) if n3 >= 0 <= t19 else _binom(n3, t19))
                    t21 = (_comb(i8, i11) if i8 >= 0 <= i11 else _binom(i8, i11))
                    if not t21: raise PoleError('division by zero')
                    n22 = n20
                    d23 = t21 * d13
                    if d23 < 0: n22 = -n22; d23 = -d23
                    if d23 == d10: n9 += n22
                    elif not n9: n9 = n22; d10 = d23
                    else: n9 = n9 * d23 + n22 * d10; d10 *= d23
                if d10 == d7: n6 += n9
                elif not n6: n6 = n9; d7 = d10
                else: n6 = n6 * d10 + n9 * d7; d7 *= d10
            n24 = (-1 if (n1 + k0 + n2) % 2 else 1) * (k1 * n3 + k2 * (n1 + k3)) * (_comb(t4, t5) if t4 >= 0 <= t5 else _binom(t4, t5)) * n6
            t25 = k20 * n3
            n26 = 0; d27 = 1
            for i28 in range(k21, n3 + 1):
                n29 = 0; d30 = 1
                for i31 in range(k22, i28 + 1):
                    if not i31: raise PoleError('division by zero')
                    n32 = (-1 if (i28 + i31) % 2 else 1)
                    d33 = i31
                    if d33 < 0: n32 = -n32; d33 = -d33
                    t34 = i31 + k23 * k24
                    n35 = n32 * (_comb(n3, t34) if n3 >= 0 <= t34 else _binom(n3, t34))
                    t36 = n3 + i28 + k25 * n1 + k26 * k27
                    t37 = n3 + i31 + k28 * k29
                    n38 = n35 * (_comb(t36, t37) if t36 >= 0 <= t37 else _binom(t36, t37))
                    t39 = n2 + k30 * i28
                    n40 = n38 * (_comb(n3, t39) if n3 >= 0 <= t39 else _binom(n3, t39))
                    t41 = (_comb(i28, i31) if i28 >= 0 <= i31 else _binom(i28, i31))
                    if not t41: raise PoleError('division by zero')
                    n42 = n40
                    d43 = t41 * d33
                    if d43 < 0: n42 = -n42; d43 = -d43
                    if d43 == d30: n29 += n42
                    elif not n29: n29 = n42; d30 = d43
                    else: n29 = n29 * d43 + n42 * d30; d30 *= d43
                if d30 == d27: n26 += n29
                elif not n26: n26 = n29; d27 = d30
                else: n26 = n26 * d30 + n29 * d27; d27 *= d30
            n44 = (-1 if (n1 + n2) % 2 else 1) * (k18 * n3 + k19 * n1) * (_comb(t25, n1) if t25 >= 0 <= n1 else _binom(t25, n1)) * n26
            n45 = k17 * n44
            if d7 == d27: n46 = n24 + n45; d47 = d7
            else: n46 = n24 * d27 + n45 * d7; d47 = d7 * d27
            return n46 if d47 == 1 else _value(n46, d47)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make108(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k0 * n3
            t5 = n1 + k1
            t6 = k2 * n3 + k3 * n1 + k4 * k5
            t7 = n2 + k6 * n1 + k7 * k8
            t8 = n2 + k9 * n1 + k10 * k11
            t9 = n2 + k12 * n3 + k13 * k14
            return (-1 if (n1 + n2 + n3) % 2 else 1) * (_comb(t4, t5) if t4 >= 0 <= t5 else _binom(t4, t5)) * (_comb(t6, t7) if t6 >= 0 <= t7 else _binom(t6, t7)) * (_comb(t8, t9) if t8 >= 0 <= t9 else _binom(t8, t9))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make109(general, k0, k1, k2, k3, k4, k5, k6, k7):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['j']
                if type(n5) is not int: return general(env)
                t6 = k2 * n1
                t7 = n5 + k3 * i4 + k4 * k5
                t8 = k6 + k7 * i4
                n2 += (-1 if (n1 + k1 + n5 + i4) % 2 else 1) * (_comb(t6, n5) if t6 >= 0 <= n5 else _binom(t6, n5)) * (_comb(t7, n1) if t7 >= 0 <= n1 else _binom(t7, n1)) * (_comb(n1, t8) if n1 >= 0 <= t8 else _binom(n1, t8))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make110(general, k0, k1, k2):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            t3 = k0 * n1
            t4 = n2 + k1 * k2
            return (-1 if (n1 + n2) % 2 else 1) * (_comb(t3, n2) if t3 >= 0 <= n2 else _binom(t3, n2)) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make111(general, k0, k1, k2, k3, k4):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                t5 = n1 + k1 * (k2 + k3) + i4
                n6 = env['j']
                if type(n6) is not int: return general(env)
                t7 = n6 + k4 * i4
                n2 += (-1 if i4 % 2 else 1) * (_comb(t5, i4) if t5 >= 0 <= i4 else _binom(t5, i4)) * (_comb(n1, t7) if n1 >= 0 <= t7 else _binom(n1, t7))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make112(general, k0, k1, k2):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            t2 = k0 * n1
            n3 = env['j']
            if type(n3) is not int: return general(env)
            t4 = n3 + k1 * k2
            return (-1 if n1 % 2 else 1) * (_comb(t2, n3) if t2 >= 0 <= n3 else _binom(t2, n3)) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make113(general, k0, k1, k2, k3, k4):
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
                n10 = env['jp']
                if type(n10) is not int: return general(env)
                t11 = n5 + k3 * (i4 + k4) + n10
                n12 = n9 * (_comb(t11, n10) if t11 >= 0 <= n10 else _binom(t11, n10))
                if d8 == d3: n2 += n12
                elif not n2: n2 = n12; d3 = d8
                else: n2 = n2 * d8 + n12 * d3; d3 *= d8
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make114(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k0 * n3 + k1 * n1
            if not t4: raise PoleError('division by zero')
            n5 = (-1 if (n1 + n2) % 2 else 1)
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            n7 = n5 * (_comb(n3, n2) if n3 >= 0 <= n2 else _binom(n3, n2))
            t8 = k2 * n3
            t9 = (_comb(t8, n1) if t8 >= 0 <= n1 else _binom(t8, n1))
            if not t9: raise PoleError('division by zero')
            n10 = n7
            d11 = t9 * d6
            if d11 < 0: n10 = -n10; d11 = -d11
            n12 = 0; d13 = 1
            for i14 in range(k3, n2 + 1):
                if not i14: raise PoleError('division by zero')
                n15 = (-1 if (i14 + k4) % 2 else 1)
                d16 = i14
                if d16 < 0: n15 = -n15; d16 = -d16
                t17 = i14 + k5 * k6
                n18 = n15 * (_comb(n3, t17) if n3 >= 0 <= t17 else _binom(n3, t17))
                t19 = n3 + n2 + k7 * n1 + k8 * k9
                t20 = n3 + i14 + k10 * k11
                n21 = n18 * (_comb(t19, t20) if t19 >= 0 <= t20 else _binom(t19, t20))
                t22 = (_comb(n2, i14) if n2 >= 0 <= i14 else _binom(n2, i14))
                if not t22: raise PoleError('division by zero')
                n23 = n21
                d24 = t22 * d16
                if d24 < 0: n23 = -n23; d24 = -d24
                if d24 == d13: n12 += n23
                elif not n12: n12 = n23; d13 = d24
                else: n12 = n12 * d24 + n23 * d13; d13 *= d24
            if d11 == d13: n25 = n10 + n12; d26 = d11
            else: n25 = n10 * d13 + n12 * d11; d26 = d11 * d13
            return n25 if d26 == 1 else _value(n25, d26)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make115(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k3 * n3
            n5 = 0; d6 = 1
            for i7 in range(k4, n3 + 1):
                t8 = n2 + k5 * i7
                n9 = 0; d10 = 1
                for i11 in range(k6, n1 + 1):
                    t12 = k7 * n3 + k8 * i11
                    if not t12: raise PoleError('division by zero')
                    n13 = (-1 if i11 % 2 else 1)
                    d14 = t12
                    if d14 < 0: n13 = -n13; d14 = -d14
                    n15 = n13 * (_comb(n1, i11) if n1 >= 0 <= i11 else _binom(n1, i11))
                    t16 = n3 + k9 * (i11 + k10) + i7
                    n17 = n15 * (_comb(t16, i7) if t16 >= 0 <= i7 else _binom(t16, i7))
                    if d14 == d10: n9 += n17
                    elif not n9: n9 = n17; d10 = d14
                    else: n9 = n9 * d14 + n17 * d10; d10 *= d14
                n18 = (-1 if i7 % 2 else 1) * (_comb(n3, t8) if n3 >= 0 <= t8 else _binom(n3, t8)) * n9
                if d10 == d6: n5 += n18
                elif not n5: n5 = n18; d6 = d10
                else: n5 = n5 * d10 + n18 * d6; d6 *= d10
            n19 = (-1 if (n1 + n2 + k0) % 2 else 1) * (k1 * n3 + k2 * n1) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1)) * n5
            return n19 if d6 == 1 else _value(n19, d6)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make116(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = k1 * n2
            n4 = env['i']
            if type(n4) is not int: return general(env)
            t5 = k4 * n2
            n6 = 0; d7 = 1
            for i8 in range(k5, n2 + 1):
                n9 = 0; d10 = 1
                for i11 in range(k6, i8 + 1):
                    if not i11: raise PoleError('division by zero')
                    n12 = (-1 if (i8 + i11) % 2 else 1)
                    d13 = i11
                    if d13 < 0: n12 = -n12; d13 = -d13
                    t14 = i11 + k7 * k8
                    n15 = n12 * (_comb(n2, t14) if n2 >= 0 <= t14 else _binom(n2, t14))
                    t16 = n2 + i8 + k9 * n4 + k10 * k11
                    t17 = n2 + i11 + k12 * k13
                    n18 = n15 * (_comb(t16, t17) if t16 >= 0 <= t17 else _binom(t16, t17))
                    t19 = n1 + k14 * i8
                    n20 = n18 * (_comb(n2, t19) if n2 >= 0 <= t19 else _binom(n2, t19))
                    t21 = (_comb(i8, i11) if i8 >= 0 <= i11 else _binom(i8, i11))
                    if not t21: raise PoleError('division by zero')
                    n22 = n20
                    d23 = t21 * d13
                    if d23 < 0: n22 = -n22; d23 = -d23
                    if d23 == d10: n9 += n22
                    elif not n9: n9 = n22; d10 = d23
                    else: n9 = n9 * d23 + n22 * d10; d10 *= d23
                if d10 == d7: n6 += n9
                elif not n6: n6 = n9; d7 = d10
                else: n6 = n6 * d10 + n9 * d7; d7 *= d10
            n24 = (-1 if (n4 + n1) % 2 else 1) * (k2 * n2 + k3 * n4) * (_comb(t5, n4) if t5 >= 0 <= n4 else _binom(t5, n4)) * n6
            n25 = n24 + (-1 if (n1 + k0) % 2 else 1) * (_comb(t3, n1) if t3 >= 0 <= n1 else _binom(t3, n1)) * d7
            return n25 if d7 == 1 else _value(n25, d7)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make105,
    _make106,
    _make107,
    _make108,
    _make109,
    _make110,
    _make111,
    _make112,
    _make113,
    _make114,
    _make115,
    _make116,
)
