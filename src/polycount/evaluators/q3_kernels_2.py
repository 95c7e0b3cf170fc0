"""Evaluator factories of shapes that the q3/* telescoping checks and their mutants build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make96(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47, k48, k49, k50, k51, k52, k53):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = env['i']
            if type(n3) is not int: return general(env)
            n4 = env['t']
            if type(n4) is not int: return general(env)
            t5 = k6 * n2 + k7 * n4
            if not t5: raise PoleError('division by zero')
            n6 = (-1 if n4 % 2 else 1)
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            t8 = k8 * n2 + k9 * n3
            n9 = n6 * (_comb(t8, n4) if t8 >= 0 <= n4 else _binom(t8, n4))
            t10 = k10 * n2 + k11 * n4 + k12 * k13 + k14 * n1
            t11 = n2 + k15 * n1
            n12 = n9 * (_comb(t10, t11) if t10 >= 0 <= t11 else _binom(t10, t11))
            n13 = k0 * (n1 + k1 * n2) * (n3 + k2 * n1 + k3 * n2 + k4 * k5) * n12
            t14 = k25 * n2 + k26 * n4
            if not t14: raise PoleError('division by zero')
            n15 = (-1 if n4 % 2 else 1)
            d16 = t14
            if d16 < 0: n15 = -n15; d16 = -d16
            t17 = k27 * n2 + k28 * n3
            n18 = n15 * (_comb(t17, n4) if t17 >= 0 <= n4 else _binom(t17, n4))
            t19 = k29 * n2 + k30 * n4 + k31 * k32 + k33 * (n1 + k34)
            t20 = n2 + k35 * (n1 + k36)
            n21 = n18 * (_comb(t19, t20) if t19 >= 0 <= t20 else _binom(t19, t20))
            n22 = (k16 * n3 * n1 + k17 * n3 * n2 + k18 * k19 * n1 * n1 + k20 * n3 + k21 * k22 * n1 + n2 + k23 * k24) * n21
            t23 = k42 * n2 + k43 * n4
            if not t23: raise PoleError('division by zero')
            n24 = (-1 if n4 % 2 else 1)
            d25 = t23
            if d25 < 0: n24 = -n24; d25 = -d25
            t26 = k44 * n2 + k45 * n3
            n27 = n24 * (_comb(t26, n4) if t26 >= 0 <= n4 else _binom(t26, n4))
            t28 = k46 * n2 + k47 * n4 + k48 * k49 + k50 * (n1 + k51)
            t29 = n2 + k52 * (n1 + k53)
            n30 = n27 * (_comb(t28, t29) if t28 >= 0 <= t29 else _binom(t28, t29))
            n31 = k37 * (n1 + k38) * (n3 + k39 * n1 + k40 * k41) * n30
            if d7 == d16: n32 = n13 + n22; d33 = d7
            else: n32 = n13 * d16 + n22 * d7; d33 = d7 * d16
            if d33 == d25: n34 = n32 + n31; d35 = d33
            else: n34 = n32 * d25 + n31 * d33; d35 = d33 * d25
            return n34 if d35 == 1 else _value(n34, d35)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make97(general, k0, k1):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            return n1 + k0 * k1
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make98(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24):
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
            t5 = n4 + k5 + k6 * (n2 + k7)
            if not t5: raise PoleError('division by zero')
            n6 = (n1 + k0 * (n2 + k1)) * (k2 * n3 + n4 + k3 * (n2 + k4))
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            t8 = n1 + k9 * (n2 + k10) + k11 * k12
            t9 = n4 + k13 * (n2 + k14)
            n10 = n6 * (-1 if (n2 + k8) % 2 else 1) * (_comb(t8, n3) if t8 >= 0 <= n3 else _binom(t8, n3)) * (_comb(n3, t9) if n3 >= 0 <= t9 else _binom(n3, t9))
            t11 = n4 + k19 + k20 * n2
            if not t11: raise PoleError('division by zero')
            n12 = (n1 + k16 * n2) * (k17 * n3 + n4 + k18 * n2)
            d13 = t11
            if d13 < 0: n12 = -n12; d13 = -d13
            t14 = n1 + k21 * n2 + k22 * k23
            t15 = n4 + k24 * n2
            n16 = n12 * (-1 if n2 % 2 else 1) * (_comb(t14, n3) if t14 >= 0 <= n3 else _binom(t14, n3)) * (_comb(n3, t15) if n3 >= 0 <= t15 else _binom(n3, t15))
            n17 = k15 * n16
            if d7 == d13: n18 = n10 + n17; d19 = d7
            else: n18 = n10 * d13 + n17 * d7; d19 = d7 * d13
            return n18 if d19 == 1 else _value(n18, d19)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make99(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            t4 = n1 + k3 * n3 + k4 * k5
            n5 = env['s']
            if type(n5) is not int: return general(env)
            t6 = n2 + k6 * n3
            t7 = n1 + k10 * n3 + k11 * k12
            t8 = n2 + k13 + k14 * n3
            return (n1 + k0 * n2 + k1 * k2) * (-1 if n3 % 2 else 1) * (_comb(t4, n5) if t4 >= 0 <= n5 else _binom(t4, n5)) * (_comb(n5, t6) if n5 >= 0 <= t6 else _binom(n5, t6)) + (n1 + k7 * n2 + k8 * k9) * (-1 if n3 % 2 else 1) * (_comb(t7, n5) if t7 >= 0 <= n5 else _binom(t7, n5)) * (_comb(n5, t8) if n5 >= 0 <= t8 else _binom(n5, t8))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make100(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30):
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
            t5 = n4 + k4
            if not t5: raise PoleError('division by zero')
            n6 = (-1 if (n1 + n2 + n3 + n4 + k0) % 2 else 1) * (n1 + n4 + k1 + k2 * k3)
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            t8 = k5 * n1 + k6 * k7 + k8 * n3
            t9 = n1 + n4 + k9 + k10 * k11
            n10 = n6 * (_comb(t8, t9) if t8 >= 0 <= t9 else _binom(t8, t9))
            t11 = n4 + k12 + k13 * k14
            n12 = n10 * (_comb(n1, t11) if n1 >= 0 <= t11 else _binom(n1, t11))
            t13 = n2 + k15 * n3
            n14 = n12 * (_comb(n1, t13) if n1 >= 0 <= t13 else _binom(n1, t13))
            t15 = n1 + k16 * n3
            t16 = n4 + k17
            t17 = (_comb(t15, t16) if t15 >= 0 <= t16 else _binom(t15, t16))
            if not t17: raise PoleError('division by zero')
            n18 = n14
            d19 = t17 * d7
            if d19 < 0: n18 = -n18; d19 = -d19
            if not n4: raise PoleError('division by zero')
            n20 = (-1 if (n1 + n2 + n3 + n4) % 2 else 1) * (n1 + n4 + k19 * k20)
            d21 = n4
            if d21 < 0: n20 = -n20; d21 = -d21
            t22 = k21 * n1 + k22 * k23 + k24 * n3
            t23 = n1 + n4 + k25 * k26
            n24 = n20 * (_comb(t22, t23) if t22 >= 0 <= t23 else _binom(t22, t23))
            t25 = n4 + k27 * k28
            n26 = n24 * (_comb(n1, t25) if n1 >= 0 <= t25 else _binom(n1, t25))
            t27 = n2 + k29 * n3
            n28 = n26 * (_comb(n1, t27) if n1 >= 0 <= t27 else _binom(n1, t27))
            t29 = n1 + k30 * n3
            t30 = (_comb(t29, n4) if t29 >= 0 <= n4 else _binom(t29, n4))
            if not t30: raise PoleError('division by zero')
            n31 = n28
            d32 = t30 * d21
            if d32 < 0: n31 = -n31; d32 = -d32
            n33 = k18 * n31
            if d19 == d32: n34 = n18 + n33; d35 = d19
            else: n34 = n18 * d32 + n33 * d19; d35 = d19 * d32
            return n34 if d35 == 1 else _value(n34, d35)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make101(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12):
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
            n5 = (-1 if (n1 + n2) % 2 else 1) * k1 * n1 * (-1 if (n3 + n4 + k2) % 2 else 1)
            d6 = n4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k3 * n1 + k4 * n3 + k5 * k6
            t8 = n1 + n4 + k7 * k8
            n9 = n5 * (_comb(t7, t8) if t7 >= 0 <= t8 else _binom(t7, t8))
            t10 = n4 + k9 * k10
            n11 = n9 * (_comb(n1, t10) if n1 >= 0 <= t10 else _binom(n1, t10))
            t12 = n2 + k11 * n3
            n13 = n11 * (_comb(n1, t12) if n1 >= 0 <= t12 else _binom(n1, t12))
            t14 = n1 + k12 * n3
            t15 = (_comb(t14, n4) if t14 >= 0 <= n4 else _binom(t14, n4))
            if not t15: raise PoleError('division by zero')
            n16 = n13
            d17 = t15 * d6
            if d17 < 0: n16 = -n16; d17 = -d17
            n18 = k0 * n16
            return n18 if d17 == 1 else _value(n18, d17)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make102(general, k0, k1, k2, k3, k4, k5, k6, k7, k8):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k1, n1 + 1):
                n5 = env['j']
                if type(n5) is not int: return general(env)
                t6 = n5 + k2 * i4
                t7 = k3 * n1 + k4 * k5 + k6 * i4
                t8 = n1 + k7 * k8
                n2 += (-1 if (n1 + i4 + n5) % 2 else 1) * (_comb(n1, t6) if n1 >= 0 <= t6 else _binom(n1, t6)) * (_comb(t7, t8) if t7 >= 0 <= t8 else _binom(t7, t8))
            return k0 * n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make103(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['j']
            if type(n3) is not int: return general(env)
            t4 = n3 + k1 * k2 * n1
            if not t4: raise PoleError('division by zero')
            n5 = (-1 if (n1 + n2 + k0 + n3) % 2 else 1) * n1
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k3 * n1 + k4 * (n2 + k5)
            n8 = n5 * (_comb(t7, n1) if t7 >= 0 <= n1 else _binom(t7, n1))
            t9 = n1 + k6 * k7
            t10 = n3 + k8 * (n2 + k9)
            n11 = n8 * (_comb(t9, t10) if t9 >= 0 <= t10 else _binom(t9, t10))
            t12 = n3 + k11 * k12 * n1
            if not t12: raise PoleError('division by zero')
            n13 = (-1 if (n1 + n2 + n3) % 2 else 1) * n1
            d14 = t12
            if d14 < 0: n13 = -n13; d14 = -d14
            t15 = k13 * n1 + k14 * n2
            n16 = n13 * (_comb(t15, n1) if t15 >= 0 <= n1 else _binom(t15, n1))
            t17 = n1 + k15 * k16
            t18 = n3 + k17 * n2
            n19 = n16 * (_comb(t17, t18) if t17 >= 0 <= t18 else _binom(t17, t18))
            n20 = k10 * n19
            if d6 == d14: n21 = n11 + n20; d22 = d6
            else: n21 = n11 * d14 + n20 * d6; d22 = d6 * d14
            return n21 if d22 == 1 else _value(n21, d22)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make104(general, k0, k1, k2, k3, k4, k5, k6, k7):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['j']
            if type(n3) is not int: return general(env)
            t4 = n3 + k1 * n2
            t5 = k2 * n1 + k3 * k4 + k5 * n2
            t6 = n1 + k6 * k7
            return k0 * (-1 if (n1 + n2 + n3) % 2 else 1) * (_comb(n1, t4) if n1 >= 0 <= t4 else _binom(n1, t4)) * (_comb(t5, t6) if t5 >= 0 <= t6 else _binom(t5, t6))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make96,
    _make97,
    _make98,
    _make99,
    _make100,
    _make101,
    _make102,
    _make103,
    _make104,
)
