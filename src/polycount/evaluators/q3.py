"""Evaluator factories of shapes that the q3/* pointwise checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make58(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12):
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
                t11 = k7 * n1 + k8 * i5 + k9 * n2
                t12 = k10 * n1 + k11 * n2 + k12
                n13 = n10 * (_comb(t11, t12) if t11 >= 0 <= t12 else _binom(t11, t12))
                if d8 == d4: n3 += n13
                elif not n3: n3 = n13; d4 = d8
                else: n3 = n3 * d8 + n13 * d4; d4 *= d8
            return n3 if d4 == 1 else _value(n3, d4)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make59(general, k0, k1, k2, k3, k4, k5, k6, k7, k8):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            t3 = k1 * n1 + k2 * n2 + k3
            if not t3: raise PoleError('division by zero')
            n4 = k0
            d5 = t3
            if d5 < 0: n4 = -n4; d5 = -d5
            t6 = n2 + k5 * n1 + k6 * k7
            t7 = k8 * n1
            t8 = n2 * (_comb(t7, n2) if t7 >= 0 <= n2 else _binom(t7, n2))
            if not t8: raise PoleError('division by zero')
            n9 = (_comb(n1, t6) if n1 >= 0 <= t6 else _binom(n1, t6))
            d10 = t8
            if d10 < 0: n9 = -n9; d10 = -d10
            n11 = k4 * n9
            if d5 == d10: n12 = n4 + n11; d13 = d5
            else: n12 = n4 * d10 + n11 * d5; d13 = d5 * d10
            return n12 if d13 == 1 else _value(n12, d13)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make60(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = 0; d4 = 1
            for i5 in range(k1, n1 + k2 * n2 + 1):
                if not i5: raise PoleError('division by zero')
                n6 = (-1 if (i5 + k3) % 2 else 1)
                d7 = i5
                if d7 < 0: n6 = -n6; d7 = -d7
                n8 = env['i']
                if type(n8) is not int: return general(env)
                t9 = n8 + k4 * n2 + k5 * k6
                t10 = n1 + i5 + k7 * k8
                n11 = n6 * (_comb(t9, t10) if t9 >= 0 <= t10 else _binom(t9, t10))
                t12 = i5 + k9 * k10
                n13 = n11 * (_comb(n1, t12) if n1 >= 0 <= t12 else _binom(n1, t12))
                t14 = n1 + k11 * n2
                t15 = (_comb(t14, i5) if t14 >= 0 <= i5 else _binom(t14, i5))
                if not t15: raise PoleError('division by zero')
                n16 = n13
                d17 = t15 * d7
                if d17 < 0: n16 = -n16; d17 = -d17
                if d17 == d4: n3 += n16
                elif not n3: n3 = n16; d4 = d17
                else: n3 = n3 * d17 + n16 * d4; d4 *= d17
            n18 = (n1 + k0 * n2) * n3
            n19 = 0; d20 = 1
            for i21 in range(k13, n1 + k14 * (n2 + k15) + 1):
                if not i21: raise PoleError('division by zero')
                n22 = (-1 if (i21 + k16) % 2 else 1)
                d23 = i21
                if d23 < 0: n22 = -n22; d23 = -d23
                n24 = env['i']
                if type(n24) is not int: return general(env)
                t25 = n24 + k17 * (n2 + k18) + k19 * k20
                t26 = n1 + i21 + k21 * k22
                n27 = n22 * (_comb(t25, t26) if t25 >= 0 <= t26 else _binom(t25, t26))
                t28 = i21 + k23 * k24
                n29 = n27 * (_comb(n1, t28) if n1 >= 0 <= t28 else _binom(n1, t28))
                t30 = n1 + k25 * (n2 + k26)
                t31 = (_comb(t30, i21) if t30 >= 0 <= i21 else _binom(t30, i21))
                if not t31: raise PoleError('division by zero')
                n32 = n29
                d33 = t31 * d23
                if d33 < 0: n32 = -n32; d33 = -d33
                if d33 == d20: n19 += n32
                elif not n19: n19 = n32; d20 = d33
                else: n19 = n19 * d33 + n32 * d20; d20 *= d33
            n34 = (n2 + k12) * n19
            if d4 == d20: n35 = n18 + n34; d36 = d4
            else: n35 = n18 * d20 + n34 * d4; d36 = d4 * d20
            return n35 if d36 == 1 else _value(n35, d36)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make61(general, k0, k1, k2, k3, k4, k5):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            t4 = n2 + k0 * n3 + k1 * k2
            t5 = n2 + k3 * n3 + k4 * k5
            if not t5: raise PoleError('division by zero')
            n6 = n1 * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1))
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            return n6 if d7 == 1 else _value(n6, d7)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make62(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = 0; d4 = 1
            for i5 in range(k0, n1 + k1 * n2 + 1):
                if not i5: raise PoleError('division by zero')
                n6 = (-1 if (i5 + k2) % 2 else 1)
                d7 = i5
                if d7 < 0: n6 = -n6; d7 = -d7
                n8 = env['i']
                if type(n8) is not int: return general(env)
                t9 = n8 + k3 * n2 + k4 * k5
                t10 = n1 + i5 + k6 * k7
                n11 = n6 * (_comb(t9, t10) if t9 >= 0 <= t10 else _binom(t9, t10))
                t12 = i5 + k8 * k9
                n13 = n11 * (_comb(n1, t12) if n1 >= 0 <= t12 else _binom(n1, t12))
                t14 = n1 + k10 * n2
                t15 = (_comb(t14, i5) if t14 >= 0 <= i5 else _binom(t14, i5))
                if not t15: raise PoleError('division by zero')
                n16 = n13
                d17 = t15 * d7
                if d17 < 0: n16 = -n16; d17 = -d17
                if d17 == d4: n3 += n16
                elif not n3: n3 = n16; d4 = d17
                else: n3 = n3 * d17 + n16 * d4; d4 *= d17
            return n3 if d4 == 1 else _value(n3, d4)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make63(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = env['j']
            if type(n3) is not int: return general(env)
            t4 = k0 * n1
            n5 = 0; d6 = 1
            for i7 in range(k1, n1 + 1):
                n8 = 0; d9 = 1
                for i10 in range(k2, n1 + k3 * i7 + 1):
                    if not i10: raise PoleError('division by zero')
                    n11 = (-1 if (i7 + i10 + k4) % 2 else 1)
                    d12 = i10
                    if d12 < 0: n11 = -n11; d12 = -d12
                    t13 = n2 + k5 * i7 + k6 * k7
                    t14 = n1 + i10 + k8 * k9
                    n15 = n11 * (_comb(t13, t14) if t13 >= 0 <= t14 else _binom(t13, t14))
                    t16 = i10 + k10 * k11
                    n17 = n15 * (_comb(n1, t16) if n1 >= 0 <= t16 else _binom(n1, t16))
                    t18 = n3 + k12 * i7
                    n19 = n17 * (_comb(n1, t18) if n1 >= 0 <= t18 else _binom(n1, t18))
                    t20 = n1 + k13 * i7
                    t21 = (_comb(t20, i10) if t20 >= 0 <= i10 else _binom(t20, i10))
                    if not t21: raise PoleError('division by zero')
                    n22 = n19
                    d23 = t21 * d12
                    if d23 < 0: n22 = -n22; d23 = -d23
                    if d23 == d9: n8 += n22
                    elif not n8: n8 = n22; d9 = d23
                    else: n8 = n8 * d23 + n22 * d9; d9 *= d23
                if d9 == d6: n5 += n8
                elif not n5: n5 = n8; d6 = d9
                else: n5 = n5 * d9 + n8 * d6; d6 *= d9
            n24 = (-1 if (n1 + n2 + n3) % 2 else 1) * n2 * (_comb(t4, n2) if t4 >= 0 <= n2 else _binom(t4, n2)) * n5
            return n24 if d6 == 1 else _value(n24, d6)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make64(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = env['j']
            if type(n3) is not int: return general(env)
            t4 = k2 * n1
            t5 = n2 + k3
            n6 = 0; d7 = 1
            for i8 in range(k4, n1 + 1):
                n9 = 0; d10 = 1
                for i11 in range(k5, n1 + k6 * i8 + 1):
                    if not i11: raise PoleError('division by zero')
                    n12 = (-1 if (i8 + i11 + k7) % 2 else 1)
                    d13 = i11
                    if d13 < 0: n12 = -n12; d13 = -d13
                    t14 = n2 + k8 + k9 * i8 + k10 * k11
                    t15 = n1 + i11 + k12 * k13
                    n16 = n12 * (_comb(t14, t15) if t14 >= 0 <= t15 else _binom(t14, t15))
                    t17 = i11 + k14 * k15
                    n18 = n16 * (_comb(n1, t17) if n1 >= 0 <= t17 else _binom(n1, t17))
                    t19 = n3 + k16 * i8
                    n20 = n18 * (_comb(n1, t19) if n1 >= 0 <= t19 else _binom(n1, t19))
                    t21 = n1 + k17 * i8
                    t22 = (_comb(t21, i11) if t21 >= 0 <= i11 else _binom(t21, i11))
                    if not t22: raise PoleError('division by zero')
                    n23 = n20
                    d24 = t22 * d13
                    if d24 < 0: n23 = -n23; d24 = -d24
                    if d24 == d10: n9 += n23
                    elif not n9: n9 = n23; d10 = d24
                    else: n9 = n9 * d24 + n23 * d10; d10 *= d24
                if d10 == d7: n6 += n9
                elif not n6: n6 = n9; d7 = d10
                else: n6 = n6 * d10 + n9 * d7; d7 *= d10
            n25 = (-1 if (n1 + n2 + k0 + n3) % 2 else 1) * (n2 + k1) * (_comb(t4, t5) if t4 >= 0 <= t5 else _binom(t4, t5)) * n6
            t26 = k19 * n1
            n27 = 0; d28 = 1
            for i29 in range(k20, n1 + 1):
                n30 = 0; d31 = 1
                for i32 in range(k21, n1 + k22 * i29 + 1):
                    if not i32: raise PoleError('division by zero')
                    n33 = (-1 if (i29 + i32 + k23) % 2 else 1)
                    d34 = i32
                    if d34 < 0: n33 = -n33; d34 = -d34
                    t35 = n2 + k24 * i29 + k25 * k26
                    t36 = n1 + i32 + k27 * k28
                    n37 = n33 * (_comb(t35, t36) if t35 >= 0 <= t36 else _binom(t35, t36))
                    t38 = i32 + k29 * k30
                    n39 = n37 * (_comb(n1, t38) if n1 >= 0 <= t38 else _binom(n1, t38))
                    t40 = n3 + k31 * i29
                    n41 = n39 * (_comb(n1, t40) if n1 >= 0 <= t40 else _binom(n1, t40))
                    t42 = n1 + k32 * i29
                    t43 = (_comb(t42, i32) if t42 >= 0 <= i32 else _binom(t42, i32))
                    if not t43: raise PoleError('division by zero')
                    n44 = n41
                    d45 = t43 * d34
                    if d45 < 0: n44 = -n44; d45 = -d45
                    if d45 == d31: n30 += n44
                    elif not n30: n30 = n44; d31 = d45
                    else: n30 = n30 * d45 + n44 * d31; d31 *= d45
                if d31 == d28: n27 += n30
                elif not n27: n27 = n30; d28 = d31
                else: n27 = n27 * d31 + n30 * d28; d28 *= d31
            n46 = (-1 if (n1 + n2 + n3) % 2 else 1) * n2 * (_comb(t26, n2) if t26 >= 0 <= n2 else _binom(t26, n2)) * n27
            n47 = k18 * n46
            if d7 == d28: n48 = n25 + n47; d49 = d7
            else: n48 = n25 * d28 + n47 * d7; d49 = d7 * d28
            return n48 if d49 == 1 else _value(n48, d49)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make65(general, k0, k1):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = k1 * n2
            n4 = env['i']
            if type(n4) is not int: return general(env)
            return (-1 if (n1 + k0) % 2 else 1) * (_comb(t3, n4) if t3 >= 0 <= n4 else _binom(t3, n4))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make66(general, k0, k1):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = k1 * n2
            return (-1 if (n1 + k0) % 2 else 1) * (_comb(t3, n1) if t3 >= 0 <= n1 else _binom(t3, n1))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make67(general, k0, k1, k2, k3):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            n3 = env['j']
            if type(n3) is not int: return general(env)
            t4 = k0 * n1
            n5 = 0; d6 = 1
            for i7 in range(k1, n1 + 1):
                if not n2: raise PoleError('division by zero')
                n8 = (-1 if (n1 + n2 + i7) % 2 else 1)
                d9 = n2
                if d9 < 0: n8 = -n8; d9 = -d9
                n10 = n8 * (_comb(n1, i7) if n1 >= 0 <= i7 else _binom(n1, i7))
                t11 = k2 * n1
                t12 = (_comb(t11, n2) if t11 >= 0 <= n2 else _binom(t11, n2))
                if not t12: raise PoleError('division by zero')
                n13 = n10
                d14 = t12 * d9
                if d14 < 0: n13 = -n13; d14 = -d14
                n15 = (-1 if i7 % 2 else 1) * n13
                t16 = n3 + k3 * i7
                n17 = n15 * (_comb(n1, t16) if n1 >= 0 <= t16 else _binom(n1, t16))
                if d14 == d6: n5 += n17
                elif not n5: n5 = n17; d6 = d14
                else: n5 = n5 * d14 + n17 * d6; d6 *= d14
            n18 = (-1 if (n1 + n2 + n3) % 2 else 1) * n2 * (_comb(t4, n2) if t4 >= 0 <= n2 else _binom(t4, n2)) * n5
            return n18 if d6 == 1 else _value(n18, d6)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make68(general, k0):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = k0 * n2
            return (-1 if n1 % 2 else 1) * (_comb(t3, n1) if t3 >= 0 <= n1 else _binom(t3, n1))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make69(general, k0, k1):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = 0
            for i5 in range(n1 + k0 * n2, n2 + 1):
                n6 = env['i']
                if type(n6) is not int: return general(env)
                t7 = n6 + k1 * i5
                n3 += (_comb(n2, i5) if n2 >= 0 <= i5 else _binom(n2, i5)) * (_comb(n2, t7) if n2 >= 0 <= t7 else _binom(n2, t7))
            return n3
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make70(general, k0, k1, k2, k3, k4, k5, k6, k7):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = n1 + k1 * n3 + k2 * n2
            if not t4: raise PoleError('division by zero')
            n5 = (-1 if (n1 + k0 + n2) % 2 else 1) * n3
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k3 * n3
            n8 = n5 * (_comb(t7, n1) if t7 >= 0 <= n1 else _binom(t7, n1))
            t9 = n1 + k4 * n2 + k5 * k6
            n10 = n8 * (_comb(t9, n3) if t9 >= 0 <= n3 else _binom(t9, n3))
            n11 = env['j']
            if type(n11) is not int: return general(env)
            t12 = n11 + k7 * n2
            n13 = n10 * (_comb(n3, t12) if n3 >= 0 <= t12 else _binom(n3, t12))
            return n13 if d6 == 1 else _value(n13, d6)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make71(general, k0, k1, k2, k3, k4, k5, k6, k7):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k1 * n3
            t5 = n1 + k2 * n2 + k3 * k4
            t6 = n3 + k5 * k6
            n7 = env['j']
            if type(n7) is not int: return general(env)
            t8 = n7 + k7 * n2
            return (-1 if (n1 + n2 + k0) % 2 else 1) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1)) * (_comb(t5, t6) if t5 >= 0 <= t6 else _binom(t5, t6)) * (_comb(n3, t8) if n3 >= 0 <= t8 else _binom(n3, t8))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make72(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = 0
            for i5 in range(k2, n2 + k3 * k4 + 1):
                t6 = k6 * n2
                t7 = n1 + k7 * i5 + k8 * k9
                t8 = n2 + k10 * k11
                t9 = n1 + k12 * i5
                n3 += (-1 if (n1 + i5 + k5) % 2 else 1) * (_comb(t6, n1) if t6 >= 0 <= n1 else _binom(t6, n1)) * (_comb(t7, t8) if t7 >= 0 <= t8 else _binom(t7, t8)) * (_comb(n2, t9) if n2 >= 0 <= t9 else _binom(n2, t9))
            n10 = 0
            for i12 in range(k14, n2 + k15 * k16 + 1):
                t13 = k19 * n2
                t14 = n1 + k20
                t15 = n1 + k21 + k22 * i12 + k23 * k24
                t16 = n2 + k25 * k26
                t17 = n1 + k27 + k28 * i12
                n10 += (-1 if (n1 + k17 + i12 + k18) % 2 else 1) * (_comb(t13, t14) if t13 >= 0 <= t14 else _binom(t13, t14)) * (_comb(t15, t16) if t15 >= 0 <= t16 else _binom(t15, t16)) * (_comb(n2, t17) if n2 >= 0 <= t17 else _binom(n2, t17))
            return (n1 + k0 * k1 * n2) * n3 + (n1 + k13) * n10
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make73(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + k1 * k2 + 1):
                n5 = env['i']
                if type(n5) is not int: return general(env)
                t6 = k4 * n1
                t7 = n5 + k5 * i4 + k6 * k7
                t8 = n1 + k8 * k9
                t9 = n5 + k10 * i4
                n2 += (-1 if (n5 + i4 + k3) % 2 else 1) * (_comb(t6, n5) if t6 >= 0 <= n5 else _binom(t6, n5)) * (_comb(t7, t8) if t7 >= 0 <= t8 else _binom(t7, t8)) * (_comb(n1, t9) if n1 >= 0 <= t9 else _binom(n1, t9))
            return n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make74(general, k0, k1):
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


def _make75(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12):
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


def _make76(general, k0):
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


def _make77(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11):
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


def _make78(general, k0, k1, k2, k3, k4, k5, k6):
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


def _make79(general):
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


def _make80(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13):
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


def _make81(general, k0, k1, k2, k3, k4, k5, k6, k7, k8):
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


FACTORIES = (
    _make58,
    _make59,
    _make60,
    _make61,
    _make62,
    _make63,
    _make64,
    _make65,
    _make66,
    _make67,
    _make68,
    _make69,
    _make70,
    _make71,
    _make72,
    _make73,
    _make74,
    _make75,
    _make76,
    _make77,
    _make78,
    _make79,
    _make80,
    _make81,
)
