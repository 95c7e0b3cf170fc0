"""Evaluator factories of shapes that the appendix-b/* pointwise checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make0(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28):
    def term(env):
        try:
            n1 = env['vi']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k0, n1 + 1):
                n5 = 0; d6 = 1
                for i7 in range(k1, n1 + k2 * i4 + 1):
                    n8 = env['w']
                    if type(n8) is not int: return general(env)
                    t9 = i4 + k5 + i7
                    t10 = k7 * (i4 + k8) + k9 * i7
                    if k10 >= 0: n11 = t10 ** k10; d12 = 1
                    elif not t10: raise PoleError('zero base with negative exponent')
                    else:
                        n11 = 1; d12 = t10 ** -k10
                        if d12 < 0: n11 = -n11; d12 = -d12
                    n13 = n8 * n11
                    n14 = n13 + (k3 + k4 * n8) * (_comb(t9, k6) if t9 >= 0 <= k6 else _binom(t9, k6)) * d12
                    t15 = i4 + i7
                    t16 = k15 * i4 + k16 * i7
                    if k17 >= 0: n17 = t16 ** k17; d18 = 1
                    elif not t16: raise PoleError('zero base with negative exponent')
                    else:
                        n17 = 1; d18 = t16 ** -k17
                        if d18 < 0: n17 = -n17; d18 = -d18
                    n19 = n8 * n17
                    n20 = n19 + (k12 + k13 * n8) * (_comb(t15, k14) if t15 >= 0 <= k14 else _binom(t15, k14)) * d18
                    n21 = k11 * n20
                    if d12 == d18: n22 = n14 + n21; d23 = d12
                    else: n22 = n14 * d18 + n21 * d12; d23 = d12 * d18
                    t24 = k21 * (i7 + k22) + i4
                    n25 = n22 + ((k18 + k19 * n8) * i4 * (i7 + k20) + n8 * (_comb(t24, k23) if t24 >= 0 <= k23 else _binom(t24, k23))) * d23
                    t26 = k27 * i7 + i4
                    n27 = n25 + k24 * ((k25 + k26 * n8) * i4 * i7 + n8 * (_comb(t26, k28) if t26 >= 0 <= k28 else _binom(t26, k28))) * d23
                    if d23 == d6: n5 += n27
                    elif not n5: n5 = n27; d6 = d23
                    else: n5 = n5 * d23 + n27 * d6; d6 *= d23
                if d6 == d3: n2 += n5
                elif not n2: n2 = n5; d3 = d6
                else: n2 = n2 * d6 + n5 * d3; d3 *= d6
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make1(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33):
    def term(env):
        try:
            n1 = env['vi']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['w']
                if type(n5) is not int: return general(env)
                t6 = k5 * (n1 + k6 * i4 + k7) + i4
                t7 = k13 + i4
                n2 += (k1 + k2 * n5) * i4 * (n1 + k3 * i4 + k4) + n5 * (_comb(t6, k8) if t6 >= 0 <= k8 else _binom(t6, k8)) + k9 * ((k10 + k11 * n5) * i4 * k12 + n5 * (_comb(t7, k14) if t7 >= 0 <= k14 else _binom(t7, k14)))
            n8 = 0; d9 = 1
            for i10 in range(k15, n1 + 1):
                n11 = env['w']
                if type(n11) is not int: return general(env)
                t12 = n1 + k18 * i10 + k19 + i10
                t13 = k21 * (n1 + k22 * i10 + k23) + k24 * i10
                if k25 >= 0: n14 = t13 ** k25; d15 = 1
                elif not t13: raise PoleError('zero base with negative exponent')
                else:
                    n14 = 1; d15 = t13 ** -k25
                    if d15 < 0: n14 = -n14; d15 = -d15
                n16 = n11 * n14
                n17 = n16 + (k16 + k17 * n11) * (_comb(t12, k20) if t12 >= 0 <= k20 else _binom(t12, k20)) * d15
                t18 = k29 + i10
                t19 = k31 + k32 * i10
                if k33 >= 0: n20 = t19 ** k33; d21 = 1
                elif not t19: raise PoleError('zero base with negative exponent')
                else:
                    n20 = 1; d21 = t19 ** -k33
                    if d21 < 0: n20 = -n20; d21 = -d21
                n22 = n11 * n20
                n23 = n22 + (k27 + k28 * n11) * (_comb(t18, k30) if t18 >= 0 <= k30 else _binom(t18, k30)) * d21
                n24 = k26 * n23
                if d15 == d21: n25 = n17 + n24; d26 = d15
                else: n25 = n17 * d21 + n24 * d15; d26 = d15 * d21
                if d26 == d9: n8 += n25
                elif not n8: n8 = n25; d9 = d26
                else: n8 = n8 * d26 + n25 * d9; d9 *= d26
            n27 = n8 + n2 * d9
            return n27 if d9 == 1 else _value(n27, d9)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make2(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27):
    def term(env):
        try:
            n1 = env['vi']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k0, n1 + 1):
                n5 = env['vj']
                if type(n5) is not int: return general(env)
                n6 = 0; d7 = 1
                for i8 in range(k1, n5 + 1):
                    n9 = env['w']
                    if type(n9) is not int: return general(env)
                    t10 = i4 + k4 + i8
                    t11 = k6 * (i4 + k7) + k8 * i8
                    if k9 >= 0: n12 = t11 ** k9; d13 = 1
                    elif not t11: raise PoleError('zero base with negative exponent')
                    else:
                        n12 = 1; d13 = t11 ** -k9
                        if d13 < 0: n12 = -n12; d13 = -d13
                    n14 = n9 * n12
                    n15 = n14 + (k2 + k3 * n9) * (_comb(t10, k5) if t10 >= 0 <= k5 else _binom(t10, k5)) * d13
                    t16 = i4 + i8
                    t17 = k14 * i4 + k15 * i8
                    if k16 >= 0: n18 = t17 ** k16; d19 = 1
                    elif not t17: raise PoleError('zero base with negative exponent')
                    else:
                        n18 = 1; d19 = t17 ** -k16
                        if d19 < 0: n18 = -n18; d19 = -d19
                    n20 = n9 * n18
                    n21 = n20 + (k11 + k12 * n9) * (_comb(t16, k13) if t16 >= 0 <= k13 else _binom(t16, k13)) * d19
                    n22 = k10 * n21
                    if d13 == d19: n23 = n15 + n22; d24 = d13
                    else: n23 = n15 * d19 + n22 * d13; d24 = d13 * d19
                    t25 = k20 * (i8 + k21) + i4
                    n26 = n23 + ((k17 + k18 * n9) * i4 * (i8 + k19) + n9 * (_comb(t25, k22) if t25 >= 0 <= k22 else _binom(t25, k22))) * d24
                    t27 = k26 * i8 + i4
                    n28 = n26 + k23 * ((k24 + k25 * n9) * i4 * i8 + n9 * (_comb(t27, k27) if t27 >= 0 <= k27 else _binom(t27, k27))) * d24
                    if d24 == d7: n6 += n28
                    elif not n6: n6 = n28; d7 = d24
                    else: n6 = n6 * d24 + n28 * d7; d7 *= d24
                if d7 == d3: n2 += n6
                elif not n2: n2 = n6; d3 = d7
                else: n2 = n2 * d7 + n6 * d3; d3 *= d7
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make3(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29):
    def term(env):
        try:
            n1 = env['vi']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['w']
                if type(n5) is not int: return general(env)
                n6 = env['vj']
                if type(n6) is not int: return general(env)
                t7 = k4 * (n6 + k5) + i4
                t8 = k11 + i4
                n2 += (k1 + k2 * n5) * i4 * (n6 + k3) + n5 * (_comb(t7, k6) if t7 >= 0 <= k6 else _binom(t7, k6)) + k7 * ((k8 + k9 * n5) * i4 * k10 + n5 * (_comb(t8, k12) if t8 >= 0 <= k12 else _binom(t8, k12)))
            n9 = env['vj']
            if type(n9) is not int: return general(env)
            n10 = 0; d11 = 1
            for i12 in range(k13, n9 + 1):
                n13 = env['w']
                if type(n13) is not int: return general(env)
                t14 = n1 + k16 + i12
                t15 = k18 * (n1 + k19) + k20 * i12
                if k21 >= 0: n16 = t15 ** k21; d17 = 1
                elif not t15: raise PoleError('zero base with negative exponent')
                else:
                    n16 = 1; d17 = t15 ** -k21
                    if d17 < 0: n16 = -n16; d17 = -d17
                n18 = n13 * n16
                n19 = n18 + (k14 + k15 * n13) * (_comb(t14, k17) if t14 >= 0 <= k17 else _binom(t14, k17)) * d17
                t20 = k25 + i12
                t21 = k27 + k28 * i12
                if k29 >= 0: n22 = t21 ** k29; d23 = 1
                elif not t21: raise PoleError('zero base with negative exponent')
                else:
                    n22 = 1; d23 = t21 ** -k29
                    if d23 < 0: n22 = -n22; d23 = -d23
                n24 = n13 * n22
                n25 = n24 + (k23 + k24 * n13) * (_comb(t20, k26) if t20 >= 0 <= k26 else _binom(t20, k26)) * d23
                n26 = k22 * n25
                if d17 == d23: n27 = n19 + n26; d28 = d17
                else: n27 = n19 * d23 + n26 * d17; d28 = d17 * d23
                if d28 == d11: n10 += n27
                elif not n10: n10 = n27; d11 = d28
                else: n10 = n10 * d28 + n27 * d11; d11 *= d28
            n29 = n10 + n2 * d11
            return n29 if d11 == 1 else _value(n29, d11)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make4(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27):
    def term(env):
        try:
            n1 = env['vi']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k0, n1 + 1):
                n5 = 0; d6 = 1
                for i7 in range(k1, i4 + 1):
                    n8 = env['w']
                    if type(n8) is not int: return general(env)
                    t9 = i4 + k4 + i7
                    t10 = k6 * (i4 + k7) + k8 * i7
                    if k9 >= 0: n11 = t10 ** k9; d12 = 1
                    elif not t10: raise PoleError('zero base with negative exponent')
                    else:
                        n11 = 1; d12 = t10 ** -k9
                        if d12 < 0: n11 = -n11; d12 = -d12
                    n13 = n8 * n11
                    n14 = n13 + (k2 + k3 * n8) * (_comb(t9, k5) if t9 >= 0 <= k5 else _binom(t9, k5)) * d12
                    t15 = i4 + i7
                    t16 = k14 * i4 + k15 * i7
                    if k16 >= 0: n17 = t16 ** k16; d18 = 1
                    elif not t16: raise PoleError('zero base with negative exponent')
                    else:
                        n17 = 1; d18 = t16 ** -k16
                        if d18 < 0: n17 = -n17; d18 = -d18
                    n19 = n8 * n17
                    n20 = n19 + (k11 + k12 * n8) * (_comb(t15, k13) if t15 >= 0 <= k13 else _binom(t15, k13)) * d18
                    n21 = k10 * n20
                    if d12 == d18: n22 = n14 + n21; d23 = d12
                    else: n22 = n14 * d18 + n21 * d12; d23 = d12 * d18
                    t24 = k20 * (i7 + k21) + i4
                    n25 = n22 + ((k17 + k18 * n8) * i4 * (i7 + k19) + n8 * (_comb(t24, k22) if t24 >= 0 <= k22 else _binom(t24, k22))) * d23
                    t26 = k26 * i7 + i4
                    n27 = n25 + k23 * ((k24 + k25 * n8) * i4 * i7 + n8 * (_comb(t26, k27) if t26 >= 0 <= k27 else _binom(t26, k27))) * d23
                    if d23 == d6: n5 += n27
                    elif not n5: n5 = n27; d6 = d23
                    else: n5 = n5 * d23 + n27 * d6; d6 *= d23
                if d6 == d3: n2 += n5
                elif not n2: n2 = n5; d3 = d6
                else: n2 = n2 * d6 + n5 * d3; d3 *= d6
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make5(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28):
    def term(env):
        try:
            n1 = env['vi']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k0, n1 + 1):
                n5 = env['w']
                if type(n5) is not int: return general(env)
                t6 = k4 * (i4 + k5) + i4
                t7 = k11 + i4
                n2 += (k1 + k2 * n5) * i4 * (i4 + k3) + n5 * (_comb(t6, k6) if t6 >= 0 <= k6 else _binom(t6, k6)) + k7 * ((k8 + k9 * n5) * i4 * k10 + n5 * (_comb(t7, k12) if t7 >= 0 <= k12 else _binom(t7, k12)))
            n8 = 0; d9 = 1
            for i10 in range(k13, n1 + 1):
                n11 = env['w']
                if type(n11) is not int: return general(env)
                t12 = n1 + k16 + i10
                t13 = k18 * (n1 + k19) + k20 * i10
                if k21 >= 0: n14 = t13 ** k21; d15 = 1
                elif not t13: raise PoleError('zero base with negative exponent')
                else:
                    n14 = 1; d15 = t13 ** -k21
                    if d15 < 0: n14 = -n14; d15 = -d15
                n16 = n11 * n14
                n17 = n16 + (k14 + k15 * n11) * (_comb(t12, k17) if t12 >= 0 <= k17 else _binom(t12, k17)) * d15
                t18 = i10 + i10
                t19 = k26 * i10 + k27 * i10
                if k28 >= 0: n20 = t19 ** k28; d21 = 1
                elif not t19: raise PoleError('zero base with negative exponent')
                else:
                    n20 = 1; d21 = t19 ** -k28
                    if d21 < 0: n20 = -n20; d21 = -d21
                n22 = n11 * n20
                n23 = n22 + (k23 + k24 * n11) * (_comb(t18, k25) if t18 >= 0 <= k25 else _binom(t18, k25)) * d21
                n24 = k22 * n23
                if d15 == d21: n25 = n17 + n24; d26 = d15
                else: n25 = n17 * d21 + n24 * d15; d26 = d15 * d21
                if d26 == d9: n8 += n25
                elif not n8: n8 = n25; d9 = d26
                else: n8 = n8 * d26 + n25 * d9; d9 *= d26
            n27 = n8 + n2 * d9
            return n27 if d9 == 1 else _value(n27, d9)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make0,
    _make1,
    _make2,
    _make3,
    _make4,
    _make5,
)
