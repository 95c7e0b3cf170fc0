"""Evaluator factories of shapes that the double-gf/* pointwise checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make22(general, k0, k1, k2, k3, k4):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k0, k1 * n1 + 1):
                t5 = k4 * n1
                n6 = env['t']
                if type(n6) is not int: return general(env)
                n7 = env['z']
                if type(n7) is not int: return general(env)
                if i4 >= 0: n8 = n7 ** i4; d9 = 1
                elif not n7: raise PoleError('zero base with negative exponent')
                else:
                    n8 = 1; d9 = n7 ** -i4
                    if d9 < 0: n8 = -n8; d9 = -d9
                n10 = (-1 if i4 % 2 else 1) * (k2 * n1 + k3 * i4) * (_comb(t5, i4) if t5 >= 0 <= i4 else _binom(t5, i4)) * (_comb(i4, n6) if i4 >= 0 <= n6 else _binom(i4, n6)) * n8
                if d9 == d3: n2 += n10
                elif not n2: n2 = n10; d3 = d9
                else: n2 = n2 * d9 + n10 * d3; d3 *= d9
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make23(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['z']
            if type(n2) is not int: return general(env)
            n3 = env['t']
            if type(n3) is not int: return general(env)
            if n3 >= 0: n4 = n2 ** n3; d5 = 1
            elif not n2: raise PoleError('zero base with negative exponent')
            else:
                n4 = 1; d5 = n2 ** -n3
                if d5 < 0: n4 = -n4; d5 = -d5
            n6 = k0 * n1 * n4
            t7 = n2 + k1 * k2
            t8 = k3 * n1 + k4 * n3 + k5 * k6
            if t8 >= 0: n9 = t7 ** t8; d10 = 1
            elif not t7: raise PoleError('zero base with negative exponent')
            else:
                n9 = 1; d10 = t7 ** -t8
                if d10 < 0: n9 = -n9; d10 = -d10
            n11 = n6 * n9
            d12 = d5 * d10
            t13 = k7 * n1 + k8 * k9
            n14 = n11 * (_comb(t13, n3) if t13 >= 0 <= n3 else _binom(t13, n3))
            return n14 if d12 == 1 else _value(n14, d12)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make24(k0, k1, k2, k3, k4):
    def term(env):
        try:
            n1 = env['s']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = k1 * n1
            q4 = n3 if d2 == 1 else _int(n3, d2, 'sum upper bound')
            n5 = 0; d6 = 1
            for i7 in range(k0, q4 + 1):
                n8 = k2 * n1
                n9 = n8 + k3 * i7 * d2
                n10 = (-1 if i7 % 2 else 1) * n9
                n11 = k4 * n1
                q12 = n11 if d2 == 1 else _int(n11, d2, 'binomial upper index')
                n13 = n10 * (_comb(q12, i7) if q12 >= 0 <= i7 else _binom(q12, i7))
                n14 = env['t']; d15 = 1
                if type(n14) is not int: n14, d15 = _pair(n14)
                q16 = n14 if d15 == 1 else _int(n14, d15, 'binomial lower index')
                n17 = n13 * (_comb(i7, q16) if i7 >= 0 <= q16 else _binom(i7, q16))
                n18 = env['z']; d19 = 1
                if type(n18) is not int: n18, d19 = _pair(n18)
                if i7 >= 0: n20 = n18 ** i7; d21 = d19 ** i7
                elif not n18: raise PoleError('zero base with negative exponent')
                else:
                    n20 = d19 ** -i7; d21 = n18 ** -i7
                    if d21 < 0: n20 = -n20; d21 = -d21
                n22 = n17 * n20
                d23 = d2 * d21
                if d23 == d6: n5 += n22
                elif not n5: n5 = n22; d6 = d23
                else: n5 = n5 * d23 + n22 * d6; d6 *= d23
            return n5 if d6 == 1 else _value(n5, d6)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make25(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9):
    def term(env):
        try:
            n1 = env['s']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = k0 * n1
            n4 = env['z']; d5 = 1
            if type(n4) is not int: n4, d5 = _pair(n4)
            n6 = env['t']; d7 = 1
            if type(n6) is not int: n6, d7 = _pair(n6)
            q8 = n6 if d7 == 1 else _int(n6, d7, 'exponent')
            if q8 >= 0: n9 = n4 ** q8; d10 = d5 ** q8
            elif not n4: raise PoleError('zero base with negative exponent')
            else:
                n9 = d5 ** -q8; d10 = n4 ** -q8
                if d10 < 0: n9 = -n9; d10 = -d10
            n11 = n3 * n9
            d12 = d2 * d10
            n13 = n4 + k1 * k2 * d5
            n14 = k3 * n1
            n15 = k4 * n6
            if d2 == d7: n16 = n14 + n15; d17 = d2
            else: n16 = n14 * d7 + n15 * d2; d17 = d2 * d7
            n18 = n16 + k5 * k6 * d17
            q19 = n18 if d17 == 1 else _int(n18, d17, 'exponent')
            if q19 >= 0: n20 = n13 ** q19; d21 = d5 ** q19
            elif not n13: raise PoleError('zero base with negative exponent')
            else:
                n20 = d5 ** -q19; d21 = n13 ** -q19
                if d21 < 0: n20 = -n20; d21 = -d21
            n22 = n11 * n20
            d23 = d12 * d21
            n24 = k7 * n1
            n25 = n24 + k8 * k9 * d2
            q26 = n25 if d2 == 1 else _int(n25, d2, 'binomial upper index')
            n27 = n22 * (_comb(q26, q8) if q26 >= 0 <= q8 else _binom(q26, q8))
            return n27 if d23 == 1 else _value(n27, d23)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make26(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k0, k1 * n1 + 1):
                n5 = env['z']
                if type(n5) is not int: return general(env)
                if i4 >= 0: n6 = n5 ** i4; d7 = 1
                elif not n5: raise PoleError('zero base with negative exponent')
                else:
                    n6 = 1; d7 = n5 ** -i4
                    if d7 < 0: n6 = -n6; d7 = -d7
                n8 = (-1 if i4 % 2 else 1) * n6
                t9 = n5 + k2 * k3
                t10 = k4 * n1 + k5 * i4 + k6 * k7
                if t10 >= 0: n11 = t9 ** t10; d12 = 1
                elif not t9: raise PoleError('zero base with negative exponent')
                else:
                    n11 = 1; d12 = t9 ** -t10
                    if d12 < 0: n11 = -n11; d12 = -d12
                n13 = n8 * n11
                d14 = d7 * d12
                t15 = k8 * n1
                n16 = n13 * (_comb(t15, i4) if t15 >= 0 <= i4 else _binom(t15, i4))
                n17 = env['x']
                if type(n17) is not int: return general(env)
                t18 = k9 + k10 * n17
                t19 = i4 + k11 * n1
                if t19 >= 0: n20 = t18 ** t19; d21 = 1
                elif not t18: raise PoleError('zero base with negative exponent')
                else:
                    n20 = 1; d21 = t18 ** -t19
                    if d21 < 0: n20 = -n20; d21 = -d21
                n22 = n16 * n20
                d23 = d14 * d21
                if d23 == d3: n2 += n22
                elif not n2: n2 = n22; d3 = d23
                else: n2 = n2 * d23 + n22 * d3; d3 *= d23
            return n2 if d3 == 1 else _value(n2, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make27(general, k0, k1, k2, k3, k4, k5, k6):
    def term(env):
        try:
            n1 = env['x']
            if type(n1) is not int: return general(env)
            n2 = env['z']
            if type(n2) is not int: return general(env)
            t3 = n1 * n2 + k0 * k1
            n4 = env['s']
            if type(n4) is not int: return general(env)
            t5 = k2 * n4
            if t5 >= 0: n6 = t3 ** t5; d7 = 1
            elif not t3: raise PoleError('zero base with negative exponent')
            else:
                n6 = 1; d7 = t3 ** -t5
                if d7 < 0: n6 = -n6; d7 = -d7
            t8 = k3 + k4 * n1
            if n4 >= 0: n9 = t8 ** n4; d10 = 1
            elif not t8: raise PoleError('zero base with negative exponent')
            else:
                n9 = 1; d10 = t8 ** -n4
                if d10 < 0: n9 = -n9; d10 = -d10
            n11 = n9 * (n2 + k5 * k6)
            if not n11: raise PoleError('division by zero')
            n12 = n6 * d10
            d13 = n11 * d7
            if d13 < 0: n12 = -n12; d13 = -d13
            return n12 if d13 == 1 else _value(n12, d13)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make28(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11):
    def term(env):
        try:
            n1 = env['s']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = k1 * n1
            q4 = n3 if d2 == 1 else _int(n3, d2, 'sum upper bound')
            n5 = 0; d6 = 1
            for i7 in range(k0, q4 + 1):
                n8 = env['z']; d9 = 1
                if type(n8) is not int: n8, d9 = _pair(n8)
                if i7 >= 0: n10 = n8 ** i7; d11 = d9 ** i7
                elif not n8: raise PoleError('zero base with negative exponent')
                else:
                    n10 = d9 ** -i7; d11 = n8 ** -i7
                    if d11 < 0: n10 = -n10; d11 = -d11
                n12 = (-1 if i7 % 2 else 1) * n10
                n13 = n8 + k2 * k3 * d9
                n14 = k4 * n1
                n15 = n14 + k5 * i7 * d2
                n16 = n15 + k6 * k7 * d2
                q17 = n16 if d2 == 1 else _int(n16, d2, 'exponent')
                if q17 >= 0: n18 = n13 ** q17; d19 = d9 ** q17
                elif not n13: raise PoleError('zero base with negative exponent')
                else:
                    n18 = d9 ** -q17; d19 = n13 ** -q17
                    if d19 < 0: n18 = -n18; d19 = -d19
                n20 = n12 * n18
                d21 = d11 * d19
                n22 = k8 * n1
                q23 = n22 if d2 == 1 else _int(n22, d2, 'binomial upper index')
                n24 = n20 * (_comb(q23, i7) if q23 >= 0 <= i7 else _binom(q23, i7))
                n25 = env['x']; d26 = 1
                if type(n25) is not int: n25, d26 = _pair(n25)
                n27 = k10 * n25
                n28 = n27 + k9 * d26
                n29 = k11 * n1
                n30 = n29 + i7 * d2
                q31 = n30 if d2 == 1 else _int(n30, d2, 'exponent')
                if q31 >= 0: n32 = n28 ** q31; d33 = d26 ** q31
                elif not n28: raise PoleError('zero base with negative exponent')
                else:
                    n32 = d26 ** -q31; d33 = n28 ** -q31
                    if d33 < 0: n32 = -n32; d33 = -d33
                n34 = n24 * n32
                d35 = d21 * d33
                if d35 == d6: n5 += n34
                elif not n5: n5 = n34; d6 = d35
                else: n5 = n5 * d35 + n34 * d6; d6 *= d35
            return n5 if d6 == 1 else _value(n5, d6)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make29(k0, k1, k2, k3, k4, k5, k6):
    def term(env):
        try:
            n1 = env['x']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = env['z']; d4 = 1
            if type(n3) is not int: n3, d4 = _pair(n3)
            n5 = n1 * n3
            d6 = d2 * d4
            n7 = n5 + k0 * k1 * d6
            n8 = env['s']; d9 = 1
            if type(n8) is not int: n8, d9 = _pair(n8)
            n10 = k2 * n8
            q11 = n10 if d9 == 1 else _int(n10, d9, 'exponent')
            if q11 >= 0: n12 = n7 ** q11; d13 = d6 ** q11
            elif not n7: raise PoleError('zero base with negative exponent')
            else:
                n12 = d6 ** -q11; d13 = n7 ** -q11
                if d13 < 0: n12 = -n12; d13 = -d13
            n14 = k4 * n1
            n15 = n14 + k3 * d2
            q16 = n8 if d9 == 1 else _int(n8, d9, 'exponent')
            if q16 >= 0: n17 = n15 ** q16; d18 = d2 ** q16
            elif not n15: raise PoleError('zero base with negative exponent')
            else:
                n17 = d2 ** -q16; d18 = n15 ** -q16
                if d18 < 0: n17 = -n17; d18 = -d18
            n19 = n3 + k5 * k6 * d4
            n20 = n17 * n19
            d21 = d18 * d4
            if not n20: raise PoleError('division by zero')
            n22 = n12 * d21
            d23 = n20 * d13
            if d23 < 0: n22 = -n22; d23 = -d23
            return n22 if d23 == 1 else _value(n22, d23)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make22,
    _make23,
    _make24,
    _make25,
    _make26,
    _make27,
    _make28,
    _make29,
)
