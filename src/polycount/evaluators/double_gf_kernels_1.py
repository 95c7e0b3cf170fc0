"""Evaluator factories of shapes that the double-gf/* telescoping checks and their mutants build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make30(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['z']
            if type(n3) is not int: return general(env)
            n4 = 0; d5 = 1
            for i6 in range(k5, k6 * n1 + 1):
                t7 = k9 * n1
                if i6 >= 0: n8 = n3 ** i6; d9 = 1
                elif not n3: raise PoleError('zero base with negative exponent')
                else:
                    n8 = 1; d9 = n3 ** -i6
                    if d9 < 0: n8 = -n8; d9 = -d9
                n10 = (-1 if i6 % 2 else 1) * (k7 * n1 + k8 * i6) * (_comb(t7, i6) if t7 >= 0 <= i6 else _binom(t7, i6)) * (_comb(i6, n2) if i6 >= 0 <= n2 else _binom(i6, n2)) * n8
                if d9 == d5: n4 += n10
                elif not n4: n4 = n10; d5 = d9
                else: n4 = n4 * d9 + n10 * d5; d5 *= d9
            n11 = k0 * (k1 * n1 + k2 * n2 + k3 * k4) * n3 * n4
            n12 = 0; d13 = 1
            for i14 in range(k13, k14 * n1 + 1):
                t15 = k17 * n1
                t16 = n2 + k18
                if i14 >= 0: n17 = n3 ** i14; d18 = 1
                elif not n3: raise PoleError('zero base with negative exponent')
                else:
                    n17 = 1; d18 = n3 ** -i14
                    if d18 < 0: n17 = -n17; d18 = -d18
                n19 = (-1 if i14 % 2 else 1) * (k15 * n1 + k16 * i14) * (_comb(t15, i14) if t15 >= 0 <= i14 else _binom(t15, i14)) * (_comb(i14, t16) if i14 >= 0 <= t16 else _binom(i14, t16)) * n17
                if d18 == d13: n12 += n19
                elif not n12: n12 = n19; d13 = d18
                else: n12 = n12 * d18 + n19 * d13; d13 *= d18
            n20 = (n3 + k10 * k11) * (n2 + k12) * n12
            if d5 == d13: n21 = n11 + n20; d22 = d5
            else: n21 = n11 * d13 + n20 * d5; d22 = d5 * d13
            return n21 if d22 == 1 else _value(n21, d22)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make31(general, k0):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            return k0 * n1
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make32(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k6 * n3
            t5 = n1 + k7
            t6 = n1 + k8
            n7 = env['z']
            if type(n7) is not int: return general(env)
            t8 = n1 + k9
            if t8 >= 0: n9 = n7 ** t8; d10 = 1
            elif not n7: raise PoleError('zero base with negative exponent')
            else:
                n9 = 1; d10 = n7 ** -t8
                if d10 < 0: n9 = -n9; d10 = -d10
            n11 = (-1 if (n1 + k2) % 2 else 1) * (k3 * n3 + k4 * (n1 + k5)) * (_comb(t4, t5) if t4 >= 0 <= t5 else _binom(t4, t5)) * (_comb(t6, n2) if t6 >= 0 <= n2 else _binom(t6, n2)) * n9
            n12 = (n1 + k0 + k1 * n2) * n11
            t13 = k14 * n3
            if n1 >= 0: n14 = n7 ** n1; d15 = 1
            elif not n7: raise PoleError('zero base with negative exponent')
            else:
                n14 = 1; d15 = n7 ** -n1
                if d15 < 0: n14 = -n14; d15 = -d15
            n16 = (-1 if n1 % 2 else 1) * (k12 * n3 + k13 * n1) * (_comb(t13, n1) if t13 >= 0 <= n1 else _binom(t13, n1)) * (_comb(n1, n2) if n1 >= 0 <= n2 else _binom(n1, n2)) * n14
            n17 = (n1 + k11 * n2) * n16
            n18 = k10 * n17
            if d10 == d15: n19 = n12 + n18; d20 = d10
            else: n19 = n12 * d15 + n18 * d10; d20 = d10 * d15
            return n19 if d20 == 1 else _value(n19, d20)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make33(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['z']
            if type(n3) is not int: return general(env)
            n4 = env['i']
            if type(n4) is not int: return general(env)
            t5 = k7 * n1
            if n4 >= 0: n6 = n3 ** n4; d7 = 1
            elif not n3: raise PoleError('zero base with negative exponent')
            else:
                n6 = 1; d7 = n3 ** -n4
                if d7 < 0: n6 = -n6; d7 = -d7
            n8 = (-1 if n4 % 2 else 1) * (k5 * n1 + k6 * n4) * (_comb(t5, n4) if t5 >= 0 <= n4 else _binom(t5, n4)) * (_comb(n4, n2) if n4 >= 0 <= n2 else _binom(n4, n2)) * n6
            n9 = k0 * (k1 * n1 + k2 * n2 + k3 * k4) * n3 * n8
            t10 = k13 * n1
            t11 = n2 + k14
            if n4 >= 0: n12 = n3 ** n4; d13 = 1
            elif not n3: raise PoleError('zero base with negative exponent')
            else:
                n12 = 1; d13 = n3 ** -n4
                if d13 < 0: n12 = -n12; d13 = -d13
            n14 = (-1 if n4 % 2 else 1) * (k11 * n1 + k12 * n4) * (_comb(t10, n4) if t10 >= 0 <= n4 else _binom(t10, n4)) * (_comb(n4, t11) if n4 >= 0 <= t11 else _binom(n4, t11)) * n12
            n15 = (n3 + k8 * k9) * (n2 + k10) * n14
            if d7 == d13: n16 = n9 + n15; d17 = d7
            else: n16 = n9 * d13 + n15 * d7; d17 = d7 * d13
            return n16 if d17 == 1 else _value(n16, d17)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make34(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14):
    def term(env):
        try:
            n1 = env['i']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = n1 + k0 * d2
            n4 = env['t']; d5 = 1
            if type(n4) is not int: n4, d5 = _pair(n4)
            n6 = k1 * n4
            if d2 == d5: n7 = n3 + n6; d8 = d2
            else: n7 = n3 * d5 + n6 * d2; d8 = d2 * d5
            n9 = n1 + k2 * d2
            q10 = n9 if d2 == 1 else _int(n9, d2, 'sign exponent')
            n11 = env['s']; d12 = 1
            if type(n11) is not int: n11, d12 = _pair(n11)
            n13 = k3 * n11
            n14 = n1 + k5 * d2
            n15 = k4 * n14
            if d12 == d2: n16 = n13 + n15; d17 = d12
            else: n16 = n13 * d2 + n15 * d12; d17 = d12 * d2
            n18 = (-1 if q10 % 2 else 1) * n16
            n19 = k6 * n11
            q20 = n19 if d12 == 1 else _int(n19, d12, 'binomial upper index')
            n21 = n1 + k7 * d2
            q22 = n21 if d2 == 1 else _int(n21, d2, 'binomial lower index')
            n23 = n18 * (_comb(q20, q22) if q20 >= 0 <= q22 else _binom(q20, q22))
            n24 = n1 + k8 * d2
            q25 = n24 if d2 == 1 else _int(n24, d2, 'binomial upper index')
            q26 = n4 if d5 == 1 else _int(n4, d5, 'binomial lower index')
            n27 = n23 * (_comb(q25, q26) if q25 >= 0 <= q26 else _binom(q25, q26))
            n28 = env['z']; d29 = 1
            if type(n28) is not int: n28, d29 = _pair(n28)
            n30 = n1 + k9 * d2
            q31 = n30 if d2 == 1 else _int(n30, d2, 'exponent')
            if q31 >= 0: n32 = n28 ** q31; d33 = d29 ** q31
            elif not n28: raise PoleError('zero base with negative exponent')
            else:
                n32 = d29 ** -q31; d33 = n28 ** -q31
                if d33 < 0: n32 = -n32; d33 = -d33
            n34 = n27 * n32
            d35 = d17 * d33
            n36 = n7 * n34
            d37 = d8 * d35
            n38 = k11 * n4
            if d2 == d5: n39 = n1 + n38; d40 = d2
            else: n39 = n1 * d5 + n38 * d2; d40 = d2 * d5
            q41 = n1 if d2 == 1 else _int(n1, d2, 'sign exponent')
            n42 = k12 * n11
            n43 = k13 * n1
            if d12 == d2: n44 = n42 + n43; d45 = d12
            else: n44 = n42 * d2 + n43 * d12; d45 = d12 * d2
            n46 = (-1 if q41 % 2 else 1) * n44
            n47 = k14 * n11
            q48 = n47 if d12 == 1 else _int(n47, d12, 'binomial upper index')
            n49 = n46 * (_comb(q48, q41) if q48 >= 0 <= q41 else _binom(q48, q41))
            n50 = n49 * (_comb(q41, q26) if q41 >= 0 <= q26 else _binom(q41, q26))
            if q41 >= 0: n51 = n28 ** q41; d52 = d29 ** q41
            elif not n28: raise PoleError('zero base with negative exponent')
            else:
                n51 = d29 ** -q41; d52 = n28 ** -q41
                if d52 < 0: n51 = -n51; d52 = -d52
            n53 = n50 * n51
            d54 = d45 * d52
            n55 = n39 * n53
            d56 = d40 * d54
            n57 = k10 * n55
            if d37 == d56: n58 = n36 + n57; d59 = d37
            else: n58 = n36 * d56 + n57 * d37; d59 = d37 * d56
            return n58 if d59 == 1 else _value(n58, d59)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make35(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14):
    def term(env):
        try:
            n1 = env['s']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = k1 * n1
            n4 = env['t']; d5 = 1
            if type(n4) is not int: n4, d5 = _pair(n4)
            n6 = k2 * n4
            if d2 == d5: n7 = n3 + n6; d8 = d2
            else: n7 = n3 * d5 + n6 * d2; d8 = d2 * d5
            n9 = n7 + k3 * k4 * d8
            n10 = k0 * n9
            n11 = env['z']; d12 = 1
            if type(n11) is not int: n11, d12 = _pair(n11)
            n13 = n10 * n11
            d14 = d8 * d12
            n15 = env['i']; d16 = 1
            if type(n15) is not int: n15, d16 = _pair(n15)
            q17 = n15 if d16 == 1 else _int(n15, d16, 'sign exponent')
            n18 = k5 * n1
            n19 = k6 * n15
            if d2 == d16: n20 = n18 + n19; d21 = d2
            else: n20 = n18 * d16 + n19 * d2; d21 = d2 * d16
            n22 = (-1 if q17 % 2 else 1) * n20
            n23 = k7 * n1
            q24 = n23 if d2 == 1 else _int(n23, d2, 'binomial upper index')
            n25 = n22 * (_comb(q24, q17) if q24 >= 0 <= q17 else _binom(q24, q17))
            q26 = n4 if d5 == 1 else _int(n4, d5, 'binomial lower index')
            n27 = n25 * (_comb(q17, q26) if q17 >= 0 <= q26 else _binom(q17, q26))
            if q17 >= 0: n28 = n11 ** q17; d29 = d12 ** q17
            elif not n11: raise PoleError('zero base with negative exponent')
            else:
                n28 = d12 ** -q17; d29 = n11 ** -q17
                if d29 < 0: n28 = -n28; d29 = -d29
            n30 = n27 * n28
            d31 = d21 * d29
            n32 = n13 * n30
            d33 = d14 * d31
            n34 = n11 + k8 * k9 * d12
            n35 = n4 + k10 * d5
            n36 = n34 * n35
            d37 = d12 * d5
            n38 = k11 * n1
            n39 = k12 * n15
            if d2 == d16: n40 = n38 + n39; d41 = d2
            else: n40 = n38 * d16 + n39 * d2; d41 = d2 * d16
            n42 = (-1 if q17 % 2 else 1) * n40
            n43 = k13 * n1
            q44 = n43 if d2 == 1 else _int(n43, d2, 'binomial upper index')
            n45 = n42 * (_comb(q44, q17) if q44 >= 0 <= q17 else _binom(q44, q17))
            n46 = n4 + k14 * d5
            q47 = n46 if d5 == 1 else _int(n46, d5, 'binomial lower index')
            n48 = n45 * (_comb(q17, q47) if q17 >= 0 <= q47 else _binom(q17, q47))
            if q17 >= 0: n49 = n11 ** q17; d50 = d12 ** q17
            elif not n11: raise PoleError('zero base with negative exponent')
            else:
                n49 = d12 ** -q17; d50 = n11 ** -q17
                if d50 < 0: n49 = -n49; d50 = -d50
            n51 = n48 * n49
            d52 = d41 * d50
            n53 = n36 * n51
            d54 = d37 * d52
            if d33 == d54: n55 = n32 + n53; d56 = d33
            else: n55 = n32 * d54 + n53 * d33; d56 = d33 * d54
            return n55 if d56 == 1 else _value(n55, d56)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make36(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18):
    def term(env):
        try:
            n1 = env['s']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = k1 * n1
            n4 = env['t']; d5 = 1
            if type(n4) is not int: n4, d5 = _pair(n4)
            n6 = k2 * n4
            if d2 == d5: n7 = n3 + n6; d8 = d2
            else: n7 = n3 * d5 + n6 * d2; d8 = d2 * d5
            n9 = n7 + k3 * k4 * d8
            n10 = k0 * n9
            n11 = env['z']; d12 = 1
            if type(n11) is not int: n11, d12 = _pair(n11)
            n13 = n10 * n11
            d14 = d8 * d12
            n15 = k6 * n1
            q16 = n15 if d2 == 1 else _int(n15, d2, 'sum upper bound')
            n17 = 0; d18 = 1
            for i19 in range(k5, q16 + 1):
                n20 = k7 * n1
                n21 = n20 + k8 * i19 * d2
                n22 = (-1 if i19 % 2 else 1) * n21
                n23 = k9 * n1
                q24 = n23 if d2 == 1 else _int(n23, d2, 'binomial upper index')
                n25 = n22 * (_comb(q24, i19) if q24 >= 0 <= i19 else _binom(q24, i19))
                q26 = n4 if d5 == 1 else _int(n4, d5, 'binomial lower index')
                n27 = n25 * (_comb(i19, q26) if i19 >= 0 <= q26 else _binom(i19, q26))
                if i19 >= 0: n28 = n11 ** i19; d29 = d12 ** i19
                elif not n11: raise PoleError('zero base with negative exponent')
                else:
                    n28 = d12 ** -i19; d29 = n11 ** -i19
                    if d29 < 0: n28 = -n28; d29 = -d29
                n30 = n27 * n28
                d31 = d2 * d29
                if d31 == d18: n17 += n30
                elif not n17: n17 = n30; d18 = d31
                else: n17 = n17 * d31 + n30 * d18; d18 *= d31
            n32 = n13 * n17
            d33 = d14 * d18
            n34 = n11 + k10 * k11 * d12
            n35 = n4 + k12 * d5
            n36 = n34 * n35
            d37 = d12 * d5
            n38 = k14 * n1
            q39 = n38 if d2 == 1 else _int(n38, d2, 'sum upper bound')
            n40 = 0; d41 = 1
            for i42 in range(k13, q39 + 1):
                n43 = k15 * n1
                n44 = n43 + k16 * i42 * d2
                n45 = (-1 if i42 % 2 else 1) * n44
                n46 = k17 * n1
                q47 = n46 if d2 == 1 else _int(n46, d2, 'binomial upper index')
                n48 = n45 * (_comb(q47, i42) if q47 >= 0 <= i42 else _binom(q47, i42))
                n49 = n4 + k18 * d5
                q50 = n49 if d5 == 1 else _int(n49, d5, 'binomial lower index')
                n51 = n48 * (_comb(i42, q50) if i42 >= 0 <= q50 else _binom(i42, q50))
                if i42 >= 0: n52 = n11 ** i42; d53 = d12 ** i42
                elif not n11: raise PoleError('zero base with negative exponent')
                else:
                    n52 = d12 ** -i42; d53 = n11 ** -i42
                    if d53 < 0: n52 = -n52; d53 = -d53
                n54 = n51 * n52
                d55 = d2 * d53
                if d55 == d41: n40 += n54
                elif not n40: n40 = n54; d41 = d55
                else: n40 = n40 * d55 + n54 * d41; d41 *= d55
            n56 = n36 * n40
            d57 = d37 * d41
            if d33 == d57: n58 = n32 + n56; d59 = d33
            else: n58 = n32 * d57 + n56 * d33; d59 = d33 * d57
            return n58 if d59 == 1 else _value(n58, d59)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make37(general, k0, k1, k2):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            return k0 * n1 + k1 * k2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make38(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47, k48, k49, k50, k51, k52, k53, k54, k55, k56, k57, k58, k59, k60, k61, k62, k63, k64, k65, k66, k67, k68, k69, k70, k71, k72, k73):
    def term(env):
        try:
            n1 = env['t']
            if type(n1) is not int: return general(env)
            n2 = env['z']
            if type(n2) is not int: return general(env)
            n3 = env['x']
            if type(n3) is not int: return general(env)
            n4 = env['s']
            if type(n4) is not int: return general(env)
            t5 = (k13 * n4 + k14 + k15 * (n1 + k16)) * (k17 * n4 + k18 * (n1 + k19) + k20)
            if not t5: raise PoleError('division by zero')
            n6 = (n1 + k0) * (n2 + k1 * k2) * (k3 * n3 * n2 + k4 * n2 * n4 + k5 * k6 + k7 * n2 * n4 * n3 + n2 + k8 * k9 * n4 + k10 * n2 * n3 * (n1 + k11) + n1 + k12)
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            t8 = n1 + k23
            if t8 >= 0: n9 = n2 ** t8; d10 = 1
            elif not n2: raise PoleError('zero base with negative exponent')
            else:
                n9 = 1; d10 = n2 ** -t8
                if d10 < 0: n9 = -n9; d10 = -d10
            n11 = (-1 if (n1 + k21) % 2 else 1) * k22 * n4 * n9
            t12 = n2 + k24 * k25
            t13 = k26 * n4 + k27 * (n1 + k28) + k29 * k30
            if t13 >= 0: n14 = t12 ** t13; d15 = 1
            elif not t12: raise PoleError('zero base with negative exponent')
            else:
                n14 = 1; d15 = t12 ** -t13
                if d15 < 0: n14 = -n14; d15 = -d15
            n16 = n11 * n14
            d17 = d10 * d15
            t18 = k31 * n4 + k32 * k33
            t19 = n1 + k34
            n20 = n16 * (_comb(t18, t19) if t18 >= 0 <= t19 else _binom(t18, t19))
            t21 = k38 + k39 * n3
            t22 = n4 + k40 * (n1 + k41)
            if t22 >= 0: n23 = t21 ** t22; d24 = 1
            elif not t21: raise PoleError('zero base with negative exponent')
            else:
                n23 = 1; d24 = t21 ** -t22
                if d24 < 0: n23 = -n23; d24 = -d24
            n25 = (k35 * n4 + k36 * (n1 + k37)) * n23
            if not n25: raise PoleError('division by zero')
            n26 = n20 * d24
            d27 = n25 * d17
            if d27 < 0: n26 = -n26; d27 = -d27
            n28 = n6 * n26
            d29 = d7 * d27
            t30 = (k53 * n4 + k54 + k55 * n1) * (k56 * n4 + k57 * n1 + k58)
            if not t30: raise PoleError('division by zero')
            n31 = n1 * (n2 + k43 * k44) * (k45 * n3 * n2 + k46 * n2 * n4 + k47 * k48 + k49 * n2 * n4 * n3 + n2 + k50 * k51 * n4 + k52 * n2 * n3 * n1 + n1)
            d32 = t30
            if d32 < 0: n31 = -n31; d32 = -d32
            if n1 >= 0: n33 = n2 ** n1; d34 = 1
            elif not n2: raise PoleError('zero base with negative exponent')
            else:
                n33 = 1; d34 = n2 ** -n1
                if d34 < 0: n33 = -n33; d34 = -d34
            n35 = (-1 if n1 % 2 else 1) * k59 * n4 * n33
            t36 = n2 + k60 * k61
            t37 = k62 * n4 + k63 * n1 + k64 * k65
            if t37 >= 0: n38 = t36 ** t37; d39 = 1
            elif not t36: raise PoleError('zero base with negative exponent')
            else:
                n38 = 1; d39 = t36 ** -t37
                if d39 < 0: n38 = -n38; d39 = -d39
            n40 = n35 * n38
            d41 = d34 * d39
            t42 = k66 * n4 + k67 * k68
            n43 = n40 * (_comb(t42, n1) if t42 >= 0 <= n1 else _binom(t42, n1))
            t44 = k71 + k72 * n3
            t45 = n4 + k73 * n1
            if t45 >= 0: n46 = t44 ** t45; d47 = 1
            elif not t44: raise PoleError('zero base with negative exponent')
            else:
                n46 = 1; d47 = t44 ** -t45
                if d47 < 0: n46 = -n46; d47 = -d47
            n48 = (k69 * n4 + k70 * n1) * n46
            if not n48: raise PoleError('division by zero')
            n49 = n43 * d47
            d50 = n48 * d41
            if d50 < 0: n49 = -n49; d50 = -d50
            n51 = n31 * n49
            d52 = d32 * d50
            n53 = k42 * n51
            if d29 == d52: n54 = n28 + n53; d55 = d29
            else: n54 = n28 * d52 + n53 * d29; d55 = d29 * d52
            return n54 if d55 == 1 else _value(n54, d55)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make39(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39):
    def term(env):
        try:
            n1 = env['x']
            if type(n1) is not int: return general(env)
            n2 = env['z']
            if type(n2) is not int: return general(env)
            t3 = n1 * n2 + k0 * k1
            if k2 >= 0: n4 = t3 ** k2; d5 = 1
            elif not t3: raise PoleError('zero base with negative exponent')
            else:
                n4 = 1; d5 = t3 ** -k2
                if d5 < 0: n4 = -n4; d5 = -d5
            n6 = env['t']
            if type(n6) is not int: return general(env)
            n7 = env['s']
            if type(n7) is not int: return general(env)
            if n6 >= 0: n8 = n2 ** n6; d9 = 1
            elif not n2: raise PoleError('zero base with negative exponent')
            else:
                n8 = 1; d9 = n2 ** -n6
                if d9 < 0: n8 = -n8; d9 = -d9
            n10 = (-1 if n6 % 2 else 1) * k3 * n7 * n8
            t11 = n2 + k4 * k5
            t12 = k6 * n7 + k7 * n6 + k8 * k9
            if t12 >= 0: n13 = t11 ** t12; d14 = 1
            elif not t11: raise PoleError('zero base with negative exponent')
            else:
                n13 = 1; d14 = t11 ** -t12
                if d14 < 0: n13 = -n13; d14 = -d14
            n15 = n10 * n13
            d16 = d9 * d14
            t17 = k10 * n7 + k11 * k12
            n18 = n15 * (_comb(t17, n6) if t17 >= 0 <= n6 else _binom(t17, n6))
            t19 = k15 + k16 * n1
            t20 = n7 + k17 * n6
            if t20 >= 0: n21 = t19 ** t20; d22 = 1
            elif not t19: raise PoleError('zero base with negative exponent')
            else:
                n21 = 1; d22 = t19 ** -t20
                if d22 < 0: n21 = -n21; d22 = -d22
            n23 = (k13 * n7 + k14 * n6) * n21
            if not n23: raise PoleError('division by zero')
            n24 = n18 * d22
            d25 = n23 * d16
            if d25 < 0: n24 = -n24; d25 = -d25
            n26 = n4 * n24
            d27 = d5 * d25
            if n6 >= 0: n28 = n2 ** n6; d29 = 1
            elif not n2: raise PoleError('zero base with negative exponent')
            else:
                n28 = 1; d29 = n2 ** -n6
                if d29 < 0: n28 = -n28; d29 = -d29
            n30 = (-1 if n6 % 2 else 1) * k20 * (n7 + k21) * n28
            t31 = n2 + k22 * k23
            t32 = k24 * (n7 + k25) + k26 * n6 + k27 * k28
            if t32 >= 0: n33 = t31 ** t32; d34 = 1
            elif not t31: raise PoleError('zero base with negative exponent')
            else:
                n33 = 1; d34 = t31 ** -t32
                if d34 < 0: n33 = -n33; d34 = -d34
            n35 = n30 * n33
            d36 = d29 * d34
            t37 = k29 * (n7 + k30) + k31 * k32
            n38 = n35 * (_comb(t37, n6) if t37 >= 0 <= n6 else _binom(t37, n6))
            t39 = k36 + k37 * n1
            t40 = n7 + k38 + k39 * n6
            if t40 >= 0: n41 = t39 ** t40; d42 = 1
            elif not t39: raise PoleError('zero base with negative exponent')
            else:
                n41 = 1; d42 = t39 ** -t40
                if d42 < 0: n41 = -n41; d42 = -d42
            n43 = (k33 * (n7 + k34) + k35 * n6) * n41
            if not n43: raise PoleError('division by zero')
            n44 = n38 * d42
            d45 = n43 * d36
            if d45 < 0: n44 = -n44; d45 = -d45
            n46 = (n1 + k18 * k19) * n44
            if d27 == d45: n47 = n26 + n46; d48 = d27
            else: n47 = n26 * d45 + n46 * d27; d48 = d27 * d45
            return n47 if d48 == 1 else _value(n47, d48)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make30,
    _make31,
    _make32,
    _make33,
    _make34,
    _make35,
    _make36,
    _make37,
    _make38,
    _make39,
)
