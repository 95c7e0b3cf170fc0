"""Evaluator factories of shapes that the gf/* telescoping checks and their mutants build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make42(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k1, n1 + 1):
                n5 = env['s']
                if type(n5) is not int: return general(env)
                t6 = k4 * n5
                t7 = k6 * n5 + k7 * i4
                if not t7: raise PoleError('division by zero')
                n8 = k5
                d9 = t7
                if d9 < 0: n8 = -n8; d9 = -d9
                n10 = (-1 if (n1 + i4) % 2 else 1) * (k2 * n5 + k3 * n1) * (_comb(t6, n1) if t6 >= 0 <= n1 else _binom(t6, n1)) * (_comb(n1, i4) if n1 >= 0 <= i4 else _binom(n1, i4)) * n8
                n11 = env['x']
                if type(n11) is not int: return general(env)
                t12 = k9 + k10 * n11
                t13 = n5 + k11 * i4
                if t13 >= 0: n14 = t12 ** t13; d15 = 1
                elif not t12: raise PoleError('zero base with negative exponent')
                else:
                    n14 = 1; d15 = t12 ** -t13
                    if d15 < 0: n14 = -n14; d15 = -d15
                if not n14: raise PoleError('division by zero')
                n16 = k8 * d15
                d17 = n14
                if d17 < 0: n16 = -n16; d17 = -d17
                n18 = n10 * n16
                d19 = d9 * d17
                t20 = n1 + k13
                if not t20: raise PoleError('division by zero')
                n21 = n5 * n11
                d22 = t20
                if d22 < 0: n21 = -n21; d22 = -d22
                n23 = n21 + k14 * k15 * d22
                n24 = k12 * n23
                t25 = n1 + k18
                if not t25: raise PoleError('division by zero')
                n26 = n11 * (n5 + k17 * i4)
                d27 = t25
                if d27 < 0: n26 = -n26; d27 = -d27
                n28 = k16 * n26
                if d22 == d27: n29 = n24 + n28; d30 = d22
                else: n29 = n24 * d27 + n28 * d22; d30 = d22 * d27
                n31 = n18 * n29
                d32 = d19 * d30
                t33 = k25 * n5
                t34 = n1 + k26
                t35 = n1 + k27
                t36 = k29 * n5 + k30 * i4
                if not t36: raise PoleError('division by zero')
                n37 = k28
                d38 = t36
                if d38 < 0: n37 = -n37; d38 = -d38
                n39 = (-1 if (n1 + i4 + k20) % 2 else 1) * (k21 * n5 + k22 * n1 + k23 * k24) * (_comb(t33, t34) if t33 >= 0 <= t34 else _binom(t33, t34)) * (_comb(t35, i4) if t35 >= 0 <= i4 else _binom(t35, i4)) * n37
                t40 = k32 + k33 * n11
                t41 = n5 + k34 * i4
                if t41 >= 0: n42 = t40 ** t41; d43 = 1
                elif not t40: raise PoleError('zero base with negative exponent')
                else:
                    n42 = 1; d43 = t40 ** -t41
                    if d43 < 0: n42 = -n42; d43 = -d43
                if not n42: raise PoleError('division by zero')
                n44 = k31 * d43
                d45 = n42
                if d45 < 0: n44 = -n44; d45 = -d45
                n46 = n39 * n44
                d47 = d38 * d45
                n48 = k19 * n46
                if d32 == d47: n49 = n31 + n48; d50 = d32
                else: n49 = n31 * d47 + n48 * d32; d50 = d32 * d47
                if d50 == d3: n2 += n49
                elif not n2: n2 = n49; d3 = d50
                else: n2 = n2 * d50 + n49 * d3; d3 *= d50
            n51 = k0 * n2
            return n51 if d3 == 1 else _value(n51, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make43(general, k0, k1, k2, k3, k4, k5):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            t2 = k0 * n1
            n3 = env['i']
            if type(n3) is not int: return general(env)
            t4 = n3 + k1
            n5 = env['x']
            if type(n5) is not int: return general(env)
            t6 = k2 + k3 * n5
            t7 = n3 + k4 + k5 * n1
            if t7 >= 0: n8 = t6 ** t7; d9 = 1
            elif not t6: raise PoleError('zero base with negative exponent')
            else:
                n8 = 1; d9 = t6 ** -t7
                if d9 < 0: n8 = -n8; d9 = -d9
            n10 = (_comb(t2, t4) if t2 >= 0 <= t4 else _binom(t2, t4)) * n8
            return n10 if d9 == 1 else _value(n10, d9)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make44(general):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            return n1
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make45(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k2 * n3
            t5 = n1 + k3
            t6 = n2 + k4 + k5 * k6
            n7 = env['x']
            if type(n7) is not int: return general(env)
            t8 = k8 + k9 * n7
            t9 = n3 + k10 * (n2 + k11)
            if t9 >= 0: n10 = t8 ** t9; d11 = 1
            elif not t8: raise PoleError('zero base with negative exponent')
            else:
                n10 = 1; d11 = t8 ** -t9
                if d11 < 0: n10 = -n10; d11 = -d11
            if not n10: raise PoleError('division by zero')
            n12 = k7 * d11
            d13 = n10
            if d13 < 0: n12 = -n12; d13 = -d13
            n14 = (-1 if (n1 + n2 + k0 + k1) % 2 else 1) * (_comb(t4, t5) if t4 >= 0 <= t5 else _binom(t4, t5)) * (_comb(n1, t6) if n1 >= 0 <= t6 else _binom(n1, t6)) * n12
            t15 = k14 * n3
            t16 = n1 + k15
            t17 = n2 + k16 * k17
            t18 = k19 + k20 * n7
            t19 = n3 + k21 * n2
            if t19 >= 0: n20 = t18 ** t19; d21 = 1
            elif not t18: raise PoleError('zero base with negative exponent')
            else:
                n20 = 1; d21 = t18 ** -t19
                if d21 < 0: n20 = -n20; d21 = -d21
            if not n20: raise PoleError('division by zero')
            n22 = k18 * d21
            d23 = n20
            if d23 < 0: n22 = -n22; d23 = -d23
            n24 = (-1 if (n1 + n2 + k13) % 2 else 1) * (_comb(t15, t16) if t15 >= 0 <= t16 else _binom(t15, t16)) * (_comb(n1, t17) if n1 >= 0 <= t17 else _binom(n1, t17)) * n22
            n25 = k12 * n24
            if d13 == d23: n26 = n14 + n25; d27 = d13
            else: n26 = n14 * d23 + n25 * d13; d27 = d13 * d23
            return n26 if d27 == 1 else _value(n26, d27)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make46(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k3 * n3
            t5 = k5 * n3 + k6 * n2
            if not t5: raise PoleError('division by zero')
            n6 = k4
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            n8 = (-1 if (n1 + n2) % 2 else 1) * (k1 * n3 + k2 * n1) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1)) * (_comb(n1, n2) if n1 >= 0 <= n2 else _binom(n1, n2)) * n6
            n9 = env['x']
            if type(n9) is not int: return general(env)
            t10 = k8 + k9 * n9
            t11 = n3 + k10 * n2
            if t11 >= 0: n12 = t10 ** t11; d13 = 1
            elif not t10: raise PoleError('zero base with negative exponent')
            else:
                n12 = 1; d13 = t10 ** -t11
                if d13 < 0: n12 = -n12; d13 = -d13
            if not n12: raise PoleError('division by zero')
            n14 = k7 * d13
            d15 = n12
            if d15 < 0: n14 = -n14; d15 = -d15
            n16 = n8 * n14
            d17 = d7 * d15
            t18 = n1 + k12
            if not t18: raise PoleError('division by zero')
            n19 = n3 * n9
            d20 = t18
            if d20 < 0: n19 = -n19; d20 = -d20
            n21 = n19 + k13 * k14 * d20
            n22 = k11 * n21
            t23 = n1 + k17
            if not t23: raise PoleError('division by zero')
            n24 = n9 * (n3 + k16 * n2)
            d25 = t23
            if d25 < 0: n24 = -n24; d25 = -d25
            n26 = k15 * n24
            if d20 == d25: n27 = n22 + n26; d28 = d20
            else: n27 = n22 * d25 + n26 * d20; d28 = d20 * d25
            n29 = n16 * n27
            d30 = d17 * d28
            t31 = k24 * n3
            t32 = n1 + k25
            t33 = n1 + k26
            t34 = k28 * n3 + k29 * n2
            if not t34: raise PoleError('division by zero')
            n35 = k27
            d36 = t34
            if d36 < 0: n35 = -n35; d36 = -d36
            n37 = (-1 if (n1 + n2 + k19) % 2 else 1) * (k20 * n3 + k21 * n1 + k22 * k23) * (_comb(t31, t32) if t31 >= 0 <= t32 else _binom(t31, t32)) * (_comb(t33, n2) if t33 >= 0 <= n2 else _binom(t33, n2)) * n35
            t38 = k31 + k32 * n9
            t39 = n3 + k33 * n2
            if t39 >= 0: n40 = t38 ** t39; d41 = 1
            elif not t38: raise PoleError('zero base with negative exponent')
            else:
                n40 = 1; d41 = t38 ** -t39
                if d41 < 0: n40 = -n40; d41 = -d41
            if not n40: raise PoleError('division by zero')
            n42 = k30 * d41
            d43 = n40
            if d43 < 0: n42 = -n42; d43 = -d43
            n44 = n37 * n42
            d45 = d36 * d43
            n46 = k18 * n44
            if d30 == d45: n47 = n29 + n46; d48 = d30
            else: n47 = n29 * d45 + n46 * d30; d48 = d30 * d45
            n49 = k0 * n47
            return n49 if d48 == 1 else _value(n49, d48)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make47(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21):
    def term(env):
        try:
            n1 = env['i']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = env['t']; d4 = 1
            if type(n3) is not int: n3, d4 = _pair(n3)
            n5 = n3 + k0 * d4
            if d2 == d4: n6 = n1 + n5; d7 = d2
            else: n6 = n1 * d4 + n5 * d2; d7 = d2 * d4
            n8 = n6 + k1 * d7
            q9 = n8 if d7 == 1 else _int(n8, d7, 'sign exponent')
            n10 = env['s']; d11 = 1
            if type(n10) is not int: n10, d11 = _pair(n10)
            n12 = k2 * n10
            q13 = n12 if d11 == 1 else _int(n12, d11, 'binomial upper index')
            n14 = n1 + k3 * d2
            q15 = n14 if d2 == 1 else _int(n14, d2, 'binomial lower index')
            q16 = n1 if d2 == 1 else _int(n1, d2, 'binomial upper index')
            n17 = n3 + k4 * d4
            n18 = n17 + k5 * k6 * d4
            q19 = n18 if d4 == 1 else _int(n18, d4, 'binomial lower index')
            n20 = env['x']; d21 = 1
            if type(n20) is not int: n20, d21 = _pair(n20)
            n22 = k9 * n20
            n23 = n22 + k8 * d21
            n24 = n3 + k11 * d4
            n25 = k10 * n24
            if d11 == d4: n26 = n10 + n25; d27 = d11
            else: n26 = n10 * d4 + n25 * d11; d27 = d11 * d4
            q28 = n26 if d27 == 1 else _int(n26, d27, 'exponent')
            if q28 >= 0: n29 = n23 ** q28; d30 = d21 ** q28
            elif not n23: raise PoleError('zero base with negative exponent')
            else:
                n29 = d21 ** -q28; d30 = n23 ** -q28
                if d30 < 0: n29 = -n29; d30 = -d30
            if not n29: raise PoleError('division by zero')
            n31 = k7 * d30
            d32 = n29
            if d32 < 0: n31 = -n31; d32 = -d32
            n33 = (-1 if q9 % 2 else 1) * (_comb(q13, q15) if q13 >= 0 <= q15 else _binom(q13, q15)) * (_comb(q16, q19) if q16 >= 0 <= q19 else _binom(q16, q19)) * n31
            if d2 == d4: n34 = n1 + n3; d35 = d2
            else: n34 = n1 * d4 + n3 * d2; d35 = d2 * d4
            n36 = n34 + k13 * d35
            q37 = n36 if d35 == 1 else _int(n36, d35, 'sign exponent')
            n38 = k14 * n10
            q39 = n38 if d11 == 1 else _int(n38, d11, 'binomial upper index')
            n40 = n1 + k15 * d2
            q41 = n40 if d2 == 1 else _int(n40, d2, 'binomial lower index')
            n42 = n3 + k16 * k17 * d4
            q43 = n42 if d4 == 1 else _int(n42, d4, 'binomial lower index')
            n44 = k20 * n20
            n45 = n44 + k19 * d21
            n46 = k21 * n3
            if d11 == d4: n47 = n10 + n46; d48 = d11
            else: n47 = n10 * d4 + n46 * d11; d48 = d11 * d4
            q49 = n47 if d48 == 1 else _int(n47, d48, 'exponent')
            if q49 >= 0: n50 = n45 ** q49; d51 = d21 ** q49
            elif not n45: raise PoleError('zero base with negative exponent')
            else:
                n50 = d21 ** -q49; d51 = n45 ** -q49
                if d51 < 0: n50 = -n50; d51 = -d51
            if not n50: raise PoleError('division by zero')
            n52 = k18 * d51
            d53 = n50
            if d53 < 0: n52 = -n52; d53 = -d53
            n54 = (-1 if q37 % 2 else 1) * (_comb(q39, q41) if q39 >= 0 <= q41 else _binom(q39, q41)) * (_comb(q16, q43) if q16 >= 0 <= q43 else _binom(q16, q43)) * n52
            n55 = k12 * n54
            if d32 == d53: n56 = n33 + n55; d57 = d32
            else: n56 = n33 * d53 + n55 * d32; d57 = d32 * d53
            return n56 if d57 == 1 else _value(n56, d57)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make48(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33):
    def term(env):
        try:
            n1 = env['i']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = env['t']; d4 = 1
            if type(n3) is not int: n3, d4 = _pair(n3)
            if d2 == d4: n5 = n1 + n3; d6 = d2
            else: n5 = n1 * d4 + n3 * d2; d6 = d2 * d4
            q7 = n5 if d6 == 1 else _int(n5, d6, 'sign exponent')
            n8 = env['s']; d9 = 1
            if type(n8) is not int: n8, d9 = _pair(n8)
            n10 = k1 * n8
            n11 = k2 * n1
            if d9 == d2: n12 = n10 + n11; d13 = d9
            else: n12 = n10 * d2 + n11 * d9; d13 = d9 * d2
            n14 = (-1 if q7 % 2 else 1) * n12
            n15 = k3 * n8
            q16 = n15 if d9 == 1 else _int(n15, d9, 'binomial upper index')
            q17 = n1 if d2 == 1 else _int(n1, d2, 'binomial lower index')
            n18 = n14 * (_comb(q16, q17) if q16 >= 0 <= q17 else _binom(q16, q17))
            q19 = n3 if d4 == 1 else _int(n3, d4, 'binomial lower index')
            n20 = n18 * (_comb(q17, q19) if q17 >= 0 <= q19 else _binom(q17, q19))
            n21 = k5 * n8
            n22 = k6 * n3
            if d9 == d4: n23 = n21 + n22; d24 = d9
            else: n23 = n21 * d4 + n22 * d9; d24 = d9 * d4
            if not n23: raise PoleError('division by zero')
            n25 = k4 * d24
            d26 = n23
            if d26 < 0: n25 = -n25; d26 = -d26
            n27 = n20 * n25
            d28 = d13 * d26
            n29 = env['x']; d30 = 1
            if type(n29) is not int: n29, d30 = _pair(n29)
            n31 = k9 * n29
            n32 = n31 + k8 * d30
            n33 = k10 * n3
            if d9 == d4: n34 = n8 + n33; d35 = d9
            else: n34 = n8 * d4 + n33 * d9; d35 = d9 * d4
            q36 = n34 if d35 == 1 else _int(n34, d35, 'exponent')
            if q36 >= 0: n37 = n32 ** q36; d38 = d30 ** q36
            elif not n32: raise PoleError('zero base with negative exponent')
            else:
                n37 = d30 ** -q36; d38 = n32 ** -q36
                if d38 < 0: n37 = -n37; d38 = -d38
            if not n37: raise PoleError('division by zero')
            n39 = k7 * d38
            d40 = n37
            if d40 < 0: n39 = -n39; d40 = -d40
            n41 = n27 * n39
            d42 = d28 * d40
            n43 = n8 * n29
            d44 = d9 * d30
            n45 = n1 + k12 * d2
            if not n45: raise PoleError('division by zero')
            n46 = n43 * d2
            d47 = n45 * d44
            if d47 < 0: n46 = -n46; d47 = -d47
            n48 = n46 + k13 * k14 * d47
            n49 = k11 * n48
            n50 = k16 * n3
            if d9 == d4: n51 = n8 + n50; d52 = d9
            else: n51 = n8 * d4 + n50 * d9; d52 = d9 * d4
            n53 = n29 * n51
            d54 = d30 * d52
            n55 = n1 + k17 * d2
            if not n55: raise PoleError('division by zero')
            n56 = n53 * d2
            d57 = n55 * d54
            if d57 < 0: n56 = -n56; d57 = -d57
            n58 = k15 * n56
            if d47 == d57: n59 = n49 + n58; d60 = d47
            else: n59 = n49 * d57 + n58 * d47; d60 = d47 * d57
            n61 = n41 * n59
            d62 = d42 * d60
            if d2 == d4: n63 = n1 + n3; d64 = d2
            else: n63 = n1 * d4 + n3 * d2; d64 = d2 * d4
            n65 = n63 + k19 * d64
            q66 = n65 if d64 == 1 else _int(n65, d64, 'sign exponent')
            n67 = k20 * n8
            n68 = k21 * n1
            if d9 == d2: n69 = n67 + n68; d70 = d9
            else: n69 = n67 * d2 + n68 * d9; d70 = d9 * d2
            n71 = n69 + k22 * k23 * d70
            n72 = (-1 if q66 % 2 else 1) * n71
            n73 = k24 * n8
            q74 = n73 if d9 == 1 else _int(n73, d9, 'binomial upper index')
            n75 = n1 + k25 * d2
            q76 = n75 if d2 == 1 else _int(n75, d2, 'binomial lower index')
            n77 = n72 * (_comb(q74, q76) if q74 >= 0 <= q76 else _binom(q74, q76))
            n78 = n1 + k26 * d2
            q79 = n78 if d2 == 1 else _int(n78, d2, 'binomial upper index')
            n80 = n77 * (_comb(q79, q19) if q79 >= 0 <= q19 else _binom(q79, q19))
            n81 = k28 * n8
            n82 = k29 * n3
            if d9 == d4: n83 = n81 + n82; d84 = d9
            else: n83 = n81 * d4 + n82 * d9; d84 = d9 * d4
            if not n83: raise PoleError('division by zero')
            n85 = k27 * d84
            d86 = n83
            if d86 < 0: n85 = -n85; d86 = -d86
            n87 = n80 * n85
            d88 = d70 * d86
            n89 = k32 * n29
            n90 = n89 + k31 * d30
            n91 = k33 * n3
            if d9 == d4: n92 = n8 + n91; d93 = d9
            else: n92 = n8 * d4 + n91 * d9; d93 = d9 * d4
            q94 = n92 if d93 == 1 else _int(n92, d93, 'exponent')
            if q94 >= 0: n95 = n90 ** q94; d96 = d30 ** q94
            elif not n90: raise PoleError('zero base with negative exponent')
            else:
                n95 = d30 ** -q94; d96 = n90 ** -q94
                if d96 < 0: n95 = -n95; d96 = -d96
            if not n95: raise PoleError('division by zero')
            n97 = k30 * d96
            d98 = n95
            if d98 < 0: n97 = -n97; d98 = -d98
            n99 = n87 * n97
            d100 = d88 * d98
            n101 = k18 * n99
            if d62 == d100: n102 = n61 + n101; d103 = d62
            else: n102 = n61 * d100 + n101 * d62; d103 = d62 * d100
            n104 = k0 * n102
            return n104 if d103 == 1 else _value(n104, d103)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make49(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34):
    def term(env):
        try:
            n1 = env['i']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            q3 = n1 if d2 == 1 else _int(n1, d2, 'sum upper bound')
            n4 = 0; d5 = 1
            for i6 in range(k1, q3 + 1):
                n7 = n1 + i6 * d2
                q8 = n7 if d2 == 1 else _int(n7, d2, 'sign exponent')
                n9 = env['s']; d10 = 1
                if type(n9) is not int: n9, d10 = _pair(n9)
                n11 = k2 * n9
                n12 = k3 * n1
                if d10 == d2: n13 = n11 + n12; d14 = d10
                else: n13 = n11 * d2 + n12 * d10; d14 = d10 * d2
                n15 = (-1 if q8 % 2 else 1) * n13
                n16 = k4 * n9
                q17 = n16 if d10 == 1 else _int(n16, d10, 'binomial upper index')
                n18 = n15 * (_comb(q17, q3) if q17 >= 0 <= q3 else _binom(q17, q3))
                n19 = n18 * (_comb(q3, i6) if q3 >= 0 <= i6 else _binom(q3, i6))
                n20 = k6 * n9
                n21 = n20 + k7 * i6 * d10
                if not n21: raise PoleError('division by zero')
                n22 = k5 * d10
                d23 = n21
                if d23 < 0: n22 = -n22; d23 = -d23
                n24 = n19 * n22
                d25 = d14 * d23
                n26 = env['x']; d27 = 1
                if type(n26) is not int: n26, d27 = _pair(n26)
                n28 = k10 * n26
                n29 = n28 + k9 * d27
                n30 = n9 + k11 * i6 * d10
                q31 = n30 if d10 == 1 else _int(n30, d10, 'exponent')
                if q31 >= 0: n32 = n29 ** q31; d33 = d27 ** q31
                elif not n29: raise PoleError('zero base with negative exponent')
                else:
                    n32 = d27 ** -q31; d33 = n29 ** -q31
                    if d33 < 0: n32 = -n32; d33 = -d33
                if not n32: raise PoleError('division by zero')
                n34 = k8 * d33
                d35 = n32
                if d35 < 0: n34 = -n34; d35 = -d35
                n36 = n24 * n34
                d37 = d25 * d35
                n38 = n9 * n26
                d39 = d10 * d27
                n40 = n1 + k13 * d2
                if not n40: raise PoleError('division by zero')
                n41 = n38 * d2
                d42 = n40 * d39
                if d42 < 0: n41 = -n41; d42 = -d42
                n43 = n41 + k14 * k15 * d42
                n44 = k12 * n43
                n45 = n9 + k17 * i6 * d10
                n46 = n26 * n45
                d47 = d27 * d10
                n48 = n1 + k18 * d2
                if not n48: raise PoleError('division by zero')
                n49 = n46 * d2
                d50 = n48 * d47
                if d50 < 0: n49 = -n49; d50 = -d50
                n51 = k16 * n49
                if d42 == d50: n52 = n44 + n51; d53 = d42
                else: n52 = n44 * d50 + n51 * d42; d53 = d42 * d50
                n54 = n36 * n52
                d55 = d37 * d53
                n56 = n1 + i6 * d2
                n57 = n56 + k20 * d2
                q58 = n57 if d2 == 1 else _int(n57, d2, 'sign exponent')
                n59 = k21 * n9
                n60 = k22 * n1
                if d10 == d2: n61 = n59 + n60; d62 = d10
                else: n61 = n59 * d2 + n60 * d10; d62 = d10 * d2
                n63 = n61 + k23 * k24 * d62
                n64 = (-1 if q58 % 2 else 1) * n63
                n65 = k25 * n9
                q66 = n65 if d10 == 1 else _int(n65, d10, 'binomial upper index')
                n67 = n1 + k26 * d2
                q68 = n67 if d2 == 1 else _int(n67, d2, 'binomial lower index')
                n69 = n64 * (_comb(q66, q68) if q66 >= 0 <= q68 else _binom(q66, q68))
                n70 = n1 + k27 * d2
                q71 = n70 if d2 == 1 else _int(n70, d2, 'binomial upper index')
                n72 = n69 * (_comb(q71, i6) if q71 >= 0 <= i6 else _binom(q71, i6))
                n73 = k29 * n9
                n74 = n73 + k30 * i6 * d10
                if not n74: raise PoleError('division by zero')
                n75 = k28 * d10
                d76 = n74
                if d76 < 0: n75 = -n75; d76 = -d76
                n77 = n72 * n75
                d78 = d62 * d76
                n79 = k33 * n26
                n80 = n79 + k32 * d27
                n81 = n9 + k34 * i6 * d10
                q82 = n81 if d10 == 1 else _int(n81, d10, 'exponent')
                if q82 >= 0: n83 = n80 ** q82; d84 = d27 ** q82
                elif not n80: raise PoleError('zero base with negative exponent')
                else:
                    n83 = d27 ** -q82; d84 = n80 ** -q82
                    if d84 < 0: n83 = -n83; d84 = -d84
                if not n83: raise PoleError('division by zero')
                n85 = k31 * d84
                d86 = n83
                if d86 < 0: n85 = -n85; d86 = -d86
                n87 = n77 * n85
                d88 = d78 * d86
                n89 = k19 * n87
                if d55 == d88: n90 = n54 + n89; d91 = d55
                else: n90 = n54 * d88 + n89 * d55; d91 = d55 * d88
                if d91 == d5: n4 += n90
                elif not n4: n4 = n90; d5 = d91
                else: n4 = n4 * d91 + n90 * d5; d5 *= d91
            n92 = k0 * n4
            return n92 if d5 == 1 else _value(n92, d5)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make50(k0, k1, k2, k3, k4, k5):
    def term(env):
        try:
            n1 = env['s']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = k0 * n1
            q4 = n3 if d2 == 1 else _int(n3, d2, 'binomial upper index')
            n5 = env['i']; d6 = 1
            if type(n5) is not int: n5, d6 = _pair(n5)
            n7 = n5 + k1 * d6
            q8 = n7 if d6 == 1 else _int(n7, d6, 'binomial lower index')
            n9 = env['x']; d10 = 1
            if type(n9) is not int: n9, d10 = _pair(n9)
            n11 = k3 * n9
            n12 = n11 + k2 * d10
            n13 = n5 + k4 * d6
            n14 = k5 * n1
            if d6 == d2: n15 = n13 + n14; d16 = d6
            else: n15 = n13 * d2 + n14 * d6; d16 = d6 * d2
            q17 = n15 if d16 == 1 else _int(n15, d16, 'exponent')
            if q17 >= 0: n18 = n12 ** q17; d19 = d10 ** q17
            elif not n12: raise PoleError('zero base with negative exponent')
            else:
                n18 = d10 ** -q17; d19 = n12 ** -q17
                if d19 < 0: n18 = -n18; d19 = -d19
            n20 = (_comb(q4, q8) if q4 >= 0 <= q8 else _binom(q4, q8)) * n18
            return n20 if d19 == 1 else _value(n20, d19)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make42,
    _make43,
    _make44,
    _make45,
    _make46,
    _make47,
    _make48,
    _make49,
    _make50,
)
