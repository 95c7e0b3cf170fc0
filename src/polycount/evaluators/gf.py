"""Evaluator factories of shapes that the gf/* checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make45(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k2 * n3
            t5 = k4 * n3 + k5 * n2
            if not t5: raise PoleError('division by zero')
            n6 = k3
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            n8 = (-1 if (n1 + n2) % 2 else 1) * (k0 * n3 + k1 * n1) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1)) * (_comb(n1, n2) if n1 >= 0 <= n2 else _binom(n1, n2)) * n6
            n9 = env['x']
            if type(n9) is not int: return general(env)
            t10 = k7 + k8 * n9
            t11 = n3 + k9 * n2
            if t11 >= 0: n12 = t10 ** t11; d13 = 1
            elif not t10: raise PoleError('zero base with negative exponent')
            else:
                n12 = 1; d13 = t10 ** -t11
                if d13 < 0: n12 = -n12; d13 = -d13
            if not n12: raise PoleError('division by zero')
            n14 = k6 * d13
            d15 = n12
            if d15 < 0: n14 = -n14; d15 = -d15
            n16 = n8 * n14
            d17 = d7 * d15
            t18 = n1 + k11
            if not t18: raise PoleError('division by zero')
            n19 = n3 * n9
            d20 = t18
            if d20 < 0: n19 = -n19; d20 = -d20
            n21 = n19 + k12 * k13 * d20
            n22 = k10 * n21
            t23 = n1 + k16
            if not t23: raise PoleError('division by zero')
            n24 = n9 * (n3 + k15 * n2)
            d25 = t23
            if d25 < 0: n24 = -n24; d25 = -d25
            n26 = k14 * n24
            if d20 == d25: n27 = n22 + n26; d28 = d20
            else: n27 = n22 * d25 + n26 * d20; d28 = d20 * d25
            n29 = n16 * n27
            d30 = d17 * d28
            t31 = k23 * n3
            t32 = n1 + k24
            t33 = n1 + k25
            t34 = k27 * n3 + k28 * n2
            if not t34: raise PoleError('division by zero')
            n35 = k26
            d36 = t34
            if d36 < 0: n35 = -n35; d36 = -d36
            n37 = (-1 if (n1 + n2 + k18) % 2 else 1) * (k19 * n3 + k20 * n1 + k21 * k22) * (_comb(t31, t32) if t31 >= 0 <= t32 else _binom(t31, t32)) * (_comb(t33, n2) if t33 >= 0 <= n2 else _binom(t33, n2)) * n35
            t38 = k30 + k31 * n9
            t39 = n3 + k32 * n2
            if t39 >= 0: n40 = t38 ** t39; d41 = 1
            elif not t38: raise PoleError('zero base with negative exponent')
            else:
                n40 = 1; d41 = t38 ** -t39
                if d41 < 0: n40 = -n40; d41 = -d41
            if not n40: raise PoleError('division by zero')
            n42 = k29 * d41
            d43 = n40
            if d43 < 0: n42 = -n42; d43 = -d43
            n44 = n37 * n42
            d45 = d36 * d43
            n46 = k17 * n44
            if d30 == d45: n47 = n29 + n46; d48 = d30
            else: n47 = n29 * d45 + n46 * d30; d48 = d30 * d45
            return n47 if d48 == 1 else _value(n47, d48)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make46(general, k0, k1, k2, k3, k4, k5):
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


def _make47(general):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            return n1
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make48(general, k0, k1, k2, k3, k4, k5, k6, k7, k8):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k1 * n3
            t5 = n1 + k2
            t6 = n2 + k3 * k4
            n7 = env['x']
            if type(n7) is not int: return general(env)
            t8 = k6 + k7 * n7
            t9 = n3 + k8 * n2
            if t9 >= 0: n10 = t8 ** t9; d11 = 1
            elif not t8: raise PoleError('zero base with negative exponent')
            else:
                n10 = 1; d11 = t8 ** -t9
                if d11 < 0: n10 = -n10; d11 = -d11
            if not n10: raise PoleError('division by zero')
            n12 = k5 * d11
            d13 = n10
            if d13 < 0: n12 = -n12; d13 = -d13
            n14 = (-1 if (n1 + n2 + k0) % 2 else 1) * (_comb(t4, t5) if t4 >= 0 <= t5 else _binom(t4, t5)) * (_comb(n1, t6) if n1 >= 0 <= t6 else _binom(n1, t6)) * n12
            return n14 if d13 == 1 else _value(n14, d13)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make49(k0, k1, k2, k3, k4, k5, k6, k7, k8):
    def term(env):
        try:
            n1 = env['i']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = env['t']; d4 = 1
            if type(n3) is not int: n3, d4 = _pair(n3)
            if d2 == d4: n5 = n1 + n3; d6 = d2
            else: n5 = n1 * d4 + n3 * d2; d6 = d2 * d4
            n7 = n5 + k0 * d6
            q8 = n7 if d6 == 1 else _int(n7, d6, 'sign exponent')
            n9 = env['s']; d10 = 1
            if type(n9) is not int: n9, d10 = _pair(n9)
            n11 = k1 * n9
            q12 = n11 if d10 == 1 else _int(n11, d10, 'binomial upper index')
            n13 = n1 + k2 * d2
            q14 = n13 if d2 == 1 else _int(n13, d2, 'binomial lower index')
            q15 = n1 if d2 == 1 else _int(n1, d2, 'binomial upper index')
            n16 = n3 + k3 * k4 * d4
            q17 = n16 if d4 == 1 else _int(n16, d4, 'binomial lower index')
            n18 = env['x']; d19 = 1
            if type(n18) is not int: n18, d19 = _pair(n18)
            n20 = k7 * n18
            n21 = n20 + k6 * d19
            n22 = k8 * n3
            if d10 == d4: n23 = n9 + n22; d24 = d10
            else: n23 = n9 * d4 + n22 * d10; d24 = d10 * d4
            q25 = n23 if d24 == 1 else _int(n23, d24, 'exponent')
            if q25 >= 0: n26 = n21 ** q25; d27 = d19 ** q25
            elif not n21: raise PoleError('zero base with negative exponent')
            else:
                n26 = d19 ** -q25; d27 = n21 ** -q25
                if d27 < 0: n26 = -n26; d27 = -d27
            if not n26: raise PoleError('division by zero')
            n28 = k5 * d27
            d29 = n26
            if d29 < 0: n28 = -n28; d29 = -d29
            n30 = (-1 if q8 % 2 else 1) * (_comb(q12, q14) if q12 >= 0 <= q14 else _binom(q12, q14)) * (_comb(q15, q17) if q15 >= 0 <= q17 else _binom(q15, q17)) * n28
            return n30 if d29 == 1 else _value(n30, d29)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make50(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32):
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
            n10 = k0 * n8
            n11 = k1 * n1
            if d9 == d2: n12 = n10 + n11; d13 = d9
            else: n12 = n10 * d2 + n11 * d9; d13 = d9 * d2
            n14 = (-1 if q7 % 2 else 1) * n12
            n15 = k2 * n8
            q16 = n15 if d9 == 1 else _int(n15, d9, 'binomial upper index')
            q17 = n1 if d2 == 1 else _int(n1, d2, 'binomial lower index')
            n18 = n14 * (_comb(q16, q17) if q16 >= 0 <= q17 else _binom(q16, q17))
            q19 = n3 if d4 == 1 else _int(n3, d4, 'binomial lower index')
            n20 = n18 * (_comb(q17, q19) if q17 >= 0 <= q19 else _binom(q17, q19))
            n21 = k4 * n8
            n22 = k5 * n3
            if d9 == d4: n23 = n21 + n22; d24 = d9
            else: n23 = n21 * d4 + n22 * d9; d24 = d9 * d4
            if not n23: raise PoleError('division by zero')
            n25 = k3 * d24
            d26 = n23
            if d26 < 0: n25 = -n25; d26 = -d26
            n27 = n20 * n25
            d28 = d13 * d26
            n29 = env['x']; d30 = 1
            if type(n29) is not int: n29, d30 = _pair(n29)
            n31 = k8 * n29
            n32 = n31 + k7 * d30
            n33 = k9 * n3
            if d9 == d4: n34 = n8 + n33; d35 = d9
            else: n34 = n8 * d4 + n33 * d9; d35 = d9 * d4
            q36 = n34 if d35 == 1 else _int(n34, d35, 'exponent')
            if q36 >= 0: n37 = n32 ** q36; d38 = d30 ** q36
            elif not n32: raise PoleError('zero base with negative exponent')
            else:
                n37 = d30 ** -q36; d38 = n32 ** -q36
                if d38 < 0: n37 = -n37; d38 = -d38
            if not n37: raise PoleError('division by zero')
            n39 = k6 * d38
            d40 = n37
            if d40 < 0: n39 = -n39; d40 = -d40
            n41 = n27 * n39
            d42 = d28 * d40
            n43 = n8 * n29
            d44 = d9 * d30
            n45 = n1 + k11 * d2
            if not n45: raise PoleError('division by zero')
            n46 = n43 * d2
            d47 = n45 * d44
            if d47 < 0: n46 = -n46; d47 = -d47
            n48 = n46 + k12 * k13 * d47
            n49 = k10 * n48
            n50 = k15 * n3
            if d9 == d4: n51 = n8 + n50; d52 = d9
            else: n51 = n8 * d4 + n50 * d9; d52 = d9 * d4
            n53 = n29 * n51
            d54 = d30 * d52
            n55 = n1 + k16 * d2
            if not n55: raise PoleError('division by zero')
            n56 = n53 * d2
            d57 = n55 * d54
            if d57 < 0: n56 = -n56; d57 = -d57
            n58 = k14 * n56
            if d47 == d57: n59 = n49 + n58; d60 = d47
            else: n59 = n49 * d57 + n58 * d47; d60 = d47 * d57
            n61 = n41 * n59
            d62 = d42 * d60
            if d2 == d4: n63 = n1 + n3; d64 = d2
            else: n63 = n1 * d4 + n3 * d2; d64 = d2 * d4
            n65 = n63 + k18 * d64
            q66 = n65 if d64 == 1 else _int(n65, d64, 'sign exponent')
            n67 = k19 * n8
            n68 = k20 * n1
            if d9 == d2: n69 = n67 + n68; d70 = d9
            else: n69 = n67 * d2 + n68 * d9; d70 = d9 * d2
            n71 = n69 + k21 * k22 * d70
            n72 = (-1 if q66 % 2 else 1) * n71
            n73 = k23 * n8
            q74 = n73 if d9 == 1 else _int(n73, d9, 'binomial upper index')
            n75 = n1 + k24 * d2
            q76 = n75 if d2 == 1 else _int(n75, d2, 'binomial lower index')
            n77 = n72 * (_comb(q74, q76) if q74 >= 0 <= q76 else _binom(q74, q76))
            n78 = n1 + k25 * d2
            q79 = n78 if d2 == 1 else _int(n78, d2, 'binomial upper index')
            n80 = n77 * (_comb(q79, q19) if q79 >= 0 <= q19 else _binom(q79, q19))
            n81 = k27 * n8
            n82 = k28 * n3
            if d9 == d4: n83 = n81 + n82; d84 = d9
            else: n83 = n81 * d4 + n82 * d9; d84 = d9 * d4
            if not n83: raise PoleError('division by zero')
            n85 = k26 * d84
            d86 = n83
            if d86 < 0: n85 = -n85; d86 = -d86
            n87 = n80 * n85
            d88 = d70 * d86
            n89 = k31 * n29
            n90 = n89 + k30 * d30
            n91 = k32 * n3
            if d9 == d4: n92 = n8 + n91; d93 = d9
            else: n92 = n8 * d4 + n91 * d9; d93 = d9 * d4
            q94 = n92 if d93 == 1 else _int(n92, d93, 'exponent')
            if q94 >= 0: n95 = n90 ** q94; d96 = d30 ** q94
            elif not n90: raise PoleError('zero base with negative exponent')
            else:
                n95 = d30 ** -q94; d96 = n90 ** -q94
                if d96 < 0: n95 = -n95; d96 = -d96
            if not n95: raise PoleError('division by zero')
            n97 = k29 * d96
            d98 = n95
            if d98 < 0: n97 = -n97; d98 = -d98
            n99 = n87 * n97
            d100 = d88 * d98
            n101 = k17 * n99
            if d62 == d100: n102 = n61 + n101; d103 = d62
            else: n102 = n61 * d100 + n101 * d62; d103 = d62 * d100
            return n102 if d103 == 1 else _value(n102, d103)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make51(k0, k1, k2, k3, k4, k5):
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
    _make45,
    _make46,
    _make47,
    _make48,
    _make49,
    _make50,
    _make51,
)
