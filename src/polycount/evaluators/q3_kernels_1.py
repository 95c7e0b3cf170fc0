"""Evaluator factories of shapes that the q3/* telescoping checks and their mutants build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make82(general, k0, k1):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['i']
            if type(n2) is not int: return general(env)
            return k0 * n1 + k1 * n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make83(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = env['t']
            if type(n3) is not int: return general(env)
            t4 = (n1 + k9 * k10 * n2) * (k11 * n2 + n3 + k12 + n1)
            if not t4: raise PoleError('division by zero')
            n5 = k0 * (n1 + k1 * k2 * n2 + k3 * k4) * n2 * (k5 * n2 + k6 * (n3 + k7)) * (n3 + k8)
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k14 * n2 + k15 * (n3 + k16)
            if not t7: raise PoleError('division by zero')
            n8 = (-1 if (n3 + k13) % 2 else 1)
            d9 = t7
            if d9 < 0: n8 = -n8; d9 = -d9
            t10 = k17 * n2 + k18 * n1
            t11 = n3 + k19
            n12 = n8 * (_comb(t10, t11) if t10 >= 0 <= t11 else _binom(t10, t11))
            t13 = k20 * n2 + k21 * (n3 + k22) + k23 * n1
            t14 = k24 * n2 + k25 * n1 + k26
            n15 = n12 * (_comb(t13, t14) if t13 >= 0 <= t14 else _binom(t13, t14))
            n16 = n5 * n15
            d17 = d6 * d9
            t18 = (n1 + k35 * k36 * n2) * (k37 * n2 + n3 + n1)
            if not t18: raise PoleError('division by zero')
            n19 = k28 * (n1 + k29 * k30 * n2 + k31 * k32) * n2 * (k33 * n2 + k34 * n3) * n3
            d20 = t18
            if d20 < 0: n19 = -n19; d20 = -d20
            t21 = k38 * n2 + k39 * n3
            if not t21: raise PoleError('division by zero')
            n22 = (-1 if n3 % 2 else 1)
            d23 = t21
            if d23 < 0: n22 = -n22; d23 = -d23
            t24 = k40 * n2 + k41 * n1
            n25 = n22 * (_comb(t24, n3) if t24 >= 0 <= n3 else _binom(t24, n3))
            t26 = k42 * n2 + k43 * n3 + k44 * n1
            t27 = k45 * n2 + k46 * n1 + k47
            n28 = n25 * (_comb(t26, t27) if t26 >= 0 <= t27 else _binom(t26, t27))
            n29 = n19 * n28
            d30 = d20 * d23
            n31 = k27 * n29
            if d17 == d30: n32 = n16 + n31; d33 = d17
            else: n32 = n16 * d30 + n31 * d17; d33 = d17 * d30
            return n32 if d33 == 1 else _value(n32, d33)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make84(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47, k48, k49, k50):
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
            t7 = k6 * n2 + k7 * n1
            n8 = n5 * (_comb(t7, n3) if t7 >= 0 <= n3 else _binom(t7, n3))
            t9 = k8 * n2 + k9 * n3 + k10 * n1
            t10 = k11 * n2 + k12 * n1 + k13
            n11 = n8 * (_comb(t9, t10) if t9 >= 0 <= t10 else _binom(t9, t10))
            n12 = (n1 + k0 * k1 * n2 + k2 * k3) * n1 * n11
            t13 = k20 * n2 + k21 * n3
            if not t13: raise PoleError('division by zero')
            n14 = (-1 if n3 % 2 else 1)
            d15 = t13
            if d15 < 0: n14 = -n14; d15 = -d15
            t16 = k22 * n2 + k23 * (n1 + k24)
            n17 = n14 * (_comb(t16, n3) if t16 >= 0 <= n3 else _binom(t16, n3))
            t18 = k25 * n2 + k26 * n3 + k27 * (n1 + k28)
            t19 = k29 * n2 + k30 * (n1 + k31) + k32
            n20 = n17 * (_comb(t18, t19) if t18 >= 0 <= t19 else _binom(t18, t19))
            n21 = k14 * (k15 * n1 + k16 * n2 + k17) * (n1 + k18 * k19 * n2) * n20
            t22 = k38 * n2 + k39 * n3
            if not t22: raise PoleError('division by zero')
            n23 = (-1 if n3 % 2 else 1)
            d24 = t22
            if d24 < 0: n23 = -n23; d24 = -d24
            t25 = k40 * n2 + k41 * (n1 + k42)
            n26 = n23 * (_comb(t25, n3) if t25 >= 0 <= n3 else _binom(t25, n3))
            t27 = k43 * n2 + k44 * n3 + k45 * (n1 + k46)
            t28 = k47 * n2 + k48 * (n1 + k49) + k50
            n29 = n26 * (_comb(t27, t28) if t27 >= 0 <= t28 else _binom(t27, t28))
            n30 = (n1 + k33 * n2 + k34) * (n1 + k35 * k36 * n2 + k37) * n29
            if d6 == d15: n31 = n12 + n21; d32 = d6
            else: n31 = n12 * d15 + n21 * d6; d32 = d6 * d15
            if d32 == d24: n33 = n31 + n30; d34 = d32
            else: n33 = n31 * d24 + n30 * d32; d34 = d32 * d24
            return n33 if d34 == 1 else _value(n33, d34)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make85(general, k0):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            return n1 + k0 * n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make86(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            n4 = env['i']
            if type(n4) is not int: return general(env)
            t5 = n4 + k4 * n3 + k5 * k6
            if not t5: raise PoleError('division by zero')
            n6 = (n1 + n2 + k0 + k1 * k2) * (n3 + k3 * n1)
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            t8 = n2 + k9
            if not t8: raise PoleError('division by zero')
            n9 = (-1 if (n2 + k7 + k8) % 2 else 1)
            d10 = t8
            if d10 < 0: n9 = -n9; d10 = -d10
            t11 = n4 + k10 * n3 + k11 * k12
            t12 = n1 + n2 + k13 + k14 * k15
            n13 = n9 * (_comb(t11, t12) if t11 >= 0 <= t12 else _binom(t11, t12))
            t14 = n2 + k16 + k17 * k18
            n15 = n13 * (_comb(n1, t14) if n1 >= 0 <= t14 else _binom(n1, t14))
            t16 = n1 + k19 * n3
            t17 = n2 + k20
            t18 = (_comb(t16, t17) if t16 >= 0 <= t17 else _binom(t16, t17))
            if not t18: raise PoleError('division by zero')
            n19 = n15
            d20 = t18 * d10
            if d20 < 0: n19 = -n19; d20 = -d20
            n21 = n6 * n19
            d22 = d7 * d20
            t23 = n4 + k25 * n3 + k26 * k27
            if not t23: raise PoleError('division by zero')
            n24 = (n1 + n2 + k22 * k23) * (n3 + k24 * n1)
            d25 = t23
            if d25 < 0: n24 = -n24; d25 = -d25
            if not n2: raise PoleError('division by zero')
            n26 = (-1 if (n2 + k28) % 2 else 1)
            d27 = n2
            if d27 < 0: n26 = -n26; d27 = -d27
            t28 = n4 + k29 * n3 + k30 * k31
            t29 = n1 + n2 + k32 * k33
            n30 = n26 * (_comb(t28, t29) if t28 >= 0 <= t29 else _binom(t28, t29))
            t31 = n2 + k34 * k35
            n32 = n30 * (_comb(n1, t31) if n1 >= 0 <= t31 else _binom(n1, t31))
            t33 = n1 + k36 * n3
            t34 = (_comb(t33, n2) if t33 >= 0 <= n2 else _binom(t33, n2))
            if not t34: raise PoleError('division by zero')
            n35 = n32
            d36 = t34 * d27
            if d36 < 0: n35 = -n35; d36 = -d36
            n37 = n24 * n35
            d38 = d25 * d36
            n39 = k21 * n37
            if d22 == d38: n40 = n21 + n39; d41 = d22
            else: n40 = n21 * d38 + n39 * d22; d41 = d22 * d38
            return n40 if d41 == 1 else _value(n40, d41)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make87(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['t']
            if type(n3) is not int: return general(env)
            if not n3: raise PoleError('division by zero')
            n4 = (-1 if (n3 + k1) % 2 else 1)
            d5 = n3
            if d5 < 0: n4 = -n4; d5 = -d5
            n6 = env['i']
            if type(n6) is not int: return general(env)
            t7 = n6 + k2 * n2 + k3 * k4
            t8 = n1 + n3 + k5 * k6
            n9 = n4 * (_comb(t7, t8) if t7 >= 0 <= t8 else _binom(t7, t8))
            t10 = n3 + k7 * k8
            n11 = n9 * (_comb(n1, t10) if n1 >= 0 <= t10 else _binom(n1, t10))
            t12 = n1 + k9 * n2
            t13 = (_comb(t12, n3) if t12 >= 0 <= n3 else _binom(t12, n3))
            if not t13: raise PoleError('division by zero')
            n14 = n11
            d15 = t13 * d5
            if d15 < 0: n14 = -n14; d15 = -d15
            n16 = (n1 + k0 * n2) * n14
            if not n3: raise PoleError('division by zero')
            n17 = (-1 if (n3 + k11) % 2 else 1)
            d18 = n3
            if d18 < 0: n17 = -n17; d18 = -d18
            t19 = n6 + k12 * (n2 + k13) + k14 * k15
            t20 = n1 + n3 + k16 * k17
            n21 = n17 * (_comb(t19, t20) if t19 >= 0 <= t20 else _binom(t19, t20))
            t22 = n3 + k18 * k19
            n23 = n21 * (_comb(n1, t22) if n1 >= 0 <= t22 else _binom(n1, t22))
            t24 = n1 + k20 * (n2 + k21)
            t25 = (_comb(t24, n3) if t24 >= 0 <= n3 else _binom(t24, n3))
            if not t25: raise PoleError('division by zero')
            n26 = n23
            d27 = t25 * d18
            if d27 < 0: n26 = -n26; d27 = -d27
            n28 = (n2 + k10) * n26
            if d15 == d27: n29 = n16 + n28; d30 = d15
            else: n29 = n16 * d27 + n28 * d15; d30 = d15 * d27
            return n29 if d30 == 1 else _value(n29, d30)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make88(general):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            return n1
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make89(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47, k48, k49, k50, k51, k52, k53, k54, k55, k56, k57, k58, k59, k60, k61, k62, k63, k64, k65, k66, k67, k68, k69, k70, k71, k72, k73, k74, k75, k76, k77, k78, k79, k80, k81):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['i']
            if type(n3) is not int: return general(env)
            t4 = k2 * n1
            n5 = env['jp']
            if type(n5) is not int: return general(env)
            n6 = env['t']
            if type(n6) is not int: return general(env)
            if not n6: raise PoleError('division by zero')
            n7 = (-1 if (n5 + k3 + n6 + k4) % 2 else 1)
            d8 = n6
            if d8 < 0: n7 = -n7; d8 = -d8
            t9 = n3 + k5 * (n5 + k6) + k7 * k8
            t10 = n1 + n6 + k9 * k10
            n11 = n7 * (_comb(t9, t10) if t9 >= 0 <= t10 else _binom(t9, t10))
            t12 = n6 + k11 * k12
            n13 = n11 * (_comb(n1, t12) if n1 >= 0 <= t12 else _binom(n1, t12))
            t14 = n2 + k13 * (n5 + k14)
            n15 = n13 * (_comb(n1, t14) if n1 >= 0 <= t14 else _binom(n1, t14))
            t16 = n1 + k15 * (n5 + k16)
            t17 = (_comb(t16, n6) if t16 >= 0 <= n6 else _binom(t16, n6))
            if not t17: raise PoleError('division by zero')
            n18 = n15
            d19 = t17 * d8
            if d19 < 0: n18 = -n18; d19 = -d19
            n20 = (-1 if (n1 + n2 + k1) % 2 else 1) * (-1 if (n1 + n3 + n2) % 2 else 1) * n3 * (_comb(t4, n3) if t4 >= 0 <= n3 else _binom(t4, n3)) * n18
            n21 = k0 * n20
            t22 = k20 * n1
            if not n6: raise PoleError('division by zero')
            n23 = (-1 if (n5 + n6 + k21) % 2 else 1)
            d24 = n6
            if d24 < 0: n23 = -n23; d24 = -d24
            t25 = n3 + k22 * n5 + k23 * k24
            t26 = n1 + n6 + k25 * k26
            n27 = n23 * (_comb(t25, t26) if t25 >= 0 <= t26 else _binom(t25, t26))
            t28 = n6 + k27 * k28
            n29 = n27 * (_comb(n1, t28) if n1 >= 0 <= t28 else _binom(n1, t28))
            t30 = n2 + k29 * n5
            n31 = n29 * (_comb(n1, t30) if n1 >= 0 <= t30 else _binom(n1, t30))
            t32 = n1 + k30 * n5
            t33 = (_comb(t32, n6) if t32 >= 0 <= n6 else _binom(t32, n6))
            if not t33: raise PoleError('division by zero')
            n34 = n31
            d35 = t33 * d24
            if d35 < 0: n34 = -n34; d35 = -d35
            n36 = (-1 if (n1 + n2 + k19) % 2 else 1) * (-1 if (n1 + n3 + n2) % 2 else 1) * n3 * (_comb(t22, n3) if t22 >= 0 <= n3 else _binom(t22, n3)) * n34
            n37 = k18 * n36
            n38 = k17 * n37
            if d19 == d35: n39 = n21 + n38; d40 = d19
            else: n39 = n21 * d35 + n38 * d19; d40 = d19 * d35
            t41 = n3 * (k38 * n5 + n3 + k39 + k40 * n1 + k41 * (n6 + k42))
            if not t41: raise PoleError('division by zero')
            n42 = (n1 + k31 * n5 + k32 * (n6 + k33) + k34) * (n1 + n6 + k35 + k36 * k37)
            d43 = t41
            if d43 < 0: n42 = -n42; d43 = -d43
            t44 = k44 * n1
            t45 = n6 + k47
            if not t45: raise PoleError('division by zero')
            n46 = (-1 if (n5 + n6 + k45 + k46) % 2 else 1)
            d47 = t45
            if d47 < 0: n46 = -n46; d47 = -d47
            t48 = n3 + k48 * n5 + k49 * k50
            t49 = n1 + n6 + k51 + k52 * k53
            n50 = n46 * (_comb(t48, t49) if t48 >= 0 <= t49 else _binom(t48, t49))
            t51 = n6 + k54 + k55 * k56
            n52 = n50 * (_comb(n1, t51) if n1 >= 0 <= t51 else _binom(n1, t51))
            t53 = n2 + k57 * n5
            n54 = n52 * (_comb(n1, t53) if n1 >= 0 <= t53 else _binom(n1, t53))
            t55 = n1 + k58 * n5
            t56 = n6 + k59
            t57 = (_comb(t55, t56) if t55 >= 0 <= t56 else _binom(t55, t56))
            if not t57: raise PoleError('division by zero')
            n58 = n54
            d59 = t57 * d47
            if d59 < 0: n58 = -n58; d59 = -d59
            n60 = (-1 if (n1 + n2 + k43) % 2 else 1) * (-1 if (n1 + n3 + n2) % 2 else 1) * n3 * (_comb(t44, n3) if t44 >= 0 <= n3 else _binom(t44, n3)) * n58
            n61 = n42 * n60
            d62 = d43 * d59
            t63 = n3 * (k66 * n5 + n3 + k67 + k68 * n1 + k69 * n6)
            if not t63: raise PoleError('division by zero')
            n64 = (n1 + k61 * n5 + k62 * n6 + k63) * (n1 + n6 + k64 * k65)
            d65 = t63
            if d65 < 0: n64 = -n64; d65 = -d65
            t66 = k71 * n1
            if not n6: raise PoleError('division by zero')
            n67 = (-1 if (n5 + n6 + k72) % 2 else 1)
            d68 = n6
            if d68 < 0: n67 = -n67; d68 = -d68
            t69 = n3 + k73 * n5 + k74 * k75
            t70 = n1 + n6 + k76 * k77
            n71 = n67 * (_comb(t69, t70) if t69 >= 0 <= t70 else _binom(t69, t70))
            t72 = n6 + k78 * k79
            n73 = n71 * (_comb(n1, t72) if n1 >= 0 <= t72 else _binom(n1, t72))
            t74 = n2 + k80 * n5
            n75 = n73 * (_comb(n1, t74) if n1 >= 0 <= t74 else _binom(n1, t74))
            t76 = n1 + k81 * n5
            t77 = (_comb(t76, n6) if t76 >= 0 <= n6 else _binom(t76, n6))
            if not t77: raise PoleError('division by zero')
            n78 = n75
            d79 = t77 * d68
            if d79 < 0: n78 = -n78; d79 = -d79
            n80 = (-1 if (n1 + n2 + k70) % 2 else 1) * (-1 if (n1 + n3 + n2) % 2 else 1) * n3 * (_comb(t66, n3) if t66 >= 0 <= n3 else _binom(t66, n3)) * n78
            n81 = n64 * n80
            d82 = d65 * d79
            n83 = k60 * n81
            if d62 == d82: n84 = n61 + n83; d85 = d62
            else: n84 = n61 * d82 + n83 * d62; d85 = d62 * d82
            if d40 == d85: n86 = n39 + n84; d87 = d40
            else: n86 = n39 * d85 + n84 * d40; d87 = d40 * d85
            return n86 if d87 == 1 else _value(n86, d87)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make90(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['i']
            if type(n3) is not int: return general(env)
            t4 = k2 * n1
            n5 = env['jp']
            if type(n5) is not int: return general(env)
            n6 = env['t']
            if type(n6) is not int: return general(env)
            if not n6: raise PoleError('division by zero')
            n7 = (-1 if (n5 + n6 + k3) % 2 else 1)
            d8 = n6
            if d8 < 0: n7 = -n7; d8 = -d8
            t9 = n3 + k4 * n5 + k5 * k6
            t10 = n1 + n6 + k7 * k8
            n11 = n7 * (_comb(t9, t10) if t9 >= 0 <= t10 else _binom(t9, t10))
            t12 = n6 + k9 * k10
            n13 = n11 * (_comb(n1, t12) if n1 >= 0 <= t12 else _binom(n1, t12))
            t14 = n2 + k11 * n5
            n15 = n13 * (_comb(n1, t14) if n1 >= 0 <= t14 else _binom(n1, t14))
            t16 = n1 + k12 * n5
            t17 = (_comb(t16, n6) if t16 >= 0 <= n6 else _binom(t16, n6))
            if not t17: raise PoleError('division by zero')
            n18 = n15
            d19 = t17 * d8
            if d19 < 0: n18 = -n18; d19 = -d19
            n20 = (-1 if (n1 + n2 + k1) % 2 else 1) * (-1 if (n1 + n3 + n2) % 2 else 1) * n3 * (_comb(t4, n3) if t4 >= 0 <= n3 else _binom(t4, n3)) * n18
            n21 = k0 * n20
            t22 = k17 * n1
            t23 = n3 + k18
            if not n6: raise PoleError('division by zero')
            n24 = (-1 if (n5 + n6 + k19) % 2 else 1)
            d25 = n6
            if d25 < 0: n24 = -n24; d25 = -d25
            t26 = n3 + k20 + k21 * n5 + k22 * k23
            t27 = n1 + n6 + k24 * k25
            n28 = n24 * (_comb(t26, t27) if t26 >= 0 <= t27 else _binom(t26, t27))
            t29 = n6 + k26 * k27
            n30 = n28 * (_comb(n1, t29) if n1 >= 0 <= t29 else _binom(n1, t29))
            t31 = n2 + k28 * n5
            n32 = n30 * (_comb(n1, t31) if n1 >= 0 <= t31 else _binom(n1, t31))
            t33 = n1 + k29 * n5
            t34 = (_comb(t33, n6) if t33 >= 0 <= n6 else _binom(t33, n6))
            if not t34: raise PoleError('division by zero')
            n35 = n32
            d36 = t34 * d25
            if d36 < 0: n35 = -n35; d36 = -d36
            n37 = (-1 if (n1 + n2 + k14) % 2 else 1) * (-1 if (n1 + n3 + k15 + n2) % 2 else 1) * (n3 + k16) * (_comb(t22, t23) if t22 >= 0 <= t23 else _binom(t22, t23)) * n35
            n38 = k13 * n37
            if d19 == d36: n39 = n21 + n38; d40 = d19
            else: n39 = n21 * d36 + n38 * d19; d40 = d19 * d36
            return n39 if d40 == 1 else _value(n39, d40)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make91(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k1, n1 + 1):
                n5 = env['i']
                if type(n5) is not int: return general(env)
                t6 = k3 * n1
                t7 = n5 + k4 * i4 + k5 * k6
                t8 = n1 + k7 * k8
                n9 = env['j']
                if type(n9) is not int: return general(env)
                t10 = n9 + k9 * i4
                n2 += (-1 if (n5 + i4 + k2) % 2 else 1) * (_comb(t6, n5) if t6 >= 0 <= n5 else _binom(t6, n5)) * (_comb(t7, t8) if t7 >= 0 <= t8 else _binom(t7, t8)) * (_comb(n1, t10) if n1 >= 0 <= t10 else _binom(n1, t10))
            return k0 * n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make92(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k1 * n3
            t5 = n1 + k2 * (n2 + k3)
            n6 = env['j']
            if type(n6) is not int: return general(env)
            t7 = n1 + k4 * n6
            t8 = n1 + k5 * n6 + k6 * k7
            t9 = n1 + k8 * n3 + k9 * (n2 + k10)
            t10 = k12 * n3
            t11 = n1 + k13 * n2
            t12 = n1 + k14 * n6
            t13 = n1 + k15 * n6 + k16 * k17
            t14 = n1 + k18 * n3 + k19 * n2
            return (-1 if (n1 + n2 + k0) % 2 else 1) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1)) * (_comb(t5, t7) if t5 >= 0 <= t7 else _binom(t5, t7)) * (_comb(t8, t9) if t8 >= 0 <= t9 else _binom(t8, t9)) + k11 * (-1 if (n1 + n2) % 2 else 1) * (_comb(t10, n1) if t10 >= 0 <= n1 else _binom(t10, n1)) * (_comb(t11, t12) if t11 >= 0 <= t12 else _binom(t11, t12)) * (_comb(t13, t14) if t13 >= 0 <= t14 else _binom(t13, t14))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make93(general, k0, k1, k2, k3, k4, k5, k6, k7, k8):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k2 * n3
            t5 = n1 + k3 * n2 + k4 * k5
            t6 = n3 + k6 * k7
            n7 = env['j']
            if type(n7) is not int: return general(env)
            t8 = n7 + k8 * n2
            return k0 * (-1 if (n1 + n2 + k1) % 2 else 1) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1)) * (_comb(t5, t6) if t5 >= 0 <= t6 else _binom(t5, t6)) * (_comb(n3, t8) if n3 >= 0 <= t8 else _binom(n3, t8))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make94(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47, k48, k49, k50, k51, k52, k53, k54, k55, k56, k57, k58, k59, k60, k61, k62):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            n3 = env['i']
            if type(n3) is not int: return general(env)
            n4 = 0; d5 = 1
            for i6 in range(k6, k7 * n2 + k8 * n3 + 1):
                t7 = k9 * n2 + k10 * i6
                if not t7: raise PoleError('division by zero')
                n8 = (-1 if i6 % 2 else 1)
                d9 = t7
                if d9 < 0: n8 = -n8; d9 = -d9
                t10 = k11 * n2 + k12 * n3
                n11 = n8 * (_comb(t10, i6) if t10 >= 0 <= i6 else _binom(t10, i6))
                t12 = k13 * n2 + k14 * i6 + k15 * k16 + k17 * n1
                t13 = n2 + k18 * n1
                n14 = n11 * (_comb(t12, t13) if t12 >= 0 <= t13 else _binom(t12, t13))
                if d9 == d5: n4 += n14
                elif not n4: n4 = n14; d5 = d9
                else: n4 = n4 * d9 + n14 * d5; d5 *= d9
            n15 = k0 * (n1 + k1 * n2) * (n3 + k2 * n1 + k3 * n2 + k4 * k5) * n4
            n16 = 0; d17 = 1
            for i18 in range(k28, k29 * n2 + k30 * n3 + 1):
                t19 = k31 * n2 + k32 * i18
                if not t19: raise PoleError('division by zero')
                n20 = (-1 if i18 % 2 else 1)
                d21 = t19
                if d21 < 0: n20 = -n20; d21 = -d21
                t22 = k33 * n2 + k34 * n3
                n23 = n20 * (_comb(t22, i18) if t22 >= 0 <= i18 else _binom(t22, i18))
                t24 = k35 * n2 + k36 * i18 + k37 * k38 + k39 * (n1 + k40)
                t25 = n2 + k41 * (n1 + k42)
                n26 = n23 * (_comb(t24, t25) if t24 >= 0 <= t25 else _binom(t24, t25))
                if d21 == d17: n16 += n26
                elif not n16: n16 = n26; d17 = d21
                else: n16 = n16 * d21 + n26 * d17; d17 *= d21
            n27 = (k19 * n3 * n1 + k20 * n3 * n2 + k21 * k22 * n1 * n1 + k23 * n3 + k24 * k25 * n1 + n2 + k26 * k27) * n16
            n28 = 0; d29 = 1
            for i30 in range(k48, k49 * n2 + k50 * n3 + 1):
                t31 = k51 * n2 + k52 * i30
                if not t31: raise PoleError('division by zero')
                n32 = (-1 if i30 % 2 else 1)
                d33 = t31
                if d33 < 0: n32 = -n32; d33 = -d33
                t34 = k53 * n2 + k54 * n3
                n35 = n32 * (_comb(t34, i30) if t34 >= 0 <= i30 else _binom(t34, i30))
                t36 = k55 * n2 + k56 * i30 + k57 * k58 + k59 * (n1 + k60)
                t37 = n2 + k61 * (n1 + k62)
                n38 = n35 * (_comb(t36, t37) if t36 >= 0 <= t37 else _binom(t36, t37))
                if d33 == d29: n28 += n38
                elif not n28: n28 = n38; d29 = d33
                else: n28 = n28 * d33 + n38 * d29; d29 *= d33
            n39 = k43 * (n1 + k44) * (n3 + k45 * n1 + k46 * k47) * n28
            if d5 == d17: n40 = n15 + n27; d41 = d5
            else: n40 = n15 * d17 + n27 * d5; d41 = d5 * d17
            if d41 == d29: n42 = n40 + n39; d43 = d41
            else: n42 = n40 * d29 + n39 * d41; d43 = d41 * d29
            return n42 if d43 == 1 else _value(n42, d43)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make95(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37):
    def term(env):
        try:
            n1 = env['t']
            if type(n1) is not int: return general(env)
            n2 = env['jp']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k5 * n3 + n1 + k6 + k7 + n2
            if not t4: raise PoleError('division by zero')
            n5 = (n1 + k0) * (n2 + k1 * n3) * (k2 * n3 + k3 * (n1 + k4))
            d6 = t4
            if d6 < 0: n5 = -n5; d6 = -d6
            t7 = k9 * n3 + k10 * (n1 + k11)
            if not t7: raise PoleError('division by zero')
            n8 = (-1 if (n1 + k8) % 2 else 1)
            d9 = t7
            if d9 < 0: n8 = -n8; d9 = -d9
            n10 = env['i']
            if type(n10) is not int: return general(env)
            t11 = k12 * n3 + k13 * n10
            t12 = n1 + k14
            n13 = n8 * (_comb(t11, t12) if t11 >= 0 <= t12 else _binom(t11, t12))
            t14 = k15 * n3 + k16 * (n1 + k17) + k18 * k19 + k20 * n2
            t15 = n3 + k21 * n2
            n16 = n13 * (_comb(t14, t15) if t14 >= 0 <= t15 else _binom(t14, t15))
            n17 = n5 * n16
            d18 = d6 * d9
            t19 = k26 * n3 + n1 + k27 + n2
            if not t19: raise PoleError('division by zero')
            n20 = n1 * (n2 + k23 * n3) * (k24 * n3 + k25 * n1)
            d21 = t19
            if d21 < 0: n20 = -n20; d21 = -d21
            t22 = k28 * n3 + k29 * n1
            if not t22: raise PoleError('division by zero')
            n23 = (-1 if n1 % 2 else 1)
            d24 = t22
            if d24 < 0: n23 = -n23; d24 = -d24
            t25 = k30 * n3 + k31 * n10
            n26 = n23 * (_comb(t25, n1) if t25 >= 0 <= n1 else _binom(t25, n1))
            t27 = k32 * n3 + k33 * n1 + k34 * k35 + k36 * n2
            t28 = n3 + k37 * n2
            n29 = n26 * (_comb(t27, t28) if t27 >= 0 <= t28 else _binom(t27, t28))
            n30 = n20 * n29
            d31 = d21 * d24
            n32 = k22 * n30
            if d18 == d31: n33 = n17 + n32; d34 = d18
            else: n33 = n17 * d31 + n32 * d18; d34 = d18 * d31
            return n33 if d34 == 1 else _value(n33, d34)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make82,
    _make83,
    _make84,
    _make85,
    _make86,
    _make87,
    _make88,
    _make89,
    _make90,
    _make91,
    _make92,
    _make93,
    _make94,
    _make95,
)
