"""Evaluator factories of shapes that the q4/* telescoping checks and their mutants build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make117(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26):
    def term(env):
        try:
            n1 = env['j']
            if type(n1) is not int: return general(env)
            n2 = env['ip']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            n4 = env['i']
            if type(n4) is not int: return general(env)
            t5 = n4 + k5 + k6 * (n2 + k7)
            if not t5: raise PoleError('division by zero')
            n6 = (n1 + k0 * (n2 + k1)) * (k2 * n3 + n4 + k3 * (n2 + k4))
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            t8 = k9 * n3
            t9 = n1 + k10 * (n2 + k11) + k12 * k13
            t10 = n4 + k14 * (n2 + k15)
            n11 = n6 * (-1 if (n3 + n4 + n1 + n2 + k8) % 2 else 1) * (_comb(t8, n1) if t8 >= 0 <= n1 else _binom(t8, n1)) * (_comb(t9, n3) if t9 >= 0 <= n3 else _binom(t9, n3)) * (_comb(n3, t10) if n3 >= 0 <= t10 else _binom(n3, t10))
            t12 = n4 + k20 + k21 * n2
            if not t12: raise PoleError('division by zero')
            n13 = (n1 + k17 * n2) * (k18 * n3 + n4 + k19 * n2)
            d14 = t12
            if d14 < 0: n13 = -n13; d14 = -d14
            t15 = k22 * n3
            t16 = n1 + k23 * n2 + k24 * k25
            t17 = n4 + k26 * n2
            n18 = n13 * (-1 if (n3 + n4 + n1 + n2) % 2 else 1) * (_comb(t15, n1) if t15 >= 0 <= n1 else _binom(t15, n1)) * (_comb(t16, n3) if t16 >= 0 <= n3 else _binom(t16, n3)) * (_comb(n3, t17) if n3 >= 0 <= t17 else _binom(n3, t17))
            n19 = k16 * n18
            if d7 == d14: n20 = n11 + n19; d21 = d7
            else: n20 = n11 * d14 + n19 * d7; d21 = d7 * d14
            return n20 if d21 == 1 else _value(n20, d21)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make118(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            n4 = env['ip']
            if type(n4) is not int: return general(env)
            t5 = k3 * n3
            t6 = n2 + k4 * n4 + k5 * k6
            t7 = n1 + k7 * n4
            t8 = k11 * n3
            t9 = n2 + k12 * n4 + k13 * k14
            t10 = n1 + k15 + k16 * n4
            return (k0 * n1 + k1 * k2 + n2) * (-1 if (n3 + n1 + n2 + n4) % 2 else 1) * (_comb(t5, n2) if t5 >= 0 <= n2 else _binom(t5, n2)) * (_comb(t6, n3) if t6 >= 0 <= n3 else _binom(t6, n3)) * (_comb(n3, t7) if n3 >= 0 <= t7 else _binom(n3, t7)) + (n1 + k8 * n2 + k9) * (-1 if (n3 + n1 + k10 + n2 + n4) % 2 else 1) * (_comb(t8, n2) if t8 >= 0 <= n2 else _binom(t8, n2)) * (_comb(t9, n3) if t9 >= 0 <= n3 else _binom(t9, n3)) * (_comb(n3, t10) if n3 >= 0 <= t10 else _binom(n3, t10))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make119(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            n4 = env['i']
            if type(n4) is not int: return general(env)
            t5 = (k5 * n3 + k6 * n1 + n4 + k7) * (n4 + k8)
            if not t5: raise PoleError('division by zero')
            n6 = k0 * (n1 + k1 * n2 + k2) * (n3 + n2 + k3 * k4)
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            n8 = env['j']
            if type(n8) is not int: return general(env)
            t9 = k11 * n3
            if not n2: raise PoleError('division by zero')
            n10 = (-1 if (n1 + n2) % 2 else 1)
            d11 = n2
            if d11 < 0: n10 = -n10; d11 = -d11
            t12 = n2 + k12 * k13
            n13 = n10 * (_comb(n3, t12) if n3 >= 0 <= t12 else _binom(n3, t12))
            t14 = n3 + n1 + k14 * n4 + k15 * k16
            t15 = n3 + n2 + k17 * k18
            n16 = n13 * (_comb(t14, t15) if t14 >= 0 <= t15 else _binom(t14, t15))
            t17 = n8 + k19 * n1
            n18 = n16 * (_comb(n3, t17) if n3 >= 0 <= t17 else _binom(n3, t17))
            t19 = (_comb(n1, n2) if n1 >= 0 <= n2 else _binom(n1, n2))
            if not t19: raise PoleError('division by zero')
            n20 = n18
            d21 = t19 * d11
            if d21 < 0: n20 = -n20; d21 = -d21
            n22 = (-1 if (n4 + n8) % 2 else 1) * (k9 * n3 + k10 * n4) * (_comb(t9, n4) if t9 >= 0 <= n4 else _binom(t9, n4)) * n20
            n23 = n6 * n22
            d24 = d7 * d21
            t25 = (n4 + k26 + k27 * n3 + k28 * n1) * (n4 + k29)
            if not t25: raise PoleError('division by zero')
            n26 = k21 * (-1 if (n4 + n8 + n1 + n2) % 2 else 1) * (n3 + n2 + k22 * k23) * (k24 * n3 + k25 * n4)
            d27 = t25
            if d27 < 0: n26 = -n26; d27 = -d27
            t28 = k30 * n3
            n29 = n26 * (_comb(t28, n4) if t28 >= 0 <= n4 else _binom(t28, n4))
            t30 = n2 + k31 * k32
            n31 = n29 * (_comb(n3, t30) if n3 >= 0 <= t30 else _binom(n3, t30))
            t32 = n3 + n1 + k33 * n4 + k34 * k35
            t33 = n3 + n2 + k36 * k37
            n34 = n31 * (_comb(t32, t33) if t32 >= 0 <= t33 else _binom(t32, t33))
            t35 = n8 + k38 * n1
            n36 = n34 * (_comb(n3, t35) if n3 >= 0 <= t35 else _binom(n3, t35))
            t37 = n2 + k39 * k40
            t38 = (_comb(n1, t37) if n1 >= 0 <= t37 else _binom(n1, t37))
            if not t38: raise PoleError('division by zero')
            n39 = n36
            d40 = t38 * d27
            if d40 < 0: n39 = -n39; d40 = -d40
            n41 = k20 * n39
            if d24 == d40: n42 = n23 + n41; d43 = d24
            else: n42 = n23 * d40 + n41 * d24; d43 = d24 * d40
            return n42 if d43 == 1 else _value(n42, d43)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make120(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47, k48, k49, k50, k51, k52):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['t']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            n4 = env['i']
            if type(n4) is not int: return general(env)
            t5 = (k7 * n3 + k8 * n1 + n4 + k9) * (n4 + k10)
            if not t5: raise PoleError('division by zero')
            n6 = k0 * (n1 + k1 * (n2 + k2) + k3) * (n3 + n2 + k4 + k5 * k6)
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            n8 = env['j']
            if type(n8) is not int: return general(env)
            t9 = k13 * n3
            t10 = n2 + k15
            if not t10: raise PoleError('division by zero')
            n11 = (-1 if (n1 + n2 + k14) % 2 else 1)
            d12 = t10
            if d12 < 0: n11 = -n11; d12 = -d12
            t13 = n2 + k16 + k17 * k18
            n14 = n11 * (_comb(n3, t13) if n3 >= 0 <= t13 else _binom(n3, t13))
            t15 = n3 + n1 + k19 * n4 + k20 * k21
            t16 = n3 + n2 + k22 + k23 * k24
            n17 = n14 * (_comb(t15, t16) if t15 >= 0 <= t16 else _binom(t15, t16))
            t18 = n8 + k25 * n1
            n19 = n17 * (_comb(n3, t18) if n3 >= 0 <= t18 else _binom(n3, t18))
            t20 = n2 + k26
            t21 = (_comb(n1, t20) if n1 >= 0 <= t20 else _binom(n1, t20))
            if not t21: raise PoleError('division by zero')
            n22 = n19
            d23 = t21 * d12
            if d23 < 0: n22 = -n22; d23 = -d23
            n24 = (-1 if (n4 + n8) % 2 else 1) * (k11 * n3 + k12 * n4) * (_comb(t9, n4) if t9 >= 0 <= n4 else _binom(t9, n4)) * n22
            n25 = n6 * n24
            d26 = d7 * d23
            t27 = (n4 + k35 + k36 * n3 + k37 * n1) * (n4 + k38)
            if not t27: raise PoleError('division by zero')
            n28 = k28 * (-1 if (n4 + n8 + n1 + n2 + k29) % 2 else 1) * (n3 + n2 + k30 + k31 * k32) * (k33 * n3 + k34 * n4)
            d29 = t27
            if d29 < 0: n28 = -n28; d29 = -d29
            t30 = k39 * n3
            n31 = n28 * (_comb(t30, n4) if t30 >= 0 <= n4 else _binom(t30, n4))
            t32 = n2 + k40 + k41 * k42
            n33 = n31 * (_comb(n3, t32) if n3 >= 0 <= t32 else _binom(n3, t32))
            t34 = n3 + n1 + k43 * n4 + k44 * k45
            t35 = n3 + n2 + k46 + k47 * k48
            n36 = n33 * (_comb(t34, t35) if t34 >= 0 <= t35 else _binom(t34, t35))
            t37 = n8 + k49 * n1
            n38 = n36 * (_comb(n3, t37) if n3 >= 0 <= t37 else _binom(n3, t37))
            t39 = n2 + k50 + k51 * k52
            t40 = (_comb(n1, t39) if n1 >= 0 <= t39 else _binom(n1, t39))
            if not t40: raise PoleError('division by zero')
            n41 = n38
            d42 = t40 * d29
            if d42 < 0: n41 = -n41; d42 = -d42
            n43 = k27 * n41
            if d26 == d42: n44 = n25 + n43; d45 = d26
            else: n44 = n25 * d42 + n43 * d26; d45 = d26 * d42
            return n44 if d45 == 1 else _value(n44, d45)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make121(general):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            return n1
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make122(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47, k48, k49, k50, k51, k52, k53, k54, k55, k56, k57, k58, k59, k60, k61, k62, k63, k64, k65, k66, k67, k68, k69, k70, k71, k72, k73, k74):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k3 * n3
            n5 = env['jp']
            if type(n5) is not int: return general(env)
            n6 = env['t']
            if type(n6) is not int: return general(env)
            if not n6: raise PoleError('division by zero')
            n7 = (-1 if (n5 + k4 + n6) % 2 else 1)
            d8 = n6
            if d8 < 0: n7 = -n7; d8 = -d8
            t9 = n6 + k5 * k6
            n10 = n7 * (_comb(n3, t9) if n3 >= 0 <= t9 else _binom(n3, t9))
            t11 = n3 + n5 + k7 + k8 * n1 + k9 * k10
            t12 = n3 + n6 + k11 * k12
            n13 = n10 * (_comb(t11, t12) if t11 >= 0 <= t12 else _binom(t11, t12))
            t14 = n2 + k13 * (n5 + k14)
            n15 = n13 * (_comb(n3, t14) if n3 >= 0 <= t14 else _binom(n3, t14))
            t16 = n5 + k15
            t17 = (_comb(t16, n6) if t16 >= 0 <= n6 else _binom(t16, n6))
            if not t17: raise PoleError('division by zero')
            n18 = n15
            d19 = t17 * d8
            if d19 < 0: n18 = -n18; d19 = -d19
            n20 = (-1 if (n1 + n2) % 2 else 1) * (k1 * n3 + k2 * n1) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1)) * n18
            n21 = k0 * n20
            t22 = k20 * n3
            if not n6: raise PoleError('division by zero')
            n23 = (-1 if (n5 + n6) % 2 else 1)
            d24 = n6
            if d24 < 0: n23 = -n23; d24 = -d24
            t25 = n6 + k21 * k22
            n26 = n23 * (_comb(n3, t25) if n3 >= 0 <= t25 else _binom(n3, t25))
            t27 = n3 + n5 + k23 * n1 + k24 * k25
            t28 = n3 + n6 + k26 * k27
            n29 = n26 * (_comb(t27, t28) if t27 >= 0 <= t28 else _binom(t27, t28))
            t30 = n2 + k28 * n5
            n31 = n29 * (_comb(n3, t30) if n3 >= 0 <= t30 else _binom(n3, t30))
            t32 = (_comb(n5, n6) if n5 >= 0 <= n6 else _binom(n5, n6))
            if not t32: raise PoleError('division by zero')
            n33 = n31
            d34 = t32 * d24
            if d34 < 0: n33 = -n33; d34 = -d34
            n35 = (-1 if (n1 + n2) % 2 else 1) * (k18 * n3 + k19 * n1) * (_comb(t22, n1) if t22 >= 0 <= n1 else _binom(t22, n1)) * n33
            n36 = k17 * n35
            n37 = k16 * n36
            if d19 == d34: n38 = n21 + n37; d39 = d19
            else: n38 = n21 * d34 + n37 * d19; d39 = d19 * d34
            t40 = (n1 + k36 + k37 * n3 + k38 * n5) * (n1 + k39)
            if not t40: raise PoleError('division by zero')
            n41 = k29 * (-1 if (n1 + n2 + n5 + n6 + k30) % 2 else 1) * (n3 + n6 + k31 + k32 * k33) * (k34 * n3 + k35 * n1)
            d42 = t40
            if d42 < 0: n41 = -n41; d42 = -d42
            t43 = k40 * n3
            n44 = n41 * (_comb(t43, n1) if t43 >= 0 <= n1 else _binom(t43, n1))
            t45 = n6 + k41 + k42 * k43
            n46 = n44 * (_comb(n3, t45) if n3 >= 0 <= t45 else _binom(n3, t45))
            t47 = n3 + n5 + k44 * n1 + k45 * k46
            t48 = n3 + n6 + k47 + k48 * k49
            n49 = n46 * (_comb(t47, t48) if t47 >= 0 <= t48 else _binom(t47, t48))
            t50 = n2 + k50 * n5
            n51 = n49 * (_comb(n3, t50) if n3 >= 0 <= t50 else _binom(n3, t50))
            t52 = n6 + k51 + k52 * k53
            t53 = (_comb(n5, t52) if n5 >= 0 <= t52 else _binom(n5, t52))
            if not t53: raise PoleError('division by zero')
            n54 = n51
            d55 = t53 * d42
            if d55 < 0: n54 = -n54; d55 = -d55
            t56 = (n1 + k60 + k61 * n3 + k62 * n5) * (n1 + k63)
            if not t56: raise PoleError('division by zero')
            n57 = k55 * (-1 if (n1 + n2 + n5 + n6) % 2 else 1) * (n3 + n6 + k56 * k57) * (k58 * n3 + k59 * n1)
            d58 = t56
            if d58 < 0: n57 = -n57; d58 = -d58
            t59 = k64 * n3
            n60 = n57 * (_comb(t59, n1) if t59 >= 0 <= n1 else _binom(t59, n1))
            t61 = n6 + k65 * k66
            n62 = n60 * (_comb(n3, t61) if n3 >= 0 <= t61 else _binom(n3, t61))
            t63 = n3 + n5 + k67 * n1 + k68 * k69
            t64 = n3 + n6 + k70 * k71
            n65 = n62 * (_comb(t63, t64) if t63 >= 0 <= t64 else _binom(t63, t64))
            t66 = n2 + k72 * n5
            n67 = n65 * (_comb(n3, t66) if n3 >= 0 <= t66 else _binom(n3, t66))
            t68 = n6 + k73 * k74
            t69 = (_comb(n5, t68) if n5 >= 0 <= t68 else _binom(n5, t68))
            if not t69: raise PoleError('division by zero')
            n70 = n67
            d71 = t69 * d58
            if d71 < 0: n70 = -n70; d71 = -d71
            n72 = k54 * n70
            if d55 == d71: n73 = n54 + n72; d74 = d55
            else: n73 = n54 * d71 + n72 * d55; d74 = d55 * d71
            if d39 == d74: n75 = n38 + n73; d76 = d39
            else: n75 = n38 * d74 + n73 * d39; d76 = d39 * d74
            return n75 if d76 == 1 else _value(n75, d76)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make123(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k3 * n3
            n5 = env['jp']
            if type(n5) is not int: return general(env)
            n6 = env['t']
            if type(n6) is not int: return general(env)
            if not n6: raise PoleError('division by zero')
            n7 = (-1 if (n5 + n6) % 2 else 1)
            d8 = n6
            if d8 < 0: n7 = -n7; d8 = -d8
            t9 = n6 + k4 * k5
            n10 = n7 * (_comb(n3, t9) if n3 >= 0 <= t9 else _binom(n3, t9))
            t11 = n3 + n5 + k6 * n1 + k7 * k8
            t12 = n3 + n6 + k9 * k10
            n13 = n10 * (_comb(t11, t12) if t11 >= 0 <= t12 else _binom(t11, t12))
            t14 = n2 + k11 * n5
            n15 = n13 * (_comb(n3, t14) if n3 >= 0 <= t14 else _binom(n3, t14))
            t16 = (_comb(n5, n6) if n5 >= 0 <= n6 else _binom(n5, n6))
            if not t16: raise PoleError('division by zero')
            n17 = n15
            d18 = t16 * d8
            if d18 < 0: n17 = -n17; d18 = -d18
            n19 = (-1 if (n1 + n2) % 2 else 1) * (k1 * n3 + k2 * n1) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1)) * n17
            n20 = k0 * n19
            t21 = k17 * n3
            t22 = n1 + k18
            if not n6: raise PoleError('division by zero')
            n23 = (-1 if (n5 + n6) % 2 else 1)
            d24 = n6
            if d24 < 0: n23 = -n23; d24 = -d24
            t25 = n6 + k19 * k20
            n26 = n23 * (_comb(n3, t25) if n3 >= 0 <= t25 else _binom(n3, t25))
            t27 = n3 + n5 + k21 * (n1 + k22) + k23 * k24
            t28 = n3 + n6 + k25 * k26
            n29 = n26 * (_comb(t27, t28) if t27 >= 0 <= t28 else _binom(t27, t28))
            t30 = n2 + k27 * n5
            n31 = n29 * (_comb(n3, t30) if n3 >= 0 <= t30 else _binom(n3, t30))
            t32 = (_comb(n5, n6) if n5 >= 0 <= n6 else _binom(n5, n6))
            if not t32: raise PoleError('division by zero')
            n33 = n31
            d34 = t32 * d24
            if d34 < 0: n33 = -n33; d34 = -d34
            n35 = (-1 if (n1 + k13 + n2) % 2 else 1) * (k14 * n3 + k15 * (n1 + k16)) * (_comb(t21, t22) if t21 >= 0 <= t22 else _binom(t21, t22)) * n33
            n36 = k12 * n35
            if d18 == d34: n37 = n20 + n36; d38 = d18
            else: n37 = n20 * d34 + n36 * d18; d38 = d18 * d34
            return n37 if d38 == 1 else _value(n37, d38)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make124(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = 0; d3 = 1
            for i4 in range(k1, n1 + 1):
                n5 = env['i']
                if type(n5) is not int: return general(env)
                n6 = env['j']
                if type(n6) is not int: return general(env)
                t7 = (k4 * n1 + k5 * i4 + n5 + k6) * (n5 + k7)
                if not t7: raise PoleError('division by zero')
                n8 = (-1 if (n5 + n6 + i4) % 2 else 1) * n1 * (n5 + k2 * k3 * n1)
                d9 = t7
                if d9 < 0: n8 = -n8; d9 = -d9
                t10 = k8 * n1
                n11 = n8 * (_comb(t10, n5) if t10 >= 0 <= n5 else _binom(t10, n5))
                t12 = n1 + i4 + k9 * n5 + k10 * k11
                n13 = n11 * (_comb(t12, n1) if t12 >= 0 <= n1 else _binom(t12, n1))
                t14 = n6 + k12 * i4
                n15 = n13 * (_comb(n1, t14) if n1 >= 0 <= t14 else _binom(n1, t14))
                if d9 == d3: n2 += n15
                elif not n2: n2 = n15; d3 = d9
                else: n2 = n2 * d9 + n15 * d3; d3 *= d9
            n16 = k0 * n2
            return n16 if d3 == 1 else _value(n16, d3)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make125(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            n4 = env['s']
            if type(n4) is not int: return general(env)
            t5 = k2 * n4
            t6 = n1 + k3
            t7 = n4 + n3 + k4 + k5 * n1 + k6 * k7
            t8 = n2 + k8 * n1 + k9 * k10
            t9 = n2 + k11 * n1 + k12 * k13
            t10 = n2 + k14 * (n3 + k15)
            t11 = k18 * n4
            t12 = n1 + k19
            t13 = n4 + n3 + k20 * n1 + k21 * k22
            t14 = n2 + k23 * n1 + k24 * k25
            t15 = n2 + k26 * n1 + k27 * k28
            t16 = n2 + k29 * n3
            return (-1 if (n1 + n2 + n3 + k0 + k1) % 2 else 1) * (_comb(t5, t6) if t5 >= 0 <= t6 else _binom(t5, t6)) * (_comb(t7, t8) if t7 >= 0 <= t8 else _binom(t7, t8)) * (_comb(t9, t10) if t9 >= 0 <= t10 else _binom(t9, t10)) + k16 * (-1 if (n1 + n2 + n3 + k17) % 2 else 1) * (_comb(t11, t12) if t11 >= 0 <= t12 else _binom(t11, t12)) * (_comb(t13, t14) if t13 >= 0 <= t14 else _binom(t13, t14)) * (_comb(t15, t16) if t15 >= 0 <= t16 else _binom(t15, t16))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make126(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            n4 = env['s']
            if type(n4) is not int: return general(env)
            t5 = (k3 * n4 + k4 * n3 + n1 + k5) * (n1 + k6)
            if not t5: raise PoleError('division by zero')
            n6 = (-1 if (n1 + n2 + n3) % 2 else 1) * n4 * (n1 + k1 * k2 * n4)
            d7 = t5
            if d7 < 0: n6 = -n6; d7 = -d7
            t8 = k7 * n4
            n9 = n6 * (_comb(t8, n1) if t8 >= 0 <= n1 else _binom(t8, n1))
            t10 = n4 + n3 + k8 * n1 + k9 * k10
            n11 = n9 * (_comb(t10, n4) if t10 >= 0 <= n4 else _binom(t10, n4))
            t12 = n2 + k11 * n3
            n13 = n11 * (_comb(n4, t12) if n4 >= 0 <= t12 else _binom(n4, t12))
            n14 = k0 * n13
            return n14 if d7 == 1 else _value(n14, d7)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make127(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47, k48, k49, k50, k51, k52, k53, k54, k55, k56, k57, k58, k59, k60, k61, k62, k63, k64, k65, k66, k67, k68, k69, k70, k71, k72, k73, k74, k75, k76):
    def term(env):
        try:
            n1 = env['i']
            if type(n1) is not int: return general(env)
            n2 = env['j']
            if type(n2) is not int: return general(env)
            n3 = env['s']
            if type(n3) is not int: return general(env)
            t4 = k3 * n3
            n5 = env['jp']
            if type(n5) is not int: return general(env)
            n6 = env['t']
            if type(n6) is not int: return general(env)
            if not n6: raise PoleError('division by zero')
            n7 = (-1 if (n5 + k4 + n6) % 2 else 1)
            d8 = n6
            if d8 < 0: n7 = -n7; d8 = -d8
            t9 = n6 + k5 * k6
            n10 = n7 * (_comb(n3, t9) if n3 >= 0 <= t9 else _binom(n3, t9))
            t11 = n3 + n5 + k7 + k8 * n1 + k9 * k10
            t12 = n3 + n6 + k11 * k12
            n13 = n10 * (_comb(t11, t12) if t11 >= 0 <= t12 else _binom(t11, t12))
            t14 = n2 + k13 * (n5 + k14)
            n15 = n13 * (_comb(n3, t14) if n3 >= 0 <= t14 else _binom(n3, t14))
            t16 = n5 + k15
            t17 = (_comb(t16, n6) if t16 >= 0 <= n6 else _binom(t16, n6))
            if not t17: raise PoleError('division by zero')
            n18 = n15
            d19 = t17 * d8
            if d19 < 0: n18 = -n18; d19 = -d19
            n20 = (-1 if (n1 + n2) % 2 else 1) * (k1 * n3 + k2 * n1) * (_comb(t4, n1) if t4 >= 0 <= n1 else _binom(t4, n1)) * n18
            n21 = k0 * n20
            t22 = k20 * n3
            if not n6: raise PoleError('division by zero')
            n23 = (-1 if (n5 + n6) % 2 else 1)
            d24 = n6
            if d24 < 0: n23 = -n23; d24 = -d24
            t25 = n6 + k21 * k22
            n26 = n23 * (_comb(n3, t25) if n3 >= 0 <= t25 else _binom(n3, t25))
            t27 = n3 + n5 + k23 * n1 + k24 * k25
            t28 = n3 + n6 + k26 * k27
            n29 = n26 * (_comb(t27, t28) if t27 >= 0 <= t28 else _binom(t27, t28))
            t30 = n2 + k28 * n5
            n31 = n29 * (_comb(n3, t30) if n3 >= 0 <= t30 else _binom(n3, t30))
            t32 = (_comb(n5, n6) if n5 >= 0 <= n6 else _binom(n5, n6))
            if not t32: raise PoleError('division by zero')
            n33 = n31
            d34 = t32 * d24
            if d34 < 0: n33 = -n33; d34 = -d34
            n35 = (-1 if (n1 + n2) % 2 else 1) * (k18 * n3 + k19 * n1) * (_comb(t22, n1) if t22 >= 0 <= n1 else _binom(t22, n1)) * n33
            n36 = k17 * n35
            n37 = k16 * n36
            if d19 == d34: n38 = n21 + n37; d39 = d19
            else: n38 = n21 * d34 + n37 * d19; d39 = d19 * d34
            t40 = (k36 * n3 + k37 * n5 + n1 + k38) * (n1 + k39)
            if not t40: raise PoleError('division by zero')
            n41 = k29 * (n5 + k30 * (n6 + k31) + k32) * (n3 + n6 + k33 + k34 * k35)
            d42 = t40
            if d42 < 0: n41 = -n41; d42 = -d42
            t43 = k42 * n3
            t44 = n6 + k44
            if not t44: raise PoleError('division by zero')
            n45 = (-1 if (n5 + n6 + k43) % 2 else 1)
            d46 = t44
            if d46 < 0: n45 = -n45; d46 = -d46
            t47 = n6 + k45 + k46 * k47
            n48 = n45 * (_comb(n3, t47) if n3 >= 0 <= t47 else _binom(n3, t47))
            t49 = n3 + n5 + k48 * n1 + k49 * k50
            t50 = n3 + n6 + k51 + k52 * k53
            n51 = n48 * (_comb(t49, t50) if t49 >= 0 <= t50 else _binom(t49, t50))
            t52 = n2 + k54 * n5
            n53 = n51 * (_comb(n3, t52) if n3 >= 0 <= t52 else _binom(n3, t52))
            t54 = n6 + k55
            t55 = (_comb(n5, t54) if n5 >= 0 <= t54 else _binom(n5, t54))
            if not t55: raise PoleError('division by zero')
            n56 = n53
            d57 = t55 * d46
            if d57 < 0: n56 = -n56; d57 = -d57
            n58 = (-1 if (n1 + n2) % 2 else 1) * (k40 * n3 + k41 * n1) * (_comb(t43, n1) if t43 >= 0 <= n1 else _binom(t43, n1)) * n56
            n59 = n41 * n58
            d60 = d42 * d57
            t61 = (k62 * n3 + k63 * n5 + n1 + k64) * (n1 + k65)
            if not t61: raise PoleError('division by zero')
            n62 = k57 * (n5 + k58 * n6 + k59) * (n3 + n6 + k60 * k61)
            d63 = t61
            if d63 < 0: n62 = -n62; d63 = -d63
            t64 = k68 * n3
            if not n6: raise PoleError('division by zero')
            n65 = (-1 if (n5 + n6) % 2 else 1)
            d66 = n6
            if d66 < 0: n65 = -n65; d66 = -d66
            t67 = n6 + k69 * k70
            n68 = n65 * (_comb(n3, t67) if n3 >= 0 <= t67 else _binom(n3, t67))
            t69 = n3 + n5 + k71 * n1 + k72 * k73
            t70 = n3 + n6 + k74 * k75
            n71 = n68 * (_comb(t69, t70) if t69 >= 0 <= t70 else _binom(t69, t70))
            t72 = n2 + k76 * n5
            n73 = n71 * (_comb(n3, t72) if n3 >= 0 <= t72 else _binom(n3, t72))
            t74 = (_comb(n5, n6) if n5 >= 0 <= n6 else _binom(n5, n6))
            if not t74: raise PoleError('division by zero')
            n75 = n73
            d76 = t74 * d66
            if d76 < 0: n75 = -n75; d76 = -d76
            n77 = (-1 if (n1 + n2) % 2 else 1) * (k66 * n3 + k67 * n1) * (_comb(t64, n1) if t64 >= 0 <= n1 else _binom(t64, n1)) * n75
            n78 = n62 * n77
            d79 = d63 * d76
            n80 = k56 * n78
            if d60 == d79: n81 = n59 + n80; d82 = d60
            else: n81 = n59 * d79 + n80 * d60; d82 = d60 * d79
            if d39 == d82: n83 = n38 + n81; d84 = d39
            else: n83 = n38 * d82 + n81 * d39; d84 = d39 * d82
            return n83 if d84 == 1 else _value(n83, d84)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make117,
    _make118,
    _make119,
    _make120,
    _make121,
    _make122,
    _make123,
    _make124,
    _make125,
    _make126,
    _make127,
)
