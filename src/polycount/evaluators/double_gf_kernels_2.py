"""Evaluator factories of shapes that the double-gf/* telescoping checks and their mutants build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make40(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43, k44, k45, k46, k47, k48, k49, k50, k51, k52, k53, k54, k55, k56, k57, k58, k59, k60, k61, k62, k63, k64, k65, k66, k67, k68, k69, k70, k71, k72, k73):
    def term(env):
        try:
            n1 = env['t']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = n1 + k0 * d2
            n4 = env['z']; d5 = 1
            if type(n4) is not int: n4, d5 = _pair(n4)
            n6 = n4 + k1 * k2 * d5
            n7 = n3 * n6
            d8 = d2 * d5
            n9 = env['x']; d10 = 1
            if type(n9) is not int: n9, d10 = _pair(n9)
            n11 = k3 * n9
            n12 = n11 * n4
            d13 = d10 * d5
            n14 = k4 * n4
            n15 = env['s']; d16 = 1
            if type(n15) is not int: n15, d16 = _pair(n15)
            n17 = n14 * n15
            d18 = d5 * d16
            if d13 == d18: n19 = n12 + n17; d20 = d13
            else: n19 = n12 * d18 + n17 * d13; d20 = d13 * d18
            n21 = n19 + k5 * k6 * d20
            n22 = k7 * n4
            n23 = n22 * n15
            d24 = d5 * d16
            n25 = n23 * n9
            d26 = d24 * d10
            if d20 == d26: n27 = n21 + n25; d28 = d20
            else: n27 = n21 * d26 + n25 * d20; d28 = d20 * d26
            if d28 == d5: n29 = n27 + n4; d30 = d28
            else: n29 = n27 * d5 + n4 * d28; d30 = d28 * d5
            n31 = k9 * n15
            n32 = k8 * n31
            if d30 == d16: n33 = n29 + n32; d34 = d30
            else: n33 = n29 * d16 + n32 * d30; d34 = d30 * d16
            n35 = n4 * n9
            d36 = d5 * d10
            n37 = n1 + k11 * d2
            n38 = n35 * n37
            d39 = d36 * d2
            n40 = k10 * n38
            if d34 == d39: n41 = n33 + n40; d42 = d34
            else: n41 = n33 * d39 + n40 * d34; d42 = d34 * d39
            n43 = n1 + k12 * d2
            if d42 == d2: n44 = n41 + n43; d45 = d42
            else: n44 = n41 * d2 + n43 * d42; d45 = d42 * d2
            n46 = n7 * n44
            d47 = d8 * d45
            n48 = k13 * n15
            n49 = n48 + k14 * d16
            n50 = n1 + k16 * d2
            n51 = k15 * n50
            if d16 == d2: n52 = n49 + n51; d53 = d16
            else: n52 = n49 * d2 + n51 * d16; d53 = d16 * d2
            n54 = k17 * n15
            n55 = n1 + k19 * d2
            n56 = k18 * n55
            if d16 == d2: n57 = n54 + n56; d58 = d16
            else: n57 = n54 * d2 + n56 * d16; d58 = d16 * d2
            n59 = n57 + k20 * d58
            n60 = n52 * n59
            d61 = d53 * d58
            if not n60: raise PoleError('division by zero')
            n62 = n46 * d61
            d63 = n60 * d47
            if d63 < 0: n62 = -n62; d63 = -d63
            n64 = n1 + k21 * d2
            q65 = n64 if d2 == 1 else _int(n64, d2, 'sign exponent')
            n66 = (-1 if q65 % 2 else 1) * k22 * n15
            n67 = n1 + k23 * d2
            q68 = n67 if d2 == 1 else _int(n67, d2, 'exponent')
            if q68 >= 0: n69 = n4 ** q68; d70 = d5 ** q68
            elif not n4: raise PoleError('zero base with negative exponent')
            else:
                n69 = d5 ** -q68; d70 = n4 ** -q68
                if d70 < 0: n69 = -n69; d70 = -d70
            n71 = n66 * n69
            d72 = d16 * d70
            n73 = n4 + k24 * k25 * d5
            n74 = k26 * n15
            n75 = n1 + k28 * d2
            n76 = k27 * n75
            if d16 == d2: n77 = n74 + n76; d78 = d16
            else: n77 = n74 * d2 + n76 * d16; d78 = d16 * d2
            n79 = n77 + k29 * k30 * d78
            q80 = n79 if d78 == 1 else _int(n79, d78, 'exponent')
            if q80 >= 0: n81 = n73 ** q80; d82 = d5 ** q80
            elif not n73: raise PoleError('zero base with negative exponent')
            else:
                n81 = d5 ** -q80; d82 = n73 ** -q80
                if d82 < 0: n81 = -n81; d82 = -d82
            n83 = n71 * n81
            d84 = d72 * d82
            n85 = k31 * n15
            n86 = n85 + k32 * k33 * d16
            q87 = n86 if d16 == 1 else _int(n86, d16, 'binomial upper index')
            n88 = n1 + k34 * d2
            q89 = n88 if d2 == 1 else _int(n88, d2, 'binomial lower index')
            n90 = n83 * (_comb(q87, q89) if q87 >= 0 <= q89 else _binom(q87, q89))
            n91 = k35 * n15
            n92 = n1 + k37 * d2
            n93 = k36 * n92
            if d16 == d2: n94 = n91 + n93; d95 = d16
            else: n94 = n91 * d2 + n93 * d16; d95 = d16 * d2
            n96 = k39 * n9
            n97 = n96 + k38 * d10
            n98 = n1 + k41 * d2
            n99 = k40 * n98
            if d16 == d2: n100 = n15 + n99; d101 = d16
            else: n100 = n15 * d2 + n99 * d16; d101 = d16 * d2
            q102 = n100 if d101 == 1 else _int(n100, d101, 'exponent')
            if q102 >= 0: n103 = n97 ** q102; d104 = d10 ** q102
            elif not n97: raise PoleError('zero base with negative exponent')
            else:
                n103 = d10 ** -q102; d104 = n97 ** -q102
                if d104 < 0: n103 = -n103; d104 = -d104
            n105 = n94 * n103
            d106 = d95 * d104
            if not n105: raise PoleError('division by zero')
            n107 = n90 * d106
            d108 = n105 * d84
            if d108 < 0: n107 = -n107; d108 = -d108
            n109 = n62 * n107
            d110 = d63 * d108
            n111 = n4 + k43 * k44 * d5
            n112 = n1 * n111
            d113 = d2 * d5
            n114 = k45 * n9
            n115 = n114 * n4
            d116 = d10 * d5
            n117 = k46 * n4
            n118 = n117 * n15
            d119 = d5 * d16
            if d116 == d119: n120 = n115 + n118; d121 = d116
            else: n120 = n115 * d119 + n118 * d116; d121 = d116 * d119
            n122 = n120 + k47 * k48 * d121
            n123 = k49 * n4
            n124 = n123 * n15
            d125 = d5 * d16
            n126 = n124 * n9
            d127 = d125 * d10
            if d121 == d127: n128 = n122 + n126; d129 = d121
            else: n128 = n122 * d127 + n126 * d121; d129 = d121 * d127
            if d129 == d5: n130 = n128 + n4; d131 = d129
            else: n130 = n128 * d5 + n4 * d129; d131 = d129 * d5
            n132 = k51 * n15
            n133 = k50 * n132
            if d131 == d16: n134 = n130 + n133; d135 = d131
            else: n134 = n130 * d16 + n133 * d131; d135 = d131 * d16
            n136 = n4 * n9
            d137 = d5 * d10
            n138 = n136 * n1
            d139 = d137 * d2
            n140 = k52 * n138
            if d135 == d139: n141 = n134 + n140; d142 = d135
            else: n141 = n134 * d139 + n140 * d135; d142 = d135 * d139
            if d142 == d2: n143 = n141 + n1; d144 = d142
            else: n143 = n141 * d2 + n1 * d142; d144 = d142 * d2
            n145 = n112 * n143
            d146 = d113 * d144
            n147 = k53 * n15
            n148 = n147 + k54 * d16
            n149 = k55 * n1
            if d16 == d2: n150 = n148 + n149; d151 = d16
            else: n150 = n148 * d2 + n149 * d16; d151 = d16 * d2
            n152 = k56 * n15
            n153 = k57 * n1
            if d16 == d2: n154 = n152 + n153; d155 = d16
            else: n154 = n152 * d2 + n153 * d16; d155 = d16 * d2
            n156 = n154 + k58 * d155
            n157 = n150 * n156
            d158 = d151 * d155
            if not n157: raise PoleError('division by zero')
            n159 = n145 * d158
            d160 = n157 * d146
            if d160 < 0: n159 = -n159; d160 = -d160
            q161 = n1 if d2 == 1 else _int(n1, d2, 'sign exponent')
            n162 = (-1 if q161 % 2 else 1) * k59 * n15
            if q161 >= 0: n163 = n4 ** q161; d164 = d5 ** q161
            elif not n4: raise PoleError('zero base with negative exponent')
            else:
                n163 = d5 ** -q161; d164 = n4 ** -q161
                if d164 < 0: n163 = -n163; d164 = -d164
            n165 = n162 * n163
            d166 = d16 * d164
            n167 = n4 + k60 * k61 * d5
            n168 = k62 * n15
            n169 = k63 * n1
            if d16 == d2: n170 = n168 + n169; d171 = d16
            else: n170 = n168 * d2 + n169 * d16; d171 = d16 * d2
            n172 = n170 + k64 * k65 * d171
            q173 = n172 if d171 == 1 else _int(n172, d171, 'exponent')
            if q173 >= 0: n174 = n167 ** q173; d175 = d5 ** q173
            elif not n167: raise PoleError('zero base with negative exponent')
            else:
                n174 = d5 ** -q173; d175 = n167 ** -q173
                if d175 < 0: n174 = -n174; d175 = -d175
            n176 = n165 * n174
            d177 = d166 * d175
            n178 = k66 * n15
            n179 = n178 + k67 * k68 * d16
            q180 = n179 if d16 == 1 else _int(n179, d16, 'binomial upper index')
            n181 = n176 * (_comb(q180, q161) if q180 >= 0 <= q161 else _binom(q180, q161))
            n182 = k69 * n15
            n183 = k70 * n1
            if d16 == d2: n184 = n182 + n183; d185 = d16
            else: n184 = n182 * d2 + n183 * d16; d185 = d16 * d2
            n186 = k72 * n9
            n187 = n186 + k71 * d10
            n188 = k73 * n1
            if d16 == d2: n189 = n15 + n188; d190 = d16
            else: n189 = n15 * d2 + n188 * d16; d190 = d16 * d2
            q191 = n189 if d190 == 1 else _int(n189, d190, 'exponent')
            if q191 >= 0: n192 = n187 ** q191; d193 = d10 ** q191
            elif not n187: raise PoleError('zero base with negative exponent')
            else:
                n192 = d10 ** -q191; d193 = n187 ** -q191
                if d193 < 0: n192 = -n192; d193 = -d193
            n194 = n184 * n192
            d195 = d185 * d193
            if not n194: raise PoleError('division by zero')
            n196 = n181 * d195
            d197 = n194 * d177
            if d197 < 0: n196 = -n196; d197 = -d197
            n198 = n159 * n196
            d199 = d160 * d197
            n200 = k42 * n198
            if d110 == d199: n201 = n109 + n200; d202 = d110
            else: n201 = n109 * d199 + n200 * d110; d202 = d110 * d199
            return n201 if d202 == 1 else _value(n201, d202)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make41(k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32, k33, k34, k35, k36, k37, k38, k39):
    def term(env):
        try:
            n1 = env['x']; d2 = 1
            if type(n1) is not int: n1, d2 = _pair(n1)
            n3 = env['z']; d4 = 1
            if type(n3) is not int: n3, d4 = _pair(n3)
            n5 = n1 * n3
            d6 = d2 * d4
            n7 = n5 + k0 * k1 * d6
            if k2 >= 0: n8 = n7 ** k2; d9 = d6 ** k2
            elif not n7: raise PoleError('zero base with negative exponent')
            else:
                n8 = d6 ** -k2; d9 = n7 ** -k2
                if d9 < 0: n8 = -n8; d9 = -d9
            n10 = env['t']; d11 = 1
            if type(n10) is not int: n10, d11 = _pair(n10)
            q12 = n10 if d11 == 1 else _int(n10, d11, 'sign exponent')
            n13 = env['s']; d14 = 1
            if type(n13) is not int: n13, d14 = _pair(n13)
            n15 = (-1 if q12 % 2 else 1) * k3 * n13
            if q12 >= 0: n16 = n3 ** q12; d17 = d4 ** q12
            elif not n3: raise PoleError('zero base with negative exponent')
            else:
                n16 = d4 ** -q12; d17 = n3 ** -q12
                if d17 < 0: n16 = -n16; d17 = -d17
            n18 = n15 * n16
            d19 = d14 * d17
            n20 = n3 + k4 * k5 * d4
            n21 = k6 * n13
            n22 = k7 * n10
            if d14 == d11: n23 = n21 + n22; d24 = d14
            else: n23 = n21 * d11 + n22 * d14; d24 = d14 * d11
            n25 = n23 + k8 * k9 * d24
            q26 = n25 if d24 == 1 else _int(n25, d24, 'exponent')
            if q26 >= 0: n27 = n20 ** q26; d28 = d4 ** q26
            elif not n20: raise PoleError('zero base with negative exponent')
            else:
                n27 = d4 ** -q26; d28 = n20 ** -q26
                if d28 < 0: n27 = -n27; d28 = -d28
            n29 = n18 * n27
            d30 = d19 * d28
            n31 = k10 * n13
            n32 = n31 + k11 * k12 * d14
            q33 = n32 if d14 == 1 else _int(n32, d14, 'binomial upper index')
            n34 = n29 * (_comb(q33, q12) if q33 >= 0 <= q12 else _binom(q33, q12))
            n35 = k13 * n13
            n36 = k14 * n10
            if d14 == d11: n37 = n35 + n36; d38 = d14
            else: n37 = n35 * d11 + n36 * d14; d38 = d14 * d11
            n39 = k16 * n1
            n40 = n39 + k15 * d2
            n41 = k17 * n10
            if d14 == d11: n42 = n13 + n41; d43 = d14
            else: n42 = n13 * d11 + n41 * d14; d43 = d14 * d11
            q44 = n42 if d43 == 1 else _int(n42, d43, 'exponent')
            if q44 >= 0: n45 = n40 ** q44; d46 = d2 ** q44
            elif not n40: raise PoleError('zero base with negative exponent')
            else:
                n45 = d2 ** -q44; d46 = n40 ** -q44
                if d46 < 0: n45 = -n45; d46 = -d46
            n47 = n37 * n45
            d48 = d38 * d46
            if not n47: raise PoleError('division by zero')
            n49 = n34 * d48
            d50 = n47 * d30
            if d50 < 0: n49 = -n49; d50 = -d50
            n51 = n8 * n49
            d52 = d9 * d50
            n53 = n1 + k18 * k19 * d2
            n54 = n13 + k21 * d14
            n55 = (-1 if q12 % 2 else 1) * k20 * n54
            if q12 >= 0: n56 = n3 ** q12; d57 = d4 ** q12
            elif not n3: raise PoleError('zero base with negative exponent')
            else:
                n56 = d4 ** -q12; d57 = n3 ** -q12
                if d57 < 0: n56 = -n56; d57 = -d57
            n58 = n55 * n56
            d59 = d14 * d57
            n60 = n3 + k22 * k23 * d4
            n61 = n13 + k25 * d14
            n62 = k24 * n61
            n63 = k26 * n10
            if d14 == d11: n64 = n62 + n63; d65 = d14
            else: n64 = n62 * d11 + n63 * d14; d65 = d14 * d11
            n66 = n64 + k27 * k28 * d65
            q67 = n66 if d65 == 1 else _int(n66, d65, 'exponent')
            if q67 >= 0: n68 = n60 ** q67; d69 = d4 ** q67
            elif not n60: raise PoleError('zero base with negative exponent')
            else:
                n68 = d4 ** -q67; d69 = n60 ** -q67
                if d69 < 0: n68 = -n68; d69 = -d69
            n70 = n58 * n68
            d71 = d59 * d69
            n72 = n13 + k30 * d14
            n73 = k29 * n72
            n74 = n73 + k31 * k32 * d14
            q75 = n74 if d14 == 1 else _int(n74, d14, 'binomial upper index')
            n76 = n70 * (_comb(q75, q12) if q75 >= 0 <= q12 else _binom(q75, q12))
            n77 = n13 + k34 * d14
            n78 = k33 * n77
            n79 = k35 * n10
            if d14 == d11: n80 = n78 + n79; d81 = d14
            else: n80 = n78 * d11 + n79 * d14; d81 = d14 * d11
            n82 = k37 * n1
            n83 = n82 + k36 * d2
            n84 = n13 + k38 * d14
            n85 = k39 * n10
            if d14 == d11: n86 = n84 + n85; d87 = d14
            else: n86 = n84 * d11 + n85 * d14; d87 = d14 * d11
            q88 = n86 if d87 == 1 else _int(n86, d87, 'exponent')
            if q88 >= 0: n89 = n83 ** q88; d90 = d2 ** q88
            elif not n83: raise PoleError('zero base with negative exponent')
            else:
                n89 = d2 ** -q88; d90 = n83 ** -q88
                if d90 < 0: n89 = -n89; d90 = -d90
            n91 = n80 * n89
            d92 = d81 * d90
            if not n91: raise PoleError('division by zero')
            n93 = n76 * d92
            d94 = n91 * d71
            if d94 < 0: n93 = -n93; d94 = -d94
            n95 = n53 * n93
            d96 = d2 * d94
            if d52 == d96: n97 = n51 + n95; d98 = d52
            else: n97 = n51 * d96 + n95 * d52; d98 = d52 * d96
            return n97 if d98 == 1 else _value(n97, d98)
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make40,
    _make41,
)
