"""Evaluator factories of shapes that the appendix-d/* telescoping checks and their mutants build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make12(general, k0, k1):
    def term(env):
        try:
            n1 = env['u']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k1, n1 + 1):
                n5 = env['s']
                if type(n5) is not int: return general(env)
                n2 += (-1 if i4 % 2 else 1) * (_comb(n5, i4) if n5 >= 0 <= i4 else _binom(n5, i4))
            return k0 * n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make13(general, k0, k1):
    def term(env):
        try:
            n1 = env['u']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = n2 + k0 * k1
            return (-1 if n1 % 2 else 1) * (_comb(t3, n1) if t3 >= 0 <= n1 else _binom(t3, n1))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make14(general, k0):
    def term(env):
        try:
            return k0
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make15(general):
    def term(env):
        try:
            n1 = env['u']
            if type(n1) is not int: return general(env)
            return n1
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make16(general, k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = n2 + k2 * k3
            t4 = n1 + k4 + k5 * k6
            t5 = n2 + k9 * k10
            t6 = n1 + k11 * k12
            return (-1 if (n1 + k0 + k1) % 2 else 1) * (_comb(t3, t4) if t3 >= 0 <= t4 else _binom(t3, t4)) + k7 * (-1 if (n1 + k8) % 2 else 1) * (_comb(t5, t6) if t5 >= 0 <= t6 else _binom(t5, t6))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make17(general, k0):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            return k0 * (-1 if n1 % 2 else 1) * (_comb(n2, n1) if n2 >= 0 <= n1 else _binom(n2, n1))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make18(general, k0, k1):
    def term(env):
        try:
            n1 = env['u']
            if type(n1) is not int: return general(env)
            n2 = 0
            for i4 in range(k1, n1 + 1):
                n5 = env['s']
                if type(n5) is not int: return general(env)
                n6 = env['b']
                if type(n6) is not int: return general(env)
                t7 = n5 + n6 + i4
                n2 += (_comb(t7, i4) if t7 >= 0 <= i4 else _binom(t7, i4))
            return k0 * n2
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make19(general, k0):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['b']
            if type(n2) is not int: return general(env)
            n3 = env['u']
            if type(n3) is not int: return general(env)
            t4 = n1 + n2 + n3 + k0
            return (_comb(t4, n3) if t4 >= 0 <= n3 else _binom(t4, n3))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make20(general, k0, k1, k2, k3, k4, k5, k6):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['b']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            t4 = n1 + n2 + n3 + k0
            t5 = n3 + k1 + k2 * k3
            t6 = n1 + n2 + n3
            t7 = n3 + k5 * k6
            return (_comb(t4, t5) if t4 >= 0 <= t5 else _binom(t4, t5)) + k4 * (_comb(t6, t7) if t6 >= 0 <= t7 else _binom(t6, t7))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make21(general, k0):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['b']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            t4 = n1 + n2 + n3
            return k0 * (_comb(t4, n3) if t4 >= 0 <= n3 else _binom(t4, n3))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


FACTORIES = (
    _make12,
    _make13,
    _make14,
    _make15,
    _make16,
    _make17,
    _make18,
    _make19,
    _make20,
    _make21,
)
