"""Evaluator factories of shapes that the appendix-d/* checks build first.

Generated by ``python -m polycount.codegen``; do not edit.
"""

from ..symbolic import _NAMESPACE

globals().update(_NAMESPACE)


def _make12(general):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            return (-1 if n1 % 2 else 1) * (_comb(n2, n1) if n2 >= 0 <= n1 else _binom(n2, n1))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make13(general, k0):
    def term(env):
        try:
            return k0
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make14(general, k0, k1):
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


def _make15(general):
    def term(env):
        try:
            n1 = env['u']
            if type(n1) is not int: return general(env)
            return n1
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make16(general, k0, k1, k2, k3, k4):
    def term(env):
        try:
            n1 = env['jp']
            if type(n1) is not int: return general(env)
            n2 = env['s']
            if type(n2) is not int: return general(env)
            t3 = n2 + k1 * k2
            t4 = n1 + k3 * k4
            return (-1 if (n1 + k0) % 2 else 1) * (_comb(t3, t4) if t3 >= 0 <= t4 else _binom(t3, t4))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make17(general):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['b']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            t4 = n1 + n2 + n3
            return (_comb(t4, n3) if t4 >= 0 <= n3 else _binom(t4, n3))
        except KeyError as missing:
            raise PoleError(f'unbound variable {missing.args[0]}') from None
    return term


def _make18(general, k0):
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


def _make19(general, k0, k1):
    def term(env):
        try:
            n1 = env['s']
            if type(n1) is not int: return general(env)
            n2 = env['b']
            if type(n2) is not int: return general(env)
            n3 = env['jp']
            if type(n3) is not int: return general(env)
            t4 = n1 + n2 + n3
            t5 = n3 + k0 * k1
            return (_comb(t4, t5) if t4 >= 0 <= t5 else _binom(t4, t5))
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
)
