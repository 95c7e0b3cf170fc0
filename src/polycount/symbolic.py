"""Exact evaluation of closed hypergeometric-style expressions.

Expression trees over named integer (or rational) variables, with binomials,
factorials, sign factors, integer powers and finite sums.  ``compile_term``
turns a tree into one generated straight-line Python function.  Its
variable reads are typed int, so every value that is known to be integral
is a plain int expression, written inline where it is used once; only
where a division, a negative power or a non-integral constant needs one
does a value become an unreduced int pair (numerator, denominator > 0),
normalised once per call into an int or a reduced Fraction, with no float
anywhere.  A call that binds a variable to anything but an int (a
Fraction, float or bool) runs the tree's rational variant instead, which
reads every variable as an exact int pair; it is made lazily, the first
time a call needs it.  Generated code is made once per tree shape:
constants are parameters and variable names are string literals, never
code.  The code of every shape that the identity registry and its mutants
evaluate ships as modules in ``polycount.evaluators``, the emitter's own
output written by ``python -m polycount.codegen``, so Python's bytecode
cache serves it; only other shapes are compiled, once per process.
``eval_term`` is the one-shot form and returns a Fraction.  Division by
zero or other undefined points raise PoleError so callers can skip or
report them.  ``substitute`` replaces a free variable by an expression, the
one rewrite of a tree: a step in a variable or its value at a constant.  It
returns every subtree that does not hold the variable free, each constant
included, as the same object, so ``mutants`` gives one evaluator per
constant of a tree, with that constant plus one, bumped wherever a larger
tree holds that constant, from the larger tree's own compiled code, to prove
that the identity harness detects a wrong certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, Union

from .exact import binom
from .records import Frozen, set_field

Number = Union[int, Fraction]
Compiled = Callable[[Mapping[str, Number]], Number]


class PoleError(ArithmeticError):
    """Evaluation hit a pole (zero denominator, factorial of a negative, ...)."""


class Expr(Frozen):
    """A node of an expression tree; its __slots__ are its fields, in the order walks visit them."""

    __slots__ = ()

    def __add__(self, other):
        return Add((self, wrap(other)))

    def __radd__(self, other):
        return Add((wrap(other), self))

    def __sub__(self, other):
        return Add((self, Mul((Const(Fraction(-1)), wrap(other)))))

    def __rsub__(self, other):
        return Add((wrap(other), Mul((Const(Fraction(-1)), self))))

    def __mul__(self, other):
        return Mul((self, wrap(other)))

    def __rmul__(self, other):
        return Mul((wrap(other), self))

    def __truediv__(self, other):
        return Div(self, wrap(other))

    def __rtruediv__(self, other):
        return Div(wrap(other), self)

    def __neg__(self):
        return Mul((Const(Fraction(-1)), self))

    def __pow__(self, other):
        return Pow(self, wrap(other))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Fraction) -> None:
        set_field(self, "value", value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        set_field(self, "name", name)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]) -> None:
        set_field(self, "terms", terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]) -> None:
        set_field(self, "factors", factors)


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr) -> None:
        set_field(self, "num", num)
        set_field(self, "den", den)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: Expr) -> None:
        set_field(self, "base", base)
        set_field(self, "exp", exp)  # must evaluate to an integer


class Binom(Expr):
    __slots__ = ("upper", "lower")

    def __init__(self, upper: Expr, lower: Expr) -> None:
        set_field(self, "upper", upper)
        set_field(self, "lower", lower)


class Fact(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr) -> None:
        set_field(self, "arg", arg)


class Sign(Expr):
    __slots__ = ("exp",)

    def __init__(self, exp: Expr) -> None:
        set_field(self, "exp", exp)  # (-1)**exp, any integer exponent


class Sum(Expr):
    __slots__ = ("index", "lower", "upper", "body")

    def __init__(self, index: str, lower: Expr, upper: Expr, body: Expr) -> None:
        set_field(self, "index", index)
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)
        set_field(self, "body", body)


def wrap(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot use {x!r} in an expression")


def syms(names: str) -> tuple[Var, ...]:
    return tuple(Var(n) for n in names.split())


def binom_expr(a, b) -> Binom:
    return Binom(wrap(a), wrap(b))


def fact_expr(a) -> Fact:
    return Fact(wrap(a))


def sign_expr(e) -> Sign:
    return Sign(wrap(e))


def substitute(expr: Expr, name: str, value) -> Expr:
    """The tree with each free ``Var(name)`` replaced by ``value`` (an Expr or a number).

    ``substitute(e, v, Var(v) + 1)`` steps e in v, ``substitute(e, v, 0)``
    reads it at v = 0.  A ``Sum`` over name binds it: its bounds are
    substituted and its body is not.  Every subtree that does not hold name
    free, each ``Const`` and every other ``Var`` included, is returned as the
    same object, so an instance of a tree shares that tree's own nodes and
    constants; only the nodes above a replaced variable are rebuilt, field by
    field, in ``__slots__`` order.  So the identity registry states each
    identity once up to renaming, each instance built by ``substitute``
    from the object that states it.  A variable of value that a ``Sum``
    inside the tree binds would be captured, so value must not mention one.
    """
    cls = type(expr)
    if cls is Var:
        return wrap(value) if expr.name == name else expr
    if cls is Const:
        return expr
    fields, changed = [], False
    for slot in cls.__slots__:
        field = getattr(expr, slot)
        if type(field) is tuple:
            new = tuple(substitute(part, name, value) for part in field)
            changed = changed or any(a is not b for a, b in zip(new, field))
        elif isinstance(field, Expr) and not (slot == "body" and expr.index == name):
            new = substitute(field, name, value)
            changed = changed or new is not field
        else:
            new = field
        fields.append(new)
    return cls(*fields) if changed else expr


def _as_int(x: Number, where: str) -> int:
    if type(x) is int:
        return x
    if x.denominator != 1:
        raise PoleError(f"{where} needs an integer, got {x}")
    return x.numerator


def _pair(v) -> tuple[int, int]:
    """A non-int binding as (numerator, denominator); a float is read exactly."""
    q = v if type(v) is Fraction else Fraction(v)
    return q.numerator, q.denominator


def _int(num: int, den: int, where: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise PoleError(f"{where} needs an integer, got {Fraction(num, den)}")
    return q


def _value(num: int, den: int) -> Number:
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


# Everything generated code may call; the tree's constants are passed in.
_NAMESPACE = {"PoleError": PoleError, "_comb": math.comb, "_binom": binom,
              "_factorial": math.factorial, "_pair": _pair, "_int": _int,
              "_value": _value}

# tree shape (see _shape) -> factory taking the tree's constants, returning its evaluator;
# the shape plus _RATIONAL -> the factory of the shape's rational variant
_FACTORIES: dict[str, Callable[..., Compiled]] = {}
_RATIONAL = " rational"

# an inline expression with more opening parentheses than this is bound to a
# temp, so deep trees stay well inside the parser's limit of 200 nested ones
_MAX_PARENS = 50

Pair = tuple[str, Union[str, None]]


class _Emitter:
    """One walk of a tree, writing the statements of its evaluator.

    Each node becomes a pair of Python expressions ``(num, den)`` holding an
    unreduced value ``num / den`` with ``den > 0``; ``den`` is None where the
    denominator is statically 1.  Such an integral ``num`` may be an inline
    expression, evaluated where it is used; every other ``num`` and ``den`` is
    a name.  With ``ints`` set, an env read that is not an int hands the call
    to ``general`` (the rational variant), so every read is integral;
    otherwise reads go through ``_pair``.  Constants become parameters
    ``k0, k1, ...`` of the factory, numbered in the order ``_shape`` lists
    them, env reads use ``repr`` of the variable name, and every other
    identifier is generated, so no text of the tree is ever code.
    """

    def __init__(self, ints: bool) -> None:
        self.ints = ints
        self.lines: list[str] = []
        self.params = 0
        self.temps = 0
        self.indent = " " * 12
        # per block: repr of a variable name -> its pair (env read or sum
        # index), and the num of a pair -> the int it was checked to be
        self.scopes: list[dict] = [{}]
        self.sums: set[str] = set()  # inline expressions whose outermost operator is +

    def temp(self, prefix: str) -> str:
        self.temps += 1
        return f"{prefix}{self.temps}"

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def lookup(self, key: str):
        for scope in reversed(self.scopes):
            if key in scope:
                return scope[key]
        return None

    def named(self, num: str) -> str:
        """A name holding the integral value num: for a value used twice."""
        if num.isidentifier():
            return num
        name = self.temp("t")
        self.emit(f"{name} = {num}")
        return name

    def inline(self, num: str) -> str:
        """num, or a name holding it once its parentheses nest too deep."""
        return self.named(num) if num.count("(") > _MAX_PARENS else num

    def factor(self, num: str) -> str:
        """num as an operand of ``*`` or ``%``."""
        return f"({num})" if num in self.sums else num

    def as_int(self, pair: Pair, where: str) -> str:
        num, den = pair
        if den is None:
            return num
        q = self.lookup(num)  # checked already, in this block or an enclosing one
        if q is None:
            q = self.scopes[-1][num] = self.temp("q")
            self.emit(f"{q} = {num} if {den} == 1 else _int({num}, {den}, {where!r})")
        return q

    def node(self, expr: Expr) -> Pair:
        emit = _EMIT.get(type(expr))
        if emit is None:
            raise TypeError(f"unknown expression node {expr!r}")
        return emit(self, expr)

    def const_node(self, expr: Const) -> Pair:
        k = self.params
        if Fraction(expr.value).denominator == 1:  # integrality survives a +1 bump
            self.params += 1
            return f"k{k}", None
        self.params += 2
        return f"k{k}", f"k{k + 1}"

    def var_node(self, expr: Var) -> Pair:
        key = repr(expr.name)
        pair = self.lookup(key)
        if pair is None:
            num = self.temp("n")
            if self.ints:
                pair = num, None
                self.emit(f"{num} = env[{key}]")
                self.emit(f"if type({num}) is not int: return general(env)")
            else:
                pair = num, den = num, self.temp("d")
                self.emit(f"{num} = env[{key}]; {den} = 1")
                self.emit(f"if type({num}) is not int: {num}, {den} = _pair({num})")
            self.scopes[-1][key] = pair
        return pair

    def div_node(self, expr: Div) -> Pair:
        (a, da), (b, db) = self.node(expr.num), self.node(expr.den)
        b = self.named(b)
        num, den = self.temp("n"), self.temp("d")
        self.emit(f"if not {b}: raise PoleError('division by zero')")
        self.emit(f"{num} = {a}" if db is None else f"{num} = {self.factor(a)} * {db}")
        self.emit(f"{den} = {b}" + ("" if da is None else f" * {da}"))
        self.emit(f"if {den} < 0: {num} = -{num}; {den} = -{den}")
        return num, den

    def pow_node(self, expr: Pow) -> Pair:
        b, db = self.node(expr.base)
        b = self.named(b)
        e = self.named(self.as_int(self.node(expr.exp), "exponent"))
        num, den = self.temp("n"), self.temp("d")
        self.emit(f"if {e} >= 0: {num} = {b} ** {e}; {den} = "
                  + ("1" if db is None else f"{db} ** {e}"))
        self.emit(f"elif not {b}: raise PoleError('zero base with negative exponent')")
        self.emit("else:")
        self.emit(f"    {num} = " + ("1" if db is None else f"{db} ** -{e}")
                  + f"; {den} = {b} ** -{e}")
        self.emit(f"    if {den} < 0: {num} = -{num}; {den} = -{den}")
        return num, den

    def binom_node(self, expr: Binom) -> Pair:
        upper = self.named(self.as_int(self.node(expr.upper), "binomial upper index"))
        lower = self.named(self.as_int(self.node(expr.lower), "binomial lower index"))
        return (f"(_comb({upper}, {lower}) if {upper} >= 0 <= {lower}"
                f" else _binom({upper}, {lower}))"), None

    def fact_node(self, expr: Fact) -> Pair:
        a = self.named(self.as_int(self.node(expr.arg), "factorial argument"))
        self.emit(f"if {a} < 0: raise PoleError(f'factorial of negative {{{a}}}')")
        return f"_factorial({a})", None

    def sign_node(self, expr: Sign) -> Pair:
        e = self.as_int(self.node(expr.exp), "sign exponent")
        return self.inline(f"(-1 if {self.factor(e)} % 2 else 1)"), None

    def sum_node(self, expr: Sum) -> Pair:
        lo = self.as_int(self.node(expr.lower), "sum lower bound")
        hi = self.as_int(self.node(expr.upper), "sum upper bound")
        num, den, index = self.temp("n"), self.temp("d"), self.temp("i")
        start = len(self.lines)
        self.emit(f"{num} = 0")
        self.emit(f"for {index} in range({lo}, {hi} + 1):")
        self.indent += "    "
        self.scopes.append({repr(expr.index): (index, None)})
        bn, bd = self.node(expr.body)
        if bd is None:
            self.emit(f"{num} += {bn}")
        else:  # keep one denominator while the terms share it
            self.lines[start] += f"; {den} = 1"
            self.emit(f"if {bd} == {den}: {num} += {bn}")
            self.emit(f"elif not {num}: {num} = {bn}; {den} = {bd}")
            self.emit(f"else: {num} = {num} * {bd} + {bn} * {den}; {den} *= {bd}")
        self.scopes.pop()
        self.indent = self.indent[4:]
        return num, (None if bd is None else den)

    def mul_node(self, expr: Mul) -> Pair:
        pairs = [self.node(f) for f in expr.factors]
        product = " * ".join(self.factor(n) for n, _ in pairs)
        dens = [d for _, d in pairs if d is not None]
        if not dens:
            return self.inline(product), None
        num = self.temp("n")
        self.emit(f"{num} = {product}")
        if len(dens) == 1:
            return num, dens[0]
        den = self.temp("d")
        self.emit(f"{den} = {' * '.join(dens)}")
        return num, den

    def add_node(self, expr: Add) -> Pair:
        pairs = [self.node(t) for t in expr.terms]
        ints = [n for n, d in pairs if d is None]
        whole = " + ".join(ints) if ints else None
        if len(ints) > 1:
            self.sums.add(whole)
            whole = self.inline(whole)
        fracs = [(n, d) for n, d in pairs if d is not None]
        if not fracs:
            return whole, None
        num, den = fracs[0]
        for n2, d2 in fracs[1:]:
            n3, d3 = self.temp("n"), self.temp("d")
            self.emit(f"if {den} == {d2}: {n3} = {num} + {n2}; {d3} = {den}")
            self.emit(f"else: {n3} = {num} * {d2} + {n2} * {den}; {d3} = {den} * {d2}")
            num, den = n3, d3
        if whole is not None:
            n3 = self.temp("n")
            self.emit(f"{n3} = {num} + {self.factor(whole)} * {den}")
            num = n3
        return num, den

    def source(self, expr: Expr, name: str = "_make") -> str:
        """The source of the factory ``name``, for the tree's shape."""
        num, den = self.node(expr)
        self.emit(f"return {num}" if den is None
                  else f"return {num} if {den} == 1 else _value({num}, {den})")
        params = ", ".join((["general"] if self.ints else [])
                           + [f"k{k}" for k in range(self.params)])
        return "\n".join([
            f"def {name}({params}):",
            "    def term(env):",
            "        try:",
            *self.lines,
            "        except KeyError as missing:",
            "            raise PoleError(f'unbound variable {missing.args[0]}') from None",
            "    return term",
            "",
        ])


_EMIT = {Const: _Emitter.const_node, Var: _Emitter.var_node, Add: _Emitter.add_node,
         Mul: _Emitter.mul_node, Div: _Emitter.div_node, Pow: _Emitter.pow_node,
         Binom: _Emitter.binom_node, Fact: _Emitter.fact_node, Sign: _Emitter.sign_node,
         Sum: _Emitter.sum_node}


# the key letter of each node class but Const, which is its slot count: 1 or 2
_CODES = {Var: "V", Add: "A", Mul: "M", Div: "D", Pow: "P", Binom: "B", Fact: "F",
          Sign: "G", Sum: "S"}


def _shape(expr: Expr, key: list[str], consts: list[int],
           starts: list[tuple[Const, int]]) -> None:
    """Append the tree's shape to key and its constants to consts, in field order.

    The key holds node classes, operand counts, names and whether each
    constant is integral: everything the emitted source depends on, and no
    constant's value.  Its parts join into one string, and no two shapes
    join into the same one: a class is one letter, a count ends in ``:``, a
    name is its ``repr`` and a constant its slot count.  An integral constant
    fills one slot of consts, any other its numerator and denominator;
    starts gets each one's node beside its first slot.
    """
    cls = type(expr)
    if cls is Const:
        q = expr.value if type(expr.value) is Fraction else Fraction(expr.value)
        starts.append((expr, len(consts)))
        if q.denominator == 1:
            key.append("1")
            consts.append(q.numerator)
        else:
            key.append("2")
            consts += (q.numerator, q.denominator)
        return
    code = _CODES.get(cls)
    if code is None:
        raise TypeError(f"unknown expression node {expr!r}")
    key.append(code)
    for name in cls.__slots__:
        value = getattr(expr, name)
        if type(value) is tuple:
            key.append(f"{len(value)}:")
            for part in value:
                _shape(part, key, consts, starts)
        elif isinstance(value, Expr):
            _shape(value, key, consts, starts)
        elif type(value) is str:
            key.append(repr(value))
        else:
            raise TypeError(f"variable name must be a str, got {value!r}")


def _factory(key: str, expr: Expr, ints: bool) -> Callable[..., Compiled]:
    """The factory cached under key: a shipped one, else compiled from the tree on first use."""
    make = _FACTORIES.get(key)
    if make is None:
        make = _FACTORIES[key] = _shipped(key) or _build(_Emitter(ints).source(expr))
    return make


def _shipped(key: str) -> Callable[..., Compiled] | None:
    """The factory that ``polycount.evaluators`` ships for key, importing its module, or None."""
    from importlib import import_module

    from . import evaluators

    found = evaluators.SHAPES.get(key)
    if found is None:
        return None
    family, at = found
    return import_module(f"{evaluators.__name__}.{family}").FACTORIES[at]


def _build(source: str, name: str = "_make") -> Callable[..., Compiled]:
    """The factory that source defines under name, compiled."""
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<polycount.symbolic>", "exec"), namespace)
    return namespace[name]


def compile_term(expr: Expr) -> Compiled:
    """Turn the tree into one function ``env -> int | Fraction``.

    The tree is walked once into straight-line Python source, with a
    ``for`` loop per ``Sum``, knowing statically which values are
    integral.  Those are plain int expressions, written inline
    where they are used once and bound to a temp where they are used twice
    (binomial indices, a factorial argument, a power's base and exponent, a
    divisor).  Only where a division, a negative power or a non-integral
    constant needs one does a value become an unreduced int pair
    ``(num, den > 0)``; a call normalises it once, at the end: an int when
    the value is integral, else a reduced Fraction.

    Every variable read is typed int.  A read that finds anything else (a
    Fraction, float or bool) hands the whole call to the tree's rational
    variant, the same shape emitted with every read turned into an exact
    int pair, so such bindings get the same values and the same PoleErrors.
    That variant is compiled the first time a call needs it, once per shape.

    No text of the tree becomes code: constants are parameters of a
    factory, variable names appear only as ``repr`` string literals in
    ``env`` lookups, and every identifier is generated.  The source thus
    depends only on the tree's shape: its nodes, variable names and which
    constants are integral.  Factories are cached by that shape's key, a
    string (``_shape``), and ``mutants`` calls the same factory with one
    constant bumped.  A key that ``polycount.evaluators`` ships loads that
    module's factory, with no compiling; any other shape is compiled the
    first time it is met.  Python's block nesting limit caps ``Sum`` nesting
    at 19.

    Binomials follow the falling-factorial convention: C(a, b) = 0 for
    b < 0 and the product a(a-1)...(a-b+1)/b! otherwise, so negative upper
    indices are fine and 0 <= a < b gives 0.  An undefined point (unbound
    variable, zero denominator, zero base with a negative exponent,
    non-integral binomial, factorial, sign, exponent or sum-bound argument,
    factorial of a negative) raises PoleError when the function is called,
    never at compile time.  Variables are read when first needed, so one read
    only inside an empty sum never raises; float bindings are read exactly.
    """
    shape: list[str] = []
    consts: list[int] = []
    _shape(expr, shape, consts, [])
    return _evaluator("".join(shape), expr, consts)


def mutants(expr: Expr, of: Expr) -> list[Compiled]:
    """One evaluator per constant of ``of``, in DFS order, with that constant plus one.

    ``of`` is expr or a part of it, and each evaluator bumps its constant
    wherever expr holds that object.  ``substitute`` keeps a tree's
    constants, so a step of ``of`` inside expr is bumped with it, and a
    constant that the step put in is left alone.  A constant object that
    ``of`` holds twice is one mutant, bumped in both places; no registry
    certificate holds one.  An integral constant k becomes k + 1 and a
    fraction p/q becomes (p + q)/q, so each stays integral or not and every
    mutant runs expr's compiled code: no tree is copied and nothing is
    compiled anew.  A constant of ``of`` that expr lacks raises ValueError.
    """
    shape: list[str] = []
    consts: list[int] = []
    starts: list[tuple[Const, int]] = []
    _shape(expr, shape, consts, starts)
    own: list[tuple[Const, int]] = []
    _shape(of, [], [], own)
    key, out = "".join(shape), []
    for const in {id(node): node for node, _ in own}.values():
        slots = [at for node, at in starts if node is const]
        if not slots:
            raise ValueError(f"the tree lacks the constant {const.value} of the part to bump")
        bumped = list(consts)
        for at in slots:
            bumped[at] += 1 if Fraction(const.value).denominator == 1 else bumped[at + 1]
        out.append(_evaluator(key, expr, bumped))
    return out


def _evaluator(key: str, expr: Expr, consts: list[int]) -> Compiled:
    """The shape's factory called with these constants, its rational variant made lazily."""
    variant = None

    def general(env: Mapping[str, Number]) -> Number:
        nonlocal variant
        if variant is None:
            variant = _factory(key + _RATIONAL, expr, False)(*consts)
        return variant(env)

    return _factory(key, expr, True)(general, *consts)


def eval_term(expr: Expr, env: Mapping[str, Number]) -> Fraction:
    """Evaluate once, exactly, as a Fraction; raise PoleError when undefined."""
    return Fraction(compile_term(expr)(env))
