from __future__ import annotations

import copy
import fnmatch
import hashlib
import itertools
from fractions import Fraction

import pytest

from polycount.identities import (
    Const,
    IdentityCheck,
    Kernels,
    _X_SAMPLES,
    _Z_SAMPLES,
    _kernels,
    _mutants,
    _telescoped,
    build_registry,
    mutation_survivors,
    registry,
    run_check,
    run_registry,
)
from polycount.symbolic import (
    Add,
    Expr,
    PoleError,
    Sum,
    Var,
    binom_expr as C,
    compile_term,
    eval_term,
    mutants,
    substitute,
    syms,
)

a, s, i, j, ip, jp, t, k = syms("a s i j ip jp t k")


def replace(chk: IdentityCheck, **changes) -> IdentityCheck:
    """A copy of chk with the given fields changed; the registry's check stays as it is."""
    changed = copy.copy(chk)
    for name, value in changes.items():
        setattr(changed, name, value)
    return changed


def test_registry_builds_uniquely():
    reg = build_registry()
    assert len(reg) > 50
    assert "q3/double-sum-recurrence" in reg
    assert "appendix-c/chu-vandermonde" in reg


def test_registry_all_pass():
    report = run_registry("*")
    assert report.ok, [c.name for c in report.failures]
    # every check exercised a healthy number of points
    for c in report.checks:
        assert c.params["tested"] >= 10, (c.name, c.params)


def test_registry_group_filters():
    for pattern in ("appendix-c/*", "appendix-d/*", "appendix-b/*",
                    "q1/*", "q3/*", "q4/*", "rhs/*", "double-gf/*", "gf/*"):
        report = run_registry(pattern)
        assert report.checks, pattern
        assert report.ok, pattern


def test_empty_filter_is_success():
    report = run_registry("no-such-check-*")
    assert report.checks == []
    assert report.ok


def test_chu_vandermonde_point():
    chk = registry()["appendix-c/chu-vandermonde"]
    assert (chk.lhs.index, chk.lhs.lower, chk.lhs.upper) == ("j", Const(Fraction(0)), a)
    total = eval_term(
        Sum("j", Const(Fraction(0)), Const(Fraction(3)), chk.lhs.body),
        {"a": 3, "b": 4, "c": 2},
    )
    assert total == 21
    assert eval_term(chk.lhs, {"a": 3, "b": 4, "c": 2}) == 21
    assert eval_term(chk.rhs, {"a": 3, "b": 4, "c": 2}) == 21


def test_convolution_vanishing_point():
    chk = registry()["appendix-c/convolution-vanishing"]
    env = {"s": 5, "t": 2, "j": 3}
    assert (chk.lhs.index, chk.lhs.lower, chk.lhs.upper) == ("jp", Const(Fraction(0)), j)
    total = sum(
        eval_term(chk.lhs.body, {**env, "jp": v}) for v in range(0, 4)
    )
    assert total == 0
    assert eval_term(chk.lhs, env) == 0
    assert eval_term(chk.rhs, env) == 0


def test_stirling_point():
    total = sum((-1) ** (iv + 3) * iv ** 3 * eval_term(C(s, i), {"s": 3, "i": iv})
                for iv in range(4))
    assert total == 6  # 3 - 24 + 27


def test_alternating_antidifference_point():
    # 1 - 4 + 6 = 3 = C(3,2)
    chk = registry()["appendix-d/alternating-binomial-antidifference"]
    env = {"s": 4, "u": 2}
    total = sum(eval_term(chk.summand, {**env, "jp": v}) for v in range(0, 3))
    assert total == 3
    assert eval_term(chk.inhom, env) == 3


def test_inner_sum_certificate_point():
    chk = registry()["q3/inner-sum-recurrence"]
    env = {"s": 4, "i": 6, "jp": 2, "t": 1}
    lhs = Fraction(0)
    for d, bd in enumerate(chk.coeffs):
        lhs += eval_term(bd, env) * eval_term(chk.summand, {**env, "jp": 2 + d})
    ((index, _, _, label, certificate, pole_free),) = chk.axes
    assert (index, label, pole_free) == ("t", "certificate", None)
    g = certificate * chk.summand
    rhs = eval_term(g, {**env, "t": 2}) - eval_term(g, env)
    assert lhs == rhs


def test_beta2h_step_point():
    chk = registry()["q4/beta2h-step"]
    env = {"s": 3, "i": 1, "j": 5}
    assert eval_term(chk.lhs, env) == eval_term(chk.rhs, env) == 120


def test_degenerate_grid_fails():
    chk = IdentityCheck(
        name="degenerate",
        kind="closed-form-sum",
        description="every point poles out",
        lhs=Sum("j", Const(Fraction(0)), Const(Fraction(1)), s / (s - s)),
        rhs=Const(Fraction(0)),
        grid=lambda: [{"s": 1}, {"s": 2}],
    )
    out = run_check(chk)
    assert not out.passed
    assert out.tested == 0 and out.skipped == 2


def test_non_integer_bound_skips_the_grid_point():
    # sum_{k=0}^{s/2} k = C(s/2 + 1, 2) via G = (k-1)/2 * k; odd s has no integer bound
    chk = IdentityCheck(
        name="half-range",
        kind="certificate-recurrence",
        description="the upper bound s/2 is an integer only for even s",
        summand=k,
        param="s",
        coeffs=(Const(Fraction(1)),),
        axes=(("k", Const(Fraction(0)), s / 2, "certificate", (k - 1) / 2, None),),
        inhom=C(s / 2 + 1, 2),
        grid=lambda: [{"s": sv} for sv in range(1, 5)],
    )
    out = run_check(chk)
    assert out.passed, out.failures
    # s = 2: points k = 0, 1 and the summed check; s = 4: k = 0, 1, 2 and the summed check
    assert (out.tested, out.skipped) == (7, 2)


def test_each_check_carries_the_data_of_its_kind():
    # the data picks the runner, so each kind must carry exactly the data its runner reads
    labels = {
        "certificate-recurrence": ("certificate",),
        "antidifference": ("antidifference",),
        "double-sum-recurrence": ("certificate", "certificate2"),
    }
    reg = registry()
    assert len(reg) == 63
    for name, chk in reg.items():
        if chk.kind in ("pointwise", "boundary-lemma", "closed-form-sum"):
            assert chk.lhs is not None and chk.rhs is not None and chk.axes == (), name
            assert (chk.summand, chk.param, chk.coeffs, chk.inhom) == (None,) * 4, name
            assert isinstance(chk.lhs, Sum) or chk.kind != "closed-form-sum", name
        else:
            assert [axis[3] for axis in chk.axes] == list(labels[chk.kind]), name
            assert all(len(axis) == 6 for axis in chk.axes), name
            assert chk.lhs is None and chk.rhs is None and chk.summand is not None, name
            assert (chk.coeffs is None) == (chk.kind == "antidifference"), name
            assert (chk.param is None) == (chk.coeffs is None), name


def test_registry_point_accounting():
    totals = {}
    for c in run_registry("*").checks:
        row = totals.setdefault(c.params["kind"], [0, 0, 0])
        row[0] += 1
        row[1] += c.params["tested"]
        row[2] += c.params["skipped"]
    assert totals == {
        "antidifference": [7, 2712, 112],
        "boundary-lemma": [3, 144, 0],
        "certificate-recurrence": [9, 1741, 401],
        "closed-form-sum": [23, 1851, 0],
        "double-sum-recurrence": [2, 853, 488],
        "pointwise": [19, 1422, 0],
    }
    labels = [label for chk in registry().values() for label, _ in _mutants(chk)]
    assert len(labels) == len(set(labels)) == 134


def _nodes(expr: Expr):
    yield expr
    for name in type(expr).__slots__:
        value = getattr(expr, name)
        for part in value if type(value) is tuple else (value,):
            if isinstance(part, Expr):
                yield from _nodes(part)


def _roots(value):
    """Every expression in a check's field: the field, or those in its tuple (coeffs, axes)."""
    if isinstance(value, Expr):
        yield value
    elif type(value) is tuple:
        for part in value:
            yield from _roots(part)


def _trees(chk: IdentityCheck):
    """Every expression a check holds, field by field."""
    return _roots(tuple(getattr(chk, field) for field in IdentityCheck.__slots__))


def test_no_sum_is_typed_twice():
    # equal sums are one object, so every check that states, steps or sums a
    # proof object reads the one its siblings prove
    first, copies = {}, []
    for name, chk in registry().items():
        for root in _trees(chk):
            for node in _nodes(root):
                if type(node) is Sum and first.setdefault(node, node) is not node:
                    copies.append(name)
    assert copies == []


def _statement(chk: IdentityCheck) -> tuple[Expr, Expr | None]:
    """The identity a check states, as its two sides.

    A pointwise check states lhs = rhs.  A telescoping check states
    sum_d b_d times the nested sums of F(p + d) over its axes, or the bare
    nested sum where it has no coefficients, against inhom: None for a
    recurrence that declares no value.
    """
    if not chk.axes:
        return chk.lhs, chk.rhs
    sums = []
    for d, bd in enumerate(chk.coeffs or (None,)):
        fd = substitute(chk.summand, chk.param, Var(chk.param) + d) if d else chk.summand
        for index, lower, upper, *_ in reversed(chk.axes):
            fd = Sum(index, lower, upper, fd)
        sums.append(fd if bd is None else bd * fd)
    return (sums[0] if len(sums) == 1 else Add(tuple(sums))), chk.inhom


def _canonical(trees: tuple) -> tuple:
    """The trees with each bound index named by its depth and each free name by its first appearance."""
    free: dict[str, int] = {}

    def walk(expr: Expr, bound: tuple[str, ...]):
        cls = type(expr)
        if cls is Var:
            if expr.name in bound:
                return "bound", len(bound) - 1 - bound[::-1].index(expr.name)
            return "free", free.setdefault(expr.name, len(free))
        if cls is Const:
            return "const", expr.value
        if cls is Sum:  # the bounds are read outside the sum's own index
            return ("Sum", walk(expr.lower, bound), walk(expr.upper, bound),
                    walk(expr.body, bound + (expr.index,)))
        fields = (getattr(expr, slot) for slot in cls.__slots__)
        return (cls.__name__, *(tuple(walk(part, bound) for part in field)
                                if type(field) is tuple else walk(field, bound)
                                for field in fields))

    return tuple(None if tree is None else walk(tree, ()) for tree in trees)


def _held(chk: IdentityCheck, keep) -> set[int]:
    """The ids of the nodes of the check's trees that keep accepts."""
    return {id(node) for root in _trees(chk) for node in _nodes(root) if keep(node)}


def _compound(node: Expr) -> bool:
    return type(node) not in (Var, Const)


def test_each_identity_is_stated_once_up_to_renaming():
    # two checks may state one identity, up to the names of its free
    # variables and bound indices, only as instances of one object, so that
    # they share a compound node; the same formula typed twice fails here
    reg = registry()
    stated: dict[tuple, list[str]] = {}
    for name, chk in sorted(reg.items()):
        stated.setdefault(_canonical(_statement(chk)), []).append(name)
    alike = [names for names in stated.values() if len(names) > 1]
    twice = [pair for names in alike for pair in itertools.combinations(names, 2)
             if not _held(reg[pair[0]], _compound) & _held(reg[pair[1]], _compound)]
    assert twice == [], f"one identity stated by two objects: {twice}"
    # the one identity two checks state: the alternating antidifference's sum,
    # which the weights reports read at u = i
    assert alike == [["appendix-d/alternating-binomial-antidifference",
                      "rhs/alternating-partial-sum"]]
    # renaming is all the comparison forgives
    assert _canonical((Sum("j", s, t, C(t, j)),)) == _canonical((Sum("k", i, a, C(a, k)),))
    assert _canonical((Sum("j", s, t, C(t, j)),)) != _canonical((Sum("j", s, t, C(s, j)),))


#: the checks that share no node but a Var with any other check, each with
#: the reason it stands alone rather than being built from another's object
STOCK_LEMMAS = {
    "appendix-c/alternating-shifted":
        "a lemma of the paper's Appendix C, checked as stated; no other check "
        "is an instance of it",
    "appendix-d/rising-binomial-antidifference":
        "a lemma of the paper's Appendix D; rhs/second-term-column sums the same "
        "hockey stick only after an index shift and C(n,k) = C(n,n-k), which "
        "substitution cannot express",
    "double-gf/outer-assembly":
        "the bivariate route's outer t-sum in closed form, summed to t = 2s: its "
        "summand, with C(2s,t), equals outer-sum-recurrence's 2s C(2s-1,t)/(2s-t) "
        "below 2s and has no pole at 2s, so neither is an instance of the other",
    "double-gf/outer-sum-recurrence":
        "the s-recurrence of the bivariate generating-function route's outer "
        "t-sum (hseq.h_from_double_gf); no other check states that sum",
    "gf/product-rule-antidifference":
        "the product rule behind the row generating-function route's third part "
        "(hseq.h_from_gf); no other check states its summand",
}


def _groups(checks: dict[str, IdentityCheck]) -> list[list[str]]:
    """The checks joined wherever two hold one node object that is not a Var."""
    group = {name: {name} for name in checks}
    owner: dict[int, str] = {}
    for name, chk in checks.items():
        for node in _held(chk, lambda node: type(node) is not Var):
            other = owner.setdefault(node, name)
            if group[other] is not group[name]:
                merged = group[other] | group[name]
                for member in merged:
                    group[member] = merged
    return sorted({id(members): sorted(members) for members in group.values()}.values())


def test_the_two_forms_of_the_double_gf_outer_summand_agree_below_2s():
    # two stock lemmas type one summand apart: outer-assembly's C(2s,t) (1-x)^(t-s)
    # and outer-sum-recurrence's 2s C(2s-1,t) / ((2s-t) (1-x)^(s-t)); on the
    # registry's own trees they agree wherever both are defined, and only the
    # assembly reaches t = 2s, where the other form has its pole
    reg = registry()
    assembly = reg["double-gf/outer-assembly"].lhs
    recurrence = reg["double-gf/outer-sum-recurrence"]
    assert (assembly.index, recurrence.axes[0][0]) == ("t", "t")
    summed, stepped = compile_term(assembly.body), compile_term(recurrence.summand)
    points = 0
    for sv in range(1, 6):
        for zv in _Z_SAMPLES:
            for xv in _X_SAMPLES:
                for tv in range(2 * sv):
                    env = {"s": sv, "t": tv, "z": zv, "x": xv}
                    assert summed(env) == stepped(env), env
                    points += 1
                env = {"s": sv, "t": 2 * sv, "z": zv, "x": xv}
                assert summed(env) != 0
                with pytest.raises(PoleError):
                    stepped(env)
    assert points == 270


def test_every_unlinked_check_is_a_listed_stock_lemma():
    # the proof chain is read off object identity: a check that shares no
    # node with any other is either built from the object it is an instance
    # of, or a stock lemma listed above with its reason
    reg = registry()
    groups = _groups(reg)
    alone = [members[0] for members in groups if len(members) == 1]
    assert alone == sorted(STOCK_LEMMAS), "link each new check, or list it as a stock lemma"
    assert all(reason for reason in STOCK_LEMMAS.values())
    assert sorted(map(len, groups)) == [1] * 5 + [2] * 5 + [3] * 5 + [4, 5, 12, 12]
    # a check typed apart from every other shows up, however much it resembles one
    chu = reg["appendix-c/chu-vandermonde"]
    stray = replace(chu, name="stray", lhs=Sum("j", Const(Fraction(0)), a, C(a, j) * C(k, k - j)),
                    rhs=C(a + k, k))
    assert ["stray"] in _groups({**reg, "stray": stray})


def test_no_certificate_shares_a_constant_with_another_tree():
    # a mutant bumps a constant of g wherever the telescoped kernel holds that
    # object, so a constant that g shared with a summand, a bound or a linked
    # check's tree would be bumped there too
    holders: dict[int, set[int]] = {}
    for chk in registry().values():
        for root in _trees(chk):
            for node in _nodes(root):
                if type(node) is Const:
                    holders.setdefault(id(node), set()).add(id(root))
    certificates = [axis[4] for chk in registry().values() for axis in chk.axes]
    assert len(certificates) == 20
    for g in certificates:
        assert all(holders[id(node)] == {id(g)} for node in _nodes(g) if type(node) is Const), g


#: each telescoping check -> the checks that state a sum of its summand: a
#: closed form, a value or a step
STATED_SUMS = {
    "appendix-d/alternating-binomial-antidifference": ["rhs/alternating-partial-sum",
                                                       "rhs/alternating-partial-sum-upper"],
    "double-gf/inner-coefficient-recurrence": ["double-gf/inner-coefficient-closed-form"],
    "q3/second-term-recurrence": ["q3/second-term-sum-interior", "q3/second-term-sum-boundary"],
    "q3/inner-sum-recurrence": ["q3/inner-sum-closed-form", "q3/inner-sum-with-correction"],
    "q3/correction-recurrence": ["q3/correction-vanishes", "q3/inner-sum-with-correction",
                                 "q3/correction-summed-step"],
    "q3/breakpoint-recurrence": ["q3/breakpoint-value"],
    "q3/top-row-antidifference": ["q3/top-row-inner-value"],
    "q4/beta2h-recurrence": ["q4/beta2h-step"],
    "rhs/h3-first-sum-recurrence": ["rhs/h3-first-sum"],
    "rhs/h3-second-sum-recurrence": ["rhs/h3-second-sum"],
}


#: (check, the check that states an object, that object, index, value): the
#: check reads the object with value substituted for index.  A step (value
#: index + 1) reads the object itself beside its step, and value index reads
#: the object itself; a number reads it at a constant.  No other check states
#: beta2h, whose body is the summand of q4/beta2h-recurrence (STATED_SUMS).
SUBSTITUTIONS = [
    ("q3/double-sum-step-offdiagonal", "q3/double-sum-value", lambda chk: chk.lhs, "i", i + 1),
    ("q3/double-sum-step-diagonal", "q3/double-sum-value", lambda chk: chk.lhs, "i", i + 1),
    ("q3/inhom-diagonal-recurrence", "q3/inhom-diagonal-value", lambda chk: chk.lhs, "i", i + 1),
    ("q3/correction-summed-step", "q3/correction-vanishes", lambda chk: chk.lhs, "jp", jp + 1),
    ("q4/beta3v-step", "q4/transformed-double-sum", lambda chk: chk.rhs.terms[1], "i", i + 1),
    ("q4/beta2h-step", "q4/beta2h-step", lambda chk: chk.lhs.terms[1].factors[1], "i", i + 1),
    ("q4/initial-value-second-horizontal", "q4/beta2h-step",
     lambda chk: chk.lhs.terms[1].factors[1], "i", 0),
    ("q4/transformed-double-sum", "q4/inner-sum-transform", lambda chk: chk.lhs, "jp", jp),
    ("rhs/third-term-column", "q4/inner-sum-transform", lambda chk: chk.lhs, "jp", jp),
]


def test_a_closed_form_that_two_checks_state_is_one_object():
    reg = registry()
    # the diagonal jp-sum sums the boundary term at j = i, and substitute
    # keeps the term's constants, so both checks read each constant's object
    term = reg["q3/inhom-boundary-term"].rhs
    summand = reg["q3/inhom-diagonal-value"].lhs.body
    assert summand == substitute(term, "j", i)
    constants = [[node for node in _nodes(root) if type(node) is Const]
                 for root in (summand, term)]
    assert len(constants[0]) == len(constants[1]) == 8
    assert all(ours is theirs for ours, theirs in zip(*constants))
    # the third term's inner t-sum holds the binomial that
    # q1/third-term-vanishes convolves
    binomial = reg["q1/third-term-vanishes"].lhs.body.factors[0].factors[1]
    assert binomial == C(s - (t + 1) + jp, jp)
    assert any(node is binomial for node in _nodes(reg["q4/inner-sum-transform"].lhs))
    # one i-step of beta3v is the closed form of the single sum its
    # multisum telescoping leaves
    assert reg["q4/step-inner-antidifference"].inhom is reg["q4/beta3v-step"].rhs


def test_each_check_substitutes_into_the_object_its_sibling_states():
    reg = registry()
    for name, stating, pick, index, value in SUBSTITUTIONS:
        stated = pick(reg[stating])
        nodes = list(_nodes(reg[name].lhs))
        assert substitute(stated, index, value) in nodes, name
        if isinstance(value, Expr):
            assert any(node is stated for node in nodes), name


#: (check, the check that states an object, that object, values): the check
#: reads an instance of the object, the values substituted for its names in
#: turn, built from the object itself
INSTANCES = [
    ("q1/vertical-convolution", "appendix-c/chu-vandermonde", lambda chk: chk.lhs.body,
     {"j": ip, "a": s, "b": s, "c": i}),
    ("q1/vertical-convolution", "appendix-c/chu-vandermonde", lambda chk: chk.rhs,
     {"a": s, "b": s, "c": i}),
    ("q1/alpha-reduction", "appendix-c/chu-vandermonde", lambda chk: chk.lhs.body,
     {"j": jp, "a": s, "b": s, "c": j}),
    ("q1/third-term-vanishes", "appendix-c/convolution-vanishing", lambda chk: chk.lhs,
     {"t": t + 1}),
    ("q4/initial-value-third-vertical", "q1/third-term-vanishes", lambda chk: chk.lhs.body,
     {"t": 0}),
    ("rhs/alternating-partial-sum", "appendix-d/alternating-binomial-antidifference",
     lambda chk: chk.inhom, {"u": i}),
    ("rhs/stirling-t0", "rhs/stirling-higher", lambda chk: chk.lhs, {"t": 0}),
    ("rhs/stirling-t1", "rhs/stirling-higher", lambda chk: chk.lhs, {"t": 1}),
]


def test_each_instance_is_built_from_the_object_it_instantiates():
    # substitute keeps every constant object of the tree it reads, so an
    # instance built from the object holds each of its constants, where a
    # retyped copy would hold equal ones
    reg = registry()
    for name, stating, pick, values in INSTANCES:
        stated = instance = pick(reg[stating])
        for index, value in values.items():
            instance = substitute(instance, index, value)
        nodes = [node for root in (reg[name].lhs, reg[name].rhs) for node in _nodes(root)]
        found = [node for node in nodes if node == instance]
        assert found, name
        held = {id(node) for node in _nodes(found[0])}
        assert all(id(node) in held for node in _nodes(stated) if type(node) is Const), name


def test_each_telescoped_summand_is_the_body_of_the_sums_it_proves():
    # one object, not an equal copy, so a typo cannot split a proof chain
    reg = registry()
    for name, stating in STATED_SUMS.items():
        summand = reg[name].summand
        for other in stating:
            bodies = [node.body for root in (reg[other].lhs, reg[other].rhs)
                      for node in _nodes(root) if type(node) is Sum]
            assert any(body is summand for body in bodies), (name, other)
    # the convolution that q1/vertical-convolution sums is the body of the
    # one q3/horizontal-chu sums, to the same closed form
    vertical, horizontal = reg["q1/vertical-convolution"], reg["q3/horizontal-chu"]
    assert horizontal.lhs.body is vertical.lhs.body and horizontal.rhs is vertical.rhs
    # the top-row inner sum's second piece is what its antidifference telescopes
    assert reg["q3/top-row-inner-value"].rhs.terms[-1] \
        is reg["q3/top-row-second-piece-antidifference"].summand
    # a double-sum recurrence's summand is built from the factor and the inner
    # body of the double sum it proves
    for name, stating, pick in (
        ("q3/double-sum-recurrence", "q3/double-sum-value", lambda chk: chk.lhs),
        ("q4/beta3v-recurrence", "q4/transformed-double-sum", lambda chk: chk.rhs.terms[1]),
    ):
        factor, outer = pick(reg[stating]).factors
        nodes = list(_nodes(reg[name].summand))
        assert any(node is factor for node in nodes), name
        assert any(node is outer.body.body for node in nodes), name
    # the residual's factor is the one the closed-form part's outer sum has
    residual = reg["q3/double-sum-value"].lhs
    assert reg["q3/first-term-outer-sum"].lhs.factors[0] is residual.factors[0]
    # the inner sum's closed form is the one the correction and the outer sum use
    closed = reg["q3/inner-sum-closed-form"].rhs
    for name in ("q3/inner-sum-with-correction", "q3/first-term-outer-sum"):
        chk = reg[name]
        assert any(node is closed for root in (chk.lhs, chk.rhs) for node in _nodes(root)), name


def test_wrong_closed_form_detected():
    chk = registry()["q1/second-term-value"]
    broken = replace(chk, rhs=Const(Fraction(2)))
    assert not run_check(broken).passed


def test_boundary_lemmas_tell_their_shapes_apart():
    # each region's double sum fails against another region's boundary sums
    reg = registry()
    shapes = ("rectangle", "triangle", "antitriangle")
    for shape, other in zip(shapes, shapes[1:] + shapes[:1]):
        chk = reg[f"appendix-b/{shape}-boundary"]
        broken = replace(chk, rhs=reg[f"appendix-b/{other}-boundary"].rhs)
        assert not run_check(broken).passed, (shape, other)


def test_gterm2_tracks_its_certificate():
    # the pole-free inner G must agree with certificate2 * summand wherever
    # the latter is defined, or a mutant run (which drops it) checks a
    # different identity from the registry run
    checks = [chk for chk in registry().values()
              if any(axis[5] is not None for axis in chk.axes)]
    assert [chk.name for chk in checks] == ["q4/beta3v-recurrence"]
    for chk in checks:
        outer, inner = chk.axes
        assert (outer[3], outer[5], inner[3]) == ("certificate", None, "certificate2")
        simplified = run_check(chk)
        plain = run_check(replace(chk, axes=(outer, inner[:5] + (None,))))
        assert simplified.passed and plain.passed, chk.name
        assert (simplified.tested, simplified.skipped) == (601, 0)
        assert (plain.tested, plain.skipped) == (377, 224)


def test_a_wrong_certificate_behind_a_pole_free_form_fails():
    # the registry run telescopes through the pole-free G, so only its
    # comparison with certificate2 * summand sees a wrong certificate2
    chk = registry()["q4/beta3v-recurrence"]
    outer, inner = chk.axes
    wrong_g = Const(Fraction(7)) * inner[4] + Const(Fraction(3))
    out = run_check(replace(chk, axes=(outer, inner[:4] + (wrong_g, inner[5]))))
    assert not out.passed
    assert (out.tested, out.skipped) == (601, 0)  # a mismatch fails, it is never skipped
    assert "certificate2 G=" in out.failures[0] and "pole-free=" in out.failures[0]


def test_summed_checks_fail_on_a_wrong_target_and_skip_its_poles():
    # the mutants bump only an axis's g, so the summed half of the runner
    # (the definite sums against the declared inhom) is tested here
    checks = [chk for chk in registry().values() if chk.axes and chk.inhom is not None]
    assert len(checks) == 10
    for chk in checks:
        out = run_check(chk)
        assert out.passed, (chk.name, out.failures[:1])
        wrong = run_check(replace(chk, inhom=chk.inhom + Const(Fraction(1))))
        assert not wrong.passed and "summed=" in wrong.failures[0], chk.name
        # a target that poles everywhere skips the summed test at every grid point
        poled = run_check(replace(chk, inhom=chk.inhom / Const(Fraction(0))))
        assert poled.passed, (chk.name, poled.failures[:1])
        assert poled.tested + poled.skipped == out.tested + out.skipped, chk.name
        assert poled.skipped - out.skipped == len(wrong.failures), chk.name


def test_mutation_detection_samples():
    reg = registry()
    for name in (
        "q3/second-term-recurrence",
        "appendix-d/alternating-binomial-antidifference",
        "q4/step-inner-antidifference",
    ):
        assert mutation_survivors(reg[name]) == [], name


def test_fail_fast_stops_at_the_first_failure():
    checks = [chk for name, chk in sorted(registry().items())
              if name == "q3/second-term-recurrence" or fnmatch.fnmatch(name, "double-gf/*")]
    seen = 0
    for chk in checks:
        for label, mutant in _mutants(chk):
            full = run_check(chk, mutant=mutant)
            fast = run_check(chk, fail_fast=True, mutant=mutant)
            assert not fast.passed, label
            assert len(fast.failures) == 1, (label, fast.failures)
            assert fast.failures[0] == full.failures[0], label
            assert fast.tested <= full.tested, label
            seen += 1
    assert seen == 22

    # the normal run keeps every failing point
    chk = registry()["q3/second-term-recurrence"]
    label, mutant = next(_mutants(chk))
    assert label == "q3/second-term-recurrence:certificate[0]"
    full = run_check(chk, mutant=mutant)
    fast = run_check(chk, fail_fast=True, mutant=mutant)
    assert (full.tested, full.skipped, len(full.failures)) == (310, 55, 75)
    assert len(set(full.failures)) == 75
    assert fast.tested == 6 and fast.failures == full.failures[:1]


def test_every_mutant_outcome_is_pinned():
    # (label, tested, skipped, failures) of all 134 fail-fast mutant runs, as
    # the tree-copying mutants gave them
    rows = []
    for _, chk in sorted(registry().items()):
        for label, mutant in _mutants(chk):
            out = run_check(chk, fail_fast=True, mutant=mutant)
            rows.append((label, out.tested, out.skipped, out.failures))
    assert len(rows) == 134
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "9d759985a21a32f15320cb36398fc60fa717e43309a306258bf2836b1d92e012")


def test_every_check_and_whole_mutant_run_is_pinned():
    # (name, tested, skipped, failures) of all 63 registry checks, and of all
    # 134 mutants run to the end of their grids, so every failure string counts
    rows = []
    for name, chk in sorted(registry().items()):
        out = run_check(chk)
        rows.append((name, out.tested, out.skipped, out.failures))
    assert len(rows) == 63
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "8dd40f8b2a5790d540194a47c59cae477de7f798a5a3addb07d6bef999eaf692")
    rows = []
    for _, chk in sorted(registry().items()):
        for label, mutant in _mutants(chk):
            out = run_check(chk, mutant=mutant)
            rows.append((label, out.tested, out.skipped, out.failures))
    assert len(rows) == 134
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "a127b9e8961cdc4a70c3678ec922813e4fe34ff05caf66990a53bdd45563134f")


def test_certificate_mutants_reuse_the_compiled_code():
    # a mutant differs from its check's T in one constant of g, bumped
    # wherever T holds that constant, and the compiled code takes constants
    # as parameters, so every mutant runs the code of its check's T and
    # shares the other kernels
    seen = 0
    for name, chk in sorted(registry().items()):
        kernels = _kernels(chk) if chk.axes else None
        shared = set()
        for label, mutant in _mutants(chk):
            axis = next(axis for axis in chk.axes if label.startswith(f"{name}:{axis[3]}["))
            # with a pole-free form, T telescopes g*F instead, as a mutant drops that form
            telescoped = kernels.telescoped if axis[5] is None \
                else compile_term(_telescoped(chk, plain=axis[3]))
            assert mutant.telescoped.__code__ is telescoped.__code__, label
            assert mutant.recurrence.__code__ is kernels.recurrence.__code__, label
            shared.add((id(mutant.bounds), id(mutant.recurrence), id(mutant.summed)))
            seen += 1
        assert len(shared) <= 1, name
    assert seen == 134

    chk = registry()["q3/second-term-recurrence"]
    points = [{**env, "jp": v} for env in chk.grid() for v in range(0, env["i"])]

    def values(term):
        out = []
        for env in points:
            try:
                out.append(term(env))
            except PoleError:
                out.append(None)
        return out

    original = values(_kernels(chk).telescoped)
    bumped = [mutant.telescoped for _, mutant in _mutants(chk)]
    assert len(bumped) == 5
    for mutant in bumped:
        assert values(mutant) != original


def test_a_mutant_bumps_one_constant_in_every_copy_of_its_tree():
    # mutants(tree, g) bumps a constant of g wherever the tree holds it: in g
    # and in its step, which keeps g's constants; the step's inserted 1 and
    # the tree's own 7 are left alone
    g = (3 * t + 2) / (t + 5)
    g_up = substitute(g, "t", t + 1)
    tree = g_up * k - g + Const(Fraction(7))
    env = {"t": 2, "k": 3}
    got = [mutant(env) for mutant in mutants(tree, g)]
    want = [compile_term(substitute(h, "t", t + 1) * k - h + 7)(env)
            for h in ((4 * t + 2) / (t + 5), (3 * t + 3) / (t + 5), (3 * t + 2) / (t + 6))]
    assert got == want
    assert [mutant(env) for mutant in mutants(g, g)] == [
        compile_term(h)({"t": 2}) for h in ((4 * t + 2) / (t + 5), (3 * t + 3) / (t + 5),
                                            (3 * t + 2) / (t + 6))]


def test_a_full_mutation_report_builds_each_checks_kernels_once(monkeypatch):
    # the mutants of a check share its kernels, and every factory they call
    # ships in polycount.evaluators, so the report compiles nothing
    from polycount import identities, symbolic

    built, compiled = {}, []
    real_kernels, real_build = identities._kernels, symbolic._build

    def spy_kernels(chk):
        built[chk.name] = built.get(chk.name, 0) + 1
        return real_kernels(chk)

    def spy_build(*args):
        compiled.append(args)
        return real_build(*args)

    monkeypatch.setattr(symbolic, "_FACTORIES", {})
    monkeypatch.setattr(symbolic, "_build", spy_build)
    monkeypatch.setattr(identities, "_kernels", spy_kernels)
    assert identities.certificate_mutation_report("*").ok
    assert compiled == []
    assert built == {name: 1 for name, chk in registry().items() if chk.axes}
    assert len(built) == 18


def _outcome(term, env):
    """The value of term at env, or PoleError where it has none."""
    try:
        return term(env)
    except PoleError:
        return PoleError


def test_each_kernel_matches_the_route_it_replaces():
    # R, T, the pole-free comparisons and S against the summand, coefficients,
    # g and pole-free forms compiled apart, at every summation point: equal
    # values, and a pole exactly where the separate route has one
    telescoping = [chk for chk in registry().values() if chk.axes]
    assert len(telescoping) == 18
    # no registry check with two axes has a summed side, and neither axis of
    # q4/beta3v-recurrence has a g without poles, so this one has both
    two_axes = IdentityCheck(
        name="two-axes", kind="double-sum-recurrence", description="not an identity",
        summand=C(s + i, j) * (j + 1), param="s", coeffs=(s, Const(Fraction(-1))),
        axes=(("i", Const(Fraction(0)), s, "certificate", i - j, None),
              ("j", Const(Fraction(0)), i, "certificate2", j * s, None)),
        inhom=s, grid=lambda: [{"s": v} for v in range(5)])
    points_seen = 0
    for chk in telescoping + [two_axes]:
        kernels = _kernels(chk)
        summand = compile_term(chk.summand)
        coeffs = [compile_term(bd) for bd in chk.coeffs or (Const(Fraction(1)),)]
        reads = [(index, compile_term(g), label != "antidifference",
                  None if pole_free is None else compile_term(pole_free))
                 for index, _, _, label, g, pole_free in chk.axes]

        def f(p, d=0):
            return summand({**p, chk.param: p[chk.param] + d} if d else p)

        def own_g(at, p):
            _, g, times_f, _ = reads[at]
            return g(p) * f(p) if times_f else g(p)

        def recurrence(p):
            return sum(bd(p) * f(p, d) for d, bd in enumerate(coeffs))

        def telescoped(p):
            total = 0
            for at, (index, _, _, pole_free) in enumerate(reads):
                read = pole_free or (lambda q, at=at: own_g(at, q))
                total += read({**p, index: p[index] + 1}) - read(p)
            return total

        for env in chk.grid():
            try:
                points = [env]
                for index, lower, upper, *_ in chk.axes:
                    points = [{**e, index: v} for e in points
                              for v in range(int(compile_term(lower)(e)),
                                             int(compile_term(upper)(e)) + 1)]
            except (PoleError, ValueError):
                continue
            for e in points:
                assert _outcome(kernels.recurrence, e) == _outcome(recurrence, e), (chk.name, e)
                assert _outcome(kernels.telescoped, e) == _outcome(telescoped, e), (chk.name, e)
                for label, index, here, up, _ in kernels.compare:
                    at = [axis[3] for axis in chk.axes].index(label)
                    for differs, p in ((here, e), (up, {**e, index: e[index] + 1})):
                        want = _outcome(lambda q: own_g(at, q) - reads[at][3](q), p)
                        assert _outcome(differs, e) == want, (chk.name, e)
                points_seen += 1
            if kernels.summed is not None:
                def summed(env):
                    return sum(bd(env) * sum(f(e, d) for e in points)
                               for d, bd in enumerate(coeffs))
                assert _outcome(kernels.summed, env) == _outcome(summed, env), (chk.name, env)
    assert points_seen == 5682 + 35


#: kernel calls of one registry run of each telescoping check: T, R, the
#: pole-free comparisons and S.  No summand is evaluated on its own any more:
#: T, R and S read it inside their compiled code.  T runs once per summation
#: point, R once per point where T is defined, each comparison at the point
#: and one step up, and S once per grid point with integral bounds, where the
#: check has a summed side.  Before the kernels, one run made 11,887 summand
#: calls besides its g, coefficient and pole-free calls.
KERNEL_CALLS = {
    "appendix-d/alternating-binomial-antidifference": (216, 216, 0, 52),
    "appendix-d/rising-binomial-antidifference": (770, 770, 0, 210),
    "double-gf/inner-coefficient-recurrence": (348, 348, 0, 48),
    "double-gf/outer-sum-recurrence": (180, 144, 0, 0),
    "gf/product-rule-antidifference": (105, 105, 0, 45),
    "q3/breakpoint-recurrence": (65, 65, 0, 0),
    "q3/correction-recurrence": (265, 175, 0, 0),
    "q3/double-sum-recurrence": (740, 252, 0, 0),
    "q3/inhom-antidifference": (322, 322, 0, 56),
    "q3/inner-sum-recurrence": (105, 105, 0, 40),
    "q3/second-term-recurrence": (365, 310, 0, 0),
    "q3/top-row-antidifference": (322, 210, 0, 0),
    "q3/top-row-second-piece-antidifference": (168, 168, 0, 28),
    "q4/beta2h-recurrence": (278, 170, 0, 0),
    "q4/beta3v-recurrence": (601, 601, 1202, 0),
    "q4/step-inner-antidifference": (440, 440, 0, 90),
    "rhs/h3-first-sum-recurrence": (196, 140, 0, 28),
    "rhs/h3-second-sum-recurrence": (196, 140, 0, 28),
}


def _count_kernel_calls(monkeypatch):
    """Per check name, the calls of its [T, R, comparisons, S] kernels."""
    from polycount import identities

    calls = {}
    real = identities._kernels

    def counting(chk):
        kernels = real(chk)
        tally = calls.setdefault(chk.name, [0, 0, 0, 0])

        def count(at, term):
            def counted(env):
                tally[at] += 1
                return term(env)
            return counted

        return Kernels(
            kernels.bounds, count(0, kernels.telescoped), count(1, kernels.recurrence),
            tuple((label, index, count(2, here), count(2, up), sides)
                  for label, index, here, up, sides in kernels.compare),
            None if kernels.summed is None else count(3, kernels.summed), kernels.declared,
            kernels.tree)

    monkeypatch.setattr(identities, "_kernels", counting)
    return calls


def test_summand_call_budget(monkeypatch):
    # the summand is read only through the kernels, so their calls pin it
    calls = _count_kernel_calls(monkeypatch)
    for c in run_registry("*").checks:
        row = calls.get(c.name)
        if row is not None:  # T once per point, tested or skipped there
            assert row[0] + row[3] == c.params["tested"] + c.params["skipped"], c.name
    assert {name: tuple(row) for name, row in calls.items()} == KERNEL_CALLS
    assert sum(map(sum, KERNEL_CALLS.values())) == 12190


def test_the_pole_free_g_is_read_once_per_point_and_step(monkeypatch):
    # the comparison of the pole-free G with g*F runs once at each summation
    # point and once a step up, and T, R and S run where the pins above say
    calls = _count_kernel_calls(monkeypatch)
    out = run_check(registry()["q4/beta3v-recurrence"])
    assert out.passed and (out.tested, out.skipped) == (601, 0)
    assert calls == {"q4/beta3v-recurrence": [601, 601, 2 * 601, 0]}
