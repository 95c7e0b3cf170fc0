"""The record classes: plain __slots__ classes with the semantics their dataclasses had."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polycount import (
    CountTable,
    DiagonalSeed,
    IdentityCheck,
    LatticeSpec,
    PlacedIdentity,
    RhsModel,
    StripConstant,
    WeightGrid,
)
from polycount.errors import ParameterError
from polycount.reports import CheckRecord, Report
from polycount.symbolic import Add, Binom, Const, Fact, Sign, Sum, Var, syms

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_the_cli_starts_without_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize; every command pays for an import
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import polycount.cli; "
              "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", script, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == "[]\n"


def test_expression_trees_compare_and_hash_by_structure():
    x, y = syms("x y")
    left = Sum("j", Const(Fraction(0)), x, Binom(x, Var("j")) * y)
    right = Sum("j", Const(Fraction(0)), Var("x"), Binom(Var("x"), Var("j")) * Var("y"))
    assert left is not right and left == right and hash(left) == hash(right)
    assert len({left, right, x + y, Var("x") + Var("y")}) == 2
    assert left != Sum("j", Const(Fraction(1)), x, Binom(x, Var("j")) * y)
    assert x + y != y + x


def test_nodes_of_different_classes_are_never_equal():
    x = Var("x")
    assert Fact(x) != Sign(x)
    assert not Fact(x) == Sign(x)
    assert Add((x,)) != (x,)


def test_nodes_and_frozen_records_refuse_assignment():
    x = Var("x")
    spec = LatticeSpec(2, 3, 2)
    for record, name in ((x, "name"), (Fact(x), "arg"), (spec, "n"),
                         (CountTable(spec, (1, 7)), "counts"), (spec, "other")):
        with pytest.raises(AttributeError):
            setattr(record, name, 5)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert (x.name, spec.n) == ("x", 2)


def test_reprs_read_as_the_dataclass_ones_did():
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(Fact(Var("x"))) == "Fact(arg=Var(name='x'))"
    assert repr(LatticeSpec(2, 3, 2)) == "LatticeSpec(n=2, m=3, k=2)"
    assert repr(PlacedIdentity("vertical", 1, 0, "P1", -2)) == (
        "PlacedIdentity(orientation='vertical', i=1, j=0, set_tag='P1', weight=-2)")
    assert repr(CheckRecord("c", {}, "1", "1", True)) == (
        "CheckRecord(name='c', params={}, expected='1', actual='1', passed=True, "
        "skipped=False, info=False)")


def test_public_records_construct_by_position_and_keyword():
    assert LatticeSpec(2, 3, 2) == LatticeSpec(n=2, m=3, k=2) == LatticeSpec(2, k=2, m=3)
    spec = LatticeSpec(2, 3, 2)
    assert CountTable(spec, (1, 7)) == CountTable(spec=spec, counts=(1, 7))
    assert StripConstant(3, 2) == StripConstant(n=3, k=2) and StripConstant(3, 2).value == 5
    assert RhsModel(Fraction(2), Fraction(-1), 30) == RhsModel(lam=2, eta=-1, n=30)
    placed = PlacedIdentity("vertical", 1, 0, "P1", -2)
    assert WeightGrid(1, (placed,)) == WeightGrid(s=1, placements=(placed,))
    seed = DiagonalSeed(2, 1, 9, 9, (4, 5))
    assert seed == DiagonalSeed(k=2, s=1, anchor_n=9, anchor_m=9, counts=(4, 5))
    assert len({spec, LatticeSpec(2, 3, 2), placed, seed}) == 3


def test_identity_checks_keep_their_defaults_and_stay_mutable():
    grid = lambda: []  # noqa: E731
    chk = IdentityCheck("c", "pointwise", "d", grid, rhs=Const(Fraction(1)))
    assert chk == IdentityCheck(name="c", kind="pointwise", description="d", grid=grid,
                                lhs=None, rhs=Const(Fraction(1)))
    assert chk.summand is None and chk.antidifference is None
    chk.rhs = None
    assert chk.rhs is None
    with pytest.raises(TypeError):
        hash(chk)
    with pytest.raises(TypeError):
        hash(Report("r"))


def test_validation_runs_in_the_constructor():
    with pytest.raises(ParameterError):
        LatticeSpec(0, 1, 2)
    with pytest.raises(ParameterError):
        StripConstant(1, 2)
    with pytest.raises(ParameterError):
        DiagonalSeed(2, 1, 9, 9, (4, 5, 6))
