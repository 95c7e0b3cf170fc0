from __future__ import annotations

import pytest

from polycount.errors import ParameterError
from polycount.lattice import LatticeSpec, count_configurations
from polycount.recurrences import (
    DiagonalSeed,
    StripConstant,
    diagonal_rhs,
    extend_diagonal,
    seed_from_enumeration,
    verify_diagonal,
    verify_diagonal_corollary,
    verify_strip,
    window_residuals,
)


def test_strip_constant():
    assert StripConstant(2, 2).value == 3
    assert StripConstant(3, 2).value == 5
    with pytest.raises(ParameterError):
        StripConstant(2, 3)


def test_strip_examples():
    r = verify_strip(2, 2, 1, range(2, 9))
    assert r.ok and all(c.expected == "3" for c in r.checks)
    r = verify_strip(2, 3, 1, range(2, 9))
    assert r.ok and all(c.expected == "5" for c in r.checks)
    r = verify_strip(3, 3, 2, range(6, 11))
    assert r.ok and all(c.expected == "16" for c in r.checks)


def test_strip_preconditions():
    with pytest.raises(ParameterError):
        verify_strip(3, 2, 1, range(3, 5))  # n < k
    with pytest.raises(ParameterError):
        verify_strip(2, 2, 2, range(3, 5))  # m below k*s


def test_diagonal_examples():
    r = verify_diagonal(2, 1, [(n, n) for n in range(3, 9)])
    assert r.ok and all(c.expected == "4" for c in r.checks)
    r = verify_diagonal(2, 2, [(n, n) for n in range(6, 10)])
    assert r.ok and all(c.expected == "48" for c in r.checks)
    r = verify_diagonal(3, 1, [(4, 5)])
    assert r.ok and r.checks[0].expected == "4"


def test_diagonal_rhs_independent_of_k():
    for s in (1, 2):
        values = set()
        for k in (2, 3, 4):
            lo = (k + 1) * s
            r = verify_diagonal(k, s, [(lo + 1, lo + 2)])
            assert r.ok
            values.add(r.checks[0].expected)
        assert values == {str(diagonal_rhs(s))}


def test_diagonal_range_enforcement():
    with pytest.raises(ParameterError):
        verify_diagonal(2, 2, [(5, 6)])
    r = verify_diagonal(2, 2, [(5, 6)], enforce_range=False)
    assert r.ok  # reported, not asserted
    assert r.checks[0].params["in_range"] is False
    with pytest.raises(ParameterError):
        # even report-only mode cannot evaluate a window leaving the lattice
        verify_diagonal(2, 1, [(2, 5)], enforce_range=False)


STRIP_KEYS = ["k", "n", "m", "s"]
DIAG_KEYS = STRIP_KEYS + ["in_range"]


@pytest.mark.parametrize("report, name, keys, rows", [
    (lambda: verify_strip(2, 3, 1, range(2, 5)), "strip", STRIP_KEYS,
     [("5", "5", "pass")] * 3),
    (lambda: verify_strip(3, 3, 2, [6, 7]), "strip", STRIP_KEYS,
     [("16", "16", "pass")] * 2),
    (lambda: verify_diagonal(2, 1, [(3, 3), (3, 5)]), "diagonal", DIAG_KEYS,
     [("4", "4", "pass")] * 2),
    (lambda: verify_diagonal(2, 2, [(5, 6), (6, 6)], enforce_range=False), "diagonal",
     DIAG_KEYS, [("48", "46", "info"), ("48", "48", "pass")]),
    (lambda: verify_diagonal_corollary(3, 1, [(5, 5), (4, 6)], enforce_range=False),
     "corollary", DIAG_KEYS, [("0", "0", "pass"), ("0", "-3", "info")]),
], ids=["strip-k2", "strip-k3", "diagonal", "diagonal-unsafe", "corollary-unsafe"])
def test_window_records(report, name, keys, rows):
    records = [c.to_dict() for c in report().checks]
    assert [(d["expected"], d["actual"], d["status"]) for d in records] == rows
    assert {d["name"] for d in records} == {name}
    assert all(list(d["params"]) == keys for d in records)


def test_out_of_range_window_is_info():
    r = verify_diagonal(2, 2, [(5, 6)], enforce_range=False)
    rec = r.checks[0].to_dict()
    assert rec["status"] == "info"
    assert (rec["expected"], rec["actual"]) == ("48", "46")
    assert r.summary() == {"total": 1, "passed": 0, "failed": 0, "skipped": 0, "info": 1}
    assert r.ok and not r.failures  # reported, never asserted


def test_corollary():
    r = verify_diagonal_corollary(2, 1, [(n, n) for n in range(4, 9)])
    assert r.ok
    r = verify_diagonal_corollary(2, 2, [(n, n) for n in range(7, 10)])
    assert r.ok
    r = verify_diagonal_corollary(4, 1, [(n, n) for n in range(6, 9)])
    assert r.ok
    with pytest.raises(ParameterError):
        verify_diagonal_corollary(2, 1, [(3, 3)])


def test_extension_square():
    seed = seed_from_enumeration(2, 1, 6, 6)
    assert extend_diagonal(seed, 3) == [84, 112, 144]
    assert window_residuals(seed, [84, 112, 144]) == [0, 0, 0]


def test_extension_matches_enumeration():
    seed = seed_from_enumeration(2, 2, 10, 10)
    ext = extend_diagonal(seed, 2)
    direct = [count_configurations(LatticeSpec(n, n, 2), 2) for n in (11, 12)]
    assert ext == direct


def test_extension_nonsquare_seed():
    seed = DiagonalSeed(k=2, s=1, anchor_n=6, anchor_m=7, counts=(49, 71))
    assert extend_diagonal(seed, 1) == [97]


def test_seed_validation():
    with pytest.raises(ParameterError):
        DiagonalSeed(k=2, s=1, anchor_n=3, anchor_m=3, counts=(4, 12))
    with pytest.raises(ParameterError):
        DiagonalSeed(k=2, s=1, anchor_n=6, anchor_m=6, counts=(1, 2, 3))
    with pytest.raises(ParameterError):
        extend_diagonal(seed_from_enumeration(2, 1, 6, 6), 0)


def test_diagonal_rhs_values():
    assert diagonal_rhs(1) == 4
    assert diagonal_rhs(2) == 48
    assert diagonal_rhs(3) == 960
