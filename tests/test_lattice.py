from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import comb, isqrt

import pytest

from polycount.errors import ParameterError, ResourceLimitError
import polycount.lattice as lattice
from polycount.lattice import (
    LatticeSpec,
    _frontier_sizes,
    _overhangs,
    _sweep,
    brute_force_count,
    count_configurations,
    count_polynomial,
    count_tables,
)


def a(n, m, k, s):
    return count_configurations(LatticeSpec(n=n, m=m, k=k), s)


def test_single_counts():
    assert a(2, 2, 2, 0) == 1
    assert a(2, 2, 2, 1) == 4
    assert a(2, 3, 2, 1) == 7
    assert a(2, 2, 2, 2) == 2


def test_count_polynomial_examples():
    assert count_polynomial(LatticeSpec(2, 2, 2)).counts == (1, 4, 2)
    assert count_polynomial(LatticeSpec(1, 3, 3)).counts == (1, 1)
    assert count_polynomial(LatticeSpec(3, 3, 3)).counts[1] == 6


def test_brute_force_examples():
    assert brute_force_count(LatticeSpec(2, 2, 2), 2) == 2
    assert brute_force_count(LatticeSpec(3, 3, 4), 1) == 0
    assert brute_force_count(LatticeSpec(4, 4, 2), 8) == a(4, 4, 2, 8)


def test_one_rod_closed_form():
    for n in range(1, 7):
        for m in range(1, 7):
            for k in (2, 3, 4):
                expected = n * max(0, m - k + 1) + m * max(0, n - k + 1)
                assert a(n, m, k, 1) == expected == lattice.rod_positions(n, m, k)
                assert len(lattice._rod_masks(LatticeSpec(n, m, k))) == expected


def test_transpose_symmetry():
    # two sweeps of different widths: n wide to length m, and m wide to length n, odd
    # and even; at full capacity, where the even join halves its products, and k = 4,
    # whose all-2 profiles are their own mirrors
    for n in range(1, 7):
        for m in range(n, 7):
            for k in (2, 3, 4):
                cap = LatticeSpec(n, m, k).capacity
                assert _sweep(n, {m}, k, cap)[m] == _sweep(m, {n}, k, cap)[n]


def test_transpose_symmetry_on_long_strips():
    # the n-wide sweep to L runs dense where its frontier is full and otherwise replays
    # one recorded cell over most of its columns; the L-wide one runs at most two
    # columns, each of which changes its digits
    for n in range(1, 5):
        for length in range(n, 31):
            for k in (2, 3, 4):
                for s_cap in range(4):
                    assert _sweep(n, {length}, k, s_cap)[length] == _sweep(length, {n}, k, s_cap)[n]


def test_capacity_bounds():
    for n in range(1, 5):
        for m in range(1, 5):
            for k in (2, 3):
                table = count_polynomial(LatticeSpec(n, m, k))
                assert table.counts[0] == 1
                assert table.count(table.spec.capacity + 1) == 0
                assert table.count(table.spec.capacity + 7) == 0


def test_monotone_in_length():
    for n in range(1, 6):
        for m in range(2, 7):
            for k in (2, 3):
                spec = LatticeSpec(n, m, k)
                for s in range(spec.capacity + 1):
                    assert a(n, m, k, s) <= a(n, m + 1, k, s)


def test_oracle_equivalence_small():
    for n in range(1, 5):
        for m in range(n, 9):
            if n * m > 16:
                continue
            for k in (2, 3, 4):
                spec = LatticeSpec(n, m, k)
                for s in range(spec.capacity + 2):
                    assert brute_force_count(spec, s) == count_configurations(spec, s)


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        LatticeSpec(0, 3, 2)
    with pytest.raises(ParameterError):
        LatticeSpec(3, 0, 2)
    with pytest.raises(ParameterError):
        LatticeSpec(3, 3, 1)
    with pytest.raises(ParameterError):
        count_configurations(LatticeSpec(2, 2, 2), -1)
    with pytest.raises(ParameterError):
        count_polynomial(LatticeSpec(2, 2, 2)).count(-1)
    with pytest.raises(ParameterError):
        count_tables(2, [(2, 2)], s_max=-1)
    with pytest.raises(ParameterError):
        brute_force_count(LatticeSpec(2, 2, 2), -1)


def test_state_cap():
    # the cap bounds the live frontier: one rod keeps it at 1 + 60 profiles
    assert count_configurations(LatticeSpec(60, 60, 2), 1, state_cap=2**20) == 2 * 60 * 59
    # a genuinely large frontier still raises: every s on a 9-wide strip
    with pytest.raises(ResourceLimitError, match="exceeds cap 16"):
        count_polynomial(LatticeSpec(9, 9, 2), state_cap=16)
    # wide lattices at large s are refused before any sweep starts
    with pytest.raises(ResourceLimitError, match="exceeds cap 65536"):
        count_polynomial(LatticeSpec(30, 30, 2), state_cap=2**16)
    for spec, s in ((LatticeSpec(30, 30, 2), None), (LatticeSpec(40, 40, 2), 12),
                    (LatticeSpec(16, 16, 3), None), (LatticeSpec(13, 13, 4), None)):
        with pytest.raises(ResourceLimitError, match="live frontier"):
            count_polynomial(spec, s_max=s)
    # the cap applies to the shorter side
    assert count_configurations(LatticeSpec(3, 50, 2), 1, state_cap=2**10) == 3 * 49 + 50 * 2


def test_nonpositive_state_cap_is_a_parameter_error():
    for cap in (0, -5):
        with pytest.raises(ParameterError, match="state cap"):
            count_configurations(LatticeSpec(2, 2, 2), 1, state_cap=cap)
        with pytest.raises(ParameterError, match="state cap"):
            count_configurations(LatticeSpec(2, 2, 2), 9, state_cap=cap)  # beyond capacity
        with pytest.raises(ParameterError, match="state cap"):
            count_tables(2, [(2, 2), (3, 4)], state_cap=cap)


def test_row_sweep_matches_brute_force():
    # every entry of every row, including s one past the longest row's capacity
    for n in range(1, 5):
        for length in range(n, 17 // n + 1):
            for k in (2, 3, 4):
                s_cap = LatticeSpec(n, length, k).capacity + 1
                rows = _sweep(n, range(1, length + 1), k, s_cap)
                assert list(rows) == list(range(1, length + 1))
                for m, row in rows.items():
                    spec = LatticeSpec(n, m, k)
                    assert row == tuple(brute_force_count(spec, s) for s in range(s_cap + 1))


def cut_profiles(n, length, k, s_cap):
    """Sizes of the sets of overhang profiles after columns 1..ceil(length/2), by search.

    The half sweep's frontier after column c holds the configurations of at
    most s_cap rods on the n x c lattice whose horizontal rods may run past
    column c but start by column length - k.  Each gives one digit per row:
    how many columns past c its horizontal rod runs, else 0.
    """
    sizes = []
    for c in range(1, (length + 1) // 2 + 1):
        rods = [(r, c0, 1, 0) for r in range(n) for c0 in range(min(c, length - k + 1))]
        rods += [(r, c0, 0, 1) for r in range(n - k + 1) for c0 in range(c)]
        profiles = set()

        def rec(start, chosen, occupied):
            digits = [0] * n
            for r0, c0, dc, _ in chosen:
                if dc:
                    digits[r0] = max(0, c0 + k - c)
            profiles.add(tuple(digits))
            if len(chosen) == s_cap:
                return
            for q in range(start, len(rods)):
                r0, c0, dc, dr = rods[q]
                cells = {(r0 + t * dr, c0 + t * dc) for t in range(k)}
                if not cells & occupied:
                    rec(q + 1, chosen + [rods[q]], occupied | cells)

        rec(0, [], frozenset())
        sizes.append(len(profiles))
    return sizes


def test_frontier_sizes_match_enumerated_profiles():
    # the cap is checked on closed-form sizes; they must be the half sweep's live frontier
    for n in range(1, 6):
        for length in range(n, 26 // n + 1):
            for k in (2, 3, 4):
                for s_cap in range(4):
                    assert _frontier_sizes(n, length, k, s_cap) == cut_profiles(n, length, k, s_cap)


def one_rod(n, m, k):
    return n * max(0, m - k + 1) + m * max(0, n - k + 1)


def test_row_sweep_matches_one_rod_closed_form():
    for k in (2, 3, 4):
        for n in range(1, 9):
            rows = _sweep(n, range(1, 13), k, 1)
            assert [row[1] for row in rows.values()] == [one_rod(n, m, k) for m in range(1, 13)]
        points = [(n, m) for n in range(1, 9) for m in range(1, 13)]
        points += [(m, n) for n, m in points]
        tables = count_tables(k, points, s_max=1)
        assert all(tables[n, m].counts[1] == one_rod(n, m, k) for n, m in points)


def two_rods(n, m, k):
    """Pairs of rod positions minus the overlapping pairs: a(n, m, k, 2)."""
    h, v = max(0, m - k + 1), max(0, n - k + 1)  # starts per row, per column
    positions = n * h + m * v
    same_row = n * sum(max(0, h - t) for t in range(1, k))
    same_column = m * sum(max(0, v - t) for t in range(1, k))
    crossing = (k * h) * (k * v)  # a horizontal and a vertical rod share one cell
    return positions * (positions - 1) // 2 - same_row - same_column - crossing


def test_two_rod_closed_form_past_brute_force():
    # odd and even lengths, with rods across the cut of the half sweep
    points = [(n, m) for n in range(1, 11) for m in range(1, 41)]
    for k in (2, 3, 4):
        tables = count_tables(k, points, s_max=2)
        for n, m in points:
            assert tables[n, m].counts == (1, one_rod(n, m, k), two_rods(n, m, k))
            assert lattice.rod_pairs(n, m, k) == two_rods(n, m, k)


def test_pinned_exact_counts():
    # every count a(n, m, k, s) for n <= 7, m <= 8, k in {2, 3, 4}, all s
    points = [(n, m) for n in range(1, 8) for m in range(1, 9)]
    lines = []
    for k in (2, 3, 4):
        tables = count_tables(k, points)
        lines += [f"{k} {n} {m} " + ",".join(map(str, tables[n, m].counts)) for n, m in points]
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    assert digest == "bfd5369b489e48197ae77479e3020e845acc8cf556e83f5130253f24e700dc62"


#: sha256 of count_tables(k, 1..8 x 1..10, s_max), one "n,m:c0,c1,..." line per
#: lattice in row order, as the sweep gave before the even join was halved
GRID_DIGESTS = {
    (2, None): "25de5cb95d750ba5627195246ab18e76f9703689946e811448170337a6b37aef",
    (2, 1): "f79c89207fee354c9b114f8f4d37293d52b3c7503d25b650f48b34609ebda35c",
    (2, 2): "f0e385a3450184ac07043a0d57cf3a97580ffc600fb70b83846e2140c9092e31",
    (2, 3): "19391c52366d77ea9a7fa5d8def76b8d2307770f9450c2162b8375be3f189fe8",
    (2, 5): "d82a9bdbcb5192bbfdba2867c6c2cfa81a0384355a46ec09f2783c1dbe3236c2",
    (3, None): "0ae136aeccefc1be3dbf1def6bd21b0f00433d434116b1fd3fc9d755fe461ddb",
    (3, 1): "05a9c12ee31d1ef255013c7c36dffaf9661028b4144ff76af6851a118d8befd0",
    (3, 2): "4f9927b930bf2ed0297f50c9c374e1d9310c3e83d3f855fd430517adacadc81c",
    (3, 3): "7f735a33624fdbc0f096090e34bec377bef857585b7f9660f3d85535dc0ffd30",
    (3, 5): "32d5a8e3571ca43f24953e565e57591f7883b3c915a121d5f4be59c38a67f148",
    (4, None): "6a63a4549605aedfecfb95935c84bc38fa4c8a466c1d6e1b6d584ba374a30be8",
    (4, 1): "e8cb1ed4b2d5e586206ef9be10c4f101610f60797a755876669c780b4a4a3968",
    (4, 2): "32ea99b20b79f1255ef60fbca7f8f970c1146ddfd51b1a76a62df9ea371b5d87",
    (4, 3): "974bf0e4a5891436073b6c798d5c596fa2c8fc5c431979e13ace58648f5dde54",
    (4, 5): "baabad807adbcea62169a319276fd03d1cce541bd76e047f1c98ab30dd80f784",
}


@pytest.mark.parametrize("k", (2, 3, 4))
def test_pinned_grid_at_every_s_max(k):
    points = [(n, m) for n in range(1, 9) for m in range(1, 11)]
    for s_max in (None, 1, 2, 3, 5):
        tables = count_tables(k, points, s_max)
        text = "\n".join(f"{n},{m}:" + ",".join(map(str, tables[n, m].counts))
                         for n, m in points)
        assert hashlib.sha256(text.encode()).hexdigest() == GRID_DIGESTS[k, s_max], s_max


def test_slot_bits_bound_every_count():
    # every a(n, m, k, j) must fit a slot with its spare bit, including the widest
    # counts at full capacity, where the cell-word bound is far below C(P, j)
    for k, top in ((2, 9), (3, 8), (4, 7)):
        points = [(n, m) for n in range(1, top + 1) for m in range(n, top + 1)]
        tables = count_tables(k, points)
        for n, m in points:
            counts = tables[n, m].counts
            bits = lattice._slot_bits(n, m, k, len(counts) - 1)
            assert max(counts).bit_length() < bits, (k, n, m)
    for n, m, k in ((2, 5, 2), (3, 4, 2), (3, 3, 3), (2, 6, 3)):
        spec = LatticeSpec(n, m, k)
        bits = lattice._slot_bits(n, m, k, spec.capacity)
        assert all(brute_force_count(spec, j).bit_length() < bits for j in range(spec.capacity + 1))


def test_pinned_full_capacity_strip_rows():
    # every row of n <= 6 to length 24, k in {2, 3, 4}, at full capacity, as the sweep
    # gave when it replayed their columns; they now run dense (about 0.5 s, 2 cores)
    lines = []
    for k in (2, 3, 4):
        for n in range(1, 7):
            rows = _sweep(n, range(1, 25), k, n * 24 // k)
            lines += [f"{k} {n} {m} " + ",".join(map(str, row)) for m, row in rows.items()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b06504d947465121a3722f1e3e8909796fa7cc8ab64723ba1056836d1c06e1df"


def _three_term(n: int, sign: int) -> list[int]:
    """Q_n for Q_{j+1} = x Q_j + sign Q_{j-1}, Q_0 = 1, Q_1 = x; coefficients, lowest first."""
    prev, cur = [1], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for d, c in enumerate(prev):
            nxt[d] += sign * c
        prev, cur = cur, nxt
    return cur if n else prev


def _resultant(a: list[int], b: list[int]) -> Fraction:
    """Res(a, b) of two nonzero polynomials (coefficients lowest first), by Euclid over Fraction.

    With r = a mod b, Res(a, b) = (-1)**(deg a deg b) lc(b)**(deg a - deg r) Res(b, r),
    and Res(a, c) = c**deg a for a constant c.
    """
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    res = Fraction(1)
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            q, shift = r[-1] / b[-1], len(r) - len(b)
            for d, c in enumerate(b):
                r[shift + d] -= q * c
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return Fraction(0)
        res *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(r))
        a, b = b, r
    return res * b[0] ** (len(a) - 1)


def test_full_coverings_match_the_resultant_route():
    # the number of domino tilings of n x m is isqrt(|Res(P_n, S_m)|), with P_n and
    # S_m the three-term polynomials above (P_n(2 cos t) = sin((n+1)t)/sin t): a route
    # that shares nothing with the transfer DP; every even-area n <= 8, n <= m <= 12
    points = [(n, m) for n in range(1, 9) for m in range(n, 13) if n * m % 2 == 0]
    assert len(points) == 50
    tables = count_tables(2, points)
    for n, m in points:
        res = _resultant(_three_term(n, -1), _three_term(m, 1))
        assert res.denominator == 1, (n, m)
        root = isqrt(abs(res.numerator))
        assert root * root == abs(res), (n, m)
        assert tables[n, m].counts[n * m // 2] == root, (n, m)
    assert tables[8, 8].counts[32] == 12_988_816


def test_pinned_long_strip_rows():
    # every row of n <= 5 to length 32, k in {2, 3, 4}, s_cap <= 3, as the sweep gave
    # before it replayed columns
    lines = []
    for k in (2, 3, 4):
        for n in range(1, 6):
            for s_cap in range(4):
                rows = _sweep(n, range(1, 33), k, s_cap)
                lines += [f"{k} {n} {m} {s_cap} " + ",".join(map(str, row)) for m, row in rows.items()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e8a755838febc3ab4a54797a35ad57e1302263adbbe09e5846ccfb1650b28769"


def spy(monkeypatch, owner, name, calls):
    """Wrap owner.<name>, appending (args, result) of every call to calls."""
    original = getattr(owner, name)

    def wrapped(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, wrapped)


def test_a_repeating_column_is_recorded_once_and_replayed(monkeypatch):
    # 93 live profiles of 2**8, so the sweep keeps its dicts; its first column takes on
    # digits it did not find, and the 19 after it keep theirs
    n, length, k, s_cap = 8, 40, 2, 3
    assert 2 * max(_frontier_sizes(n, length, k, s_cap)) < k**n
    shapes = [(_overhangs(c - 1, length, k), _overhangs(c, length, k)) for c in range(20)]
    assert shapes[0][0] != shapes[0][1] and all(a == b for a, b in shapes[1:])
    builds, cells, columns = [], [], []
    spy(monkeypatch, lattice._Template, "__init__", builds)
    spy(monkeypatch, lattice, "_plain_cell", cells)
    spy(monkeypatch, lattice._Template, "column", columns)
    rows = _sweep(n, {length}, k, s_cap)
    assert len(builds) == 1 and len(cells) == n  # column 1 goes cell by cell
    assert len(columns) == 19  # columns 2..20, each n replays of the one recorded cell
    assert all(args[0] is builds[0][0][0] for args, _ in columns)
    assert rows[length][:3] == (1, one_rod(n, length, k), two_rods(n, length, k))
    assert rows[length] == lattice._dense_sweep(n, {length}, k, s_cap)[length]


def test_short_runs_of_a_shape_replay_the_template(monkeypatch):
    # a column that keeps its digits replays the template however few follow it: at
    # k = 3 the first two columns change their digits, and the half sweep of 8 x 5 makes
    # one more
    builds, columns = [], []
    spy(monkeypatch, lattice._Template, "__init__", builds)
    spy(monkeypatch, lattice._Template, "column", columns)
    for length, kept in ((5, 1), (6, 1), (7, 2), (8, 2), (10, 3)):
        assert 2 * max(_frontier_sizes(8, length, 3, 4)) < 3**8  # a dict sweep
        builds.clear()
        columns.clear()
        _sweep(8, {length}, 3, 4)
        assert len(builds) == 1 and len(columns) == kept, length
    builds.clear()
    _sweep(8, {4}, 3, 4)  # every column changes its digits
    assert builds == []


def test_a_column_that_changes_its_profiles_is_not_recorded(monkeypatch):
    # the template maps one list of profiles onto itself, so it serves only columns
    # with the same overhang digits on both sides: all of them after the first k - 1
    # (none on a strip shorter than 2k - 1, every one on a strip shorter than k)
    for k in range(2, 8):
        for length in range(1, 60):
            half = (length + 1) // 2
            kept = [_overhangs(c - 1, length, k) == _overhangs(c, length, k) for c in range(half)]
            plain = lattice._changing_columns(length, k)
            assert kept == [False] * plain + [True] * (half - plain), (k, length)
            digits = {_overhangs(c, length, k) for c in range(plain, half)}
            assert digits <= {(), tuple(range(1, k))}, (k, length)
    calls = []
    spy(monkeypatch, lattice, "_plain_cell", calls)
    spy(monkeypatch, lattice._Template, "column", calls)
    for k, widths in ((2, (8, 9)), (3, (6, 7)), (4, (5, 6))):
        digit = (1 << k.bit_length()) - 1
        for n in widths:
            assert 2 * max(_frontier_sizes(n, 30, k, 3)) < k**n  # a dict sweep
            calls.clear()
            _sweep(n, range(1, 31), k, 3)
            # k - 1 plain columns, cell by cell, then one template for the other 16 - k
            assert [args[1] for args, _ in calls[: n * (k - 1)]] == list(range(n)) * (k - 1)
            replays = calls[n * (k - 1):]
            assert len(replays) == 16 - k
            assert all(args[0] is replays[0][0][0] for args, _ in replays)
            # onto themselves exactly: at a column's edge the list holds the live
            # frontier, and profiles with a vertical rod under way, which hold 0 there
            template, before = replays[0][0]
            edge = [p for p in template.profiles if p & digit != k]
            assert len(edge) == _frontier_sizes(n, 30, k, 3)[-1]
            assert all(count == 0 for p, count in zip(template.profiles, before) if p & digit == k)


def test_plain_columns_match_the_replaying_sweep(monkeypatch):
    # with every column plain, each cell reads the counts themselves through dicts; no
    # frontier counts as full, so both sides sweep dicts
    lengths = range(1, 41)
    monkeypatch.setattr(lattice, "_frontier_sizes", lambda *args: [0])
    columns = []
    spy(monkeypatch, lattice._Template, "column", columns)
    expected = {(n, k, s_cap): _sweep(n, lengths, k, s_cap)
                for n in range(1, 7) for k in (2, 3, 4) for s_cap in range(6)}
    assert len(columns) == sum(21 - k for n in range(1, 7) for k in (2, 3, 4) for s_cap in range(6))
    monkeypatch.setattr(lattice, "_changing_columns", lambda length, k: (length + 1) // 2)
    columns.clear()
    for (n, k, s_cap), rows in expected.items():
        assert _sweep(n, lengths, k, s_cap) == rows, (n, k, s_cap)
    assert columns == []


def rotated(profile, r, n, w):
    """profile read from row r: rows r..n-1 as its lowest digits, then rows 0..r-1."""
    return profile >> w * r | (profile & (1 << w * r) - 1) << w * (n - r)


def shown(profile, n, k):
    """The rods a rotated profile shows: one per digit 1..k-1, one for a lowest digit k."""
    w = k.bit_length()
    digits = [profile >> w * i & (1 << w) - 1 for i in range(n)]
    return sum(0 < d < k for d in digits) + (digits[0] == k)


def test_the_template_lists_the_profiles_of_every_middle_cell():
    # at row r of a column that keeps its digits, the plain sweep's live profiles,
    # rotated to put row r lowest, are the template's list wherever a rod down from r
    # fits and the k - 1 rows above r are swept; every row holds only listed profiles
    for k in (2, 3, 4):
        w = k.bit_length()
        length = 3 * k  # columns k - 1 .. ceil(length/2) - 1 keep every digit
        for n in range(1, 11):
            for s_cap in range(5):
                bits = lattice._slot_bits(n, length, k, s_cap)
                keep = (1 << bits * (s_cap + 1)) - 1
                template = lattice._Template(n, k, s_cap, tuple(range(1, k)), bits, keep)
                listed = set(template.profiles)
                assert len(listed) == len(template.profiles)

                def choices(rows, rods):
                    return sum(comb(rows, i) * (k - 1) ** i for i in range(min(rows, rods) + 1))

                runs = (k - 1) * choices(n - k, s_cap - 1) if n >= k and s_cap else 0
                frontier = _frontier_sizes(n, length, k, s_cap)[-1]
                assert len(listed) == frontier + runs and frontier == choices(n, s_cap)
                assert 3 * len(listed) <= 4 * frontier  # the in-column bound
                live = {0: 1}
                for c in range(k - 1):
                    for r in range(n):
                        live = lattice._plain_cell(live, r, n, k, True, bits, keep)
                held = set()
                for r in range(n):
                    cell = {rotated(p, r, n, w) for p in live}
                    if k - 1 <= r <= n - k:
                        assert cell == listed, (k, n, s_cap, r)
                    held |= cell
                    live = lattice._plain_cell(live, r, n, k, True, bits, keep)
                assert held == listed, (k, n, s_cap)


def test_a_template_cell_is_a_plain_cell():
    # on random counts, none below the rods its profile shows, at every row: the
    # bottom k - 1 rows start no rod down, and a column that admits no digit none across
    rng = random.Random(32)
    bits = 5
    for k in (2, 3, 4):
        w = k.bit_length()
        for n in range(1, 9):
            for s_cap in range(5):
                keep = (1 << bits * (s_cap + 1)) - 1
                for digits in ((), tuple(range(1, k))):
                    template = lattice._Template(n, k, s_cap, digits, bits, keep)
                    rods = [shown(p, n, k) for p in template.profiles]
                    for r in range(n):
                        counts = [sum(rng.randrange(3) << bits * j for j in range(low, s_cap + 1))
                                  for low in rods]
                        after = template.cell(counts, r)
                        before = {rotated(p, n - r, n, w): v
                                  for p, v in zip(template.profiles, counts) if v}
                        plain = lattice._plain_cell(before, r, n, k, bool(digits), bits, keep)
                        assert len(after) == len(counts)
                        expected = {rotated(p, r + 1, n, w): v for p, v in plain.items()}
                        assert {p: v & keep for p, v in zip(template.profiles, after) if v & keep} \
                            == expected, (k, n, s_cap, digits, r)


def test_dense_sweep_matches_the_dict_sweep(monkeypatch):
    # every profile in one list against the live-profile dicts (plain columns and the
    # replayed template), at full capacity and far below it, on odd and even lengths
    lengths = range(1, 15)
    cases = [(n, k, s_cap) for n in range(1, 6) for k in (2, 3, 4)
             for s_cap in (0, 1, 2, 3, 6, LatticeSpec(n, 14, k).capacity)]
    dense = {case: lattice._dense_sweep(case[0], lengths, case[1], case[2]) for case in cases}
    monkeypatch.setattr(lattice, "_frontier_sizes", lambda *args: [0])  # no frontier is full
    for (n, k, s_cap), rows in dense.items():
        assert _sweep(n, lengths, k, s_cap) == rows, (n, k, s_cap)


def test_a_sweep_is_dense_exactly_when_its_frontier_fills_half_the_profiles(monkeypatch):
    # whether its columns keep their digits or not: that only decides whether a dict
    # sweep records a template
    calls, builds = [], []
    spy(monkeypatch, lattice, "_dense_sweep", calls)
    spy(monkeypatch, lattice._Template, "__init__", builds)
    _sweep(3, {40}, 2, 3)  # every profile live, and its columns keep their digits
    assert [args for args, _ in calls] == [(3, {40}, 2, 3)] and builds == []
    calls.clear()
    count_tables(2, [(16, 16)], s_max=2)  # 137 live profiles of 2**16
    assert calls == [] and len(builds) == 1
    template = builds[0][0][0]
    assert 137 < len(template.profiles) <= 4 * 137 // 3  # the live frontier and its rods down
    calls.clear()
    for k, top in ((2, 9), (3, 8)):  # the two full tables of the dense-table benchmark
        count_tables(k, [(n, m) for n in range(1, top + 1) for m in range(1, top + 1)])
        assert sorted(args[0] for args, _ in calls) == list(range(1, top + 1)), k
        calls.clear()
    monkeypatch.setattr(lattice, "_dense_sweep", lambda *args: calls.append(args) or {})
    seen = set()
    for k in (2, 3, 4):
        for length in (6, 16):  # at k = 4 every column of 6 changes its digits
            builds.clear()
            _sweep(2, {length}, k, 0)  # one live profile of k**2: a dict sweep
            repeats = bool(builds)
            for n in range(1, 9):
                for s_cap in (*range(5), LatticeSpec(n, length, k).capacity):
                    full = k**n <= 2 * max(_frontier_sizes(n, length, k, s_cap))
                    calls.clear()
                    builds.clear()
                    _sweep(n, {length}, k, s_cap)
                    assert calls == ([(n, {length}, k, s_cap)] if full else []), (n, length, k, s_cap)
                    assert len(builds) == (not full and repeats)
                    seen.add((full, repeats))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_count_tables_matches_per_point_counts():
    # the window points of one strip, one diagonal and one corollary verification
    strip = [(5, m - i) for m in range(4, 11) for i in range(3)]  # k=2, n=5, s=2
    diagonal = [(n - i, m - i) for n in range(6, 10) for m in range(6, 9) for i in range(5)]
    corollary = [(n - i, m - i) for n in range(5, 9) for m in range(5, 8) for i in range(4)]
    for k, s, points in ((2, 2, strip), (2, 2, diagonal), (3, 1, corollary)):
        tables = count_tables(k, points, s_max=s)
        for n, m in points:
            assert tables[n, m].counts[s] == count_configurations(LatticeSpec(n, m, k), s)
            assert tables[n, m].spec == LatticeSpec(n, m, k)


def test_work_cap():
    with pytest.raises(ResourceLimitError):
        brute_force_count(LatticeSpec(6, 6, 2), 10)  # C(60, 10) > DEFAULT_WORK_CAP
