"""Exact enumeration of k-mer coverings on open rectangular lattices.

A configuration places s rigid rods, each covering k consecutive sites of a
single row or a single column, with no site covered twice.  Counting is done
two independent ways: a column-sweep dynamic program over horizontal-overhang
profiles, and a brute-force subset search used as an oracle on small lattices.

The sweep goes one cell at a time and carries only live profiles (those
with a nonzero count at some s up to the requested cap), so wide lattices
stay cheap at small s.  The number of live profiles after each column is
known in closed form, and the state cap bounds it before any sweep starts.
The strip is symmetric left to right, so a sweep of width n runs only to
column ceil(L/2) and joins the frontiers on either side of each cut; that
one half sweep gives the whole strip row a(n, 1..L).  Every column after
the first k - 1 leaves the overhang digits a profile may hold as it found
them, and every cell of such a column, read with the cell's row turned to
the lowest digit, holds profiles of one fixed list.  So the sweep records
one cell per sweep, as index lists, from the profiles alone, and replays
it n times per column on a list of counts; only the first k - 1 columns go
through dicts.  When at least half of the k**n profiles are live after some
column, as on a strip at full capacity, the sweep holds all of them in one
list instead and moves them with slices and maps.  count_tables groups many
points into one sweep per distinct shorter side.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice, repeat
from operator import add, and_, lshift, mul, ne, not_, or_, rshift, sub
from typing import Collection, Iterable

from .errors import ParameterError, ResourceLimitError
from .records import Frozen, set_field

#: Ceiling on the live profiles the dynamic program carries after any column.
DEFAULT_STATE_CAP = 2**24

#: Ceiling on C(positions, s) for the brute-force oracle.
DEFAULT_WORK_CAP = 2 * 10**6


class LatticeSpec(Frozen):
    """An n-row by m-column lattice holding rods of length k, open boundaries."""

    __slots__ = ("n", "m", "k")

    def __init__(self, n: int, m: int, k: int) -> None:
        if n < 1 or m < 1:
            raise ParameterError(f"lattice dimensions must be >= 1, got {n}x{m}")
        if k < 2:
            raise ParameterError(f"rod length must be >= 2, got k={k}")
        set_field(self, "n", n)
        set_field(self, "m", m)
        set_field(self, "k", k)

    @property
    def capacity(self) -> int:
        """Largest s for which a configuration could exist: floor(n*m/k)."""
        return (self.n * self.m) // self.k


class CountTable(Frozen):
    """counts[s] = number of configurations of exactly s rods on spec."""

    __slots__ = ("spec", "counts")

    def __init__(self, spec: LatticeSpec, counts: tuple[int, ...]) -> None:
        set_field(self, "spec", spec)
        set_field(self, "counts", counts)

    def count(self, s: int) -> int:
        if s < 0:
            raise ParameterError(f"s must be >= 0, got {s}")
        if s >= len(self.counts):
            return 0
        return self.counts[s]


def rod_positions(n: int, m: int, k: int) -> int:
    """Places for one rod on an n x m lattice: the k-runs in its rows and columns."""
    return n * max(0, m - k + 1) + m * max(0, n - k + 1)


def rod_pairs(n: int, m: int, k: int) -> int:
    """Places for two rods on an n x m lattice, a(n, m, k, 2).

    All pairs of positions less the overlapping ones: two rods in one row
    overlap when their starts differ by less than k, and so in one column; a
    horizontal and a vertical rod share at most one cell, so the crossing
    pairs number (cells under horizontals) x (cells under verticals).
    """
    h, v = max(0, m - k + 1), max(0, n - k + 1)  # starts per row, per column
    same_row = n * sum(max(0, h - d) for d in range(1, k))
    same_column = m * sum(max(0, v - d) for d in range(1, k))
    return math.comb(rod_positions(n, m, k), 2) - same_row - same_column - (k * h) * (k * v)


def _overhangs(c: int, length: int, k: int) -> tuple[int, ...]:
    """Digits d a live profile may hold after column c (0-based) of a sweep to length.

    A digit d is a horizontal rod that runs d more columns, so it started at
    column c + 1 - k + d, which must lie inside the strip with room for all
    k cells.  Column -1 (before the sweep) admits none.
    """
    return tuple(d for d in range(1, k) if 0 <= c + 1 - k + d <= length - k)


def _frontier_sizes(n: int, length: int, k: int, s_cap: int) -> list[int]:
    """Live profiles after each column of the width-n half sweep to length, unswept.

    The half sweep runs columns 1..ceil(length/2).  A profile is live when
    some partial configuration of at most s_cap rods leaves it, and the
    fewest rods that leave it are its horizontal rods that overhang the
    column.  So the live profiles after column c are the choices of at most
    s_cap rows, each holding a digit d whose rod starts at column
    c + 1 - k + d, inside the strip with room for all k cells.
    """
    sizes = []
    for c in range((length + 1) // 2):
        digits = len(_overhangs(c, length, k))
        sizes.append(sum(math.comb(n, j) * digits**j for j in range(min(s_cap, n) + 1)))
    return sizes


def _check_frontier(n: int, length: int, k: int, s_cap: int, state_cap: int) -> None:
    for c, size in enumerate(_frontier_sizes(n, length, k, s_cap), start=1):
        if size > state_cap:
            raise ResourceLimitError(
                f"live frontier of {size} profiles after column {c} of {n}x{length} "
                f"exceeds cap {state_cap}; raise the cap or use the diagonal recurrence"
            )


def _changing_columns(length: int, k: int) -> int:
    """How many columns the half sweep to length makes before the first that keeps its digits.

    Column c (0-based) leaves the overhang digits it found exactly when both
    sides admit every digit 1..k-1, k - 1 <= c <= length - k, or neither
    admits any, length < k.  The half sweep stops before column
    ceil(length/2) <= length - k + 1 whenever the first of those middle
    columns exists, so every column after the first k - 1 keeps its digits.
    """
    return min(k - 1, (length + 1) // 2) if length >= k else 0


def _sweep(n: int, lengths: Collection[int], k: int, s_cap: int) -> dict[int, tuple[int, ...]]:
    """Half sweep of the width-n strip plus a join; rows[L] = (a_0, ..., a_{s_cap}) of n x L.

    A profile packs one digit per row into an integer, `w` bits per row: d in
    1..k-1 for a cell covered by a horizontal rod that runs d more columns,
    k for a cell below a vertical rod started higher up in the column being
    swept.  Cells are swept down each column, so rows above the current cell
    already hold the column's outgoing digits.  After column c the frontier
    F_c counts the configurations of the first c columns whose horizontal
    rods may run on past column c, by their overhang profile.

    The strip reads the same from either end, so F_c also counts the last c
    columns read backwards, and the sweep stops at ceil(L/2) columns for the
    longest L.  Cutting n x L after column c pairs a left profile P with the
    right profile mirror(P), each overhang d becoming k - d, and a rod across
    the cut is counted once on each side.  So after column c the sweep holds
    F_{c-1} and F_c and reads rows[2c-1] = join(F_c, F_{c-1}) and
    rows[2c] = join(F_c, F_c) (Stanley, EC1 section 4.7), where
    join(A, B) sums B[P] * A[mirror(P)] over P, each product shifted down one
    slot per nonzero digit of P.

    A profile's counts by rods placed are packed into one integer, `bits` per
    slot, and slots above s_cap are masked off, so a profile that needs more
    rods than s_cap is never stored.  Every slot, partial or joined, counts
    sets of j disjoint rods on n x max(lengths), so it is at most the bound
    _slot_bits takes, and a join's products carry only into the masked
    slots above s_cap.

    The first columns, whose overhang digits change (_changing_columns), go
    cell by cell through dicts of live profiles (_plain_cell).  Every later
    column keeps its digits, so each of its cells holds, rotated to put the
    cell's row lowest, the profiles of one fixed list: the sweep records that
    cell once (_Template) and replays it n times per column on a list of
    counts, with no dict and nothing computed per profile.  A sweep whose
    live frontier fills at least half of the k**n profiles after some column
    (a strip at full capacity, say) goes to _dense_sweep instead, which holds
    every profile in one list.
    """
    length = max(lengths)
    if k**n <= 2 * max(_frontier_sizes(n, length, k, s_cap)):
        return _dense_sweep(n, lengths, k, s_cap)
    plain = _changing_columns(length, k)
    bits = _slot_bits(n, length, k, s_cap)
    slot = (1 << bits) - 1
    keep = (1 << bits * (s_cap + 1)) - 1  # drops slots above s_cap rods
    w = k.bit_length()
    ones = sum(1 << w * r for r in range(n))  # the low bit of every row's digit

    def unpack(total: int) -> tuple[int, ...]:
        total &= keep
        return tuple((total >> s * bits) & slot for s in range(s_cap + 1))

    def dict_join(left: dict[int, int], right: dict[int, int]) -> int:
        total = 0
        for profile, packed in right.items():
            nonzero = profile
            for i in range(1, w):
                nonzero |= profile >> i
            nonzero &= ones
            mirror = k * nonzero - profile  # d -> k - d
            other = left.get(mirror)
            if other:
                total += (packed * other) >> bits * nonzero.bit_count()
        return total

    frontier: dict[int, int] | list[int] = {0: 1}
    template: _Template | None = None
    rows: dict[int, tuple[int, ...]] = {}
    for c in range(1, (length + 1) // 2 + 1):
        previous = frontier if 2 * c - 1 in lengths else None
        if c <= plain:
            hstart = c - 1 + k <= length
            for r in range(n):
                frontier = _plain_cell(frontier, r, n, k, hstart, bits, keep)
            join = dict_join
        else:
            if template is None:  # the first column that keeps its digits
                template = _Template(n, k, s_cap, _overhangs(c - 1, length, k), bits, keep)
                frontier = list(map(frontier.get, template.profiles, repeat(0)))
                previous = frontier if previous is not None else None
            frontier = template.column(frontier)
            join = template.join
        if previous is not None:
            rows[2 * c - 1] = unpack(join(frontier, previous))
        if 2 * c in lengths:
            rows[2 * c] = unpack(join(frontier, frontier))
    return rows


def _plain_cell(frontier: dict[int, int], r: int, n: int, k: int, hstart: bool, bits: int,
                keep: int) -> dict[int, int]:
    """The live profiles and their counts after cell r of a column, from those before it.

    A covered cell passes its profile on with its digit stepped down (d to
    d - 1 for a horizontal rod, k to 0 for a vertical one); a free cell
    passes it on as a monomer and starts a rod across, when the column
    leaves room for one (hstart), and a rod down, when rows r+1..r+k-1 lie
    in the column and are free.  A started rod makes a profile no other move
    reaches, holding its source's counts one slot up.
    """
    w = k.bit_length()
    shift = w * r
    under = shift + w
    digit = (1 << w) - 1
    below = (1 << w * (k - 1)) - 1  # the k-1 rows a vertical rod covers below its start
    step = [1 << shift] * k + [k << shift]  # by digit: what leaving the cell takes off
    across = (k - 1) << shift if hstart else 0
    down = sum(k << w * i for i in range(k - 1)) << under if r + k <= n else 0
    nxt: dict[int, int] = {}
    get = nxt.get
    for profile, packed in frontier.items():
        d = (profile >> shift) & digit
        if d:  # covered from the left or from above: nothing to place
            out = profile - step[d]
            nxt[out] = get(out, 0) + packed
            continue
        nxt[profile] = get(profile, 0) + packed  # monomer
        more = (packed << bits) & keep
        if not more:
            continue
        if across:
            nxt[profile | across] = more
        if down and not (profile >> under) & below:
            nxt[profile | down] = more
    return nxt


class _Template(Frozen):
    """One cell of every column that keeps its overhang digits, recorded from its profiles alone.

    A profile is read rotated, with the cell's row as its lowest digit, the
    rows below it next and the rows already swept above them.  Where the
    digits a column admits (digits, every 1..k-1 or none) are the same on
    both sides, every cell of the column holds profiles of one list: at most
    s_cap rods shown (one per digit 1..k-1, one for a vertical rod under
    way), any digits from 0 and digits, and for a vertical rod under way a
    run of j < k digits k from the lowest, whose k - j rows swept above it
    are 0.  With every digit admitted, F(n, s_cap) of them reach the edge of
    the column and (k - 1) F(n - k, s_cap - 1) have a rod under way, where
    F(m, t) counts the words of at most t digits on m rows.  A word on n - k
    rows extends to 1 + k(k - 1) >= 3(k - 1) words on n rows, with one digit
    or none in the other k, so the list holds at most 4/3 of the live
    frontier.

    A cell moves each profile's counts to the profile it leaves, the rows
    rotated by one: unshifted (a covered cell, or a monomer) and, from a
    free cell while its profile shows fewer than s_cap rods, one slot up to
    a rod started across or down.  The list is ordered by the cell's
    targets: the unshifted ones, those with the most sources first, then
    the rods started across (top digit k - 1), then those started down (a
    run of k - 1 digits k).  Those blocks are disjoint and every profile of
    the list is a target, so the order out of a cell is the order into the
    next, and the cell replays n times per column.  A count never sits in a
    slot below the rods its profile shows, so a cell starts every rod the
    counts allow and serves any counts.  In the bottom k - 1 rows no rod
    fits down, so that block is filled with zeros; a column that admits no
    digit leaves no room across, and its list has no such block.

    At a column's edge the list is rotated by n, so it reads as the profiles
    themselves, and a run of digits k holds 0.  The joins read each
    profile's mirror position and the slots its product drops from
    precomputed lists, as _dense_sweep does.
    """

    __slots__ = ("n", "k", "bits", "keep", "profiles", "first", "more", "starts", "across",
                 "mirror", "drop")

    def __init__(self, n: int, k: int, s_cap: int, digits: tuple[int, ...], bits: int,
                 keep: int) -> None:
        w = k.bit_length()
        digit = (1 << w) - 1
        top = w * (n - 1)  # the row just swept, after the rotation
        below = (1 << w * (k - 1)) - 1  # the k - 1 rows under the cell, once rotated past it
        covered = sum(k << w * i for i in range(k - 1))  # those rows under a rod started down
        places = [[d << w * p for d in digits] for p in range(n)]

        def words(lo: int, hi: int, rods: int) -> tuple[list[int], list[int]]:
            """Every word of digits on rows lo..hi-1 with at most rods of them, and how many each has."""
            # each layer is ordered by the row of its last digit, and its first bound[q]
            # words have every digit before row lo + q
            layer, bound = [0], [1] * (hi - lo + 1)
            found, count = [0], [0]
            for i in range(1, min(rods, hi - lo) + 1):
                nxt, bound2 = [], [0]
                for q in range(hi - lo):
                    for v in places[lo + q]:
                        nxt += map(v.__or__, layer[: bound[q]])
                    bound2.append(len(nxt))
                layer, bound = nxt, bound2
                found += layer
                count += repeat(i, len(layer))
            return found, count

        found, shown = words(0, n, s_cap)
        if n >= k and s_cap:  # a vertical rod with j cells left, its k - j rows above it 0
            for j in range(1, k):
                run = sum(k << w * p for p in range(j))
                tail, count = words(j, n - k + j, s_cap - 1)
                found += map(run.__or__, tail)
                shown += map((1).__add__, count)
        low = list(map(digit.__and__, found))
        rest = list(map(rshift, found, repeat(w)))
        out = [0, *((d - 1) << top for d in range(1, k)), 0]  # by the cell's digit: its next one
        # each unshifted target's sources: the last, then the last of the others, and so on
        fan: list[dict[int, int]] = []
        targets, sources = list(map(or_, rest, map(out.__getitem__, low))), range(len(found))
        while targets:
            fan.append(dict(zip(targets, sources)))
            others = list(map(ne, map(fan[-1].__getitem__, targets), sources))
            targets, sources = list(compress(targets, others)), list(compress(sources, others))
        unshifted = list(dict.fromkeys(chain.from_iterable(reversed(fan))))  # most sources first
        free = list(compress(range(len(found)),
                             map(and_, map(not_, low), map(s_cap.__gt__, shown))))
        across = free if digits else []
        down = [a for a in free if not rest[a] & below] if n >= k else []
        profiles = unshifted + [rest[a] | (k - 1) << top for a in across]
        profiles += [rest[a] | covered for a in down]
        del low, rest, shown  # the build's lists outweigh the cell it records: drop each once used
        position = dict(zip(profiles, range(len(profiles))))
        moved = list(map(position.__getitem__, found)).__getitem__
        first, *more = [list(map(moved, map(pick.__getitem__, unshifted[: len(pick)])))
                        for pick in fan]
        del found, fan, unshifted
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "bits", bits)
        set_field(self, "keep", keep)
        set_field(self, "profiles", profiles)
        set_field(self, "first", first)
        set_field(self, "more", more)
        set_field(self, "starts", list(map(moved, across + down)))
        set_field(self, "across", len(across))
        nonzero = profiles  # the low bit of each nonzero digit, once masked
        for b in range(1, w):
            nonzero = list(map(or_, nonzero, map(rshift, profiles, repeat(b))))
        nonzero = list(map((sum(1 << w * r for r in range(n))).__and__, nonzero))
        # d -> k - d; a run holds 0 at the edge, and its digits k mirror to 0
        set_field(self, "mirror", list(map(position.__getitem__,
                                           map(sub, map(k.__mul__, nonzero), profiles))))
        set_field(self, "drop", list(map(bits.__mul__, map(int.bit_count, nonzero))))

    def cell(self, vals: list[int], r: int) -> list[int]:
        """The counts after cell r of the column, from those before it, both in list order."""
        get = vals.__getitem__
        nxt = list(map(get, self.first))
        for extra in self.more:  # the other sources of the first targets
            nxt[: len(extra)] = map(add, nxt, map(get, extra))
        starts = self.starts if r + self.k <= self.n else islice(self.starts, self.across)
        nxt += map(lshift, map(get, starts), repeat(self.bits))
        nxt += repeat(0, len(self.profiles) - len(nxt))  # no rod fits down in the bottom k - 1 rows
        return nxt

    def column(self, vals: list[int]) -> list[int]:
        """The counts after a column, from those before it; slots past the cap carry upwards only."""
        for r in range(self.n):
            vals = self.cell(vals, r)
        return list(map(self.keep.__and__, vals))

    def join(self, left: list[int], right: list[int]) -> int:
        """_sweep's join of two edge frontiers, packed and unmasked."""
        return sum(map(rshift, map(mul, right, map(left.__getitem__, self.mirror)), self.drop))


def _slot_bits(n: int, length: int, k: int, s_cap: int) -> int:
    """Bits per slot of a packed count: one more than a count of j <= s_cap rods needs.

    A set of j disjoint rods on n x length is a choice of j of its P rod
    positions.  Read cell by cell, row by row, it is also a word over the
    N - (k-1)j cells that no earlier rod covers, each a monomer or the
    first cell of a rod across or down.  So it counts at most C(P, j) and
    at most C(N - (k-1)j, j) 2^j, which is far smaller near capacity.
    """
    positions = rod_positions(n, length, k)
    cells = n * length
    return 1 + max(min(math.comb(positions, j), math.comb(max(0, cells - (k - 1) * j), j) << j)
                   .bit_length() for j in range(s_cap + 1))


def _dense_sweep(n: int, lengths: Collection[int], k: int, s_cap: int) -> dict[int, tuple[int, ...]]:
    """_sweep's rows, with each frontier held as one list over all k**n profiles.

    Profile i has digit (i // k**r) % k in row r, 0..k-1 as in _sweep, so
    its position is its profile.  While row r is swept the list is rotated
    to make row r the lowest digit: the profiles with digit d there are
    frontier[d::k], indexed by their other rows, and the outgoing lists
    joined in order of the new digit make row r + 1 the lowest.  Digit
    d >= 2 becomes d - 1, digits 0 (a monomer) and 1 (a rod ends) both
    become 0, and a rod started across turns a 0 into k - 1.  A rod started
    down at row r needs rows r+1..r+k-1 free, the free profiles [::k**(k-1)],
    and covers them with digit 0, so it joins the list after row r+k-1, on
    its first k**(n-k) positions.  Each cell is a few maps and slices over
    the list, with nothing computed per profile, which pays when most of
    the k**n profiles are live; _sweep sends a sweep here only when at
    least half are, so the list is at most twice the frontier the state
    cap bounds.

    The mask only keeps the counts short, since a slot past the cap carries
    only into slots the join drops.  The rods of a configuration through
    column c lie in its first c + k - 1 columns, so while those hold at most
    s_cap rods no slot past the cap fills and a started rod's counts go
    unmasked.  The joins are _sweep's, summed in one pass over the list and
    its mirror positions.  In the even join both sides are F_c, so P and
    mirror(P) give equal terms: each mirror pair is multiplied once and
    doubled, and a profile that is its own mirror (0, or every digit k/2)
    once.
    """
    length = max(lengths)
    bits = _slot_bits(n, length, k, s_cap)
    slot = (1 << bits) - 1
    keep = (1 << bits * (s_cap + 1)) - 1
    mirror, up = [0], [bits * n]  # up: a join's product shifted up one slot per zero digit
    for r in range(n):
        mirror = [off + i for off in [0] + [(k - d) * k**r for d in range(1, k)] for i in mirror]
        up = [u - drop for drop in [0] + [bits] * (k - 1) for u in up]
    lo = [i for i, j in enumerate(mirror) if i < j]
    hi = list(map(mirror.__getitem__, lo))
    own = [i for i, j in enumerate(mirror) if i == j]

    def unpack(total: int) -> tuple[int, ...]:
        total = (total >> bits * n) & keep
        return tuple((total >> s * bits) & slot for s in range(s_cap + 1))

    def join(left: list[int], right: list[int]) -> tuple[int, ...]:
        return unpack(sum(map(lshift, map(mul, right, map(left.__getitem__, mirror)), up)))

    def square(frontier: list[int]) -> tuple[int, ...]:  # join(frontier, frontier)
        get = frontier.__getitem__
        twice = sum(map(lshift, map(mul, map(get, lo), map(get, hi)), map(up.__getitem__, lo)))
        once = sum(map(lshift, map(mul, map(get, own), map(get, own)), map(up.__getitem__, own)))
        return unpack(2 * twice + once)

    def started(counts: list[int], masked: bool) -> Iterable[int]:  # one slot up: the new rod
        shifted = map(lshift, counts, repeat(bits))
        return map(keep.__and__, shifted) if masked else shifted

    frontier = [1] + [0] * (k**n - 1)
    rows: dict[int, tuple[int, ...]] = {}
    for c in range(1, (length + 1) // 2 + 1):
        previous = frontier if 2 * c - 1 in lengths else None
        hstart = c - 1 + k <= length
        masked = s_cap < n * min(c + k - 1, length) // k
        landing: dict[int, list[int]] = {}
        for r in range(n):
            free, *rest = (frontier[d::k] for d in range(k))
            if r + k <= n:
                landing[r + k - 1] = list(started(free[:: k ** (k - 1)], masked))
            frontier = list(map(add, free, rest[0]))
            for part in rest[1:]:
                frontier += part
            frontier += started(free, masked) if hstart else repeat(0, len(free))
            down = landing.pop(r, None)
            if down is not None:
                frontier[: len(down)] = map(add, frontier, down)
        if previous is not None:
            rows[2 * c - 1] = join(frontier, previous)
        if 2 * c in lengths:
            rows[2 * c] = square(frontier)
    return rows


def _check_state_cap(state_cap: int) -> None:
    if state_cap < 1:
        raise ParameterError(f"state cap must be >= 1, got {state_cap}")


def count_tables(
    k: int,
    points: Iterable[tuple[int, int]],
    s_max: int | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> dict[tuple[int, int], CountTable]:
    """count_polynomial(LatticeSpec(n, m, k), s_max) for every (n, m) in points.

    Points are grouped by their shorter side; each group costs one sweep of
    that width to the longest length in the group, at the largest s any of
    its points needs.  Every sweep's live frontier is checked against
    state_cap before any sweep starts.
    """
    if s_max is not None and s_max < 0:
        raise ParameterError(f"s_max must be >= 0, got {s_max}")
    _check_state_cap(state_cap)
    groups: dict[int, list[LatticeSpec]] = {}
    for n, m in dict.fromkeys(points):
        spec = LatticeSpec(n, m, k)
        groups.setdefault(min(n, m), []).append(spec)
    sweeps = []
    for width, specs in groups.items():
        caps = [spec.capacity if s_max is None else min(s_max, spec.capacity) for spec in specs]
        lengths = {max(spec.n, spec.m) for spec in specs}
        _check_frontier(width, max(lengths), k, max(caps), state_cap)
        sweeps.append((width, lengths, specs, caps))
    tables: dict[tuple[int, int], CountTable] = {}
    for width, lengths, specs, caps in sweeps:
        rows = _sweep(width, lengths, k, max(caps))
        for spec, cap in zip(specs, caps):
            counts = rows[max(spec.n, spec.m)][: cap + 1]
            if s_max is not None and s_max > cap:
                counts += (0,) * (s_max - cap)
            tables[spec.n, spec.m] = CountTable(spec=spec, counts=counts)
    return tables


def count_polynomial(
    spec: LatticeSpec,
    s_max: int | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> CountTable:
    """All counts a(n,m,k,s) for s = 0..s_max (default: full capacity).

    The lattice is swept along its longer side so the DP state lives on the
    shorter one; results are exact integers.
    """
    return count_tables(spec.k, [(spec.n, spec.m)], s_max, state_cap)[spec.n, spec.m]


def count_configurations(
    spec: LatticeSpec, s: int, state_cap: int = DEFAULT_STATE_CAP
) -> int:
    """Exact number of ways to place s disjoint k-rods on the lattice."""
    if s < 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    _check_state_cap(state_cap)
    if s > spec.capacity:
        return 0
    return count_polynomial(spec, s_max=s, state_cap=state_cap).counts[s]


def _rod_masks(spec: LatticeSpec) -> list[int]:
    """Bitmasks of all candidate rod placements, cell index = row*m + col."""
    n, m, k = spec.n, spec.m, spec.k
    masks: list[int] = []
    for r in range(n):
        for c in range(m - k + 1):
            mask = 0
            for t in range(k):
                mask |= 1 << (r * m + c + t)
            masks.append(mask)
    for c in range(m):
        for r in range(n - k + 1):
            mask = 0
            for t in range(k):
                mask |= 1 << ((r + t) * m + c)
            masks.append(mask)
    return masks


def brute_force_count(spec: LatticeSpec, s: int) -> int:
    """Oracle count by explicit subset search over rod placements, within DEFAULT_WORK_CAP."""
    if s < 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    if s == 0:
        return 1
    masks = _rod_masks(spec)
    p = len(masks)
    if s > p:
        return 0
    if math.comb(p, s) > DEFAULT_WORK_CAP:
        raise ResourceLimitError(
            f"C({p},{s}) exceeds brute-force work cap {DEFAULT_WORK_CAP}"
        )

    def rec(start: int, left: int, occupied: int) -> int:
        if left == 0:
            return 1
        total = 0
        for q in range(start, p - left + 1):
            if masks[q] & occupied == 0:
                total += rec(q + 1, left - 1, occupied | masks[q])
        return total

    return rec(0, s, 0)
