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
one half sweep gives the whole strip row a(n, 1..L).  Away from the ends of
a long strip every column makes the same moves on the same profiles, so the
sweep records those moves once, from the profiles alone, as index lists and
masks, and replays that plan on the counts of every such column.  When at
least half of the k**n profiles are live after some column, as on a strip at
full capacity, the sweep holds all of them in one list instead and moves
them with slices and maps, whether its columns repeat or not.  count_tables
groups many points into one sweep per distinct shorter side.
"""

from __future__ import annotations

import math
from array import array
from itertools import compress, repeat
from operator import add, lshift, mul
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


def _sweep(n: int, lengths: Collection[int], k: int, s_cap: int) -> dict[int, tuple[int, ...]]:
    """Half sweep of the width-n strip plus a join; rows[L] = (a_0, ..., a_{s_cap}) of n x L.

    A profile packs one digit per row into an integer, `w` bits per row: d in
    1..k-1 for a cell covered by a horizontal rod that runs d more columns,
    k for a cell below a vertical rod started higher up in the column being
    swept.  Cells are swept down each column, so rows above the current cell
    already hold the column's outgoing digits; the profiles inside a column
    stay close in number to the live frontier on either side of it (at most
    4/3 of the larger, measured on strips up to 9 x 18 at s_cap <= 3 and,
    up to 100 cells, at full capacity).  After column c the frontier F_c counts
    the configurations of the first c columns whose horizontal rods may run
    on past column c, by their overhang profile.

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

    The live profiles after column c are fixed by the overhang digits a
    profile may hold there (_overhangs, the rule the state cap counts by).
    A column with the same digits before and after it maps its profiles
    onto themselves, and every column with the same digits and the same
    room to start a horizontal rod (its shape) makes the same moves.  When
    at least three columns share that shape, the sweep records the moves of
    the first from its profiles alone (_record) and replays that plan for
    it and for the later ones (_replay): each cell becomes a few list, mask
    and shift operations on the counts in a fixed order, with nothing
    computed per profile.  The plan starts a rod wherever the profile's own
    rods leave room below s_cap, which covers every rod the counts allow,
    so it serves any counts.  Every other column is swept plainly, with what
    each digit takes off and the marks of a rod started across or down
    worked out once per row, not per profile.

    A sweep whose live frontier fills at least half of the k**n profiles
    after some column (a strip at full capacity, say) goes to _dense_sweep
    instead, which holds every profile in one list and makes each cell a few
    list operations, whether its columns repeat or not; so a plan is only
    ever recorded for a sparse frontier.
    """
    length = max(lengths)
    if k**n <= 2 * max(_frontier_sizes(n, length, k, s_cap)):
        return _dense_sweep(n, lengths, k, s_cap)
    half = (length + 1) // 2
    shapes = [(_overhangs(c - 1, length, k), _overhangs(c, length, k), c + k <= length)
              for c in range(half)]
    repeating = next((shape for shape in shapes
                      if shape[0] == shape[1] and shapes.count(shape) >= 3), None)
    bits = _slot_bits(n, length, k, s_cap)
    slot = (1 << bits) - 1
    keep = (1 << bits * (s_cap + 1)) - 1  # drops slots above s_cap rods
    w = k.bit_length()
    digit = (1 << w) - 1
    ones = sum(1 << w * r for r in range(n))  # the low bit of every row's digit
    below = (1 << w * (k - 1)) - 1  # the k-1 rows a vertical rod covers below its start
    covered = sum(k << w * i for i in range(k - 1))

    def join(left: dict[int, int], right: dict[int, int]) -> tuple[int, ...]:
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
        total &= keep
        return tuple((total >> s * bits) & slot for s in range(s_cap + 1))

    frontier: dict[int, int] = {0: 1}
    rows: dict[int, tuple[int, ...]] = {}
    plan: _Plan | None = None
    for c in range(1, half + 1):
        previous = frontier if 2 * c - 1 in lengths else None
        shape = shapes[c - 1]
        hstart = shape[2]
        if plan is None and shape == repeating:
            plan = _record(list(frontier), n, k, shape, s_cap)
        if plan is not None and plan.shape == shape:
            frontier = dict(zip(frontier, _replay(plan, list(frontier.values()), bits, s_cap)))
        else:
            for r in range(n):
                shift = w * r
                under = shift + w
                step = [1 << shift] * k + [k << shift]  # by digit: what leaving the cell takes off
                across = (k - 1) << shift if hstart else 0
                down = covered << under if r + k <= n else 0
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
                    # a started rod makes a profile no other move reaches (_record)
                    if across:
                        nxt[profile | across] = more
                    if down and not (profile >> under) & below:
                        nxt[profile | down] = more
                frontier = nxt
        if previous is not None:
            rows[2 * c - 1] = join(frontier, previous)
        if 2 * c in lengths:
            rows[2 * c] = join(frontier, frontier)
    return rows


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


#: One recorded cell: (first, extra_src, extra_dst, across, down); see _replay.
_Cell = tuple[bytes, array, array, bytes, bytes]


class _Plan(Frozen):
    """A recorded column, for every column of the same shape."""

    __slots__ = ("shape", "cells", "order")

    def __init__(self, shape: tuple, cells: list[_Cell], order: array) -> None:
        set_field(self, "shape", shape)
        set_field(self, "cells", cells)
        # the position after the last cell of each profile, in input order
        set_field(self, "order", order)


def _replay(plan: _Plan, vals: list[int], bits: int, s_cap: int) -> list[int]:
    """The values after a column of the plan's shape, from the values before it.

    vals and the result list the values in the order of the recorded
    column's input.  In each cell, first, across and down are masks over
    the cell's sources.  Its targets are, in order: the profiles that the
    first-marked sources reach first, then one new profile per rod started
    across and per rod started down, holding its source's counts shifted up
    one slot.  Each extra_src is a source that reaches target extra_dst
    after that target's first source; its value is added there.  Slots past
    the cap carry only upwards, and are dropped after the last cell.
    """
    for first, extra_src, extra_dst, across, down in plan.cells:
        nxt = list(compress(vals, first))
        for a, b in zip(extra_src, extra_dst):
            nxt[b] += vals[a]
        nxt += map(lshift, compress(vals, across), repeat(bits))
        nxt += map(lshift, compress(vals, down), repeat(bits))
        vals = nxt
    keep = (1 << bits * (s_cap + 1)) - 1
    return list(map(keep.__and__, map(vals.__getitem__, plan.order)))


def _mask(size: int, positions: Iterable[int], value: int = 1) -> bytes:
    """size bytes, value at positions and the other value elsewhere."""
    mask = bytearray([1 - value]) * size
    for a in positions:
        mask[a] = value
    return bytes(mask)


def _record(keys: list[int], n: int, k: int, shape: tuple, s_cap: int) -> _Plan:
    """The plan of a column of this shape that starts from the profiles keys; it reads no counts.

    Each cell makes the moves of the plain column's cell, but records them
    by the positions of their sources.  Every profile has exactly one move
    that keeps its counts.  A profile with a free cell also starts a rod
    while the rods it shows (one per row with an overhang, plus a vertical
    rod under way) number fewer than s_cap, and a started rod makes a
    profile that no other move reaches.  A count never sits in a slot below
    the rods its profile shows, so every rod the plain column starts (from
    a nonzero slot below s_cap) is started here too, and a rod started here
    from no such slot only adds to the slots past the cap.  The column's
    digits are the same before and after it, so it maps keys onto
    themselves.
    """
    hstart = shape[2]
    w = k.bit_length()
    digit = (1 << w) - 1
    ones = sum(1 << w * r for r in range(n))
    below = (1 << w * (k - 1)) - 1
    covered = sum(k << w * i for i in range(k - 1))
    start = keys
    shown = []  # the rods each profile shows: at the column edge, its nonzero digits
    for profile in keys:
        nonzero = profile
        for i in range(1, w):
            nonzero |= profile >> i
        shown.append((nonzero & ones).bit_count())
    cells: list[_Cell] = []
    for r in range(n):
        shift = w * r
        under = shift + w
        vertical = r + k <= n
        reached: dict[int, int] = {}  # target -> the source that reached it first
        after: list[int] = []  # the rods each target shows, in the order of reached
        extra_src: list[int] = []
        extra_dst: list[int] = []
        across: list[int] = []
        down: list[int] = []
        for a, profile in enumerate(keys):
            d = (profile >> shift) & digit
            b = reached.setdefault(profile - ((d if d == k else 1) << shift) if d else profile, a)
            if b != a:
                extra_src.append(a)
                extra_dst.append(b)
            else:  # a horizontal rod ends, or a vertical rod leaves its last row
                after.append(shown[a] - (d == 1 or d == k and (profile >> under) & digit != k))
            if d or shown[a] >= s_cap:
                continue
            if hstart:
                across.append(a)
            if vertical and not (profile >> under) & below:
                down.append(a)
        rank = dict(zip(reached.values(), range(len(reached)))).__getitem__
        cells.append((_mask(len(keys), extra_src, 0), array("q", extra_src),
                      array("q", map(rank, extra_dst)),
                      _mask(len(keys), across), _mask(len(keys), down)))
        del rank
        reached.update(zip(map(((k - 1) << shift).__or__, map(keys.__getitem__, across)), across))
        reached.update(zip(map((covered << under).__or__, map(keys.__getitem__, down)), down))
        shown = after + [shown[a] + 1 for a in across + down]
        keys = list(reached)
    position = dict(zip(keys, range(len(keys))))
    return _Plan(shape, cells, array("q", map(position.__getitem__, start)))


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
