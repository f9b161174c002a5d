"""Permutation groups generated by powers of disjoint cycles, and orbit posets.

A group is specified as a list of disjoint cycles, each raised to an integer
power; the generated group is the direct product of the cyclic subgroups, one
per cycle, because the supports are disjoint.  That structure keeps orbit
counting (Burnside) and factorization cheap and exact.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from array import array

from .core import (
    CHUNK_BITS,
    QUOTIENT_LIMIT,
    ResourceLimitError,
    _Record,
    _set,
    check_enum,
    check_ground,
    chunk_tables,
    full_mask,
    mask_of,
)

_LOW = (1 << CHUNK_BITS) - 1  # a mask's low chunk; mask >> CHUNK_BITS is its high one
_SLICE = 1 << 15  # QuotientPoset.failing_runs packs whole runs until a slice holds this many lanes


class ParseError(ValueError):
    """Bad group-spec text or semantics; carries an optional position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CycleFactor(_Record):
    """One generator: a cycle raised to a power."""

    __slots__ = ("cycle", "exponent")

    def __init__(self, cycle: tuple[int, ...], exponent: int = 1):
        _set(self, "cycle", cycle)
        _set(self, "exponent", exponent)

    @property
    def length(self) -> int:
        return len(self.cycle)

    def order(self) -> int:
        return self.length // math.gcd(self.exponent, self.length)

    def support_mask(self) -> int:
        return mask_of(self.cycle)

    def text(self) -> str:
        body = "(" + " ".join(str(e) for e in self.cycle) + ")"
        return body if self.exponent == 1 else f"{body}^{self.exponent}"


class GroupSpec(_Record):
    """Disjoint cycles with powers; generates a subgroup of S_n."""

    __slots__ = ("n", "factors", "__dict__")  # the dict holds the cached tables

    def __init__(self, n: int, factors: tuple[CycleFactor, ...]):
        check_ground(n)
        seen = 0
        for f in factors:
            if len(set(f.cycle)) != len(f.cycle):
                raise ParseError("element repeated in cycle")
            if any(e < 1 or e > n for e in f.cycle):
                raise ParseError("element out of range")
            if f.exponent < 0:
                raise ParseError("exponent must be nonnegative")
            support = f.support_mask()
            if support & seen:
                raise ParseError("cycles not disjoint")
            seen |= support
        _set(self, "n", n)
        _set(self, "factors", factors)

    @classmethod
    def trivial(cls, n: int) -> "GroupSpec":
        return cls(n, ())

    def text(self) -> str:
        return "".join(f.text() for f in self.factors)

    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.order()
        return out

    @functools.cached_property
    def _powers(self):
        """(support, tables) per moving generator g, where tables holds the chunk
        tables (t0, t1) of each power g^j, j = 1 .. order - 1: the image of a
        mask e is t0[e & _LOW] + t1[e >> CHUNK_BITS].  Built on first use and
        refused above QUOTIENT_LIMIT, where two chunks no longer cover a mask;
        not a field, so == and hash ignore it and the tables go with the spec."""
        if self.n > QUOTIENT_LIMIT:
            raise ResourceLimitError(f"group actions are capped at n <= {QUOTIENT_LIMIT}, got {self.n}")
        return tuple(
            (f.support_mask(), _power_tables(self.n, f.cycle, f.exponent % f.length))
            for f in self.factors
            if f.order() > 1
        )

    @functools.cached_property
    def _shifts(self):
        """(support, powers) per moving generator g, in _powers' order, where
        powers holds the moves of each power g^j, j = 1 .. order - 1: the
        (mask, shift) pairs that carry a mask's bits to their images, so that the
        image of e is the union over them of e & mask moved up by shift (down by
        -shift when it is negative), the points off the support with shift 0.
        The lanes of failing_runs read these; the walks over single masks read
        _powers."""
        full = full_mask(self.n)
        out = []
        for f in self.factors:
            if f.order() > 1:
                support, powers = f.support_mask(), []
                for j in range(1, f.order()):
                    perm = perm_from_cycle_power(f.cycle, f.exponent * j, self.n)
                    moves = {0: full & ~support}
                    for x in f.cycle:
                        moves[perm[x - 1] - x] = moves.get(perm[x - 1] - x, 0) | 1 << (x - 1)
                    powers.append(tuple((mask, shift) for shift, mask in moves.items() if mask))
                out.append((support, tuple(powers)))
        return tuple(out)


def _lane_image(x: int, moves) -> int:
    """The image of every 32-bit lane of x under one power, from that power's
    (mask, shift) moves in GroupSpec._shifts with each mask repeated in every lane."""
    image = 0
    for mask, shift in moves:
        part = x & mask
        image |= part << shift if shift > 0 else part >> -shift if shift else part
    return image


def _packed(runs, n: int) -> int | None:
    """The elements of the runs in 32-bit lanes of one integer, the first in the
    lowest lane; None unless every element is an int in [0, 2^n)."""
    flat = list(itertools.chain.from_iterable(runs))
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        words = array("I", flat)
    except OverflowError:  # below 0 or above 32 bits
        return None
    if sys.byteorder == "big":
        words.byteswap()
    x = int.from_bytes(words, "little")
    return None if x & int.from_bytes((-1 << n & 0xFFFFFFFF).to_bytes(4, "little") * len(flat), "little") else x


class _Repeats:
    """Masks repeated in every 32-bit lane, for the slices of one failing_runs
    call.  Most moves carry single bits, and those masks are kept from slice to
    slice at the width of the widest so far: x & mask ignores the lanes above x."""

    def __init__(self):
        self.width, self.wide, self.ones, self.bits = 0, 0, 0, {}

    def fit(self, lanes: int) -> int:
        """Make the next slice `lanes` wide; return 1 in each of its lanes."""
        if self.width < lanes:
            # a slice passes _SLICE by less than its last run, and runs are short
            self.width = lanes if lanes < _SLICE else max(lanes, _SLICE + 32)
            self.wide, self.bits = int.from_bytes(b"\1\0\0\0" * self.width, "little"), {}
        self.ones = self.wide >> 32 * (self.width - lanes)
        return self.ones

    def __call__(self, mask: int) -> int:
        if mask & mask - 1:
            return mask * self.ones
        if mask not in self.bits:
            self.bits[mask] = self.wide << mask.bit_length() - 1
        return self.bits[mask]


def _power_tables(n: int, cycle: tuple[int, ...], exponent: int):
    """The chunk table pair of each non-identity power of cycle^exponent on [n],
    built from apply_perm on single bits."""
    powers = []
    for j in range(1, len(cycle) // math.gcd(exponent, len(cycle))):
        perm = perm_from_cycle_power(cycle, exponent * j, n)
        powers.append(tuple(chunk_tables(lambda bit: apply_perm(perm, bit), n)))  # (t0, t1), as n <= QUOTIENT_LIMIT
    return tuple(powers)


def parse_group_spec(text: str, n: int) -> GroupSpec:
    """Parse cycle notation like "(1 2 3 4)^2 (5 6)" into a GroupSpec.

    Grammar: one or more terms, each '(' int+ ')' with an optional '^' uint;
    integers are ASCII digits, 1-based.  Raises ParseError with the offending position.
    """
    check_ground(n)
    i = 0
    size = len(text)
    factors = []

    def skip_ws():
        nonlocal i
        while i < size and text[i].isspace():
            i += 1

    def read_uint() -> int:
        nonlocal i
        start = i
        while i < size and "0" <= text[i] <= "9":  # ASCII only: str.isdecimal() takes any script's digits
            i += 1
        if i == start:
            raise ParseError("expected an integer", start)
        try:
            return int(text[start:i])
        except ValueError:  # more digits than the interpreter converts
            raise ParseError("integer too long", start) from None

    skip_ws()
    if i == size:
        raise ParseError("expected '('", i)
    while i < size:
        if text[i] != "(":
            raise ParseError("expected '('", i)
        i += 1
        cycle = []
        while True:
            skip_ws()
            if i < size and text[i] == ")":
                i += 1
                break
            if i >= size:
                raise ParseError("unclosed cycle", i)
            cycle.append(read_uint())
        if not cycle:
            raise ParseError("empty cycle", i - 1)
        exponent = 1
        if i < size and text[i] == "^":
            i += 1
            exponent = read_uint()
        factors.append(CycleFactor(tuple(cycle), exponent))
        skip_ws()
    return GroupSpec(n, tuple(factors))


def perm_from_cycle_power(cycle, exponent: int, n: int) -> tuple[int, ...]:
    """Image tuple of the permutation cycle^exponent on [n] (identity off-support)."""
    img = list(range(1, n + 1))
    length = len(cycle)
    for idx, x in enumerate(cycle):
        img[x - 1] = cycle[(idx + exponent) % length]
    return tuple(img)


def apply_perm(perm: tuple[int, ...], mask: int) -> int:
    """Image of a subset under a permutation given as an image tuple."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (perm[low.bit_length() - 1] - 1)
        mask ^= low
    return out


def _members(s: int, powers) -> list[int]:
    """The orbit of a subset, each member once, from a group's _powers.

    The generators have disjoint supports, so the group is the direct product
    of their cyclic groups: each generator's powers of every member found so
    far reach the whole orbit, up to the first power that returns the member,
    and two members found before a generator never lie on one of its cycles.
    """
    members = [s]
    for _, tables in powers:
        for i in range(len(members)):
            x = members[i]
            lo, hi = x & _LOW, x >> CHUNK_BITS
            for t0, t1 in tables:
                y = t0[lo] + t1[hi]
                if y == x:
                    break
                members.append(y)
    return members


def orbit_rep(s: int, group: GroupSpec) -> int:
    """Smallest mask in the orbit of a subset: under each generator in turn, the
    least of the images of its current least element, read from the tables."""
    for _, tables in group._powers:
        lo, hi = s & _LOW, s >> CHUNK_BITS
        for t0, t1 in tables:
            y = t0[lo] + t1[hi]
            if y < s:
                s = y
    return s


def _times(p, q) -> list[int]:
    """Coefficients of the product of two polynomials."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def necklace_ranks(k: int, length: int, step: int) -> tuple[int, ...]:
    """Orbits of [k]^length under rotation by multiples of step, counted by
    rank (the sum of the levels), by Burnside over the cycle index.

    Rotation by s has c = gcd(s, length) cycles of length l = length / c, and
    the tuples it fixes are counted by rank by (1 + x^l + ... + x^((k-1)l))^c;
    the multiples of step are those of gcd(step, length).
    """
    step = math.gcd(step, length)
    total = [0] * ((k - 1) * length + 1)
    for s in range(0, length, step):
        c = math.gcd(s, length)
        for r, count in enumerate(functools.reduce(_times, [[1] * k] * c, [1])):
            total[r * (length // c)] += count
    order = length // step
    return tuple(t // order for t in total)


def rank_counts(n: int, group: GroupSpec) -> tuple[int, ...]:
    """Orbits of B_n under the group, counted by rank: (1 + x)^fixed times
    one binary necklace count per rotated block, as the group is the direct
    product of cyclic groups on disjoint supports.  The cost depends on n
    alone, not on the group order."""
    fixed, factors = factorize(n, group)
    free = fixed.bit_count()
    counts = [math.comb(free, r) for r in range(free + 1)]
    for f in factors:
        counts = _times(counts, necklace_ranks(2, f.length, f.exponent))
    return tuple(counts)


def burnside_count(n: int, group: GroupSpec) -> int:
    """Exact orbit count of B_n under the group: the sum of rank_counts."""
    return sum(rank_counts(n, group))


class QuotientPoset:
    """Orbits of B_n under a cycle-power group, ranked by subset size.

    An orbit is its least mask: orbits is the tuple of those masks in (rank,
    mask) order, enumerated on first use by elements(), size() or covers().
    The size guard is checked at construction.  failing_runs(), orbit_size()
    and expected_size() list no orbit.  orbit_size(), like orbit_rep and
    _members, walks one mask and reads its images under each non-identity
    power of each generator from the chunk tables of GroupSpec._powers;
    failing_runs() reads the images of a whole slice of masks at once, packed
    in 32-bit lanes, through the shift masks of GroupSpec._shifts, derived
    from the same factors and pinned equal to the tables by the tests."""

    def __init__(self, n: int, group: GroupSpec):
        check_enum(n, QUOTIENT_LIMIT, "quotient_poset")
        self.n = n
        self.group = group
        self._fixed, _ = factorize(n, group)  # the points that no generator moves

    @functools.cached_property
    def orbits(self) -> tuple[int, ...]:
        """The least mask of each orbit, in (rank, mask) order: an ascending walk
        of the masks meets each orbit first at its least member, which goes into
        its rank's list, and marks the rest."""
        powers = self.group._powers
        seen = bytearray(1 << self.n)
        by_rank = [[] for _ in range(self.n + 1)]
        for a in range(1 << self.n):
            if not seen[a]:
                for x in _members(a, powers):
                    seen[x] = 1
                by_rank[a.bit_count()].append(a)
        return tuple(e for bucket in by_rank for e in bucket)

    @property
    def total_rank(self) -> int:
        return self.n

    def size(self) -> int:
        return len(self.orbits)

    def expected_size(self) -> int:
        return burnside_count(self.n, self.group)

    def elements(self):
        return iter(self.orbits)

    def orbit_size(self, e: int) -> int:
        """The number of masks in e's orbit: the product over the generators of
        e's period under each, the first power that returns it."""
        lo, hi, size = e & _LOW, e >> CHUNK_BITS, 1
        for _, tables in self.group._powers:
            size *= next((j for j, (t0, t1) in enumerate(tables, 1) if t0[lo] + t1[hi] == e), len(tables) + 1)
        return size

    rank = staticmethod(int.bit_count)

    def failing_runs(self, runs) -> list[int]:
        """The indices, ascending, of the runs that do not ascend: a run ascends iff
        every element is the least mask of its orbit and lies below the next.  The
        generators move disjoint supports: e is least iff no power of one lowers
        it, and a <= b iff a lies in b off their supports and, on each, in b or a
        power of it on b.  Whole runs are packed into slices of about _SLICE
        32-bit lanes of one integer, every element once, and each non-identity
        power's image of a slice is read with the shifts and masks of
        GroupSpec._shifts: with G bit 31 of every lane, ((Y | G) - X) & G keeps G
        where a lane of Y is not below X, and (G - Z) & G where a lane of Z is 0."""
        failing, batch, size, first = [], [], 0, 0
        repeat = _Repeats()
        for index, run in enumerate(runs):
            batch.append(tuple(run))
            size += len(batch[-1])
            if size >= _SLICE:
                failing += [first + i for i in self._failing_slice(batch, repeat)]
                batch, size, first = [], 0, index + 1
        if batch:
            failing += [first + i for i in self._failing_slice(batch, repeat)]
        return failing

    def _failing_slice(self, runs, repeat: "_Repeats") -> list[int]:
        """failing_runs on one slice of runs, by their positions in it."""
        bad = set()
        x = _packed(runs, self.n)
        if x is None:  # some element is not an int in [0, 2^n): the runs that hold one fail
            limit = 1 << self.n
            # type() rather than isinstance(): bool is an int subclass
            bad = {i for i, run in enumerate(runs) if not all(type(e) is int and 0 <= e < limit for e in run)}
            runs = [() if i in bad else run for i, run in enumerate(runs)]
            x = _packed(runs, self.n)
        lengths = list(map(len, runs))
        lanes = sum(lengths)
        if not lanes:
            return sorted(bad)
        # G on the first lane of each run, which no step ends at
        head = {k: b"\0\0\0\x80" + bytes(4 * k - 4) if k else b"" for k in set(lengths)}
        heads = int.from_bytes(b"".join(map(head.__getitem__, lengths)), "little")
        ones = repeat.fit(lanes)
        guard = ones << 31
        below = x << 32  # each lane's lower neighbour in the run, moved into its lane; masks drop the top
        part = below & self._fixed * ones
        steps = (guard - (part ^ part & x)) & guard  # G where the step into the lane holds so far
        ok = guard
        for support, powers in self.group._shifts:
            part = below & support * ones
            fits = (guard - (part ^ part & x)) & guard
            for moves in powers:
                y = _lane_image(x, [(repeat(mask), shift) for mask, shift in moves])
                ok &= ((y | guard) - x) & guard
                fits |= (guard - (part ^ part & y)) & guard
            steps &= fits
        ok &= steps | heads
        if ok != guard:
            starts = list(itertools.accumulate(lengths, initial=0))
            missed = ((guard ^ ok) >> 31).to_bytes(4 * lanes, "little")
            at = missed.find(1)
            while at >= 0:
                bad.add(bisect.bisect_right(starts, at // 4) - 1)
                at = missed.find(1, at + 4)
        return sorted(bad)

    def covers(self):
        """Comparable pairs at adjacent ranks (the Hasse diagram edges), by lower
        then upper element in (rank, mask) order."""
        for a in self.orbits:
            # the group acts by automorphisms: the orbits above are those of a plus one element
            uppers = {orbit_rep(a | 1 << i, self.group) for i in range(self.n) if not a >> i & 1}
            for upper in sorted(uppers):
                yield a, upper


def quotient_poset(n: int, group: GroupSpec) -> QuotientPoset:
    """The orbit poset of B_n under the group; guards n now, enumerates later."""
    return QuotientPoset(n, group)


def factorize(n: int, group: GroupSpec) -> tuple[int, tuple[CycleFactor, ...]]:
    """Split [n] into the mask of the group's fixed points and the cycle
    powers that rotate the rest.

    Each moved factor comes back as its cycle raised to gcd(exponent,
    length), which generates the same subgroup: the exponent is the local
    rotation step of the block's own quotient, which lives on [length] with
    position i + 1 standing for cycle[i].  Cycle powers that normalize to the
    identity leave their support fixed and are merged into the fixed mask.
    """
    check_ground(n)
    if group.n != n:
        raise ValueError("group is over a different ground set")
    fixed = full_mask(n)
    factors = []
    for f in group.factors:
        step = math.gcd(f.exponent, f.length)
        if step < f.length:
            factors.append(CycleFactor(f.cycle, step))
            fixed &= ~f.support_mask()
    return fixed, tuple(factors)


__all__ = [
    "CycleFactor",
    "GroupSpec",
    "ParseError",
    "QuotientPoset",
    "apply_perm",
    "burnside_count",
    "factorize",
    "necklace_ranks",
    "orbit_rep",
    "parse_group_spec",
    "perm_from_cycle_power",
    "quotient_poset",
    "rank_counts",
]
