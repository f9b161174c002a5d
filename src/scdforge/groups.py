"""Permutation groups generated by powers of disjoint cycles, and orbit posets.

A group is specified as a list of disjoint cycles, each raised to an integer
power; the generated group is the direct product of the cyclic subgroups, one
per cycle, because the supports are disjoint.  That structure keeps orbit
counting (Burnside) and factorization cheap and exact.
"""

from __future__ import annotations

import functools
import math

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
    The size guard is checked at construction.  ascends(), orbit_size() and
    expected_size() list no orbit: the first two read an element's images
    under each non-identity power of each generator from its chunk tables."""

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

    def ascends(self, elements) -> bool:
        """True iff every element is the least mask of its orbit and lies below the next.
        The generators move disjoint supports: e is least iff no power of one lowers it,
        and a <= b iff a lies in b off their supports and, on each, in a power of it on b.
        Each image is t0[lo] + t1[hi] for e's two chunk indices, taken once per element
        and not at all when no generator moves a point."""
        powers, limit, fixed = self.group._powers, 1 << self.n, self._fixed
        low, shift = _LOW, CHUNK_BITS
        below = 0
        for e in elements:
            if type(e) is not int or not 0 <= e < limit or below & fixed & ~e:
                return False
            if powers:
                lo, hi = e & low, e >> shift
                for support, tables in powers:
                    part = below & support
                    fits = not part & ~e
                    for t0, t1 in tables:
                        y = t0[lo] + t1[hi]
                        if y < e:
                            return False
                        fits = fits or not part & ~y
                    if not fits:
                        return False
            below = e
        return True

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
