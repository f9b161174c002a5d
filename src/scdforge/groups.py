"""Permutation groups generated by powers of disjoint cycles, and orbit posets.

A group is specified as a list of disjoint cycles, each raised to an integer
power; the generated group is the direct product of the cyclic subgroups, one
per cycle, because the supports are disjoint.  That structure keeps orbit
counting (Burnside) and factorization cheap and exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import QUOTIENT_LIMIT, bit_map, check_enum, check_ground, full_mask


class ParseError(ValueError):
    """Bad group-spec text or semantics; carries an optional position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class CycleFactor:
    """One generator: a cycle raised to a power."""

    cycle: tuple[int, ...]
    exponent: int = 1

    @property
    def length(self) -> int:
        return len(self.cycle)

    def order(self) -> int:
        return self.length // math.gcd(self.exponent, self.length)

    def support_mask(self) -> int:
        out = 0
        for e in self.cycle:
            out |= 1 << (e - 1)
        return out

    def text(self) -> str:
        body = "(" + " ".join(str(e) for e in self.cycle) + ")"
        return body if self.exponent == 1 else f"{body}^{self.exponent}"


@dataclass(frozen=True)
class GroupSpec:
    """Disjoint cycles with powers; generates a subgroup of S_n."""

    n: int
    factors: tuple[CycleFactor, ...]

    def __post_init__(self):
        check_ground(self.n)
        seen = 0
        for f in self.factors:
            if len(set(f.cycle)) != len(f.cycle):
                raise ParseError("element repeated in cycle")
            if any(e < 1 or e > self.n for e in f.cycle):
                raise ParseError("element out of range")
            if f.exponent < 0:
                raise ParseError("exponent must be nonnegative")
            support = f.support_mask()
            if support & seen:
                raise ParseError("cycles not disjoint")
            seen |= support

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

    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            perm_from_cycle_power(f.cycle, f.exponent, self.n)
            for f in self.factors
            if f.order() > 1
        )

    @functools.cached_property
    def _actions(self):
        # one mask action per generator, built on first use; not a field, so == and hash ignore it
        return tuple(_action(self.n, g) for g in self.generators())


@functools.lru_cache(maxsize=None)  # every GroupSpec with this generator on [n] shares one table set
def _action(n: int, perm: tuple[int, ...]):
    """The mask action of a permutation of [n], as a bit_map."""
    return bit_map(lambda a: apply_perm(perm, a), n)


def parse_group_spec(text: str, n: int) -> GroupSpec:
    """Parse cycle notation like "(1 2 3 4)^2 (5 6)" into a GroupSpec.

    Grammar: one or more terms, each '(' int+ ')' with an optional '^' uint;
    integers are 1-based.  Raises ParseError with the offending position.
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
        while i < size and text[i].isdecimal():
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


@dataclass(frozen=True)
class Orbit:
    """Equivalence class of subsets; rep is the numerically smallest mask."""

    rep: int
    size: int
    members: tuple[int, ...]


def _members(s: int, actions) -> list[int]:
    """The orbit of a subset, each member once.

    The generators have disjoint supports, so the group is the direct product
    of their cyclic groups: walking each generator's cycle from every member
    found so far reaches the whole orbit, and two members found before a
    generator never lie on one of its cycles.
    """
    members = [s]
    for act in actions:
        for i in range(len(members)):
            x = members[i]
            y = act(x)
            while y != x:
                members.append(y)
                y = act(y)
    return members


def orbit(s: int, group: GroupSpec) -> Orbit:
    """Closure of a subset under the group generators."""
    ordered = tuple(sorted(_members(s, group._actions)))
    return Orbit(ordered[0], len(ordered), ordered)


def orbit_rep(s: int, group: GroupSpec) -> int:
    """Smallest mask in the orbit of a subset."""
    return min(_members(s, group._actions))


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
    split = factorize(n, group)
    fixed = split.fixed.bit_count()
    counts = [math.comb(fixed, r) for r in range(fixed + 1)]
    for f in split.factors:
        counts = _times(counts, necklace_ranks(2, f.length, f.power))
    return tuple(counts)


def burnside_count(n: int, group: GroupSpec) -> int:
    """Exact orbit count of B_n under the group: the sum of rank_counts."""
    return sum(rank_counts(n, group))


class QuotientPoset:
    """Orbits of B_n under a cycle-power group, ranked by subset size.

    The orbits are enumerated on first use, by elements(), orbits or
    covers(); ascends() and expected_size() never enumerate them.  The size
    guard is checked at construction.  ascends() decides "a <= b" for
    consecutive elements by testing each member of a's orbit against b alone,
    which is valid because the group acts by automorphisms.
    """

    def __init__(self, n: int, group: GroupSpec):
        check_enum(n, QUOTIENT_LIMIT, "quotient_poset")
        if group.n != n:
            raise ValueError("group is over a different ground set")
        self.n = n
        self.group = group

    @functools.cached_property
    def orbits(self) -> tuple[Orbit, ...]:
        seen = bytearray(1 << self.n)
        orbits = []
        for a in range(1 << self.n):
            if seen[a]:
                continue
            o = orbit(a, self.group)
            for x in o.members:
                seen[x] = 1
            orbits.append(o)
        orbits.sort(key=lambda o: (o.rep.bit_count(), o.rep))
        return tuple(orbits)

    @functools.cached_property
    def orbits_by_rank(self) -> tuple[tuple[Orbit, ...], ...]:
        by_rank: list[list[Orbit]] = [[] for _ in range(self.n + 1)]
        for o in self.orbits:
            by_rank[o.rep.bit_count()].append(o)
        return tuple(tuple(bucket) for bucket in by_rank)

    @property
    def total_rank(self) -> int:
        return self.n

    def size(self) -> int:
        return len(self.orbits)

    def expected_size(self) -> int:
        return burnside_count(self.n, self.group)

    def elements(self):
        return (o.rep for o in self.orbits)

    def rank(self, rep: int) -> int:
        return rep.bit_count()

    def ascends(self, elements) -> bool:
        """True iff every element is the least mask of its orbit and each
        lies below the next; one walk of each element's orbit answers both."""
        actions, limit = self.group._actions, 1 << self.n
        below = None
        for e in elements:
            if type(e) is not int or not 0 <= e < limit:
                return False
            members = _members(e, actions)
            if min(members) != e:
                return False
            if below is not None:
                for x in below:
                    if x | e == e:
                        break
                else:
                    return False
            below = members
        return True

    def covers(self):
        """Comparable pairs at adjacent ranks (the Hasse diagram edges)."""
        for r in range(self.n):
            for lower in self.orbits_by_rank[r]:
                # the group acts by automorphisms: the orbits above are those of rep plus one element
                a = lower.rep
                uppers = {orbit_rep(a | 1 << i, self.group) for i in range(self.n) if not a >> i & 1}
                for upper in sorted(uppers):
                    yield a, upper


def quotient_poset(n: int, group: GroupSpec) -> QuotientPoset:
    """The orbit poset of B_n under the group; guards n now, enumerates later."""
    return QuotientPoset(n, group)


@dataclass(frozen=True)
class SplitFactor:
    """One moved block of the ground set with its local rotation step.

    The block's local quotient lives on [length], where position i + 1 stands
    for the element cycle[i], so the cycle order is the relabeling.
    """

    cycle: tuple[int, ...]
    length: int
    power: int
    support: int


@dataclass(frozen=True)
class Factorization:
    """Fixed points plus the moved blocks of a cycle-power group."""

    fixed: int
    factors: tuple[SplitFactor, ...]


def factorize(n: int, group: GroupSpec) -> Factorization:
    """Split [n] into the group's fixed points and the supports it rotates.

    Cycle powers that normalize to the identity leave their support fixed and
    are merged into the fixed block; each remaining factor carries the
    normalized local step for its own quotient.
    """
    check_ground(n)
    if group.n != n:
        raise ValueError("group is over a different ground set")
    fixed = full_mask(n)
    split = []
    for f in group.factors:
        # the subgroup generated by a cycle power depends only on gcd(exponent, length)
        power = math.gcd(f.exponent, f.length)
        if power == f.length:
            continue
        support = f.support_mask()
        split.append(SplitFactor(f.cycle, f.length, power, support))
        fixed &= ~support
    return Factorization(fixed, tuple(split))


__all__ = [
    "CycleFactor",
    "Factorization",
    "GroupSpec",
    "Orbit",
    "ParseError",
    "QuotientPoset",
    "SplitFactor",
    "apply_perm",
    "burnside_count",
    "factorize",
    "necklace_ranks",
    "orbit",
    "orbit_rep",
    "parse_group_spec",
    "perm_from_cycle_power",
    "quotient_poset",
    "rank_counts",
]
