"""Quotients of B_n by cycle-power groups, by pruning the Greene-Kleitman chains.

For the group generated by rotation-by-step (step dividing n), walk the
Greene-Kleitman chains in order: select a chain when one of its members lies
in an orbit untouched by the previously selected chains, then cut it down to
the members whose orbits miss the previously kept pieces.  A selected chain
leaves every orbit it meets kept, so one mark per element, "its orbit has a
kept member", decides both.  The pass streams the chains from their bottoms,
sorted by (rank, bottom), and grows each one only while scanning it, so the
whole Greene-Kleitman SCD (gk_scd) is never built.  It names each element
by its base-k level number, in which the rotation is a digit rotation (for
B_n, k = 2 and the word b_1...b_n read in binary), and its marks are one
bytearray indexed by that name.  The kept pieces project to a symmetric chain
decomposition of the quotient.  quotient_scd builds every quotient by disjoint
cycle powers, a rotation being one cycle: split off the fixed points, prune
each rotated block on its own ground set, and recombine with the hook product.
"""

from __future__ import annotations

import math
import operator

from .core import _Record, _set
from .core import (
    Chain,
    Context,
    Decomposition,
    QUOTIENT_LIMIT,
    bit_map,
    check_enum,
    map_elements,
    product_scd,
    relabel_map,
)
from .gk import ChainBottoms, boolean_scd_on_support
from .groups import CycleFactor, GroupSpec, factorize, necklace_ranks, orbit_rep, parse_group_spec, quotient_poset
from .verify import certify


class ConsistencyError(RuntimeError):
    """The pruned family violated one of its own guarantees (never expected)."""


def rotation_group(n: int, step: int) -> GroupSpec:
    """The subgroup of S_n generated by the step-th power of the full rotation,
    a new GroupSpec per call: its action tables live and die with it."""
    return GroupSpec(n, (CycleFactor(tuple(range(1, n + 1)), step),))


class PrunedChain(_Record):
    """A selected Greene-Kleitman chain, its kept piece, and the projection."""

    __slots__ = ("source", "kept", "orbits")

    def __init__(self, source: int, kept: Chain, orbits: Chain):
        _set(self, "source", source)  # index into the list of chains that was pruned
        _set(self, "kept", kept)      # surviving elements by name, still a symmetric chain
        _set(self, "orbits", orbits)  # the same piece written as its orbits' least names


class PrunedFamily(_Record):
    """The pieces one greedy pass selected, in the order it scanned them."""

    __slots__ = ("chains",)

    def __init__(self, chains: tuple[PrunedChain, ...]):
        _set(self, "chains", chains)


def prune_chains(bottoms: ChainBottoms, shift: int) -> PrunedFamily:
    """The greedy pass over the chains of `bottoms`, in their order, against
    rotation by `shift` whole blocks.

    A chain is selected when some member's orbit misses every previously
    selected chain in full; its kept piece consists of the members whose
    orbits miss the pieces kept so far.  A chain's members lie in distinct
    orbits, so a selected chain leaves every orbit it meets kept: one mark
    per element ("its orbit has a kept member") decides selection and
    pruning, and each orbit is walked once.  An element is named by its
    base-(width+1) level number, coordinate 0 most significant, so that the
    rotation turns digits and integer order is the lexicographic order of
    level tuples; for B_n (width 1) that is the word b_1...b_n read in
    binary.  A chain grows from its bottom's name by each free bit's place
    value.  The orbits number sum(necklace_ranks(width + 1, blocks, shift)):
    once the kept pieces cover that many and every element is marked, the
    chains left cannot be selected and are not scanned.  Self-check: every
    kept piece is a symmetric chain, no orbit is covered twice, and the
    pieces cover every orbit.
    """
    n, width = bottoms.n, bottoms.width
    base, digits = width + 1, n // width
    if not 0 < shift <= digits or digits % shift:
        raise ValueError(f"rotation must divide the number of blocks, got {shift} for {digits}")
    expected = sum(necklace_ranks(base, digits, shift))
    name = _level_number(n, width)
    place = {1 << b: name(1 << b) for b in range(n)}
    cut, lift = base ** (digits - shift), base**shift  # x -> x % cut * lift + x // cut turns shift digits
    marks = bytearray(base**digits)
    picked = []
    covered = 0
    mask = (1 << n) - 1
    for ci, p in enumerate(bottoms.packed):
        a, free = p >> n & mask, p & mask
        x, rest, kept, above = name(a), free, [], []
        while True:  # up the chain: add the free positions left to right
            if not marks[x]:
                kept.append(x)
                above.append(rest)  # the free positions above x; its rank is the top's less their count
            if not rest:
                break
            low = rest & -rest
            rest ^= low
            x += place[low]
        if not kept:
            continue
        top = a.bit_count() + free.bit_count()
        first, last = top - above[0].bit_count(), top - above[-1].bit_count()
        if last - first != len(kept) - 1:
            raise ConsistencyError(f"kept piece of chain {ci} is not saturated")
        if first + last != n:
            raise ConsistencyError(f"kept piece of chain {ci} is not symmetric")
        reps = []
        for x in kept:
            if marks[x]:  # the walk from an earlier member of this piece reached x
                raise ConsistencyError("kept pieces cover an orbit twice")
            marks[x] = 1
            least, y = x, x % cut * lift + x // cut
            while y != x:
                marks[y] = 1
                if y < least:
                    least = y
                y = y % cut * lift + y // cut
            reps.append(least)
        picked.append(PrunedChain(ci, Chain(tuple(kept), first), Chain(tuple(reps), first)))
        covered += len(kept)
        if covered == expected and 0 not in marks:
            break  # every element is marked, so no later chain can be selected
    if covered != expected:
        raise ConsistencyError(f"covered {covered} orbits but the quotient has {expected}")
    return PrunedFamily(tuple(picked))


def _level_number(n: int, width: int):
    """The base-(width+1) number of a blockwise monotone word's levels,
    coordinate 0 most significant: each member bit adds its block's place."""
    k, m = width + 1, n // width
    return bit_map(lambda bit: k ** (m - 1 - (bit.bit_length() - 1) // width), n)


def quotient_scd_cyclic(n: int, step: int) -> Decomposition:
    """SCD of B_n modulo rotation by step (normalized to gcd(step, n)): the
    quotient_scd of that rotation group, certified with it.

    step = n is the trivial group, for which the Greene-Kleitman chains come
    back unchanged with singleton orbits.
    """
    check_enum(n, QUOTIENT_LIMIT, "quotient_scd_cyclic")
    if step < 1:
        raise ValueError("rotation step must be positive")
    return quotient_scd(n, rotation_group(n, math.gcd(step, n)))


def quotient_scd(n: int, group: GroupSpec | str) -> Decomposition:
    """SCD of B_n modulo a group generated by powers of disjoint cycles.

    Fixed points contribute a plain Boolean factor and every rotated block its
    own pruned Greene-Kleitman chains, whose orbits are moved onto the block
    and renamed to the least member of their orbit under the group, whose
    other generators fix the block's points; the factors are folded with the
    hook product, and the result is certified against the orbit poset.
    """
    check_enum(n, QUOTIENT_LIMIT, "quotient_scd")
    if isinstance(group, str):
        group = parse_group_spec(group, n)
    fixed, factors = factorize(n, group)
    parts = []
    if fixed:
        parts.append(boolean_scd_on_support(fixed))
    for f in factors:
        family = prune_chains(ChainBottoms(f.length), f.exponent)
        part = Decomposition(tuple(pc.orbits for pc in family.chains), Context(kind="quotient", total_rank=f.length))
        move = relabel_map([e - 1 for e in reversed(f.cycle)])  # level bit i stands for cycle[length - 1 - i]
        parts.append(map_elements(part, lambda a, move=move: orbit_rep(move(a), group)))
    # the supports are disjoint, so a | b == a + b and the orbit of a union is
    # every union of factor orbit members: its least member is the union of
    # the factors' least members, and naming before the fold is naming after
    combined = product_scd(*parts, join=operator.or_)
    context = Context(kind="quotient", total_rank=n, n=n, group=group.text())
    return certify(quotient_poset(n, group), Decomposition(combined.chains, context))  # already in canonical order


__all__ = [
    "ConsistencyError",
    "PrunedChain",
    "PrunedFamily",
    "prune_chains",
    "quotient_scd",
    "quotient_scd_cyclic",
    "rotation_group",
]
