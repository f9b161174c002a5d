"""Quotients of B_n by rotation groups, by pruning the Greene-Kleitman chains.

For the group generated by rotation-by-step (step dividing n), walk the
Greene-Kleitman chains in order: select a chain when one of its members lies
in an orbit untouched by the previously selected chains, then cut it down to
the members whose orbits miss the previously kept pieces.  A selected chain
leaves every orbit it meets kept, so one mark per subset, "its orbit has a
kept member", decides both.  The pass streams the chains from their bottoms,
sorted by (rank, bottom), and grows each one only while scanning it, so the
whole Greene-Kleitman SCD (gk_scd) is never built; the marks are a bytearray
over the 2^n masks up to QUOTIENT_LIMIT and, beyond it, over the k^m level
tuples of a chain power.  The kept pieces project to a symmetric chain
decomposition of the quotient.  Arbitrary products of disjoint cycle powers
reduce to this: split off the fixed points, quotient each rotated block
locally, and recombine with the hook product.
"""

from __future__ import annotations

import functools
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
    elements_of,
    fold_products,
    make_decomposition,
    map_elements,
    relabel_map,
)
from .gk import ChainBottoms, boolean_scd_on_support
from .groups import CycleFactor, GroupSpec, _members, burnside_count, factorize, orbit_rep, parse_group_spec, quotient_poset
from .verify import certify


class ConsistencyError(RuntimeError):
    """The pruned family violated one of its own guarantees (never expected)."""


@functools.lru_cache(maxsize=None)  # every caller shares one GroupSpec and its action tables
def rotation_group(n: int, step: int) -> GroupSpec:
    """The subgroup of S_n generated by the step-th power of the full rotation."""
    return GroupSpec(n, (CycleFactor(tuple(range(1, n + 1)), step),))


class PrunedChain(_Record):
    """A selected Greene-Kleitman chain, its kept piece, and the projection."""

    __slots__ = ("source", "kept", "orbits")

    def __init__(self, source: int, kept: Chain, orbits: Chain):
        _set(self, "source", source)  # index into the list of chains that was pruned
        _set(self, "kept", kept)      # surviving subsets, still a symmetric chain in B_n
        _set(self, "orbits", orbits)  # the same piece written as canonical orbit representatives


class PrunedFamily(_Record):
    """The pieces one greedy pass selected, in the order it scanned them."""

    __slots__ = ("chains",)

    def __init__(self, chains: tuple[PrunedChain, ...]):
        _set(self, "chains", chains)


def prune_chains(bottoms: ChainBottoms, step: int, expected: int) -> PrunedFamily:
    """The greedy pass over the chains of `bottoms`, in their order, against
    rotation by step.

    A chain is selected when some member's orbit under rotation by step misses
    every previously selected chain in full; its kept piece consists of the
    members whose orbits miss the pieces kept so far.  A chain's members lie
    in distinct orbits, so a selected chain leaves every orbit it meets kept:
    one mark per subset ("its orbit has a kept member") decides selection and
    pruning, and each orbit is walked once.  Each chain is grown from its
    bottom while it is scanned, and a Chain is built only for a kept piece.
    The marks are a bytearray over the 2^n masks up to QUOTIENT_LIMIT, and
    beyond it, where only chain powers reach, one over the power's level
    tuples.  Self-check: every kept piece is a symmetric chain, no orbit is
    covered twice, and the pieces cover `expected` orbits, all those of the
    chains' union.
    """
    n = bottoms.n
    if step < 1 or n % step:
        raise ValueError(f"rotation step must divide the ground size, got {step} for n={n}")
    actions = rotation_group(n, step)._actions
    if n <= QUOTIENT_LIMIT:  # at most 4 MB, indexed by the mask itself
        marks, index = bytearray(1 << n), None
    else:  # k^m <= 2^QUOTIENT_LIMIT bytes, indexed by the level tuple
        marks, index = bytearray((bottoms.width + 1) ** (n // bottoms.width)), _level_index(n, bottoms.width)
    kept_reps: set[int] = set()
    picked = []
    for ci, (a, free) in enumerate(bottoms.pairs):
        kept = []
        while True:  # up the chain: add the free positions left to right
            if not marks[a if index is None else index(a)]:
                kept.append(a)
            if not free:
                break
            low = free & -free
            a |= low
            free ^= low
        if not kept:
            continue
        reps = []
        for a in kept:
            members = _members(a, actions)
            for x in members if index is None else map(index, members):
                marks[x] = 1
            reps.append(min(members))
        kept_reps.update(reps)
        kept_chain = Chain.from_masks(kept)
        picked.append(PrunedChain(ci, kept_chain, Chain(tuple(reps), kept_chain.ranks)))
    kept_total = 0
    for pc in picked:
        ranks = pc.kept.ranks
        if any(b != a + 1 for a, b in zip(ranks, ranks[1:])):
            raise ConsistencyError(f"kept piece of chain {pc.source} is not saturated")
        if ranks[0] + ranks[-1] != n:
            raise ConsistencyError(f"kept piece of chain {pc.source} is not symmetric")
        kept_total += len(ranks)
    if kept_total != len(kept_reps):
        raise ConsistencyError("kept pieces cover an orbit twice")
    if kept_total != expected:
        raise ConsistencyError(f"covered {kept_total} orbits but the quotient has {expected}")
    return PrunedFamily(tuple(picked))


def _level_index(n: int, width: int):
    """The base-(width+1) number of a blockwise monotone word's level tuple.

    Level i is the popcount of block i, so every member bit adds its block's
    place value, and the index is the additive bit_map of those place values.
    """
    k = width + 1
    return bit_map(lambda a: sum(k ** ((e - 1) // width) for e in elements_of(a)), n)


def quotient_scd_cyclic(n: int, step: int) -> Decomposition:
    """SCD of B_n modulo rotation by step (normalized to gcd(step, n)).

    step = n is the trivial group, for which the Greene-Kleitman chains come
    back unchanged with singleton orbits.
    """
    check_enum(n, QUOTIENT_LIMIT, "quotient_scd_cyclic")
    if step < 1:
        raise ValueError("rotation step must be positive")
    return _quotient_cyclic(n, math.gcd(step, n))


@functools.lru_cache(maxsize=None)  # repeated factor shapes of quotient_scd build once
def _quotient_cyclic(n: int, step: int) -> Decomposition:
    group = rotation_group(n, step)
    family = prune_chains(ChainBottoms(n), step, burnside_count(n, group))
    context = Context(kind="quotient", total_rank=n, n=n, group=group.text())
    return make_decomposition([pc.orbits for pc in family.chains], context)


def quotient_scd(n: int, group: GroupSpec | str) -> Decomposition:
    """SCD of B_n modulo a group generated by powers of disjoint cycles.

    Fixed points contribute a plain Boolean factor and every rotated block a
    cyclic quotient, whose elements are moved onto the block and renamed to
    the least member of their orbit under that block's rotation; the factors
    are folded with the hook product, and the result is certified against the
    orbit poset before returning.
    """
    check_enum(n, QUOTIENT_LIMIT, "quotient_scd")
    if isinstance(group, str):
        group = parse_group_spec(group, n)
    if group.n != n:
        raise ValueError("group is over a different ground set")
    split = factorize(n, group)
    parts = []
    if split.fixed:
        parts.append(boolean_scd_on_support(split.fixed))
    for f in split.factors:
        move = relabel_map([e - 1 for e in f.cycle])
        factor_group = GroupSpec(n, (CycleFactor(f.cycle, f.power),))
        part = quotient_scd_cyclic(f.length, f.power)
        parts.append(map_elements(part, lambda a, move=move, g=factor_group: orbit_rep(move(a), g)))
    # the supports are disjoint, so a | b == a + b and the orbit of a union is
    # every union of factor orbit members: its least member is the union of
    # the factors' least members, and naming before the fold is naming after
    combined = fold_products(parts, operator.or_)
    context = Context(kind="quotient", total_rank=n, n=n, group=group.text())
    return certify(quotient_poset(n, group), make_decomposition(combined.chains, context))


__all__ = [
    "ConsistencyError",
    "PrunedChain",
    "PrunedFamily",
    "prune_chains",
    "quotient_scd",
    "quotient_scd_cyclic",
    "rotation_group",
]
