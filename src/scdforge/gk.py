"""Greene-Kleitman bracketing and the canonical SCD of the subset lattice.

Read a subset of [n] left to right as a binary word: members act like closing
brackets, non-members like opening ones, and each member is matched to the
nearest unmatched non-member on its left.  The matched members and their
partners are frozen along a chain; the free positions drive it: the successor
map adds the smallest free non-member, the predecessor map removes the largest
free member.  Iterating both ways from any subset yields its chain, and the
chains partition B_n into symmetric chains.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (
    Chain,
    Context,
    Decomposition,
    ENUM_LIMIT,
    check_enum,
    check_ground,
    elements_of,
    full_mask,
    make_decomposition,
    relabel,
)


def _matched_masks(a: int, n: int) -> tuple[int, int]:
    # single left-to-right scan; the stack holds unmatched non-member bits
    matched_in = 0
    matched_out = 0
    stack = []
    for i in range(n):
        bit = 1 << i
        if a & bit:
            if stack:
                matched_out |= stack.pop()
                matched_in |= bit
        else:
            stack.append(bit)
    return matched_in, matched_out


@dataclass(frozen=True)
class Pairing:
    """Bracket matching of one subset: who is matched, and to whom.

    partner maps each matched member to the non-member it closes; the mask
    paired_members collects the keys and paired_nonmembers the values.
    """

    n: int
    subset: int
    partner: dict[int, int]
    paired_members: int
    paired_nonmembers: int

    @property
    def paired(self) -> int:
        return self.paired_members | self.paired_nonmembers


def pairing(a: int, n: int) -> Pairing:
    """Match every member of the subset to the nearest free smaller non-member."""
    check_ground(n)
    if a & ~full_mask(n):
        raise ValueError("subset has bits outside the ground set")
    partner = {}
    matched_in = 0
    matched_out = 0
    stack = []
    for x in range(1, n + 1):
        bit = 1 << (x - 1)
        if a & bit:
            if stack:
                y = stack.pop()
                partner[x] = y
                matched_in |= bit
                matched_out |= 1 << (y - 1)
        else:
            stack.append(x)
    return Pairing(n, a, partner, matched_in, matched_out)


def successor(a: int, n: int) -> int | None:
    """Add the smallest element that is neither in the subset nor matched to a member.

    Returns None at the top of the chain (every non-member is matched).
    """
    _, matched_out = _matched_masks(a, n)
    free = full_mask(n) & ~(a | matched_out)
    if not free:
        return None
    return a | (free & -free)


def predecessor(b: int, n: int) -> int | None:
    """Remove the largest unmatched member; None at the bottom of the chain."""
    matched_in, _ = _matched_masks(b, n)
    free = b & ~matched_in
    if not free:
        return None
    return b & ~(1 << (free.bit_length() - 1))


def chain_of(a: int, n: int) -> Chain:
    """The full chain through a subset, by iterating predecessor then successor."""
    check_ground(n)
    if a & ~full_mask(n):
        raise ValueError("subset has bits outside the ground set")
    down = []
    cur = a
    while (prev := predecessor(cur, n)) is not None:
        down.append(prev)
        cur = prev
    elems = down[::-1] + [a]
    cur = a
    while (nxt := successor(cur, n)) is not None:
        elems.append(nxt)
        cur = nxt
    return Chain.from_masks(elems)


@dataclass(frozen=True)
class GkScd:
    """The Greene-Kleitman SCD of B_n with a subset -> (chain, position) index.

    Chains are ordered by decreasing length; equal lengths are ordered by
    ascending bottom mask so the whole structure is reproducible.
    """

    n: int
    chains: tuple[Chain, ...]
    index: dict[int, tuple[int, int]]

    @property
    def chain_count(self) -> int:
        return len(self.chains)

    def locate(self, mask: int) -> tuple[int, int]:
        try:
            return self.index[mask]
        except KeyError:
            raise ValueError(f"subset {mask} is not over this ground set") from None

    def chain_index(self, mask: int) -> int:
        return self.locate(mask)[0]

    def chain_containing(self, mask: int) -> Chain:
        return self.chains[self.chain_index(mask)]


@functools.lru_cache(maxsize=None)
def gk_scd(n: int) -> GkScd:
    """Build the Greene-Kleitman SCD of B_n by growing chains from their bottoms."""
    check_enum(n, ENUM_LIMIT, "gk_scd")
    chains = []
    for a in range(1 << n):
        matched_in, _ = _matched_masks(a, n)
        if a & ~matched_in:
            continue  # has a free member, so it is not a chain bottom
        elems = [a]
        cur = a
        while (nxt := successor(cur, n)) is not None:
            elems.append(nxt)
            cur = nxt
        chains.append(Chain.from_masks(elems))
    chains.sort(key=lambda c: (c.ranks[0], c.elements[0]))
    index = {}
    for ci, chain in enumerate(chains):
        for pos, mask in enumerate(chain.elements):
            index[mask] = (ci, pos)
    if len(index) != 1 << n:
        raise AssertionError("chains do not partition the subset lattice")
    return GkScd(n, tuple(chains), index)


def gk_decomposition(n: int) -> Decomposition:
    """The Greene-Kleitman SCD packaged as a decomposition of B_n."""
    scd = gk_scd(n)
    context = Context(kind="boolean", total_rank=n, n=n)
    return make_decomposition(scd.chains, context)


def boolean_scd_on_support(support: int) -> Decomposition:
    """The Greene-Kleitman SCD of the Boolean lattice over an arbitrary
    support mask, with elements written in the ambient ground set."""
    positions = [e - 1 for e in elements_of(support)]
    return relabel(gk_decomposition(len(positions)), positions)


def partner(x: int, chain: Chain) -> int:
    """Mirror member of a symmetric chain: the element at rank N - rank(x)."""
    bottom = chain.ranks[0]
    total = bottom + chain.ranks[-1]
    pos = x.bit_count() - bottom
    if not 0 <= pos < len(chain) or chain.elements[pos] != x:
        raise ValueError(f"subset {x} is not on the chain")
    return chain.elements[total - x.bit_count() - bottom]


__all__ = [
    "GkScd",
    "Pairing",
    "boolean_scd_on_support",
    "chain_of",
    "gk_decomposition",
    "gk_scd",
    "pairing",
    "partner",
    "predecessor",
    "successor",
]
