"""Greene-Kleitman bracketing and the canonical SCD of the subset lattice.

Read a subset of [n] left to right as a binary word: members act like closing
brackets, non-members like opening ones, and each member is matched to the
nearest unmatched non-member on its left.  The matched members and their
partners are frozen along a chain; the free positions drive it: the successor
map adds the smallest free non-member, the predecessor map removes the largest
free member.  Each chain is grown from its bottom, the subset whose members
are all matched, by adding the free positions left to right; the chains
partition B_n into symmetric chains.

ChainBottoms lists each chain's bottom and free positions packed in one int,
in chain order, restricted to blockwise monotone bottoms for a chain power,
and grows a chain only when it is asked for; the greedy pruning pass streams
from it.  gk_scd is the boolean Decomposition of every chain of
ChainBottoms(n), grown in that order, which is already the canonical one; it
guards n and certifies the chains against B_n before returning, builds them
anew on every call, and serves only the gk command (as gk_decomposition) and
the demos.  Quotients, reflections, chain powers and chainpow.check_dichotomy
grow their chains from ChainBottoms without that certificate.
"""

from __future__ import annotations

from itertools import islice

from .core import _Record, _set
from .core import (
    Chain,
    Context,
    Decomposition,
    check_ground,
    elements_of,
    full_mask,
    map_elements,
    relabel_map,
)
from .groups import GroupSpec, quotient_poset
from .verify import certify


class Pairing(_Record):
    """Bracket matching of one subset: who is matched, and to whom.

    partner maps each matched member to the non-member it closes; the mask
    paired_members collects the keys and paired_nonmembers the values.
    """

    __slots__ = ("n", "subset", "partner", "paired_members", "paired_nonmembers")

    def __init__(self, n: int, subset: int, partner: dict[int, int], paired_members: int, paired_nonmembers: int):
        _set(self, "n", n)
        _set(self, "subset", subset)
        _set(self, "partner", partner)
        _set(self, "paired_members", paired_members)
        _set(self, "paired_nonmembers", paired_nonmembers)

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
    free = full_mask(n) & ~(a | pairing(a, n).paired_nonmembers)
    if not free:
        return None
    return a | (free & -free)


def predecessor(b: int, n: int) -> int | None:
    """Remove the largest unmatched member; None at the bottom of the chain."""
    free = b & ~pairing(b, n).paired_members
    if not free:
        return None
    return b & ~(1 << (free.bit_length() - 1))


def _grow(bottom: int, free: int) -> Chain:
    # the chain from its bottom: add the free positions left to right
    elems, rank = [bottom], bottom.bit_count()
    while free:
        low = free & -free
        bottom |= low
        elems.append(bottom)
        free ^= low
    return Chain(tuple(elems), rank)


def chain_of(a: int, n: int) -> Chain:
    """The full chain through a subset: its matched members grown by its free positions."""
    p = pairing(a, n)
    return _grow(p.paired_members, full_mask(n) & ~p.paired)


_SLICE = 1 << 12  # prefixes rewritten at a time by _bottoms


def _bottoms(n: int, width: int) -> list[int]:
    """The sorted list of (rank << n | bottom) << n | free for every subset
    of [n] whose members are all matched and whose blocks of width bits are
    each ones followed by zeros; bottom is that subset, rank its size.

    Words are built left to right, one position at a time for every prefix
    at once, each prefix packed as its word will be, with its unclosed
    non-members in place of the free positions.  A member may only close the
    nearest unclosed non-member, and one at a position that does not start a
    block may only follow a member.  The non-members still open at the end
    are the free positions.  Width 1 puts no block constraint: every bottom
    of B_n.  The list of prefixes is the only one held whole: the prefixes
    that take a member are appended from a generator, and those that take a
    non-member are rewritten in place, a slice at a time.
    """
    low, one = full_mask(n), 1 << 2 * n
    words = [0]
    for i in range(n):
        m, bit, close = len(words), 1 << i, one | 1 << n + i  # close: one more member, at position i
        if i % width == 0:
            words.extend(w + close - (1 << (w & low).bit_length() - 1) for w in islice(words, m) if w & low)
        else:
            words.extend(w + close - (1 << (w & low).bit_length() - 1)
                         for w in islice(words, m) if w & low and w >> n + i - 1 & 1)
        for lo in range(0, m, _SLICE):
            hi = min(lo + _SLICE, m)
            # | and not +: an int made by + keeps room for a carry digit, 48 bytes in place of 32 at n = 20
            words[lo:hi] = [w | bit for w in words[lo:hi]]
    words.sort()
    return words


class ChainBottoms:
    """The chains grown from the bottoms of _bottoms(n, width), each grown
    only when it is asked for.

    packed holds each chain as one int p = (rank << n | bottom) << n | free,
    a third of the memory of a tuple of two, sorted: the order of (rank,
    bottom), which is the canonical chain order of a decomposition and so
    the order of gk_scd(n).chains.  p >> n & mask is the bottom and p & mask
    the free positions, mask = 2^n - 1.  Item i is chain i, grown on demand;
    `chains` is the object itself, so that code reading a pass's source as a
    Decomposition (scd.chains[i]) grows only chain i.
    """

    def __init__(self, n: int, width: int = 1):
        self.n = n
        self.width = width
        self.packed = _bottoms(n, width)

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, i: int) -> Chain:
        n, p = self.n, self.packed[i]
        return _grow(p >> n & full_mask(n), p & full_mask(n))

    @property
    def chains(self) -> "ChainBottoms":
        return self


def gk_scd(n: int) -> Decomposition:
    """The Greene-Kleitman SCD of B_n: every chain of ChainBottoms(n), grown,
    in its (rank, bottom) order, certified against B_n as the quotient by the
    trivial group, whose construction guards n before any chain is grown."""
    target = quotient_poset(n, GroupSpec.trivial(n))
    return certify(target, Decomposition(tuple(ChainBottoms(n)), Context(kind="boolean", total_rank=n, n=n)))


gk_decomposition = gk_scd  # the construct API's name for gk_scd: the same function object


def boolean_scd_on_support(support: int) -> Decomposition:
    """The Greene-Kleitman SCD of the Boolean lattice over an arbitrary
    support mask, with elements written in the ambient ground set.  The
    chains are grown from ChainBottoms and not certified: this is a factor
    that quotient_scd and reflection_scd fold and then certify."""
    positions = [e - 1 for e in elements_of(support)]
    f = len(positions)
    decomp = Decomposition(tuple(ChainBottoms(f)), Context(kind="boolean", total_rank=f, n=f))
    return map_elements(decomp, relabel_map(positions))


def partner(x: int, chain: Chain) -> int:
    """Mirror member of a symmetric chain: the element at rank N - rank(x),
    as many steps below the top as x is above the bottom."""
    pos = x.bit_count() - chain.rank
    if not 0 <= pos < len(chain) or chain.elements[pos] != x:
        raise ValueError(f"subset {x} is not on the chain")
    return chain.elements[len(chain) - 1 - pos]


__all__ = [
    "ChainBottoms",
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
