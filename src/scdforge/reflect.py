"""Quotients of B_n by an involution that is a product of disjoint transpositions.

Split off the fixed points and relabel the 2k moved elements so the involution
reverses the word.  An orbit is then an unordered pair of half-words {u v^rev,
v u^rev} and can be named by the ordered pair (u, v) where u comes before v in
a total order built from an SCD of the half cube: earlier chain first, and
containment within a chain.  Pairs drawn from two different chains fill a full
rectangle, which the hooks decompose; pairs drawn from one chain form a
staircase triangle, which peels into symmetric border chains.  half_blocks is
the one walk over these blocks, each pair of chains with its grids.

Each cell (u, v) is written straight as its orbit in the ambient ground set
through two half-word tables: L puts u on the moved elements of the first
half, R puts v, reversed, on those of the second, and the orbit's name is
min(L[u] | R[v], L[v] | R[u]), the smaller of the word and its mirror.
"""

from __future__ import annotations

import operator

from .core import (
    Chain,
    Context,
    Decomposition,
    QUOTIENT_LIMIT,
    ResourceLimitError,
    check_enum,
    check_ground,
    full_mask,
    hook_chains,
    make_decomposition,
    product_scd,
    relabel_map,
)
from .gk import ChainBottoms, boolean_scd_on_support
from .groups import CycleFactor, GroupSpec, QuotientPoset, parse_group_spec, quotient_poset
from .verify import certify


def scd_of_diagonal_block(side: int) -> list[tuple[tuple[int, int], ...]]:
    """Peel the staircase triangle {(x, y): 0 <= x <= y <= side} into
    symmetric borders, each given as its tuple of (x, y) cells.

    Each pass walks the top row then the right column of the remaining
    triangle and strips two off the side length, giving floor(side/2)+1
    chains for a chain of side+1 half-words.
    """
    if side < 0:
        raise ValueError("staircase side must be nonnegative")
    chains = []
    for d in range(side // 2 + 1):
        lo, hi = d, side - d
        cells = [(lo, y) for y in range(lo, hi + 1)]
        cells += [(x, hi) for x in range(lo + 1, hi + 1)]
        chains.append(tuple(cells))
    return chains


def half_blocks(k: int):
    """The blocks of the half cube B_k: for each pair of its chains i <= j,
    in the order of ChainBottoms(k), the two chains and the grids that split
    the block's cells (x, y), the pairs of their x-th and y-th half-words.

    Two chains fill a rectangle, split by the hooks; one chain, yielded as
    the same object on both sides, fills the staircase x <= y, peeled by
    scd_of_diagonal_block.  Each chain is grown once and each grid built
    once per shape.  The blocks hold (4^k + 2^k)/2 cells, so k is capped at
    half of the largest reflection's n before any chain grows.
    """
    check_ground(k)
    if k > QUOTIENT_LIMIT // 2:
        raise ResourceLimitError(f"half_blocks walks the (4^k + 2^k)/2 = {(4 ** k + 2 ** k) // 2} cells of B_k x B_k"
                                 f" and is capped at k <= {QUOTIENT_LIMIT // 2}, got k = {k}")
    chains = list(ChainBottoms(k))
    shapes = {}
    for i, ci in enumerate(chains):
        for cj in chains[i:]:
            shape = (len(ci) - 1, len(cj) - 1, ci is cj)
            grids = shapes.get(shape)
            if grids is None:
                grids = shapes[shape] = scd_of_diagonal_block(shape[0]) if ci is cj else hook_chains(*shape[:2])
            yield ci, cj, grids


def standard_reflection(n: int) -> GroupSpec:
    """The involution (1 n)(2 n-1)... reversing the word of length n."""
    pairs = tuple(CycleFactor((i, n + 1 - i)) for i in range(1, n // 2 + 1))
    return GroupSpec(n, pairs)


def _transpositions(group: GroupSpec) -> list[tuple[int, int]]:
    pairs = []
    for f in group.factors:
        if f.order() == 1:
            continue  # normalizes to the identity
        if f.length != 2:
            raise ValueError("not a product of disjoint transpositions")
        pairs.append((min(f.cycle), max(f.cycle)))
    pairs.sort()
    return pairs


def involution_group(n: int, pairs) -> GroupSpec:
    """The 2-element group {1, rho} written as a power of one cycle.

    For rho = (a_1 b_1)...(a_k b_k), the 2k-cycle listing a_1..a_k b_1..b_k
    raised to the k-th power equals rho, so the generated group is exactly
    {1, rho}.  This is the form the cycle-power machinery understands; note
    that listing the transpositions as separate generators would generate a
    group of order 2^k instead.
    """
    pairs = list(pairs)
    if not pairs:
        return GroupSpec.trivial(n)
    cycle = tuple(a for a, _ in pairs) + tuple(b for _, b in pairs)
    return GroupSpec(n, (CycleFactor(cycle, len(pairs)),))


def reflection_poset(n: int, rho: GroupSpec) -> QuotientPoset:
    """The quotient of B_n by the involution rho: the orbit poset of the
    group {1, rho}, the target of every reflection decomposition."""
    return quotient_poset(n, involution_group(n, _transpositions(rho)))


def _orbit_chains(targets) -> list[Chain]:
    """The chains of the half-word blocks over the moved elements, each cell
    (u, v) written as its orbit's name: u goes on targets[:k], the reverse of
    v on targets[k:], and the name is the smaller of that word and its mirror.
    Each half-cube chain is relabelled once, keyed by its bottom, when the
    walk's first row meets it; the half-cube chains are saturated, so a cell
    chain's bottom rank is its first cell's."""
    k = len(targets) // 2
    left, right = relabel_map(targets[:k]), relabel_map(targets[::-1][:k])
    sides = {}
    chains = []
    for ci, cj, grids in half_blocks(k):
        if cj.elements[0] not in sides:
            sides[cj.elements[0]] = tuple(map(left, cj.elements)), tuple(map(right, cj.elements))
        (left_i, right_i), (left_j, right_j) = sides[ci.elements[0]], sides[cj.elements[0]]
        for grid in grids:
            names = tuple([a if (a := left_i[x] | right_j[y]) < (b := left_j[y] | right_i[x]) else b for x, y in grid])
            x, y = grid[0]
            chains.append(Chain(names, ci.rank + cj.rank + x + y))
    return chains


def reflection_scd(n: int, rho: GroupSpec | str) -> Decomposition:
    """SCD of B_n modulo an involution given as disjoint transpositions.

    Factors that normalize to the identity (1-cycles, even powers of a
    transposition) are dropped; anything else of length other than 2 is
    rejected.  With no transposition left the quotient is B_n itself.
    """
    check_enum(n, QUOTIENT_LIMIT, "reflection_scd")
    if isinstance(rho, str):
        rho = parse_group_spec(rho, n)
    if rho.n != n:
        raise ValueError("involution is over a different ground set")
    pairs = _transpositions(rho)
    context = Context(kind="reflection", total_rank=n, n=n, group=rho.text())
    if not pairs:
        return certify(reflection_poset(n, rho), Decomposition(tuple(ChainBottoms(n)), context))
    # local pair t (1-based) is (t, 2k+1-t), so the involution reverses the word
    targets = [a - 1 for a, _ in pairs] + [b - 1 for _, b in reversed(pairs)]
    chains = _orbit_chains(targets)
    fixed = full_mask(n) & ~sum(1 << t for t in targets)
    if fixed:
        # rho fixes the fixed block, which is disjoint from the moved support, so
        # naming before the fold is the same as naming after: a|f < b|f iff a < b
        moved = Decomposition(tuple(chains), Context(kind="reflection", total_rank=len(targets)))
        combined = product_scd(moved, boolean_scd_on_support(fixed), join=operator.or_)
        return certify(reflection_poset(n, rho), Decomposition(combined.chains, context))  # already in canonical order
    return certify(reflection_poset(n, rho), make_decomposition(chains, context))


__all__ = [
    "half_blocks",
    "involution_group",
    "reflection_poset",
    "reflection_scd",
    "scd_of_diagonal_block",
    "standard_reflection",
]
