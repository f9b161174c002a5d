"""Powers of a finite chain inside B_n and their coordinate-rotation quotients.

The m-th power of a k-level chain embeds in B_((k-1)m) as the blockwise
monotone words: the i-th block of k-1 bits holds the i-th coordinate's level
as ones followed by zeros.  Rotating coordinates by r steps agrees with
rotating the whole word by (k-1)r, and every Greene-Kleitman chain of the
ambient lattice stays inside the embedded power or misses it, as its bottom
does, so pruning only the chains grown from bottoms inside the power against
that rotation gives the ambient quotient's pruned decomposition restricted to
the chain power, without building the ambient lattice.  The bottoms come from
gk.ChainBottoms with blocks of k-1 bits, and the pass is prune.prune_chains,
the one the quotients of B_n run, rotating by r whole blocks: it names each
element by its base-k level number, coordinate 0 most significant, whose
integer order is the lexicographic order of level tuples, so the least number
of an orbit is its canonical tuple, decoded once per orbit.
"""

from __future__ import annotations

import itertools
import math
import operator

from .core import (
    Chain,
    Context,
    Decomposition,
    QUOTIENT_LIMIT,
    ResourceLimitError,
    check_ground,
    make_decomposition,
    product_scd,
)
from . import prune
from .gk import ChainBottoms
from .groups import necklace_ranks
from .verify import certify


def _check_shape(k: int, m: int, r: int = 1) -> int:
    # type() rather than isinstance(): bool is an int subclass
    if any(type(x) is not int for x in (k, m, r)):
        raise ValueError(f"levels, multiplicity and rotation step must be integers, got {(k, m, r)!r}")
    if k < 2:
        raise ValueError(f"chain must have at least 2 levels, got {k}")
    if m < 1:
        raise ValueError(f"multiplicity must be at least 1, got {m}")
    if r < 1:
        raise ValueError("rotation step must be positive")
    return (k - 1) * m


def _check_element_count(triples) -> None:
    """Refuse a product of chain powers with more than 2^QUOTIENT_LIMIT
    level tuples, multiplying one level count at a time so that a huge
    multiplicity is refused without computing k**m."""
    limit = 1 << QUOTIENT_LIMIT
    count = 1
    for k, m, _ in triples:
        for _ in range(m):
            count *= k
            if count > limit:
                raise ResourceLimitError(f"chain powers are capped at 2^{QUOTIENT_LIMIT} elements")


def level_mask(levels, k: int) -> int:
    """Embed a tuple of levels as a blockwise monotone word."""
    out = 0
    offset = 0
    for lv in levels:
        if not 0 <= lv <= k - 1:
            raise ValueError(f"level {lv} out of range for a {k}-level chain")
        out |= ((1 << lv) - 1) << offset
        offset += k - 1
    return out


def canonical_levels(u: tuple[int, ...], step: int) -> tuple[int, ...]:
    """Lexicographically least rotation of the tuple by multiples of step,
    which are those of gcd(step, len(u))."""
    return min(u[j:] + u[:j] for j in range(0, len(u), math.gcd(step, len(u))))


class ChainPowerTarget:
    """Rotation quotient of the m-fold power of a k-level chain.

    Elements are canonical level tuples; the order test rotates one side and
    compares componentwise, independent of any construction and of prune.
    """

    def __init__(self, k: int, m: int, r: int):
        _check_shape(k, m, r)
        _check_element_count([(k, m, r)])
        self.k = k
        self.m = m
        self.step = math.gcd(r, m)
        self.total_rank = (k - 1) * m
        self._width = (k - 1).bit_length() // 8 + 1  # bytes per level, top bit free
        self._guard = int.from_bytes((b"\x80" + bytes(self._width - 1)) * m, "big")

    def elements(self):
        for u in itertools.product(range(self.k), repeat=self.m):
            if canonical_levels(u, self.step) == u:
                yield u

    def rank(self, u) -> int:
        return sum(u)

    def ascends(self, tuples) -> bool:
        """True iff every element is a canonical level tuple and each lies
        below the next.  Each tuple is read once as bytes, `_width` per level
        so that every level's top bit is free, and its rotations are the
        windows of the doubled string read as big-endian numbers, ordered as
        the tuples are.  With G the top bit of every level, x <= u
        componentwise iff ((u | G) - x) & G == G: no level borrows."""
        k, m, width, guard = self.k, self.m, self._width, self._guard
        size, stride = 8 * width * m, 8 * width * self.step
        full = (1 << size) - 1
        below = None
        for u in tuples:
            # {int} also refuses True and 1.0, which compare equal to 1
            if type(u) is not tuple or len(u) != m or set(map(type, u)) != {int} or min(u) < 0 or max(u) >= k:
                return False
            b = bytes(u) if width == 1 else b"".join([v.to_bytes(width, "big") for v in u])
            twice = int.from_bytes(b + b, "big")
            turns = [twice >> s & full for s in range(size, 0, -stride)]  # u first
            if min(turns) != turns[0]:
                return False
            if below is not None:
                top = turns[0] | guard
                for x in below:
                    if (top - x) & guard == guard:
                        break
                else:
                    return False
            below = turns
        return True

    def expected_size(self) -> int:
        return sum(necklace_ranks(self.k, self.m, self.step))


def chainpower_scd(k: int, m: int, r: int = 1) -> Decomposition:
    """SCD of the rotation quotient of a chain power, certified against its
    ChainPowerTarget.

    Grow only the Greene-Kleitman chains that lie inside the embedded power,
    prune them against rotation by r blocks, and report elements as canonical
    level tuples.  The target caps the power at 2^QUOTIENT_LIMIT elements,
    and the ambient ground at the mask width, before any chain is grown.
    """
    target = ChainPowerTarget(k, m, r)
    n, step = target.total_rank, target.step
    check_ground(n)
    # by the dichotomy these are exactly the Greene-Kleitman chains inside the power; keep
    # only the orbit pieces, so that the kept pieces are freed before any tuple is built
    family = prune.prune_chains(ChainBottoms(n, k - 1), step)
    orbits = [pc.orbits for pc in family.chains]
    del family
    # an orbit's least level number is its least tuple in lexicographic order,
    # the canonical one: read its digits through the digit tuples of its top
    # and bottom halves, which itertools.product lists in numeric order
    cut = k ** (m // 2)
    top, bottom = (list(itertools.product(range(k), repeat=d)) for d in (m - m // 2, m // 2))
    chains = [Chain(tuple([top[x // cut] + bottom[x % cut] for x in c.elements]), c.rank) for c in orbits]
    del orbits, top, bottom  # freed before the certificate builds its universe
    context = Context(kind="chainpower", total_rank=n, k=k, m=m, r=step)
    return certify(target, make_decomposition(chains, context))


def check_dichotomy(k: int, m: int) -> bool:
    """True iff every ambient Greene-Kleitman chain is inside or disjoint
    from the embedded chain power."""
    n = _check_shape(k, m)
    if n > 18:
        raise ResourceLimitError(f"dichotomy scan is capped at (k-1)m <= 18, got {n}")
    inside = {level_mask(u, k) for u in itertools.product(range(k), repeat=m)}
    for chain in ChainBottoms(n):
        flags = [a in inside for a in chain.elements]
        if any(flags) and not all(flags):
            return False
    return True


def _normalize_factors(factors) -> tuple[tuple[int, int, int], ...]:
    normalized = []
    for item in factors:
        try:
            k, m, r = item
        except (TypeError, ValueError):
            raise ValueError(f"factor {item!r} is not a (levels, multiplicity, rotation) triple") from None
        _check_shape(k, m, r)
        normalized.append((k, m, math.gcd(r, m)))
    if not normalized:
        raise ValueError("at least one factor is required")
    return tuple(normalized)


def chainproduct_scd(factors) -> Decomposition:
    """SCD of a product of chain-power rotation quotients, certified against
    its ChainProductTarget.

    Each factor (k, m, r) contributes its own certified quotient; factors are
    folded with the hook product and elements are the concatenated level
    tuples.  The target checks the factors and their element count first.
    """
    target = ChainProductTarget(factors)
    parts = [chainpower_scd(k, m, r) for k, m, r in target.triples]
    combined = product_scd(*parts, join=operator.add)
    context = Context(kind="product", total_rank=combined.context.total_rank, factors=target.triples)
    return certify(target, Decomposition(combined.chains, context))  # already in canonical order


class ChainProductTarget:
    """Product of chain-power quotients over concatenated level tuples."""

    def __init__(self, factors):
        self.triples = _normalize_factors(factors)
        _check_element_count(self.triples)
        self.parts = [ChainPowerTarget(k, m, r) for k, m, r in self.triples]
        self.total_rank = sum(t.total_rank for t in self.parts)

    def elements(self):
        pools = [list(p.elements()) for p in self.parts]
        for combo in itertools.product(*pools):
            yield tuple(itertools.chain.from_iterable(combo))

    def rank(self, u) -> int:
        return sum(u)

    def ascends(self, tuples) -> bool:
        """True iff every element is a tuple of the full length and each
        part's sequence ascends in its own target; x <= x holds there, so a
        part may stay put while another rises."""
        size = sum(part.m for part in self.parts)
        for u in tuples:
            if type(u) is not tuple or len(u) != size:
                return False
        i = 0
        for part in self.parts:
            if not part.ascends([u[i : i + part.m] for u in tuples]):
                return False
            i += part.m
        return True

    def expected_size(self) -> int:
        out = 1
        for p in self.parts:
            out *= p.expected_size()
        return out


__all__ = [
    "ChainPowerTarget",
    "ChainProductTarget",
    "canonical_levels",
    "chainpower_scd",
    "chainproduct_scd",
    "check_dichotomy",
    "level_mask",
]
