"""Subsets as bitmasks, chains, decompositions, and the chain-product assembly.

Ground sets are [n] = {1, ..., n}; element i is stored as bit i-1 of a Python
int, so the rank of a subset is its popcount and a subset reads left-to-right
as the binary word b_1 b_2 ... b_n.  Everything here is an immutable value and
every function is pure, so results can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

MASK_WIDTH_LIMIT = 64   # subsets stay machine-word sized
ENUM_LIMIT = 28         # operations that walk all of B_n refuse beyond this
QUOTIENT_LIMIT = 22     # operations that also build orbit structure
CHUNK_BITS = 11         # two chunks cover QUOTIENT_LIMIT; a table has at most 2048 entries


class ResourceLimitError(RuntimeError):
    """An operation would enumerate more than its guard allows."""


def check_ground(n: int) -> None:
    if n < 1:
        raise ValueError(f"ground set size must be >= 1, got {n}")
    if n > MASK_WIDTH_LIMIT:
        raise ValueError(f"ground set size capped at {MASK_WIDTH_LIMIT}, got {n}")


def check_enum(n: int, limit: int, what: str) -> None:
    check_ground(n)
    if n > limit:
        raise ResourceLimitError(f"{what} enumerates all of B_n and is capped at n <= {limit}, got {n}")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def rank(s: int) -> int:
    """Number of elements of the subset (popcount)."""
    return s.bit_count()


def mask_of(elements) -> int:
    """Mask of a collection of 1-based elements."""
    out = 0
    for e in elements:
        out |= 1 << (e - 1)
    return out


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def bit_string(mask: int, n: int) -> str:
    """Render as the binary word b_1 b_2 ... b_n."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def set_string(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


@dataclass(frozen=True)
class Chain:
    """Ascending run of poset elements together with their ranks.

    Constructors produce saturated chains (consecutive ranks); the type stays
    permissive so the verifier can represent and then reject broken chains.
    """

    elements: tuple
    ranks: tuple[int, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("empty chain")
        if len(self.elements) != len(self.ranks):
            raise ValueError("chain elements and ranks differ in length")

    @classmethod
    def from_masks(cls, masks) -> "Chain":
        masks = tuple(masks)
        return cls(masks, tuple(m.bit_count() for m in masks))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def bottom(self):
        return self.elements[0]

    @property
    def top(self):
        return self.elements[-1]

    def is_saturated(self) -> bool:
        return all(b == a + 1 for a, b in zip(self.ranks, self.ranks[1:]))


def is_symmetric_chain(chain: Chain, total_rank: int) -> bool:
    """True iff the chain is saturated and its end ranks sum to the poset rank."""
    return chain.is_saturated() and chain.ranks[0] + chain.ranks[-1] == total_rank


@dataclass(frozen=True)
class GridChain:
    """Saturated ascending walk through a rectangular grid, by (x, y) cell."""

    cells: tuple[tuple[int, int], ...]

    def __len__(self):
        return len(self.cells)


def hook_chains(a: int, b: int) -> list[GridChain]:
    """Partition the grid {0..a} x {0..b} into min(a, b)+1 symmetric hooks.

    Hook i walks (i,0), (i,1), ..., (i,b-i), then (i+1,b-i), ..., (a,b-i); it
    spans grid ranks i through a+b-i.  This is the classic symmetric chain
    decomposition of a product of two chains (de Bruijn-Tengbergen-Kruyswijk).
    """
    if a < 0 or b < 0:
        raise ValueError("grid sides must be nonnegative")
    hooks = []
    for i in range(min(a, b) + 1):
        cells = [(i, y) for y in range(b - i + 1)]
        cells += [(x, b - i) for x in range(i + 1, a + 1)]
        hooks.append(GridChain(tuple(cells)))
    return hooks


@dataclass(frozen=True)
class Context:
    """Descriptor of the poset a decomposition lives in."""

    kind: str            # boolean | quotient | reflection | chainpower | product
    total_rank: int
    n: int | None = None
    group: str | None = None
    k: int | None = None
    m: int | None = None
    r: int | None = None
    factors: tuple[tuple[int, int, int], ...] | None = None


@dataclass(frozen=True)
class Decomposition:
    """A family of chains claimed to partition a ranked poset symmetrically."""

    chains: tuple[Chain, ...]
    context: Context

    def element_count(self) -> int:
        return sum(len(c) for c in self.chains)

    def chain_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.chains)

    def iter_elements(self):
        for c in self.chains:
            yield from c.elements

    def rank_counts(self) -> tuple[int, ...]:
        counts = [0] * (self.context.total_rank + 1)
        for c in self.chains:
            for r in c.ranks:
                counts[r] += 1
        return tuple(counts)


def _chain_key(chain: Chain):
    return (chain.ranks[0], chain.elements[0])


def make_decomposition(chains, context: Context) -> Decomposition:
    """Assemble a decomposition in the canonical chain order.

    Chains are sorted by (rank of bottom element, bottom element) so that the
    same construction always serializes to the same bytes.
    """
    return Decomposition(tuple(sorted(chains, key=_chain_key)), context)


def map_elements(decomp: Decomposition, fn, context: Context | None = None) -> Decomposition:
    """Apply a rank-preserving relabeling to every element of a decomposition."""
    chains = tuple(Chain(tuple(fn(e) for e in c.elements), c.ranks) for c in decomp.chains)
    return Decomposition(chains, context if context is not None else decomp.context)


def _chunk_tables(fn, n: int) -> list[tuple]:
    """fn of every value of each CHUNK_BITS-wide chunk of [n], in place."""
    return [
        tuple(fn(v << lo) for v in range(1 << min(CHUNK_BITS, n - lo)))
        for lo in range(0, n, CHUNK_BITS)
    ]


def bit_map(fn, n: int):
    """Table-driven form of an additive map on masks of [n].

    fn(a | b) must equal fn(a) + fn(b) for disjoint a and b, as it does when
    fn sends disjoint masks to disjoint images (then + is |) or adds a value
    per bit.  fn is evaluated once on every value of each CHUNK_BITS-wide
    chunk of [n]; the returned function adds one table lookup per chunk, so
    at most two for n <= QUOTIENT_LIMIT.
    """
    tables = _chunk_tables(fn, n)
    low, shift = (1 << CHUNK_BITS) - 1, CHUNK_BITS
    if len(tables) == 1:
        return tables[0].__getitem__
    if len(tables) == 2:
        t0, t1 = tables
        return lambda mask: t0[mask & low] + t1[mask >> shift]

    def apply(mask: int) -> int:
        out = 0
        for table in tables:
            out += table[mask & low]
            mask >>= shift
        return out

    return apply


def element_text(n: int):
    """Table-driven form of ",".join(map(str, elements_of(mask))) as ASCII
    bytes, for masks of [n].

    Each CHUNK_BITS-wide chunk has one table of comma-joined element numbers,
    already offset by the chunk's position; the returned function joins the
    non-empty lookups, lowest chunk first, with b",".
    """
    tables = _chunk_tables(lambda a: ",".join(map(str, elements_of(a))).encode(), n)
    low = (1 << CHUNK_BITS) - 1
    if len(tables) == 1:
        return tables[0].__getitem__
    if len(tables) == 2:
        t0, t1 = tables

        def two(mask: int) -> bytes:
            a, b = t0[mask & low], t1[mask >> CHUNK_BITS]
            return a + b"," + b if a and b else a or b

        return two

    def text(mask: int) -> bytes:
        parts = []
        for table in tables:
            part = table[mask & low]
            if part:
                parts.append(part)
            mask >>= CHUNK_BITS
        return b",".join(parts)

    return text


def relabel_map(targets):
    """The mask map moving local bit i to ambient bit targets[i], as a bit_map."""
    return bit_map(lambda a: sum(1 << t for i, t in enumerate(targets) if a >> i & 1), len(targets))


def relabel(decomp: Decomposition, targets) -> Decomposition:
    """Move local bit i of every mask element to ambient bit targets[i]."""
    return map_elements(decomp, relabel_map(targets))


def structural_problems(decomp: Decomposition) -> list[str]:
    """Cheap intrinsic checks: saturation, symmetry, no repeated elements.

    Coverage and comparability need the target poset and are the verifier's
    job; this catches malformed inputs to the product assembly.
    """
    problems = []
    total = decomp.context.total_rank
    seen = set()
    for c in decomp.chains:
        if not c.is_saturated():
            problems.append(f"chain {c.elements!r} is not saturated")
        if c.ranks[0] + c.ranks[-1] != total:
            problems.append(f"chain {c.elements!r} is not symmetric for rank {total}")
        for e in c.elements:
            if e in seen:
                problems.append(f"element {e!r} appears twice")
            seen.add(e)
    return problems


def product_scd(dp: Decomposition, dq: Decomposition) -> Decomposition:
    """Symmetric chain decomposition of a product of two decomposed posets.

    Every pair of chains spans a rectangle, which the hooks split into
    symmetric chains; elements of the result are (p, q) pairs and ranks add.
    """
    for d in (dp, dq):
        problems = structural_problems(d)
        if problems:
            raise ValueError("invalid input decomposition: " + problems[0])
    total = dp.context.total_rank + dq.context.total_rank
    chains = []
    for c in dp.chains:
        for d in dq.chains:
            for hook in hook_chains(len(c) - 1, len(d) - 1):
                elems = tuple((c.elements[x], d.elements[y]) for x, y in hook.cells)
                ranks = tuple(c.ranks[x] + d.ranks[y] for x, y in hook.cells)
                chains.append(Chain(elems, ranks))
    return make_decomposition(chains, Context(kind="product", total_rank=total))


def fold_products(parts, join) -> Decomposition:
    """Fold decompositions left to right with the hook product, merging each
    (p, q) element pair into one element with join(p, q)."""
    combined = parts[0]
    for part in parts[1:]:
        paired = product_scd(combined, part)
        combined = map_elements(paired, lambda e: join(e[0], e[1]), paired.context)
    return combined


__all__ = [
    "Chain",
    "Context",
    "Decomposition",
    "GridChain",
    "ResourceLimitError",
    "bit_map",
    "bit_string",
    "element_text",
    "elements_of",
    "fold_products",
    "full_mask",
    "hook_chains",
    "is_symmetric_chain",
    "make_decomposition",
    "map_elements",
    "mask_of",
    "product_scd",
    "rank",
    "relabel",
    "relabel_map",
    "set_string",
    "structural_problems",
]
