"""Subsets as bitmasks, chains, decompositions, and the chain-product assembly.

Ground sets are [n] = {1, ..., n}; element i is stored as bit i-1 of a Python
int, so the rank of a subset is its popcount and a subset reads left-to-right
as the binary word b_1 b_2 ... b_n.  Everything here is an immutable value and
every function is pure, so results can be shared freely across threads.
"""

from __future__ import annotations

from itertools import accumulate

MASK_WIDTH_LIMIT = 64   # subsets stay machine-word sized
QUOTIENT_LIMIT = 22     # operations that enumerate B_n or its orbits refuse beyond this
CHUNK_BITS = 11         # two chunks cover QUOTIENT_LIMIT: a mask's image is two lookups; 2048 entries at most


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


def mask_of(elements) -> int:
    """Mask of a collection of 1-based elements."""
    out = 0
    for e in elements:
        out |= 1 << (e - 1)
    return out


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a mask; a negative mask raises ValueError."""
    if mask < 0:
        raise ValueError(f"mask must be >= 0, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def bit_string(mask: int, n: int) -> str:
    """Render as the binary word b_1 b_2 ... b_n: bin() of the low n bits under a marker bit, reversed."""
    return bin(mask & (1 << n) - 1 | 1 << n)[:2:-1] if n > 0 else ""


def set_string(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


_set = object.__setattr__  # a record's __init__ writes each field once with it


class _Record:
    """Base of the immutable value records.  The fields are the __slots__ but "__dict__";
    equality (same class only), hash, repr, copy and pickle go over them in order, and
    assigning or deleting one raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Chain(_Record):
    """Ascending run of poset elements and the rank of its bottom element.

    Every construction produces saturated chains, so element i has rank
    rank + i, and that is what the record means.  Beyond refusing an empty
    chain the type stays permissive, so the verifier can hold a broken chain
    and reject it; the verifier never reads rank.
    """

    __slots__ = ("elements", "rank")

    def __init__(self, elements: tuple, rank: int):
        if not elements:
            raise ValueError("empty chain")
        _set(self, "elements", elements)
        _set(self, "rank", rank)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def hook_chains(a: int, b: int) -> list[tuple[tuple[int, int], ...]]:
    """Partition the grid {0..a} x {0..b} into min(a, b)+1 symmetric hooks,
    each a saturated ascending walk given as its tuple of (x, y) cells.

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
        hooks.append(tuple(cells))
    return hooks


class Context(_Record):
    """Descriptor of the poset a decomposition lives in."""

    __slots__ = ("kind", "total_rank", "n", "group", "k", "m", "r", "factors")

    def __init__(self, kind: str, total_rank: int, n: int | None = None, group: str | None = None, k: int | None = None,
                 m: int | None = None, r: int | None = None, factors: tuple[tuple[int, int, int], ...] | None = None):
        _set(self, "kind", kind)  # boolean | quotient | reflection | chainpower | product
        _set(self, "total_rank", total_rank)
        _set(self, "n", n)
        _set(self, "group", group)
        _set(self, "k", k)
        _set(self, "m", m)
        _set(self, "r", r)
        _set(self, "factors", factors)


class Decomposition(_Record):
    """A family of chains claimed to partition a ranked poset symmetrically."""

    __slots__ = ("chains", "context")

    def __init__(self, chains: tuple[Chain, ...], context: Context):
        _set(self, "chains", chains)
        _set(self, "context", context)

    def element_count(self) -> int:
        return sum([len(c.elements) for c in self.chains])

    def chain_sizes(self) -> tuple[int, ...]:
        return tuple([len(c.elements) for c in self.chains])

    def rank_counts(self) -> tuple[int, ...]:
        """The profile the chain records claim, each chain once at every rank
        from its bottom's up; a decoded chain need not be saturated, so verify
        counts a failing document's elements at their own ranks.  A chain
        whose claimed ranks run past total_rank, or start below 0, raises
        ValueError.  Each chain adds 1 at its bottom's rank and takes it back
        one above its top, and the prefix sums of those steps are the counts:
        one pass over the chain records."""
        total = self.context.total_rank
        steps = [0] * (total + 2)
        for c in self.chains:
            above = c.rank + len(c.elements)
            if c.rank < 0:
                raise ValueError(f"chain {c.elements!r} claims ranks {c.rank}..{above - 1} below rank 0")
            if above > total + 1:
                raise ValueError(f"chain {c.elements!r} claims ranks {c.rank}..{above - 1} past the top rank {total}")
            steps[c.rank] += 1
            steps[above] -= 1
        return tuple(accumulate(steps[:-1]))


def _chain_key(chain: Chain):
    return (chain.rank, chain.elements[0])


def make_decomposition(chains, context: Context) -> Decomposition:
    """Assemble a decomposition in the canonical chain order.

    Chains are sorted by (rank of bottom element, bottom element) so that the
    same construction always serializes to the same bytes.
    """
    return Decomposition(tuple(sorted(chains, key=_chain_key)), context)


def map_elements(decomp: Decomposition, fn) -> Decomposition:
    """Apply a rank-preserving relabeling to every element of a decomposition."""
    chains = tuple(Chain(tuple(fn(e) for e in c.elements), c.rank) for c in decomp.chains)
    return Decomposition(chains, decomp.context)


def chunk_tables(fn, n: int) -> list[list]:
    """One table per CHUNK_BITS-wide chunk of [n], lowest chunk first, of an
    additive map on masks: table i holds fn of every mask of chunk i.  There
    are at least two, so exactly two up to QUOTIENT_LIMIT bits: below 12 bits
    the high chunk is empty and its table holds only the empty image.

    fn(a | b) must equal fn(a) + fn(b) for disjoint a and b, as it does when
    fn sends disjoint masks to disjoint images (then + is |), adds a value
    per bit, or writes a text per bit (then + concatenates in bit order).
    fn is evaluated on single bits only, in order: each chunk's table starts
    from the empty image images[0] * 0 (0 for n = 0) and doubles once per bit.
    """
    images = [fn(1 << b) for b in range(n)]
    empty = images[0] * 0 if images else 0
    tables = []
    for lo in range(0, max(n, CHUNK_BITS + 1), CHUNK_BITS):
        table = [empty]
        for image in images[lo : lo + CHUNK_BITS]:
            table += [v + image for v in table]
        tables.append(table)
    return tables


def bit_map(fn, n: int):
    """Table-driven form of an additive map on masks of [n], from its
    chunk_tables: the returned function adds one table lookup per chunk, so
    two for n <= QUOTIENT_LIMIT.
    """
    tables = chunk_tables(fn, n)
    low, shift = (1 << CHUNK_BITS) - 1, CHUNK_BITS
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
    """Table-driven writer of a chain of masks of [n]: its JSON array of
    element arrays as ASCII bytes, each mask written as
    ",".join(map(str, elements_of(mask))).

    The tables are chunk_tables of the map sending element e's bit to b",e":
    entry m of table i holds b"," before each element number of chunk i's
    mask m.  With two chunks, the low table drops its leading commas, each
    mask is t0[low] + t1[high] in one list per chain, and one replace per
    chain drops the comma of a mask whose low chunk is empty.  Beyond two,
    each mask joins its lookups and drops the first comma.
    """
    tables = chunk_tables(lambda bit: b",%d" % bit.bit_length(), n)
    low, shift = (1 << CHUNK_BITS) - 1, CHUNK_BITS
    if len(tables) == 2:
        t0, t1 = [t[1:] for t in tables[0]], tables[1]

        def two(masks) -> bytes:
            text = b"[[" + b"],[".join([t0[e & low] + t1[e >> shift] for e in masks]) + b"]]"
            return text.replace(b"[,", b"[")  # only a mask with an empty low chunk starts with a comma

        return two

    def text(mask: int) -> bytes:
        parts = []
        for table in tables:
            parts.append(table[mask & low])
            mask >>= shift
        return b"".join(parts)[1:]

    return lambda masks: b"[[" + b"],[".join(map(text, masks)) + b"]]"


def relabel_map(targets):
    """The mask map moving local bit i to ambient bit targets[i], as a bit_map."""
    return bit_map(lambda bit: 1 << targets[bit.bit_length() - 1], len(targets))


def structural_problems(decomp: Decomposition) -> list[str]:
    """Cheap intrinsic checks: symmetry and no repeated elements.  A chain
    record is saturated by what it means, its ranks running up from its
    bottom's.

    Coverage and comparability need the target poset and are the verifier's
    job; this catches malformed inputs to the product assembly.
    """
    problems = []
    total = decomp.context.total_rank
    seen = set()
    for c in decomp.chains:
        if 2 * c.rank + len(c) - 1 != total:
            problems.append(f"chain {c.elements!r} is not symmetric for rank {total}")
        for e in c.elements:
            if e in seen:
                problems.append(f"element {e!r} appears twice")
            seen.add(e)
    return problems


def product_scd(first: Decomposition, *rest: Decomposition, join=lambda p, q: (p, q)) -> Decomposition:
    """Symmetric chain decomposition of a product of decomposed posets, folded
    left to right.  Every pair of chains spans a rectangle, which the hooks
    split into symmetric chains; cell (x, y) holds join(p[x], q[y]), by default
    the pair, and ranks add.  Each factor is checked once, up front, and the
    chains are sorted once, at the end; the product is not certified.
    """
    factors = (first, *rest)
    for d in factors:
        problems = structural_problems(d)
        if problems:
            raise ValueError("invalid input decomposition: " + problems[0])
    chains = first.chains
    for part in rest:
        grids, folded = {}, []  # one hook grid per shape
        for c in chains:
            for d in part.chains:
                p, q, shape = c.elements, d.elements, (len(c.elements) - 1, len(d.elements) - 1)
                if shape not in grids:
                    grids[shape] = hook_chains(*shape)
                for hook in grids[shape]:
                    x, y = hook[0]
                    folded.append(Chain(tuple([join(p[a], q[b]) for a, b in hook]), c.rank + d.rank + x + y))
        chains = folded
    return make_decomposition(chains, Context(kind="product", total_rank=sum(d.context.total_rank for d in factors)))


__all__ = [
    "Chain",
    "Context",
    "Decomposition",
    "ResourceLimitError",
    "bit_map",
    "bit_string",
    "chunk_tables",
    "element_text",
    "elements_of",
    "full_mask",
    "hook_chains",
    "make_decomposition",
    "map_elements",
    "mask_of",
    "product_scd",
    "relabel_map",
    "set_string",
]
