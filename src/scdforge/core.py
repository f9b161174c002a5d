"""Subsets as bitmasks, chains, decompositions, and the chain-product assembly.

Ground sets are [n] = {1, ..., n}; element i is stored as bit i-1 of a Python
int, so the rank of a subset is its popcount and a subset reads left-to-right
as the binary word b_1 b_2 ... b_n.  Everything here is an immutable value and
every function is pure, so results can be shared freely across threads.
"""

from __future__ import annotations

MASK_WIDTH_LIMIT = 64   # subsets stay machine-word sized
ENUM_LIMIT = 28         # operations that walk all of B_n refuse beyond this
QUOTIENT_LIMIT = 22     # operations that also build orbit structure
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
        return sum(len(c) for c in self.chains)

    def chain_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.chains)

    def rank_counts(self) -> tuple[int, ...]:
        """The profile the chain records claim, each chain once at every rank
        from its bottom's up; a decoded chain need not be saturated, so verify
        counts a document's elements at their own ranks."""
        counts = [0] * (self.context.total_rank + 1)
        for c in self.chains:
            for r in range(c.rank, c.rank + len(c)):
                counts[r] += 1
        return tuple(counts)


def _chain_key(chain: Chain):
    return (chain.rank, chain.elements[0])


def make_decomposition(chains, context: Context) -> Decomposition:
    """Assemble a decomposition in the canonical chain order.

    Chains are sorted by (rank of bottom element, bottom element) so that the
    same construction always serializes to the same bytes.
    """
    return Decomposition(tuple(sorted(chains, key=_chain_key)), context)


def map_elements(decomp: Decomposition, fn, context: Context | None = None) -> Decomposition:
    """Apply a rank-preserving relabeling to every element of a decomposition."""
    chains = tuple(Chain(tuple(fn(e) for e in c.elements), c.rank) for c in decomp.chains)
    return Decomposition(chains, context if context is not None else decomp.context)


def chunk_tables(fn, n: int) -> list[list[int]]:
    """One table per CHUNK_BITS-wide chunk of [n], lowest chunk first, of an
    additive map on masks: table i holds fn of every mask of chunk i.

    fn(a | b) must equal fn(a) + fn(b) for disjoint a and b, as it does when
    fn sends disjoint masks to disjoint images (then + is |) or adds a value
    per bit.  fn is evaluated on single bits only, in order: each chunk's
    table doubles once per bit by adding that bit's image.
    """
    tables = []
    for lo in range(0, n, CHUNK_BITS):
        table = [0]
        for b in range(lo, min(lo + CHUNK_BITS, n)):
            image = fn(1 << b)
            table += [v + image for v in table]
        tables.append(table)
    return tables


def bit_map(fn, n: int):
    """Table-driven form of an additive map on masks of [n], from its
    chunk_tables: the returned function adds one table lookup per chunk, so
    at most two for n <= QUOTIENT_LIMIT.
    """
    tables = chunk_tables(fn, n)
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
    """Table-driven writer of a chain of masks of [n]: its JSON array of
    element arrays as ASCII bytes, each mask written as
    ",".join(map(str, elements_of(mask))).

    Each CHUNK_BITS-wide chunk has one table of comma-joined element numbers,
    already offset by the chunk's position.  One chunk is one lookup per
    mask.  With two, the high table's non-empty entries carry their leading
    comma, each mask is t0[low] + t1[high] in one list per chain, and one
    replace per chain drops the comma of a mask whose low chunk is empty.
    Beyond two, each mask joins its non-empty lookups with b",".
    """
    tables = [
        [",".join(map(str, elements_of(v << lo))).encode() for v in range(1 << min(CHUNK_BITS, n - lo))]
        for lo in range(0, n, CHUNK_BITS)
    ]
    low, shift = (1 << CHUNK_BITS) - 1, CHUNK_BITS
    if len(tables) == 1:
        one = tables[0].__getitem__
        return lambda masks: b"[[" + b"],[".join(map(one, masks)) + b"]]"
    if len(tables) == 2:
        t0, t1 = tables[0], [b"," + t if t else t for t in tables[1]]

        def two(masks) -> bytes:
            text = b"[[" + b"],[".join([t0[e & low] + t1[e >> shift] for e in masks]) + b"]]"
            return text.replace(b"[,", b"[")  # only a mask with an empty low chunk starts with a comma

        return two

    def text(mask: int) -> bytes:
        parts = []
        for table in tables:
            part = table[mask & low]
            if part:
                parts.append(part)
            mask >>= shift
        return b",".join(parts)

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


def product_scd(dp: Decomposition, dq: Decomposition) -> Decomposition:
    """Symmetric chain decomposition of a product of two decomposed posets.

    Every pair of chains spans a rectangle, which the hooks split into
    symmetric chains; elements of the result are (p, q) pairs and ranks add,
    so a hook chain's bottom rank is its first cell's.
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
                elems = tuple((c.elements[x], d.elements[y]) for x, y in hook)
                x, y = hook[0]
                chains.append(Chain(elems, c.rank + d.rank + x + y))
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
    "ResourceLimitError",
    "bit_map",
    "bit_string",
    "chunk_tables",
    "element_text",
    "elements_of",
    "fold_products",
    "full_mask",
    "hook_chains",
    "make_decomposition",
    "map_elements",
    "mask_of",
    "product_scd",
    "relabel_map",
    "set_string",
    "structural_problems",
]
