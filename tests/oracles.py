"""Brute-force reference implementations the tests pin expected values with.

Everything here is deliberately dumb and independent of the package's fast
paths: interval scans instead of the matching stack, generic permutation
closure instead of the disjoint-factor shortcuts, exhaustive set algebra
instead of canonical representatives, and `json.dumps` of the whole document
instead of the chunk-table encoder, its stats counted by
`rank_counts_reference` one rank at a time instead of by the package's
difference array over the chain records.  The exception is
`ambient_chainpower`, which runs `greedy_prune` over every chain of the
package's `gk_scd(n)` and restricts afterwards, to pin the chain-power
construction that streams only the chains inside the power.  `greedy_prune`
names each chain element by `orbit_min`, a closure under the generators
with `perm_apply` that has no size limit, to pin the streamed pruning pass
that walks each orbit only once.
`reflection_named_after_fold` names the reflection quotient in three passes:
`core_quotient_part` writes each cell (u, v) as the local word u followed by
`word_reverse` of v and sorts the chains, the relabel moves that word onto
the ambient ground set and folds it with the fixed block, and only then is
every element named by one `orbit_rep`.  It pins the construction that names
each cell through two half-word tables as it is built.  `named_after_fold`
does the same for a cycle-power quotient, by one `orbit_rep` under the whole
group per element, to pin the construction that names each factor's orbits
before the fold, and `staircase_peel` peels the cells over a diagonal chain's
elements, which the package's peel by side length is checked against.  Both
folds go through `pairwise_fold`, the pair product followed by a pass that
joins each pair, to pin `product_scd`'s fold that writes each joined element
once.
The naive closures take a group's permutations from `generators`, built
on the package's `perm_from_cycle_power`.
`orbit_closure_ascends` decides whether a run ascends in a quotient by
listing each element's orbit with the package's `_members` and scanning it,
and `table_ascends` is the quotient's former test, which read each element's
images under every power from its chunk tables once: both pin the batch test
`failing_runs`, which reads the images of whole slices of elements at once
in 32-bit lanes.  The per-rank
orbit counts have three references that share nothing with the package's
cycle-index count: counting enumerated orbits by rank, Burnside's lemma over
every group element, and the closed necklace formula.  The seeded group
generators at the end supply the groups the tests sweep.

The helpers at the top serve the tests alone: `rotate`, `tuple_rotate` and
`pair_mask` act on masks and level tuples bit by bit, `bit_string_reference`
writes a mask's binary word one bit at a time, `in_chain_power` tests
a word for blockwise monotone blocks, `mask_levels` reads such a word's
levels by popcounts and `level_digits` a level
number's by division, `tuple_ascends` is a chain-power target's order test
over tuples (the form its byte encoding is checked against),
`is_symmetric_chain` restates the symmetry test from the elements' own
ranks, `chain_index` maps each
subset to the number of its Greene-Kleitman chain, and
`read_subset_reference` is the set-and-sort subset reader that `decode`'s
JSON-tree route reads every subset with, kept here as it was so that both
of decode's routes are checked against it.  `shadow_closure_failures` scans that index for
the lemma the pruning rests on; it is one more exception to the independence
above, as it uses the package's `orbit_rep` and `predecessor`.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random

from scdforge.chainpow import ChainPowerTarget, ChainProductTarget, canonical_levels
from scdforge.cli import DecodeError
from scdforge.core import (
    CHUNK_BITS,
    MASK_WIDTH_LIMIT,
    Chain,
    Context,
    Decomposition,
    bit_map,
    elements_of,
    full_mask,
    hook_chains,
    make_decomposition,
    map_elements,
    mask_of,
    product_scd,
    relabel_map,
)
from scdforge.gk import boolean_scd_on_support, gk_scd, predecessor
from scdforge.groups import CycleFactor, GroupSpec, QuotientPoset, _members, factorize, orbit_rep, perm_from_cycle_power
from scdforge.prune import PrunedChain, quotient_scd_cyclic, rotation_group
from scdforge.reflect import _transpositions, involution_group


def rotate(mask: int, steps: int, n: int) -> int:
    """Rotate a subset of [n]: element i moves to i + steps (wrapping)."""
    steps %= n
    if not steps:
        return mask
    return ((mask << steps) | (mask >> (n - steps))) & full_mask(n)


def tuple_rotate(u: tuple[int, ...], steps: int) -> tuple[int, ...]:
    """Rotate coordinates: position i takes the old value at i - steps."""
    steps %= len(u)
    if not steps:
        return u
    return u[-steps:] + u[:-steps]


def pair_mask(u: int, v: int, k: int) -> int:
    """The word u followed by the reverse of v, as a subset of [2k]."""
    return u | sum(1 << (2 * k - 1 - i) for i in range(k) if v >> i & 1)


def bit_string_reference(mask: int, n: int) -> str:
    """The word b_1 b_2 ... b_n of a mask, one bit at a time ("" for n <= 0)."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def in_chain_power(mask: int, k: int, m: int) -> bool:
    """True iff every block of the word is ones followed by zeros."""
    n = (k - 1) * m
    if mask >> n:
        raise ValueError(f"word has bits beyond {n}")
    width = k - 1
    block = (1 << width) - 1
    for i in range(m):
        b = mask >> (i * width) & block
        if b & (b + 1):  # not of the form 2^j - 1
            return False
    return True


def mask_levels(mask: int, k: int, m: int) -> tuple[int, ...]:
    """Read the per-coordinate levels off a blockwise monotone word: level i
    is the popcount of block i."""
    width = k - 1
    return tuple((mask >> (i * width) & ((1 << width) - 1)).bit_count() for i in range(m))


def level_digits(x: int, k: int, m: int) -> tuple[int, ...]:
    """The m base-k digits of a level number, most significant first."""
    digits = []
    for _ in range(m):
        x, d = divmod(x, k)
        digits.append(d)
    assert x == 0, "more than m digits"
    return tuple(reversed(digits))


def tuple_ascends(target: ChainPowerTarget, tuples) -> bool:
    """ChainPowerTarget's test of one run, over tuples: each element an int tuple of
    length m with levels in 0..k-1, equal to the least of its rotations by
    multiples of the step, and some rotation of the previous element lying
    componentwise at or below it."""
    k, m, step = target.k, target.m, target.step
    below = None
    for u in tuples:
        if type(u) is not tuple or len(u) != m or any(type(v) is not int or not 0 <= v < k for v in u):
            return False
        turns = [u[j:] + u[:j] for j in range(0, m, step)]
        if min(turns) != u:
            return False
        if below is not None and not any(all(p <= q for p, q in zip(x, u)) for x in below):
            return False
        below = turns
    return True


def read_subset_reference(elems, n: int) -> int:
    """The mask of one subset of [n]; raises DecodeError naming its first problem."""
    if type(elems) is not list or not set(map(type, elems)) <= {int}:
        raise DecodeError("subset must be an array of integers")
    distinct = sorted(set(elems))
    if distinct and (distinct[0] < 1 or distinct[-1] > n):
        raise DecodeError(f"element out of range 1..{n}")
    if distinct != elems:
        raise DecodeError("subset must be a sorted list of distinct elements")
    # an element past the mask width has no bit: decode refuses such an n after the walk
    return mask_of(elems) if n <= MASK_WIDTH_LIMIT else 0


def is_symmetric_chain(chain: Chain, total_rank: int, rank=int.bit_count) -> bool:
    """True iff the chain's elements, ranked by `rank` and not by the record,
    step up one rank at a time from its bottom to a top whose rank and the
    bottom's sum to the poset rank."""
    ranks = [rank(e) for e in chain.elements]
    return ranks == list(range(ranks[0], ranks[0] + len(ranks))) and ranks[0] + ranks[-1] == total_rank


def chain_index(scd) -> dict[int, int]:
    """The number of the chain of a Greene-Kleitman SCD through each subset."""
    return {mask: ci for ci, chain in enumerate(scd.chains) for mask in chain.elements}


def shadow_closure_failures(scd, step: int) -> list[dict]:
    """Counterexamples to predecessor-closure of earlier-chain shadowing.

    A subset is shadowed when some rotation of it lies on an earlier chain
    than its own.  The property: for every shadowed A in the lower half
    (|A| <= ceil(n/2)) whose predecessor exists, the predecessor is shadowed
    too.  This is what makes every kept piece survive as one contiguous,
    symmetric window of its source chain.
    """
    n = scd.context.n
    group = rotation_group(n, step)
    index = chain_index(scd)
    first_chain: dict[int, int] = {}
    for a in range(1 << n):
        rep = orbit_rep(a, group)
        ci = index[a]
        if ci < first_chain.get(rep, ci + 1):
            first_chain[rep] = ci
    half = (n + 1) // 2
    failures = []
    for a in range(1 << n):
        if a.bit_count() > half:
            continue
        w = index[a]
        if first_chain[orbit_rep(a, group)] >= w:
            continue
        prev = predecessor(a, n)
        if prev is None:
            continue
        if first_chain[orbit_rep(prev, group)] >= w:
            failures.append({"subset": a, "chain": w, "predecessor": prev, "n": n, "step": step})
    return failures


def interval_pairing(a: int, n: int) -> dict[int, int]:
    """Matching by the interval rule: member x is matched to the largest
    y < x for which exactly half of [y, x] lies inside the subset."""
    partner = {}
    for x in range(1, n + 1):
        if not a >> (x - 1) & 1:
            continue
        for y in range(x - 1, 0, -1):
            size = x - y + 1
            inside = sum(a >> (i - 1) & 1 for i in range(y, x + 1))
            if size % 2 == 0 and inside * 2 == size:
                partner[x] = y
                break
    return partner


def perm_compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """(f . g)(x) = f(g(x)), image tuples over [n]."""
    return tuple(f[g[i] - 1] for i in range(len(f)))


def perm_apply(perm: tuple[int, ...], mask: int) -> int:
    out = 0
    for i in range(len(perm)):
        if mask >> i & 1:
            out |= 1 << (perm[i] - 1)
    return out


def cycle_power(cycle, exponent: int, n: int) -> tuple[int, ...]:
    """Image tuple of cycle^exponent on [n], one step of the cycle at a time."""
    img = list(range(1, n + 1))
    for _ in range(exponent % len(cycle)):
        img = [cycle[(cycle.index(x) + 1) % len(cycle)] if x in cycle else x for x in img]
    return tuple(img)


def orbit_min(a: int, group) -> int:
    """Least mask of a subset's orbit, by closure under the group's
    generators with perm_apply; any n, any group of cycle powers."""
    generators = [cycle_power(f.cycle, f.exponent, group.n) for f in group.factors]
    members, frontier = {a}, [a]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = perm_apply(g, x)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return min(members)


def generators(group) -> tuple[tuple[int, ...], ...]:
    """Image tuples of the group's generators that move a point, from the
    package's perm_from_cycle_power, for the naive closures below."""
    return tuple(perm_from_cycle_power(f.cycle, f.exponent, group.n) for f in group.factors if f.order() > 1)


def group_elements(generators, n: int) -> list[tuple[int, ...]]:
    """Full closure of a generator list, no structure assumed."""
    identity = tuple(range(1, n + 1))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                h = perm_compose(g, e)
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(elements)


def naive_orbits(n: int, generators) -> list[frozenset[int]]:
    """Every orbit of B_n as a frozen set of masks, by scanning all subsets."""
    elements = group_elements(generators, n)
    seen = set()
    orbits = []
    for a in range(1 << n):
        if a in seen:
            continue
        orb = frozenset(perm_apply(g, a) for g in elements)
        seen |= orb
        orbits.append(orb)
    return orbits


def cycle_count(perm: tuple[int, ...]) -> int:
    """Number of cycles including fixed points."""
    n = len(perm)
    seen = [False] * n
    count = 0
    for i in range(n):
        if seen[i]:
            continue
        count += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
    return count


def is_scd(universe, rank_of, leq, chains, total_rank) -> bool:
    """Definitional check: chains partition the universe, each saturated,
    comparable step by step, with end ranks summing to the poset rank."""
    covered = []
    for chain in chains:
        if not chain:
            return False
        for x, y in zip(chain, chain[1:]):
            if rank_of(y) != rank_of(x) + 1 or not leq(x, y):
                return False
        if rank_of(chain[0]) + rank_of(chain[-1]) != total_rank:
            return False
        covered.extend(chain)
    return len(covered) == len(set(covered)) and set(covered) == set(universe)


def naive_comparability(target):
    """The order of a verification target from its definition, as a test
    leq(a, b) on canonical elements: for a quotient of B_n, some member of a's
    orbit (the images under every group element) lies inside b; for a chain
    power, some rotation of a is componentwise at most b; for a product, each
    part is below the matching part."""
    if isinstance(target, QuotientPoset):
        perms = group_elements(generators(target.group), target.n)
        return lambda a, b: any(perm_apply(g, a) | b == b for g in perms)
    if isinstance(target, ChainPowerTarget):
        shifts = [j * target.step for j in range(target.m)]
        return lambda a, b: any(all(p <= q for p, q in zip(tuple_rotate(a, s), b)) for s in shifts)
    if isinstance(target, ChainProductTarget):
        parts = [naive_comparability(part) for part in target.parts]
        cuts = list(itertools.accumulate([0] + [part.m for part in target.parts]))
        return lambda a, b: all(part(a[i:j], b[i:j]) for part, i, j in zip(parts, cuts, cuts[1:]))
    left, right = naive_comparability(target.left), naive_comparability(target.right)
    return lambda a, b: left(a[0], b[0]) and right(a[1], b[1])


def orbit_closure_ascends(poset: QuotientPoset, elements) -> bool:
    """QuotientPoset's test of one run by listing orbits: each element must be an int
    mask of [n] equal to the least member of its orbit, and some member of
    the previous element's orbit must lie inside it, as the group acts by
    automorphisms.  It pins failing_runs, which reads the images of each
    element under every power once, in its lane."""
    powers, limit = poset.group._powers, 1 << poset.n
    below = None
    for e in elements:
        if type(e) is not int or not 0 <= e < limit:
            return False
        members = _members(e, powers)
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


def table_ascends(poset: QuotientPoset, elements) -> bool:
    """QuotientPoset's order test one element at a time, as the package ran it
    before its lanes: each image read from its power's chunk tables, t0[lo] +
    t1[hi], once per element.  e is least iff no power of a generator lowers
    it, and a <= b iff a lies in b off the supports and, on each, in b or a
    power of it on b."""
    powers, limit, fixed = poset.group._powers, 1 << poset.n, poset._fixed
    below = 0
    for e in elements:
        if type(e) is not int or not 0 <= e < limit or below & fixed & ~e:
            return False
        lo, hi = e & ((1 << CHUNK_BITS) - 1), e >> CHUNK_BITS
        for support, tables in powers:
            part = below & support
            fits = not part & ~e
            for t0, t1 in tables:
                y = t0[lo] + t1[hi]
                if y < e:
                    return False
                fits = fits or not part & ~y
            if not fits:
                return False
        below = e
    return True


def ascends(target, elements) -> bool:
    """Whether one run ascends in a verification target, by its batch test."""
    return not target.failing_runs([tuple(elements)])


def naive_tuple_orbits(k: int, m: int, step: int) -> list[frozenset]:
    """Orbits of level tuples under rotation by multiples of step."""
    def rot(u, s):
        s %= m
        return u[-s:] + u[:-s] if s else u

    seen = set()
    orbits = []
    for u in itertools.product(range(k), repeat=m):
        if u in seen:
            continue
        orb = set()
        x = u
        while x not in orb:
            orb.add(x)
            x = rot(x, step)
        orb = frozenset(orb)
        seen |= orb
        orbits.append(orb)
    return orbits


def ambient_chainpower(k: int, m: int, step: int) -> list[Chain]:
    """Chains of the chain-power quotient the long way round: prune all of
    B_n against rotation by (k-1)*step, then keep the members inside the
    power, written as canonical level tuples."""
    n = (k - 1) * m
    chains = []
    for pc in greedy_prune(gk_scd(n).chains, n, (k - 1) * step):
        kept = [a for a in pc.kept.elements if in_chain_power(a, k, m)]
        if kept:
            chains.append(Chain(tuple(canonical_levels(mask_levels(a, k, m), step) for a in kept), kept[0].bit_count()))
    return chains


def greedy_prune(chains, n: int, step: int) -> tuple[PrunedChain, ...]:
    """The greedy pass with one orbit walk per chain element and two sets of
    orbit representatives: those met by a selected chain in full, and those
    kept.  A chain is selected when it meets an orbit outside the first set,
    and keeps the members whose orbits lie outside the second."""
    group = rotation_group(n, step)
    touched_full, touched_kept = set(), set()
    picked = []
    for ci, chain in enumerate(chains):
        reps = [orbit_min(a, group) for a in chain.elements]
        if all(rep in touched_full for rep in reps):
            continue
        kept = [(a, rep) for a, rep in zip(chain.elements, reps) if rep not in touched_kept]
        touched_full.update(reps)
        touched_kept.update(rep for _, rep in kept)
        rank = kept[0][0].bit_count()
        kept_chain, orbit_chain = (Chain(tuple(pair[i] for pair in kept), rank) for i in (0, 1))
        picked.append(PrunedChain(ci, kept_chain, orbit_chain))
    return tuple(picked)


def rank_counts_reference(decomp: Decomposition) -> tuple[int, ...]:
    """Decomposition.rank_counts one rank at a time: each chain record adds 1
    at every rank from its bottom's up, and the first chain whose ranks start
    below 0 or run past total_rank raises the ValueError that names it."""
    total = decomp.context.total_rank
    counts = [0] * (total + 1)
    for c in decomp.chains:
        top = c.rank + len(c.elements) - 1
        if c.rank < 0:
            raise ValueError(f"chain {c.elements!r} claims ranks {c.rank}..{top} below rank 0")
        if top > total:
            raise ValueError(f"chain {c.elements!r} claims ranks {c.rank}..{top} past the top rank {total}")
        for r in range(c.rank, top + 1):
            counts[r] += 1
    return tuple(counts)


def reference_document(decomp: Decomposition) -> dict:
    """A decomposition's document, built as a plain JSON value."""
    ctx = decomp.context
    context = {"kind": ctx.kind}
    for key in ("n", "group", "k", "m", "r"):
        value = getattr(ctx, key)
        if value is not None:
            context[key] = value
    if ctx.factors is not None:
        context["factors"] = [list(t) for t in ctx.factors]
    if ctx.kind in ("boolean", "quotient", "reflection"):
        chains = [[list(elements_of(e)) for e in c.elements] for c in decomp.chains]
    else:
        chains = [[list(e) for e in c.elements] for c in decomp.chains]
    stats = {
        "chain_count": len(decomp.chains),
        "element_count": sum(len(c.elements) for c in decomp.chains),
        "rank_profile": list(rank_counts_reference(decomp)),
    }
    return {"schema": "scdforge/1", "context": context, "chains": chains, "stats": stats}


def reference_bytes(decomp: Decomposition) -> bytes:
    """The canonical scdforge/1 bytes of a decomposition, through json.dumps."""
    doc = reference_document(decomp)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def word_reverse(mask: int, width: int) -> int:
    """Reverse the word of a subset of [width]: bit i moves to width-1-i."""
    out = 0
    for i in range(width):
        if mask >> i & 1:
            out |= 1 << (width - 1 - i)
    return out


def staircase_peel(rows) -> list[tuple[tuple[int, int], ...]]:
    """The borders of the staircase {(x, y): x <= y} over a diagonal chain's
    elements, peeled from its cells: the top row then the right column of
    what is left."""
    left = {(x, y) for x in range(len(rows)) for y in range(x, len(rows))}
    chains = []
    while left:
        lo, hi = min(x for x, _ in left), max(y for _, y in left)
        cells = sorted(c for c in left if c[0] == lo) + sorted(c for c in left if c[1] == hi and c[0] != lo)
        chains.append(tuple(cells))
        left -= set(cells)
    return chains


def core_quotient_part(k: int) -> Decomposition:
    """SCD of B_2k modulo word reversal on the local ground set [2k], each
    cell (u, v) written as the word u followed by the reverse of v."""
    scd = gk_scd(k)
    back = bit_map(lambda v: word_reverse(v, k) << k, k)
    chains = []
    for i, ci in enumerate(scd.chains):
        for j in range(i, len(scd.chains)):
            cj = scd.chains[j]
            if i < j:
                grids = hook_chains(len(ci) - 1, len(cj) - 1)
            else:
                grids = staircase_peel(ci.elements)
            for grid in grids:
                masks = tuple(ci.elements[x] | back(cj.elements[y]) for x, y in grid)
                chains.append(Chain(masks, masks[0].bit_count()))
    return make_decomposition(chains, Context(kind="quotient", total_rank=2 * k, n=2 * k))


def pairwise_fold(parts, join) -> Decomposition:
    """The factors folded left to right by the pair product, each step's
    (p, q) pairs then merged by a second pass with join(p, q)."""
    combined = parts[0]
    for part in parts[1:]:
        combined = map_elements(product_scd(combined, part), lambda e: join(*e))
    return combined


def reflection_named_after_fold(n: int, rho) -> Decomposition:
    """The reflection quotient relabelled, folded with the fixed block, and
    only then named, by one orbit_rep per element."""
    pairs = _transpositions(rho)
    two_element = involution_group(n, pairs)
    targets = [a - 1 for a, _ in pairs] + [b - 1 for _, b in reversed(pairs)]
    parts = [map_elements(core_quotient_part(len(pairs)), relabel_map(targets))]
    fixed = full_mask(n) & ~sum(1 << t for t in targets)
    if fixed:
        parts.append(boolean_scd_on_support(fixed))
    combined = pairwise_fold(parts, operator.or_)
    canonical = map_elements(combined, lambda a: orbit_rep(a, two_element))
    context = Context(kind="reflection", total_rank=n, n=n, group=rho.text())
    return make_decomposition(canonical.chains, context)


def relabelled_parts(n: int, group) -> list[Decomposition]:
    """The parts of a cycle-power quotient before any naming: the fixed
    block's Boolean factor, then each factor's quotient moved onto its cycle."""
    fixed, factors = factorize(n, group)
    parts = [boolean_scd_on_support(fixed)] if fixed else []
    for f in factors:
        parts.append(map_elements(quotient_scd_cyclic(f.length, f.exponent), relabel_map([e - 1 for e in f.cycle])))
    return parts


def named_after_fold(n: int, group) -> Decomposition:
    """The cycle-power quotient with every factor relabelled onto its block,
    folded, and only then named, by one orbit_rep under the whole group per
    element."""
    combined = pairwise_fold(relabelled_parts(n, group), operator.or_)
    canonical = map_elements(combined, lambda a: orbit_rep(a, group))
    context = Context(kind="quotient", total_rank=n, n=n, group=group.text())
    return make_decomposition(canonical.chains, context)


def counts_by_rank(elements, rank_of, total_rank: int) -> tuple[int, ...]:
    """How many of the elements lie at each rank 0..total_rank."""
    counts = [0] * (total_rank + 1)
    for e in elements:
        counts[rank_of(e)] += 1
    return tuple(counts)


def enumerated_rank_counts(target) -> tuple[int, ...]:
    """A verification target's elements counted by rank, by enumerating them."""
    return counts_by_rank(target.elements(), target.rank, target.total_rank)


def naive_orbit_ranks(n: int, generators) -> tuple[int, ...]:
    """The orbits of naive_orbits counted by rank."""
    return counts_by_rank((min(orb) for orb in naive_orbits(n, generators)), int.bit_count, n)


def naive_tuple_orbit_ranks(k: int, m: int, step: int) -> tuple[int, ...]:
    """Orbits of level tuples under rotation by multiples of step, counted by
    rank (the sum of the levels): every tuple is tried, and one that no
    rotation makes lexicographically smaller stands for its orbit."""
    shifts = {j * step % m for j in range(1, m)} - {0}
    least = (u for u in itertools.product(range(k), repeat=m) if all(u <= u[s:] + u[:s] for s in shifts))
    return counts_by_rank(least, sum, (k - 1) * m)


def group_element_ranks(n: int, group) -> tuple[int, ...]:
    """Per-rank orbit counts by Burnside's lemma summed over every group
    element, the elements enumerated as independent powers of the factors.
    An element whose cycles, fixed points included, have lengths L_1, ...,
    L_c fixes the subsets counted by rank by (1 + x^L_1) ... (1 + x^L_c)."""
    outside = n - sum(f.length for f in group.factors)
    total = [0] * (n + 1)
    for exps in itertools.product(*(range(f.order()) for f in group.factors)):
        lengths = [1] * outside
        for f, e in zip(group.factors, exps):
            cycles = math.gcd(f.exponent * e, f.length)
            lengths += [f.length // cycles] * cycles
        fixed = [1] + [0] * n
        for length in lengths:
            for r in range(n, length - 1, -1):
                fixed[r] += fixed[r - length]
        for r in range(n + 1):
            total[r] += fixed[r]
    order = group.order()
    assert all(t % order == 0 for t in total)
    return tuple(t // order for t in total)


def necklace_formula(length: int) -> list[int]:
    """Binary necklaces of the length by number of ones, by the closed formula
    (1/L) * sum over d dividing gcd(L, r) of phi(d) * C(L/d, r/d)."""
    def phi(d):
        return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)

    return [
        sum(phi(d) * math.comb(length // d, r // d) for d in range(1, length + 1) if length % d == 0 == r % d) // length
        for r in range(length + 1)
    ]


def full_rotations_ranks(n: int, lengths) -> tuple[int, ...]:
    """Per-rank orbit counts of B_n under full rotations of disjoint blocks of
    the given lengths: (1 + x)^fixed times one necklace_formula per block."""
    counts = [math.comb(n - sum(lengths), r) for r in range(n - sum(lengths) + 1)]
    for length in lengths:
        poly = necklace_formula(length)
        product = [0] * (len(counts) + len(poly) - 1)
        for i, a in enumerate(counts):
            for j, b in enumerate(poly):
                product[i + j] += a * b
        counts = product
    return tuple(counts)


def enumerated_profile_lines(n: int, group) -> list[str]:
    """What `profile` prints for the group, from the naive orbits: the counts
    by rank, whether they read the same backwards, and whether they rise to
    their first maximum and never rise after it."""
    counts = naive_orbit_ranks(n, generators(group))
    peak = counts.index(max(counts))
    unimodal = all(a <= b for a, b in zip(counts[:peak], counts[1 : peak + 1])) and all(
        a >= b for a, b in zip(counts[peak:], counts[peak + 1 :])
    )
    return [
        "ranks=" + " ".join(map(str, counts)),
        f"symmetric={str(counts == counts[::-1]).lower()}",
        f"unimodal={str(unimodal).lower()}",
    ]


def _cycle_types(room, largest):
    """Every multiset of cycle lengths of at least 2 that fits in room."""
    yield ()
    for length in range(min(room, largest), 1, -1):
        for rest in _cycle_types(room - length, length):
            yield (length,) + rest


def _laid_out(n, lengths, exponents, rng):
    """The cycle powers on consecutive blocks of a seeded permutation of [n]."""
    order = rng.sample(range(1, n + 1), n)
    factors, start = [], 0
    for length, exponent in zip(lengths, exponents):
        factors.append(CycleFactor(tuple(order[start : start + length]), exponent))
        start += length
    return GroupSpec(n, tuple(factors))


def every_cycle_power_group(n):
    """Every cycle type of [n] with every exponent of each cycle, up to
    relabelling [n], which a seeded permutation does."""
    rng = random.Random(f"groups {n}")
    for lengths in _cycle_types(n, n):
        for exponents in itertools.product(*(range(length) for length in lengths)):
            yield _laid_out(n, lengths, exponents, rng)


def sampled_groups_with_fixed_points(n, count):
    """count seeded groups on [n], each with one to three fixed points."""
    rng = random.Random(f"fixed points {n}")
    for _ in range(count):
        lengths, room = [], n - rng.randrange(1, 4)
        while room >= 2 and rng.random() < 0.8:
            lengths.append(rng.randrange(2, room + 1))
            room -= lengths[-1]
        yield _laid_out(n, lengths, [rng.randrange(1, 2 * length) for length in lengths], rng)


def random_cycle_power_group(n, rng):
    """A seeded group on [n]: cycles of any length from 1 up, each raised to
    an exponent from 0 to twice its length, so some factors normalise to the
    identity (^0, ^length) and some exponents exceed the length."""
    lengths, room = [], n
    while room and rng.random() < 0.8:
        lengths.append(rng.randrange(1, room + 1))
        room -= lengths[-1]
    return _laid_out(n, lengths, [rng.randrange(2 * length + 1) for length in lengths], rng)
