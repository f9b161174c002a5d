"""Brute-force reference implementations the tests pin expected values with.

Everything here is deliberately dumb and independent of the package's fast
paths: interval scans instead of the matching stack, generic permutation
closure instead of the disjoint-factor shortcuts, exhaustive set algebra
instead of canonical representatives, and `json.dumps` of the whole document
instead of the chunk-table encoder.  The exception is
`ambient_chainpower`, which runs `greedy_prune` over every chain of the
package's `gk_scd(n)` and restricts afterwards, to pin the chain-power
construction that streams only the chains inside the power.  `greedy_prune`
also uses the package's `orbit_rep`, once per chain element, to pin the
streamed pruning pass that walks each orbit only once.  `reflection_named_after_fold` names the reflection
quotient after the fold with the fixed block, by one `orbit_rep` per element,
to pin the construction that names each orbit in the relabel pass, and
`named_after_fold` does the same for a cycle-power quotient, by one
`orbit_rep` under the whole group per element, to pin the construction that
names each factor's orbits before the fold.
"""

from __future__ import annotations

import itertools
import json
import operator

from scdforge.chainpow import (
    ChainPowerTarget,
    ChainProductTarget,
    canonical_levels,
    in_chain_power,
    mask_levels,
    tuple_rotate,
)
from scdforge.core import (
    Chain,
    Context,
    Decomposition,
    elements_of,
    fold_products,
    full_mask,
    make_decomposition,
    map_elements,
    relabel,
)
from scdforge.gk import boolean_scd_on_support, gk_scd
from scdforge.groups import QuotientPoset, factorize, orbit_rep
from scdforge.prune import PrunedChain, quotient_scd_cyclic, rotation_group
from scdforge.reflect import _core_quotient_part, _transpositions, involution_group


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
        perms = group_elements(target.group.generators(), target.n)
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
        kept = [(a, r) for a, r in zip(pc.kept.elements, pc.kept.ranks) if in_chain_power(a, k, m)]
        if kept:
            levels = tuple(canonical_levels(mask_levels(a, k, m), step) for a, _ in kept)
            chains.append(Chain(levels, tuple(r for _, r in kept)))
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
        reps = [orbit_rep(a, group) for a in chain.elements]
        if all(rep in touched_full for rep in reps):
            continue
        kept = [(a, rep) for a, rep in zip(chain.elements, reps) if rep not in touched_kept]
        touched_full.update(reps)
        touched_kept.update(rep for _, rep in kept)
        kept_chain = Chain.from_masks(a for a, _ in kept)
        orbit_chain = Chain(tuple(rep for _, rep in kept), kept_chain.ranks)
        picked.append(PrunedChain(ci, kept_chain, orbit_chain))
    return tuple(picked)


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
        "element_count": decomp.element_count(),
        "rank_profile": list(decomp.rank_counts()),
    }
    return {"schema": "scdforge/1", "context": context, "chains": chains, "stats": stats}


def reference_bytes(decomp: Decomposition) -> bytes:
    """The canonical scdforge/1 bytes of a decomposition, through json.dumps."""
    doc = reference_document(decomp)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def reflection_named_after_fold(n: int, rho) -> Decomposition:
    """The reflection quotient relabelled, folded with the fixed block, and
    only then named, by one orbit_rep per element."""
    pairs = _transpositions(rho)
    two_element = involution_group(n, pairs)
    targets = [a - 1 for a, _ in pairs] + [b - 1 for _, b in reversed(pairs)]
    parts = [relabel(_core_quotient_part(len(pairs)), targets)]
    fixed = full_mask(n) & ~sum(1 << t for t in targets)
    if fixed:
        parts.append(boolean_scd_on_support(fixed))
    combined = fold_products(parts, operator.or_)
    canonical = map_elements(combined, lambda a: orbit_rep(a, two_element))
    context = Context(kind="reflection", total_rank=n, n=n, group=rho.text())
    return make_decomposition(canonical.chains, context)


def named_after_fold(n: int, group) -> Decomposition:
    """The cycle-power quotient with every factor relabelled onto its block,
    folded, and only then named, by one orbit_rep under the whole group per
    element."""
    split = factorize(n, group)
    parts = []
    if split.fixed:
        parts.append(boolean_scd_on_support(split.fixed))
    for f in split.factors:
        parts.append(relabel(quotient_scd_cyclic(f.length, f.power), [e - 1 for e in f.cycle]))
    combined = fold_products(parts, operator.or_)
    canonical = map_elements(combined, lambda a: orbit_rep(a, group))
    context = Context(kind="quotient", total_rank=n, n=n, group=group.text())
    return make_decomposition(canonical.chains, context)
