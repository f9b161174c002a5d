import gc
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from oracles import (
    every_cycle_power_group,
    generators,
    greedy_prune,
    in_chain_power,
    is_scd,
    level_digits,
    mask_levels,
    named_after_fold,
    naive_orbits,
    rotate,
    sampled_groups_with_fixed_points,
    shadow_closure_failures,
    tuple_rotate,
    word_reverse,
)
from scdforge import gk, groups, prune
from scdforge.chainpow import canonical_levels, chainpower_scd, level_mask
from scdforge.core import mask_of
from scdforge.gk import ChainBottoms, gk_decomposition, gk_scd, partner
from scdforge.groups import burnside_count, factorize, necklace_ranks, orbit_rep, parse_group_spec, quotient_poset
from scdforge.prune import (
    prune_chains,
    quotient_scd,
    quotient_scd_cyclic,
    rotation_group,
)
from scdforge.reflect import reflection_poset, reflection_scd
from scdforge.verify import verify_decomposition


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def pruned(n, step):
    """The streamed pass over B_n against rotation by step."""
    return prune_chains(ChainBottoms(n), step)


def words(xs, n):
    """Level names of B_n written as the words b_1...b_n they read."""
    return tuple(format(x, f"0{n}b") for x in xs)


def check_against_reference(family, reference, k, m, step):
    """The pass's pieces against the reference pass's: the same sources, and
    kept pieces whose names, read back as words of B_((k-1)m), are the
    reference's kept masks with the same ranks; every orbit name is the least
    level number of the orbit of the reference's orbit name, that is its
    least rotation by multiples of step read as a level tuple."""
    assert [(pc.source, pc.kept.rank, tuple(level_mask(level_digits(x, k, m), k) for x in pc.kept.elements))
            for pc in family.chains] == [(pc.source, pc.kept.rank, pc.kept.elements) for pc in reference]
    for pc, ref in zip(family.chains, reference):
        assert (pc.orbits.rank, len(pc.orbits)) == (ref.orbits.rank, len(ref.orbits)) == (pc.kept.rank, len(pc.kept))
        for x, a in zip(pc.orbits.elements, ref.orbits.elements):
            u = mask_levels(a, k, m)
            assert level_digits(x, k, m) == min(tuple_rotate(u, j) for j in range(0, m, step))


def test_rotate_and_rep():
    assert rotate(mask_of([1, 2]), 1, 4) == mask_of([2, 3])
    assert rotate(mask_of([4]), 1, 4) == mask_of([1])
    assert orbit_rep(mask_of([2, 4]), rotation_group(4, 1)) == mask_of([1, 3])
    assert orbit_rep(mask_of([2, 4]), rotation_group(4, 2)) == mask_of([2, 4])


def test_prune_n3_full_rotation():
    family = pruned(3, 1)
    assert [pc.source for pc in family.chains] == [0]
    assert words(family.chains[0].kept.elements, 3) == ("000", "100", "110", "111")
    assert words(family.chains[0].orbits.elements, 3) == ("000", "001", "011", "111")


def test_prune_n4_full_rotation():
    family = pruned(4, 1)
    assert [pc.source for pc in family.chains] == [0, 2]
    assert words(family.chains[0].orbits.elements, 4) == ("0000", "0001", "0011", "0111", "1111")
    assert words(family.chains[1].kept.elements, 4) == ("1010",)  # the subset {1, 3}
    assert words(family.chains[1].orbits.elements, 4) == ("0101",)  # its least rotation, {2, 4}


def test_prune_n4_half_rotation():
    family = pruned(4, 2)
    assert [pc.source for pc in family.chains] == [0, 1, 2, 4]
    assert [words(pc.kept.elements, 4) for pc in family.chains] == [
        ("0000", "1000", "1100", "1110", "1111"),
        ("0100", "0110", "0111"),
        ("1010",),
        ("0101",),
    ]
    # each orbit {b1b2b3b4, b3b4b1b2} is named by its lesser word
    assert [words(pc.orbits.elements, 4) for pc in family.chains] == [
        ("0000", "0010", "0011", "1011", "1111"),
        ("0001", "0110", "0111"),
        ("1010",),
        ("0101",),
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_pruned_family_invariants(n):
    scd = gk_scd(n)
    grown = ChainBottoms(n).chains
    assert len(grown) == len(scd.chains)
    for step in divisors(n):
        family = pruned(n, step)
        seen = set()
        for pc in family.chains:
            source = scd.chains[pc.source]
            # the streamed source index names the same chain, grown on demand
            assert grown[pc.source] == source
            # the kept piece, its names read back as masks, is a contiguous window of its source chain
            kept = tuple(word_reverse(x, n) for x in pc.kept.elements)
            lo = source.elements.index(kept[0])
            window = source.elements[lo : lo + len(kept)]
            assert window == kept
            # symmetric: mirrors stay kept
            bottom = pc.kept.rank
            assert [mask.bit_count() for mask in kept] == list(range(bottom, bottom + len(kept)))
            assert pc.orbits.rank == bottom
            assert 2 * bottom + len(kept) - 1 == n
            for mask in kept:
                assert partner(mask, source) in kept
            for rep in pc.orbits.elements:
                assert rep not in seen
                seen.add(rep)
        assert len(seen) == burnside_count(n, rotation_group(n, step))


@pytest.mark.parametrize("n", range(1, 15))
def test_prune_matches_the_reference_pass(n):
    scd = gk_scd(n)
    for step in divisors(n):
        check_against_reference(pruned(n, step), greedy_prune(scd.chains, n, step), 2, n, step)


# every chain power with (k-1)m <= 12, then four beyond QUOTIENT_LIMIT
CHAIN_POWER_SHAPES = [(k, m) for k in range(2, 14) for m in range(1, 13) if (k - 1) * m <= 12]


def _power_chains(k, m):
    """The ambient Greene-Kleitman chains inside the power, in their order."""
    n = (k - 1) * m
    if n <= 12:  # from gk_scd(n), which is cheap here
        return [c for c in gk_scd(n).chains if in_chain_power(c.elements[0], k, m)]
    # the streamed chains, grown and then sorted by their (rank, bottom)
    bottoms = ChainBottoms(n, k - 1)
    return sorted((bottoms[i] for i in range(len(bottoms))), key=lambda c: (c.elements[0].bit_count(), c.elements[0]))


@pytest.fixture(scope="module")
def reference_passes():
    """The reference pass greedy_prune over a chain power's chains against
    rotation by each step dividing m, as {step: pieces}: computed once per
    (k, m) and shared by the tests of this module."""
    passes = {}

    def reference(k, m):
        if (k, m) not in passes:
            n, chains = (k - 1) * m, _power_chains(k, m)
            passes[k, m] = {step: greedy_prune(chains, n, (k - 1) * step) for step in divisors(m)}
        return passes[k, m]

    return reference


@pytest.mark.parametrize("k, m", CHAIN_POWER_SHAPES + [(24, 1), (13, 2), (7, 4), (5, 6)])
def test_prune_matches_the_reference_pass_on_chain_powers(reference_passes, k, m):
    bottoms = ChainBottoms((k - 1) * m, k - 1)
    for step, reference in reference_passes(k, m).items():
        check_against_reference(prune_chains(bottoms, step), reference, k, m, step)


@pytest.mark.parametrize("k, m", [(2, 12), (3, 9), (4, 6), (7, 4), (5, 6), (24, 1), (65, 1)])
def test_level_names_decode_to_the_canonical_levels_of_the_reference_piece(reference_passes, k, m):
    """Every name the level-number pass gives, read as m base-k digits, is
    the level tuple of the reference pass's kept mask, and every orbit name
    is canonical_levels of it; the orbit names are the canonical tuples."""
    n = (k - 1) * m
    for step, reference in reference_passes(k, m).items():
        family = prune_chains(ChainBottoms(n, k - 1), step)
        assert [pc.source for pc in family.chains] == [pc.source for pc in reference]
        for pc, ref in zip(family.chains, reference):
            for x, rep, a in zip(pc.kept.elements, pc.orbits.elements, ref.kept.elements):
                assert level_digits(x, k, m) == mask_levels(a, k, m)
                assert level_digits(rep, k, m) == canonical_levels(mask_levels(a, k, m), step)


def test_prune_refuses_a_step_off_the_blocks():
    # the rotation is counted in whole blocks and must divide their number
    bottoms = ChainBottoms(12, 3)
    for shift in (0, -1, 3, 5, 8, 12):  # four blocks of width 3
        with pytest.raises(ValueError, match="must divide the number of blocks, got .* for 4"):
            prune_chains(bottoms, shift)
    for shift in (1, 2, 4):
        assert sum(len(pc.kept) for pc in prune_chains(bottoms, shift).chains) == sum(necklace_ranks(4, 4, shift))
    with pytest.raises(ValueError, match="must divide"):
        prune_chains(ChainBottoms(0), 1)  # no blocks to rotate


class _WriteOnce(bytearray):
    """Marks that log every write and refuse a second write to any index."""

    def __init__(self, size):
        super().__init__(size)
        self.writes = []

    def __setitem__(self, i, value):
        assert not bytearray.__getitem__(self, i), f"mark {i} written twice"
        self.writes.append(i)
        bytearray.__setitem__(self, i, value)


# B_n by (n, shift); then chain powers (7, 4) and (5, 6) at n = 24, beyond
# QUOTIENT_LIMIT, by (n, width, shift); every one marked by level number
@pytest.mark.parametrize("n, width, shift", [
    pytest.param(12, 1, 1, id="12-1"),
    pytest.param(12, 1, 4, id="12-4"),
    pytest.param(16, 1, 2, id="16-2"),
    pytest.param(24, 6, 1, id="24-6-6"),  # these two ids give the rotation in bits
    pytest.param(24, 4, 2, id="24-4-8"),
])
def test_prune_walks_each_orbit_once(monkeypatch, n, width, shift):
    """Each orbit a kept piece covers is walked once: every name in it is
    marked exactly once, so the writes are the members of the covered orbits."""
    marks = []
    monkeypatch.setattr(prune, "bytearray", lambda size: marks.append(_WriteOnce(size)) or marks[-1], raising=False)
    k, m = width + 1, n // width
    expected = sum(necklace_ranks(k, m, shift))
    orbit_of = lambda x: {tuple_rotate(level_digits(x, k, m), j) for j in range(0, m, shift)}
    family = prune_chains(ChainBottoms(n, width), shift)
    [written] = marks
    covered = [orbit_of(x) for pc in family.chains for x in pc.orbits.elements]
    assert len(covered) == expected
    assert len(written.writes) == sum(map(len, covered)) == len(written)  # every orbit is covered
    assert {level_digits(x, k, m) for x in written.writes} == set().union(*covered)


def test_constructions_build_no_gk_scd(monkeypatch):
    """Quotients, their fixed-point factor included, and chain powers stream
    the greedy pass from sorted bottoms, and reflections grow their half-cube
    and Boolean chains from ChainBottoms; gk_scd(n) serves only the gk path."""
    built, passes = gk.gk_scd, []

    def refuse(n):
        raise AssertionError(f"gk_scd({n}) built off the gk path")

    for name, module in list(sys.modules.items()):
        if name.startswith("scdforge.") and getattr(module, "gk_scd", None) is built:
            monkeypatch.setattr(module, "gk_scd", refuse)
    run_pass = prune.prune_chains
    monkeypatch.setattr(prune, "prune_chains", lambda b, *rest, **kw: passes.append(b.n) or run_pass(b, *rest, **kw))
    with pytest.raises(AssertionError, match="off the gk path"):
        gk.gk_scd(12)
    group = parse_group_spec("(1 2 3 4 5 6)(7 8 9 10)^2", 12)
    assert quotient_scd(12, group).element_count() == burnside_count(12, group)
    assert chainpower_scd(3, 6, 1).element_count() == sum(necklace_ranks(3, 6, 1))
    assert passes == [6, 4, 12]
    # with fixed points, without them, and with no transposition left
    for n, text in [(9, "(1 9)(3 4)"), (8, "(1 8)(2 7)(3 6)(4 5)"), (7, "(2 5)^2")]:
        rho = parse_group_spec(text, n)
        assert reflection_scd(n, rho).element_count() == reflection_poset(n, rho).size()
    assert passes == [6, 4, 12]  # and reflections run no pruning pass


def test_results_are_freed_with_their_callers():
    # no process-wide cache keeps a decomposition: a sweep over shapes leaves nothing behind
    sweeps = [
        lambda: [quotient_scd(n, f"({' '.join(map(str, range(1, n + 1)))})^2") for n in range(8, 14)],
        lambda: [quotient_scd_cyclic(n, 1) for n in range(8, 15)],
        lambda: [chainpower_scd(k, m) for k, m in [(3, 6), (4, 4), (2, 12)]],
        lambda: [gk_decomposition(n) for n in range(8, 13)],
    ]
    retained = []
    gc.collect()
    tracemalloc.start()
    try:
        for sweep in sweeps:
            start = tracemalloc.get_traced_memory()[0]
            results = sweep()
            assert all(decomp.element_count() > 1 for decomp in results)
            del results
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0] - start)
    finally:
        tracemalloc.stop()
    assert max(retained) < 16 << 10, retained


@pytest.mark.parametrize("n", range(1, 11))
def test_quotient_scd_cyclic_verifies(n):
    for step in divisors(n):
        decomp = quotient_scd_cyclic(n, step)
        poset = quotient_poset(n, rotation_group(n, step))
        report = verify_decomposition(poset, decomp)
        assert report.ok, report.summary()


def test_quotient_scd_cyclic_examples():
    assert quotient_scd_cyclic(4, 1).chain_sizes() == (5, 1)

    trivial = quotient_scd_cyclic(4, 4)
    assert [c.elements for c in trivial.chains] == [
        c.elements for c in gk_decomposition(4).chains
    ]

    assert len(quotient_scd_cyclic(6, 1).chains) == 4  # middle-rank necklaces


def test_quotient_scd_cyclic_normalizes_step():
    assert quotient_scd_cyclic(6, 4) == quotient_scd_cyclic(6, 2)


@pytest.mark.parametrize("n", range(2, 11))
def test_chain_count_equals_middle_rank_orbits(n):
    for step in divisors(n):
        decomp = quotient_scd_cyclic(n, step)
        middle, rotation = n // 2, rotation_group(n, step)
        middles = {
            orbit_rep(a, rotation)
            for a in range(1 << n)
            if a.bit_count() == middle
        }
        assert len(decomp.chains) == len(middles)


def test_quotient_scd_mixed_group():
    decomp = quotient_scd(5, "(1 2)(3 4 5)")
    assert decomp.element_count() == 12
    assert decomp.context.group == "(1 2)(3 4 5)"


def test_quotient_scd_single_cycle_matches_cyclic():
    via_group = quotient_scd(4, "(1 2 3 4)")
    direct = quotient_scd_cyclic(4, 1)
    assert [c.elements for c in via_group.chains] == [c.elements for c in direct.chains]


def test_quotient_scd_with_fixed_points():
    decomp = quotient_scd(6, "(1 2 3 4)^2")
    assert decomp.element_count() == 40
    assert decomp.rank_counts() == tuple(reversed(decomp.rank_counts()))


def test_quotient_scd_trivial_group():
    decomp = quotient_scd(4, "(1 2)^2")
    assert [c.elements for c in decomp.chains] == [
        c.elements for c in gk_decomposition(4).chains
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_naming_each_factor_matches_naming_after_the_fold(n):
    for group in every_cycle_power_group(n):
        assert quotient_scd(n, group) == named_after_fold(n, group), group.text()


@pytest.mark.parametrize("n", range(9, 15))
def test_naming_each_factor_matches_naming_after_the_fold_with_fixed_points(n):
    for group in sampled_groups_with_fixed_points(n, 6):
        assert factorize(n, group)[0], group.text()  # the fixed-point mask
        assert quotient_scd(n, group) == named_after_fold(n, group), group.text()


def test_quotient_scd_names_orbits_one_factor_at_a_time(monkeypatch):
    # each factor's local quotient is named once, element by element, under the quotient's own group
    group = parse_group_spec("(1 5 9)(2 6 10 13)^2 (3 7)(4 8 11 12)^3", 14)
    factors = factorize(14, group)[1]
    # the reference is built before orbit_rep is watched, as quotient_scd_cyclic names its own orbits
    local = [quotient_scd_cyclic(f.length, f.exponent) for f in factors]
    # factor by factor, each orbit of its local quotient, named by its least word b_1...b_L
    # (its least level number), moved onto the factor's cycle
    moved = [
        sum(1 << (f.cycle[i] - 1) for i in range(f.length) if b >> i & 1)
        for f, part in zip(factors, local)
        for c in part.chains
        for a in c.elements
        for b in [min({rotate(a, j, f.length) for j in range(0, f.length, f.exponent)},
                      key=lambda b: word_reverse(b, f.length))]
    ]
    named = []
    for module in (groups, prune):
        original = module.orbit_rep
        monkeypatch.setattr(module, "orbit_rep", lambda s, g, f=original: named.append((s, g)) or f(s, g))
    decomp = quotient_scd(14, group)
    count = sum(part.element_count() for part in local)
    assert len(named) == count == 4 + 10 + 3 + 6 < decomp.element_count() == burnside_count(14, group)
    assert all(g is group for _, g in named)
    assert [s for s, _ in named] == moved


def test_quotient_scd_against_dumb_checker():
    spec = parse_group_spec("(1 2 3)(4 5)", 5)
    decomp = quotient_scd(5, spec)
    orbits = naive_orbits(5, generators(spec))
    rep_of = {}
    for orb in orbits:
        rep = min(orb)
        for mask in orb:
            rep_of[mask] = rep

    def leq(a, b):
        return any(rep_of[x] == a and x | b == b for x in range(1 << 5))

    assert is_scd(
        [min(orb) for orb in orbits],
        lambda rep: rep.bit_count(),
        leq,
        [list(c.elements) for c in decomp.chains],
        5,
    )


def test_shadow_closure_examples():
    assert shadow_closure_failures(gk_scd(4), 1) == []
    assert shadow_closure_failures(gk_scd(6), 2) == []
    assert shadow_closure_failures(gk_scd(5), 5) == []  # trivial group: vacuous


@pytest.mark.parametrize("n", range(1, 11))
def test_shadow_closure_small(n):
    scd = gk_scd(n)
    for step in divisors(n):
        assert shadow_closure_failures(scd, step) == [], (n, step)


@pytest.mark.parametrize("n, step", [(12, 1), (12, 4), (14, 2), (9, 9)])
def test_prune_stops_once_every_orbit_is_kept(n, step):
    # every element lies on some chain, so once all are marked no later chain is read
    bottoms = ChainBottoms(n)
    read = []
    streamed = SimpleNamespace(n=n, width=1, packed=(read.append(p) or p for p in bottoms.packed))
    family = prune_chains(streamed, step)
    assert family == prune_chains(bottoms, step)
    assert len(read) == family.chains[-1].source + 1
    assert len(read) < len(bottoms.packed) or step == n  # the trivial group keeps every chain
