import gc
import itertools
import math
import random
import sys
import tracemalloc
from array import array

import pytest

from oracles import (
    ascends,
    cycle_count,
    enumerated_rank_counts,
    every_cycle_power_group,
    full_rotations_ranks,
    generators,
    group_element_ranks,
    group_elements,
    naive_orbit_ranks,
    naive_orbits,
    orbit_closure_ascends,
    orbit_min,
    random_cycle_power_group,
    sampled_groups_with_fixed_points,
    table_ascends,
)
from scdforge import groups
from scdforge.core import CHUNK_BITS, ResourceLimitError, mask_of
from scdforge.groups import (
    CycleFactor,
    GroupSpec,
    ParseError,
    QuotientPoset,
    _members,
    apply_perm,
    burnside_count,
    factorize,
    orbit_rep,
    parse_group_spec,
    perm_from_cycle_power,
    quotient_poset,
    rank_counts,
)
from scdforge.prune import quotient_scd
from scdforge.reflect import reflection_poset, reflection_scd


def test_parse_single_cycle():
    spec = parse_group_spec("(1 2 3 4)", 4)
    assert spec.factors == (CycleFactor((1, 2, 3, 4), 1),)


def test_parse_powers_and_multiple_terms():
    spec = parse_group_spec("(1 2 3 4)^2 (5 6)", 6)
    assert [f.cycle for f in spec.factors] == [(1, 2, 3, 4), (5, 6)]
    assert [f.exponent for f in spec.factors] == [2, 1]


def test_parse_overlap_rejected():
    with pytest.raises(ParseError, match="cycles not disjoint"):
        parse_group_spec("(1 2)(2 3)", 3)


def test_parse_range_rejected():
    with pytest.raises(ParseError, match="element out of range"):
        parse_group_spec("(1 5)", 4)
    with pytest.raises(ParseError, match="element out of range"):
        parse_group_spec("(0 1)", 4)


def test_parse_malformed():
    for text in ["", "1 2 3", "(1 2", "()", "(1 2)^", "(1 2) x", "(1 -2)"]:
        with pytest.raises(ParseError):
            parse_group_spec(text, 6)
    try:
        parse_group_spec("(1 2) x", 6)
    except ParseError as e:
        assert e.position is not None


def test_text_round_trip():
    for text in ["(1 2 3 4)", "(1 2 3 4)^2 (5 6)", "(2 4 6)^0 (1 3)"]:
        spec = parse_group_spec(text, 6)
        assert parse_group_spec(spec.text(), 6) == spec


def test_apply_perm_examples():
    shift = perm_from_cycle_power((1, 2, 3, 4), 1, 4)
    assert apply_perm(shift, mask_of([1, 2])) == mask_of([2, 3])
    assert apply_perm(shift, mask_of([4])) == mask_of([1])
    identity = tuple(range(1, 5))
    assert apply_perm(identity, mask_of([2, 4])) == mask_of([2, 4])


def test_orbit_examples():
    cyc4 = parse_group_spec("(1 2 3 4)", 4)
    poset = quotient_poset(4, cyc4)
    assert sorted(_members(mask_of([3]), cyc4._powers)) == [1, 2, 4, 8]
    assert orbit_rep(mask_of([3]), cyc4) == 1 and poset.orbit_size(1) == 4

    assert sorted(_members(mask_of([2, 4]), cyc4._powers)) == [mask_of([1, 3]), mask_of([2, 4])]
    assert orbit_rep(mask_of([2, 4]), cyc4) == mask_of([1, 3])
    assert poset.orbit_size(mask_of([1, 3])) == poset.orbit_size(mask_of([2, 4])) == 2

    trivial = quotient_poset(4, GroupSpec.trivial(4))
    assert _members(0, cyc4._powers) == _members(0, trivial.group._powers) == [0]
    assert poset.orbit_size(0) == trivial.orbit_size(0) == trivial.orbit_size(mask_of([2, 4])) == 1


def _in_rank_order(masks):
    return sorted(masks, key=lambda e: (e.bit_count(), e))


def _assert_orbits_match(poset, naive):
    """poset.orbits names each naive orbit by its least mask, in (rank, mask)
    order; _members lists it, orbit_rep finds its least mask from every member
    and orbit_size counts it."""
    assert poset.orbits == tuple(_in_rank_order(min(s) for s in naive))
    powers = poset.group._powers
    for s in naive:
        least = min(s)
        members = _members(least, powers)
        assert len(members) == len(set(members)) and set(members) == s
        assert poset.orbit_size(least) == len(s)
        assert all(orbit_rep(x, poset.group) == least for x in s)


@pytest.mark.parametrize(
    "n, text",
    [
        (4, "(1 2 3 4)"),
        (4, "(1 4)(2 3)"),
        (6, "(1 2 3 4)^2 (5 6)"),
        (7, "(1 2 3)(4 5 6 7)^2"),
        (8, "(1 3 5 7)(2 4 6 8)"),
    ],
)
def test_orbits_and_burnside_against_naive(n, text):
    spec = parse_group_spec(text, n)
    gens = generators(spec)
    naive = naive_orbits(n, gens)
    assert burnside_count(n, spec) == len(naive)
    poset = quotient_poset(n, spec)
    assert poset.size() == len(naive)
    _assert_orbits_match(poset, naive)
    assert list(poset.elements()) == list(poset.orbits)
    assert sum(map(poset.orbit_size, poset.orbits)) == 1 << n
    # Burnside agrees with averaging over an order-agnostic closure too
    elements = group_elements(gens, n)
    assert len(elements) == spec.order()
    acc = sum(1 << cycle_count(g) for g in elements)
    assert acc // len(elements) == len(naive)


def test_burnside_examples():
    assert burnside_count(4, parse_group_spec("(1 2 3 4)", 4)) == 6
    assert burnside_count(3, GroupSpec.trivial(3)) == 8


def test_burnside_two_element_reflection_group():
    # "(1 4)(2 3)" as a GroupSpec lists two independent generators (order 4,
    # 9 orbits); the two-element group {1, (14)(23)} is the k-th power of a
    # single 2k-cycle and averages (2^4 + 2^2) / 2 = 10.
    from scdforge.reflect import involution_group

    multi = parse_group_spec("(1 4)(2 3)", 4)
    assert multi.order() == 4
    assert burnside_count(4, multi) == 9
    assert burnside_count(4, multi) == len(naive_orbits(4, generators(multi)))

    two = involution_group(4, [(1, 4), (2, 3)])
    assert two.order() == 2
    assert burnside_count(4, two) == 10
    assert burnside_count(4, two) == len(naive_orbits(4, generators(two)))


def _seven_rotations_at_64():
    lengths = [4, 5, 7, 8, 9, 11, 13]
    start = 1
    factors = []
    for length in lengths:
        factors.append(CycleFactor(tuple(range(start, start + length)), 1))
        start += length
    return lengths, GroupSpec(64, tuple(factors))


def test_burnside_count_of_a_large_group_needs_no_guard():
    # the cycle-index count costs the same at any group order: no ResourceLimitError at order 1.4 * 10^6
    lengths, spec = _seven_rotations_at_64()
    assert spec.order() == math.prod(lengths) > 10**6
    counts = rank_counts(64, spec)
    assert counts == full_rotations_ranks(64, lengths)
    assert burnside_count(64, spec) == sum(counts)


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_counts_against_naive_orbits_of_every_group(n):
    for spec in every_cycle_power_group(n):
        assert rank_counts(n, spec) == naive_orbit_ranks(n, generators(spec)), spec.text()


@pytest.mark.parametrize("n", range(9, 15))
def test_rank_counts_against_naive_orbits_of_sampled_groups(n):
    for spec in sampled_groups_with_fixed_points(n, 6):
        assert rank_counts(n, spec) == naive_orbit_ranks(n, generators(spec)), spec.text()


@pytest.mark.parametrize(
    "n, text",
    [
        (12, "(1 2 3 4 5 6 7 8 9 10 11 12)^5"),
        (16, "(1 2 3 4)^2 (5 6 7 8 9 10) (11 12 13) (14 15)"),
        (24, "(1 2 3 4 5 6 7 8)^3 (9 10 11 12 13 14 15 16 17)^6 (18 19 20 21 22)"),
        (33, "(1 2 3 4 5 6 7)(8 9 10 11 12 13 14 15 16 17 18)^4 (19 20 21 22 23 24 25 26 27 28 29 30 31)"),
        (40, "(1 2 3 4 5 6 7)(8 9 10 11 12 13 14 15)(16 17 18)^0 (19 20 21 22 23 24 25 26 27)^3 (28 29 30 31 32 33 34 35 36 37 38)"),
        (40, " ".join(f"({2 * i + 1} {2 * i + 2})" for i in range(13))),
    ],
)
def test_rank_counts_against_every_group_element(n, text):
    spec = parse_group_spec(text, n)
    assert spec.order() <= 10**4
    counts = group_element_ranks(n, spec)
    assert rank_counts(n, spec) == counts
    assert burnside_count(n, spec) == sum(counts)


def test_orbit_rep_idempotent():
    spec = parse_group_spec("(1 2 3)(4 5 6 7)^2", 7)
    for a in range(0, 1 << 7, 3):
        rep = orbit_rep(a, spec)
        assert orbit_rep(rep, spec) == rep
        assert rep == min(_closure(a, generators(spec)))


def _rank_buckets(poset):
    """poset.orbits split by rank, once it is checked to be in (rank, mask) order."""
    assert list(poset.orbits) == _in_rank_order(poset.orbits)
    return [[e for e in poset.orbits if e.bit_count() == r] for r in range(poset.n + 1)]


def test_quotient_profiles():
    from scdforge.reflect import involution_group

    assert _rank_buckets(quotient_poset(4, parse_group_spec("(1 2 3 4)", 4))) == [[0], [1], [3, 5], [7], [15]]
    assert _rank_buckets(quotient_poset(2, parse_group_spec("(1 2)", 2))) == [[0], [1], [3]]
    assert _rank_buckets(quotient_poset(3, GroupSpec.trivial(3))) == [[0], [1, 2, 4], [3, 5, 6], [7]]
    two = involution_group(4, [(1, 4), (2, 3)])
    assert [len(b) for b in _rank_buckets(quotient_poset(4, two))] == [1, 2, 4, 2, 1]


def test_quotient_leq_against_naive():
    spec = parse_group_spec("(1 2 3 4)^2 (5 6)", 6)
    poset = quotient_poset(6, spec)
    reps = list(poset.elements())
    gens = generators(spec)
    for a in reps:
        orb_a = _closure(a, gens)
        for b in reps:
            orb_b = _closure(b, gens)
            naive = any(x | y == y for x in orb_a for y in orb_b)
            assert ascends(poset, (a, b)) == naive


def _identity_powers(n):
    """Groups on [n] with a factor whose power is the identity (^0 or ^length)."""
    whole = tuple(range(1, n + 1))
    yield GroupSpec(n, (CycleFactor(whole, n),))
    if n >= 3:
        yield GroupSpec(n, (CycleFactor((1, 2), 0), CycleFactor(whole[2:], 1)))
        yield GroupSpec(n, (CycleFactor((1, 2), 1), CycleFactor(whole[2:], n - 2)))


@pytest.mark.parametrize("n", range(1, 7))
def test_ascends_matches_orbit_closure_on_every_pair(n):
    rng = random.Random(f"every pair {n}")
    specs = [*every_cycle_power_group(n), *_identity_powers(n)]
    specs += [random_cycle_power_group(n, rng) for _ in range(4)]
    runs = [(a,) for a in range(1 << n)] + list(itertools.product(range(1 << n), repeat=2))
    for spec in specs:
        poset = quotient_poset(n, spec)
        failing = set(poset.failing_runs(runs))
        for i, run in enumerate(runs):
            assert (i not in failing) == orbit_closure_ascends(poset, run), (spec, run)


def _odd_element(n, rng):
    """An input that is not a mask of [n]: a bool, a negative or too large int, or no int at all."""
    limit = 1 << n
    return rng.choice([True, False, -1, -rng.randrange(1, limit + 1), limit, limit + rng.randrange(limit), 1 << 70, 1.0, 0.0, None, "1", (0,)])


def _ascends_input(poset, rng):
    """One to four elements: a climb through canonical elements, possibly
    with one element swapped for a random mask or an odd input, or a list of
    random masks and odd inputs."""
    n, group, size = poset.n, poset.group, rng.randrange(1, 5)
    if rng.random() < 0.6:
        a = orbit_rep(rng.randrange(1 << n), group)
        seq = [a]
        while len(seq) < size:
            gaps = [i for i in range(n) if not a >> i & 1]
            if gaps:
                a = orbit_rep(a | 1 << rng.choice(gaps), group)
            seq.append(a)
        if rng.random() < 0.4:
            seq[rng.randrange(size)] = rng.randrange(1 << n) if rng.random() < 0.6 else _odd_element(n, rng)
        return seq
    return [rng.randrange(1 << n) if rng.random() < 0.7 else _odd_element(n, rng) for _ in range(size)]


def test_ascends_matches_orbit_closure_on_random_groups():
    rng = random.Random("ascends against orbit closure")
    answers = []
    for _ in range(1000):
        n = rng.randrange(1, 10)
        poset = quotient_poset(n, random_cycle_power_group(n, rng))
        seqs = [_ascends_input(poset, rng) for _ in range(80)]
        failing = poset.failing_runs(seqs)
        assert poset.failing_runs(map(iter, seqs)) == failing
        for i, seq in enumerate(seqs):
            expected = orbit_closure_ascends(poset, seq)
            assert (i not in failing) == expected, (poset.group, seq)
            answers.append(expected)
    assert 0.2 < sum(answers) / len(answers) < 0.8


def _mutated(poset, run, rng):
    """The run with one change each: an odd element (a bool, a float, -1, 2^n,
    2^31 or 2^32) in place of one, two adjacent elements swapped, a random
    mask appended, an element replaced by another member of its orbit, an
    element repeated, and one element alone."""
    n, i = poset.n, rng.randrange(len(run))
    out = [run[:i] + (odd,) + run[i + 1 :] for odd in (True, 1.0, -1, 1 << n, 1 << 31, 1 << 32)]
    if len(run) > 1:
        j = rng.randrange(len(run) - 1)
        out.append(run[:j] + (run[j + 1], run[j]) + run[j + 2 :])
    out.append(run + (rng.randrange(1 << n),))
    others = [m for m in _members(run[i], poset.group._powers) if m != run[i]]
    if others:
        out.append(run[:i] + (rng.choice(others),) + run[i + 1 :])
    out += [run[: i + 1] + run[i:], (run[i],)]
    return out


def _agrees_with_the_table_walk(poset, runs) -> int:
    """failing_runs on all the runs in one call against the former walk, run by run."""
    failing = poset.failing_runs(runs)
    expected = [i for i, run in enumerate(runs) if not table_ascends(poset, run)]
    if failing != expected:
        first = min(set(failing) ^ set(expected))
        raise AssertionError((poset.group, runs[first], first in failing))
    return len(runs)


def _built_and_mutated(poset, decomp, rng) -> int:
    runs = [c.elements for c in decomp.chains]
    return _agrees_with_the_table_walk(poset, runs + [m for run in runs for m in _mutated(poset, run, rng)])


WORKLOAD_GROUPS = [  # the benchmark's seed-0 groups at n = 18
    "(13 14 2 5 9 8 7 15 18 6 4 11 16 3 17 1 10 12)",
    "(10 4 3 15 14 11) (6 8 9 2 12 17)^2 (16 5 18 13)",
]
WORKLOAD_REFLECTION = "(1 14)(2 4)(3 18)(5 9)(6 7)(8 15)(10 13)(11 17)(12 16)"
BOUNDARY_GROUP = "(3 5 9 12 14)(10 11 13 21 16 17 18)^3 (1 22 19)(2 20)"  # both chunks full at n = 22


def test_failing_runs_matches_the_table_walk():
    rng = random.Random("lanes against the table walk")
    tested = 0
    for n in range(1, 8):
        for spec in every_cycle_power_group(n):
            tested += _built_and_mutated(quotient_poset(n, spec), quotient_scd(n, spec), rng)
    for _ in range(40):
        n = rng.randrange(1, 13)
        spec = random_cycle_power_group(n, rng)
        tested += _built_and_mutated(quotient_poset(n, spec), quotient_scd(n, spec), rng)
    for n, text in [(18, WORKLOAD_GROUPS[0]), (18, WORKLOAD_GROUPS[1]), (22, BOUNDARY_GROUP)]:
        spec = parse_group_spec(text, n)
        tested += _built_and_mutated(quotient_poset(n, spec), quotient_scd(n, spec), rng)
    poset = reflection_poset(18, parse_group_spec(WORKLOAD_REFLECTION, 18))
    tested += _built_and_mutated(poset, reflection_scd(18, WORKLOAD_REFLECTION), rng)
    assert tested > 20000


def test_failing_runs_matches_the_table_walk_on_every_pair_at_6():
    pairs = list(itertools.product(range(1 << 6), repeat=2))
    for spec in every_cycle_power_group(6):
        _agrees_with_the_table_walk(quotient_poset(6, spec), pairs)


def test_failing_runs_is_the_same_wherever_a_slice_ends():
    # slices hold whole runs: the one that reaches _SLICE lanes closes a slice, at each of its offsets
    spec = parse_group_spec(WORKLOAD_GROUPS[0], 18)
    poset = quotient_poset(18, spec)
    runs = [c.elements for c in quotient_scd(18, spec).chains]
    longest = max(runs, key=len)
    swapped = longest[:5] + (longest[6], longest[5]) + longest[7:]
    assert all(table_ascends(poset, run) for run in runs)
    for run in (longest, swapped):
        for k in range(len(run) + 1):
            filler, size = [], 0
            for other in itertools.cycle(runs):  # every one ascends
                if size + len(other) > groups._SLICE - k:
                    break
                filler.append(other)
                size += len(other)
            filler += [(0,)] * (groups._SLICE - k - size)
            tail = [run, swapped, (0, 1 << 18), (1 << 18,)] + runs[:50]
            expected = [len(filler) + i for i, other in enumerate(tail) if not table_ascends(poset, other)]
            assert poset.failing_runs(filler + tail) == expected, (len(run), k)


def _lane_images_agree(spec, masks):
    """Each power's image of the masks, packed in lanes, against t0[lo] + t1[hi]."""
    x = groups._packed([masks], spec.n)
    ones = int.from_bytes(b"\1\0\0\0" * len(masks), "little")
    assert len(spec._powers) == len(spec._shifts)
    for (support, tables), (same, steps) in zip(spec._powers, spec._shifts):
        assert same == support and len(tables) == len(steps)
        for (t0, t1), moves in zip(tables, steps):
            words = array("I", groups._lane_image(x, [(mask * ones, shift) for mask, shift in moves]).to_bytes(4 * len(masks), "little"))
            if sys.byteorder == "big":
                words.byteswap()
            assert list(words) == [t0[e & (1 << CHUNK_BITS) - 1] + t1[e >> CHUNK_BITS] for e in masks], spec


def test_lane_images_match_the_chunk_tables():
    rng = random.Random("lane images")
    for _ in range(60):
        n = rng.randrange(1, 13)
        _lane_images_agree(random_cycle_power_group(n, rng), range(1 << n))
    for spec in [parse_group_spec(BOUNDARY_GROUP, 22)] + [random_cycle_power_group(22, rng) for _ in range(20)]:
        _lane_images_agree(spec, [rng.getrandbits(22) for _ in range(3000)])


@pytest.mark.parametrize(
    "n, text",
    [
        (4, "(1 2 3 4)"),
        (6, "(1 2 3 4)^2 (5 6)"),
        (7, "(1 2 3)(4 5 6 7)^2"),
        (8, "(1 3 5 7)(2 4 6 8)"),
        (9, "(1 2 3 4 5)(6 7 8)"),
    ],
)
def test_quotient_profiles_are_symmetric_and_unimodal(n, text):
    from scdforge.verify import rank_profile

    spec = parse_group_spec(text, n)
    profile = rank_profile(rank_counts(n, spec))
    assert profile.counts == enumerated_rank_counts(quotient_poset(n, spec))
    assert profile.symmetric
    assert profile.unimodal


def test_quotient_covers_are_adjacent_comparables():
    poset = quotient_poset(4, parse_group_spec("(1 2 3 4)", 4))
    covers = set(poset.covers())
    assert (mask_of([1]), mask_of([1, 2])) in covers
    assert (mask_of([1]), mask_of([1, 3])) in covers
    for lower, upper in covers:
        assert poset.rank(upper) == poset.rank(lower) + 1
        assert ascends(poset, (lower, upper))
    for n, text in [
        (5, None),
        (6, "(1 2 3 4 5 6)"),
        (6, "(1 2 3 4 5 6)^2"),
        (7, "(1 2 3)(4 5 6 7)^2"),
        (8, "(1 8)(2 7)(3 6)(4 5)"),
        (9, "(1 2 3 4 5)(6 7 8)"),
        (9, "(2 5 7)(1 9)"),
    ]:
        group = parse_group_spec(text, n) if text else GroupSpec.trivial(n)
        poset = quotient_poset(n, group)
        buckets = _rank_buckets(poset)
        pairwise = [
            (lower, upper)
            for r in range(n)
            for lower in buckets[r]
            for upper in buckets[r + 1]
            if ascends(poset, (lower, upper))
        ]
        assert list(poset.covers()) == pairwise, (n, text)


def test_trivial_quotient_covers_at_16():
    # every subset has 16 - |A| upper covers: n * 2^(n-1) edges in all
    n = 16
    edges = sum(1 for _ in quotient_poset(n, GroupSpec.trivial(n)).covers())
    assert edges == n << (n - 1)


def test_quotient_guard():
    with pytest.raises(ResourceLimitError):
        quotient_poset(23, GroupSpec.trivial(23))


def test_quotient_guard_fires_at_construction(monkeypatch):
    def refuse(*args):
        raise AssertionError("an orbit was walked")

    monkeypatch.setattr("scdforge.groups._members", refuse)
    monkeypatch.setattr(GroupSpec, "_powers", property(refuse))
    with pytest.raises(ResourceLimitError):
        quotient_poset(23, GroupSpec.trivial(23))
    with pytest.raises(ResourceLimitError):
        QuotientPoset(23, parse_group_spec("(1 2 3)", 23))


def test_quotient_poset_enumerates_on_first_use(monkeypatch):
    walks = []
    original = groups._members

    def counted(s, group_walks):
        walks.append(s)
        return original(s, group_walks)

    monkeypatch.setattr("scdforge.groups._members", counted)
    poset = quotient_poset(6, parse_group_spec("(1 2 3 4 5 6)", 6))
    assert walks == []
    assert poset.expected_size() == 14
    assert walks == []
    assert poset.size() == 14
    assert len(walks) == 14
    assert poset.orbits[0] == 0 and poset.orbit_size(0) == 1
    assert len(walks) == 14


def test_normalized_power_generates_same_subgroup():
    gen = perm_from_cycle_power((1, 2, 3, 4, 5, 6), 4, 6)
    norm = perm_from_cycle_power((1, 2, 3, 4, 5, 6), 2, 6)
    assert set(group_elements([gen], 6)) == set(group_elements([norm], 6))


def test_factorize_examples():
    fixed, factors = factorize(5, parse_group_spec("(1 2)(3 4 5)", 5))
    assert fixed == 0
    assert [f.support_mask() for f in factors] == [mask_of([1, 2]), mask_of([3, 4, 5])]

    fixed, factors = factorize(6, parse_group_spec("(1 2 3 4)^2", 6))
    assert fixed == mask_of([5, 6])
    assert len(factors) == 1
    assert factors[0].exponent == 2

    fixed, factors = factorize(4, parse_group_spec("(1 2)^2", 4))
    assert fixed == mask_of([1, 2, 3, 4])
    assert factors == ()

    # the step is normalized to gcd(exponent, length); the cycle order is kept
    fixed, factors = factorize(7, parse_group_spec("(3 7 5)(1 2 4 6)^6", 7))
    assert factors == (CycleFactor((3, 7, 5), 1), CycleFactor((1, 2, 4, 6), 2))
    assert [(f.cycle, f.length, f.exponent) for f in factors] == [
        ((3, 7, 5), 3, 1),
        ((1, 2, 4, 6), 4, 2),
    ]


@pytest.mark.parametrize(
    "n, text",
    [
        (5, "(1 2)(3 4 5)"),
        (6, "(1 2 3 4)^2"),
        (9, "(1 2 3 4 5)(6 7 8)"),
        (10, "(2 4 6)(7 8)(9 10)^2"),
    ],
)
def test_block_split_is_an_order_isomorphism(n, text):
    """Splitting an orbit into its fixed part and per-block orbits is a
    bijection that preserves comparability in both directions."""
    from scdforge.prune import rotation_group

    spec = parse_group_spec(text, n)
    fixed, factors = factorize(n, spec)
    whole = quotient_poset(n, spec)
    rotations = [rotation_group(f.length, f.exponent) for f in factors]

    def project(rep):
        parts = [rep & fixed]
        for f, rotation in zip(factors, rotations):
            local = 0
            for pos, element in enumerate(f.cycle):
                if rep >> (element - 1) & 1:
                    local |= 1 << pos
            parts.append(orbit_rep(local, rotation))
        return tuple(parts)

    reps = list(whole.elements())
    images = [project(r) for r in reps]
    assert len(set(images)) == len(reps)

    locals_posets = [
        quotient_poset(f.length, parse_group_spec(
            "(" + " ".join(str(i) for i in range(1, f.length + 1)) + f")^{f.exponent}",
            f.length,
        ))
        for f in factors
    ]
    pairs = list(itertools.product(range(len(reps)), repeat=2))
    failing = set(whole.failing_runs([(reps[a], reps[b]) for a, b in pairs]))
    local_failing = [set(lp.failing_runs([(images[a][j], images[b][j]) for a, b in pairs]))
                     for j, lp in enumerate(locals_posets, 1)]
    for i, (a, b) in enumerate(pairs):
        componentwise = images[a][0] | images[b][0] == images[b][0] and all(i not in f for f in local_failing)
        assert (i not in failing) == componentwise, (reps[a], reps[b])


def _crossing_groups(n):
    """Groups on [n] whose cycles cross the 11-bit chunk boundary when n > 11:
    several factors, an involution as one cycle power, an exponent-0 factor."""
    from scdforge.reflect import involution_group

    return [
        parse_group_spec(f"(1 2 3)(4 5 6 7)^2 (9 10 {n})", n),
        involution_group(n, [(1, n), (2, n - 1), (3, n - 2)]),
        parse_group_spec(f"(1 2 3 4)^0 (5 6 7 8 9 10 {n})^2", n),
    ]


@pytest.mark.parametrize("n", [11, 12, 13])
def test_quotient_orbits_against_naive_across_chunks(n):
    for spec in _crossing_groups(n):
        naive = naive_orbits(n, generators(spec))
        poset = quotient_poset(n, spec)
        _assert_orbits_match(poset, naive)
        assert poset.size() == burnside_count(n, spec)


def test_members_lists_each_member_once():
    for spec in _crossing_groups(13):
        for a in range(1 << 13):
            members = _members(a, spec._powers)
            assert len(set(members)) == len(members)
            assert set(members) == _closure(a, generators(spec))


def _closure(s, gens):
    members, stack = {s}, [s]
    while stack:
        x = stack.pop()
        for g in gens:
            y = apply_perm(g, x)
            if y not in members:
                members.add(y)
                stack.append(y)
    return members


def test_orbit_at_22_matches_set_closure():
    # both chunks full: elements 1-11 and 12-22, cycles across the boundary
    spec = parse_group_spec("(3 5 9 12 14)(10 11 13 21 16 17 18)^3 (1 22 19)(2 20)", 22)
    poset = QuotientPoset(22, spec)  # never enumerated here
    gens = generators(spec)
    rng = random.Random(22)
    for _ in range(300):
        a = rng.getrandbits(22) | 1 << rng.randrange(11) | 1 << rng.randrange(11, 22)
        members = sorted(_closure(a, gens))
        assert sorted(_members(a, spec._powers)) == members
        assert orbit_rep(a, spec) == members[0] == orbit_min(a, spec)
        assert poset.orbit_size(members[0]) == poset.orbit_size(a) == len(members)


@pytest.mark.parametrize("n", [23, 30, 64])
def test_group_action_is_refused_above_the_quotient_limit(n):
    # two 11-bit chunks cover QUOTIENT_LIMIT; beyond it no table is built, even for the trivial group
    for spec in (GroupSpec.trivial(n), parse_group_spec(f"(1 2 {n})(3 4)", n)):
        for act in (lambda: spec._powers, lambda: orbit_rep(5, spec)):
            with pytest.raises(ResourceLimitError, match="capped at n <= 22"):
                act()


def test_oracle_orbit_min_beyond_the_quotient_limit():
    # the reference the pass at n > 22 is pinned against: three chunks, elements 1-11, 12-22 and 23-30
    spec = parse_group_spec("(3 5 9 12 14)(10 11 13 21 23 24 30)^3 (1 22 29)(2 27)", 30)
    gens = generators(spec)
    rng = random.Random(30)
    for _ in range(200):
        a = rng.getrandbits(30) | 1 << rng.randrange(11) | 1 << rng.randrange(11, 22) | 1 << rng.randrange(22, 30)
        assert orbit_min(a, spec) == min(_closure(a, gens))


def _count_apply_perm(monkeypatch):
    calls = []
    original = groups.apply_perm

    def counted(perm, mask):
        calls.append(mask)
        return original(perm, mask)

    monkeypatch.setattr(groups, "apply_perm", counted)
    return calls


def test_action_tables_are_built_once_per_group(monkeypatch):
    # once per GroupSpec: the tables are its own, so an equal spec builds its own copy
    calls = _count_apply_perm(monkeypatch)
    spec = parse_group_spec("(1 2 3)(4 5 6 7)^2 (9 10 12)", 12)
    assert calls == []  # nothing is built before the first orbit
    orbit_rep(5, spec)
    # one evaluation per single bit of [12] for each non-identity power: 2 + 1 + 2 of them
    per_spec = [1 << b for b in range(12)] * 5
    assert calls == per_spec
    calls.clear()
    orbit_rep(6, spec)
    poset = quotient_poset(12, spec)
    assert poset.orbit_size(1) == 3 and poset.orbit_size(7) == 1
    assert ascends(poset, sorted(poset.elements())[:3])
    assert calls == []
    # an equal spec, and one with the same generators written with exponents past the lengths
    for other in (parse_group_spec(spec.text(), 12), parse_group_spec("(1 2 3)^4 (4 5 6 7)^6 (9 10 12)", 12)):
        orbit_rep(6, other)
        assert calls == per_spec
        assert other._powers == spec._powers and other._powers is not spec._powers
        orbit_rep(7, other)
        assert calls == per_spec
        calls.clear()


def test_a_groups_tables_are_freed_with_it():
    # no process-wide cache keeps a dropped spec's tables: 20 conjugates of an 18-cycle hold about 28 MB
    rng = random.Random("conjugates of an 18-cycle")
    specs = [GroupSpec(18, (CycleFactor(tuple(rng.sample(range(1, 19), 18)), 1),)) for _ in range(20)]
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        posets = [quotient_poset(18, spec) for spec in specs]
        for poset in posets:
            least = orbit_rep(mask_of([1, 2, 5]), poset.group)
            assert poset.orbit_size(least) == 18 and ascends(poset, (0, 1, least))
        held = tracemalloc.get_traced_memory()[0] - start
        del specs, posets, poset
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held > 20 << 20  # the tables were built
    assert retained < 2 << 20


@pytest.mark.parametrize("n, text", [
    (1, None),
    (5, "(1 2)(3 4 5)"),
    (10, "(1 3 5 7)(2 4 6 8)^3 (9 10)^0"),
    (11, "(1 2 3 4 5 6 7 8 9 10 11)^4"),
    (12, "(1 2 3)(4 5 6 7)^2 (9 10 12)"),
    (12, "(12 1 11 2)(3 10)^3 (4 9 5 8 6 7)^4"),
    (22, "(3 5 9 12 14)(10 11 13 21 16 17 18)^3 (1 22 19)(2 20)"),
    (22, "(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22)^6"),
])
def test_power_tables_match_apply_perm(n, text):
    # every mask up to n = 12; at n = 22, masks with bits in both chunks
    spec = parse_group_spec(text, n) if text else GroupSpec.trivial(n)
    moving = [f for f in spec.factors if f.order() > 1]
    assert len(spec._powers) == len(moving)
    if n <= 12:
        masks = range(1 << n)
    else:
        rng = random.Random(n)
        masks = [(1 << n) - 1] + [rng.getrandbits(n) | 1 << rng.randrange(11) | 1 << rng.randrange(11, n) for _ in range(2000)]
    for f, (support, tables) in zip(moving, spec._powers):
        assert support == f.support_mask()
        assert len(tables) == f.order() - 1
        for j, (t0, t1) in enumerate(tables, 1):
            perm = perm_from_cycle_power(f.cycle, f.exponent * j, n)
            assert len(t0) == 1 << min(n, 11) and len(t1) == 1 << max(n - 11, 0)
            for a in masks:
                assert t0[a & 0x7FF] + t1[a >> 11] == apply_perm(perm, a), (f, j, a)


def test_action_tables_leave_equality_and_hash_alone():
    a = parse_group_spec("(1 2 3)(4 5 6 7)^2", 8)
    b = parse_group_spec("(1 2 3)(4 5 6 7)^2", 8)
    orbit_rep(3, a)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert repr(a) == repr(b)
