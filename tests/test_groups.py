import math
import random

import pytest

from oracles import (
    cycle_count,
    enumerated_rank_counts,
    every_cycle_power_group,
    full_rotations_ranks,
    group_element_ranks,
    group_elements,
    naive_orbit_ranks,
    naive_orbits,
    orbit_closure_ascends,
    orbit_min,
    random_cycle_power_group,
    sampled_groups_with_fixed_points,
)
from scdforge import groups
from scdforge.core import ResourceLimitError, mask_of
from scdforge.groups import (
    CycleFactor,
    GroupSpec,
    ParseError,
    QuotientPoset,
    _members,
    apply_perm,
    burnside_count,
    factorize,
    orbit,
    orbit_rep,
    parse_group_spec,
    perm_from_cycle_power,
    quotient_poset,
    rank_counts,
)


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
    o = orbit(mask_of([1]), cyc4)
    assert o.members == (1, 2, 4, 8)
    assert o.rep == 1 and o.size == 4

    o = orbit(mask_of([1, 3]), cyc4)
    assert o.members == (mask_of([1, 3]), mask_of([2, 4]))
    assert o.size == 2

    assert orbit(0, cyc4) == orbit(0, GroupSpec.trivial(4))
    assert orbit(0, cyc4).size == 1


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
    gens = spec.generators()
    naive = naive_orbits(n, gens)
    assert burnside_count(n, spec) == len(naive)
    poset = quotient_poset(n, spec)
    assert poset.size() == len(naive)
    assert {o.members for o in poset.orbits} == {tuple(sorted(s)) for s in naive}
    total = sum(o.size for o in poset.orbits)
    assert total == 1 << n
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
    assert burnside_count(4, multi) == len(naive_orbits(4, multi.generators()))

    two = involution_group(4, [(1, 4), (2, 3)])
    assert two.order() == 2
    assert burnside_count(4, two) == 10
    assert burnside_count(4, two) == len(naive_orbits(4, two.generators()))


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
        assert rank_counts(n, spec) == naive_orbit_ranks(n, spec.generators()), spec.text()


@pytest.mark.parametrize("n", range(9, 15))
def test_rank_counts_against_naive_orbits_of_sampled_groups(n):
    for spec in sampled_groups_with_fixed_points(n, 6):
        assert rank_counts(n, spec) == naive_orbit_ranks(n, spec.generators()), spec.text()


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
        assert rep in orbit(a, spec).members


def test_quotient_profiles():
    from scdforge.reflect import involution_group

    assert [len(b) for b in quotient_poset(4, parse_group_spec("(1 2 3 4)", 4)).orbits_by_rank] == [1, 1, 2, 1, 1]
    assert [len(b) for b in quotient_poset(2, parse_group_spec("(1 2)", 2)).orbits_by_rank] == [1, 1, 1]
    assert [len(b) for b in quotient_poset(3, GroupSpec.trivial(3)).orbits_by_rank] == [1, 3, 3, 1]
    two = involution_group(4, [(1, 4), (2, 3)])
    assert [len(b) for b in quotient_poset(4, two).orbits_by_rank] == [1, 2, 4, 2, 1]


def test_quotient_leq_against_naive():
    spec = parse_group_spec("(1 2 3 4)^2 (5 6)", 6)
    poset = quotient_poset(6, spec)
    reps = list(poset.elements())
    for a in reps:
        orb_a = orbit(a, spec).members
        for b in reps:
            orb_b = orbit(b, spec).members
            naive = any(x | y == y for x in orb_a for y in orb_b)
            assert poset.ascends((a, b)) == naive


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
    for spec in specs:
        poset = quotient_poset(n, spec)
        for a in range(1 << n):
            assert poset.ascends((a,)) == orbit_closure_ascends(poset, (a,)), (spec, a)
            for b in range(1 << n):
                assert poset.ascends((a, b)) == orbit_closure_ascends(poset, (a, b)), (spec, a, b)


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
        for _ in range(80):
            seq = _ascends_input(poset, rng)
            expected = orbit_closure_ascends(poset, seq)
            assert poset.ascends(seq) == expected, (poset.group, seq)
            assert poset.ascends(iter(seq)) == expected
            answers.append(expected)
    assert 0.2 < sum(answers) / len(answers) < 0.8


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
        assert poset.ascends((lower, upper))
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
        pairwise = [
            (lower.rep, upper.rep)
            for r in range(n)
            for lower in poset.orbits_by_rank[r]
            for upper in poset.orbits_by_rank[r + 1]
            if poset.ascends((lower.rep, upper.rep))
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
    assert poset.orbits[0].members == (0,)
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

    def project(rep):
        parts = [rep & fixed]
        for f in factors:
            local = 0
            for pos, element in enumerate(f.cycle):
                if rep >> (element - 1) & 1:
                    local |= 1 << pos
            parts.append(orbit_rep(local, rotation_group(f.length, f.exponent)))
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
    for ra, ia in zip(reps, images):
        for rb, ib in zip(reps, images):
            componentwise = (ia[0] | ib[0] == ib[0]) and all(
                lp.ascends((xa, xb)) for lp, xa, xb in zip(locals_posets, ia[1:], ib[1:])
            )
            assert whole.ascends((ra, rb)) == componentwise, (ra, rb)


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
        naive = naive_orbits(n, spec.generators())
        poset = quotient_poset(n, spec)
        assert {o.members for o in poset.orbits} == {tuple(sorted(s)) for s in naive}
        assert all(o.rep == o.members[0] and o.size == len(o.members) for o in poset.orbits)
        assert poset.size() == burnside_count(n, spec)


def test_members_lists_each_member_once():
    for spec in _crossing_groups(13):
        for a in range(1 << 13):
            members = _members(a, spec._powers)
            assert len(set(members)) == len(members)
            assert set(members) == _closure(a, spec.generators())


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
    gens = spec.generators()
    rng = random.Random(22)
    for _ in range(300):
        a = rng.getrandbits(22) | 1 << rng.randrange(11) | 1 << rng.randrange(11, 22)
        members = tuple(sorted(_closure(a, gens)))
        assert orbit(a, spec) == groups.Orbit(members[0], len(members), members)
        assert orbit_rep(a, spec) == members[0] == orbit_min(a, spec)
        assert len(_members(a, spec._powers)) == len(members)


@pytest.mark.parametrize("n", [23, 30, 64])
def test_group_action_is_refused_above_the_quotient_limit(n):
    # two 11-bit chunks cover QUOTIENT_LIMIT; beyond it no table is built, even for the trivial group
    for spec in (GroupSpec.trivial(n), parse_group_spec(f"(1 2 {n})(3 4)", n)):
        for act in (lambda: spec._powers, lambda: orbit_rep(5, spec), lambda: orbit(5, spec)):
            with pytest.raises(ResourceLimitError, match="capped at n <= 22"):
                act()


def test_oracle_orbit_min_beyond_the_quotient_limit():
    # the reference the pass at n > 22 is pinned against: three chunks, elements 1-11, 12-22 and 23-30
    spec = parse_group_spec("(3 5 9 12 14)(10 11 13 21 23 24 30)^3 (1 22 29)(2 27)", 30)
    gens = spec.generators()
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
    groups._power_tables.cache_clear()  # start cold: earlier tests may have built these generators' tables
    calls = _count_apply_perm(monkeypatch)
    spec = parse_group_spec("(1 2 3)(4 5 6 7)^2 (9 10 12)", 12)
    assert calls == []  # nothing is built before the first orbit
    orbit_rep(5, spec)
    # one evaluation per single bit of [12] for each non-identity power: 2 + 1 + 2 of them
    assert calls == [1 << b for b in range(12)] * 5
    calls.clear()
    orbit_rep(6, spec)
    orbit(7, spec)
    poset = quotient_poset(12, spec)
    assert poset.ascends(sorted(poset.elements())[:3])
    # another spec with the same generators, one written with an exponent past the length
    same = parse_group_spec("(1 2 3)^4 (4 5 6 7)^6 (9 10 12)", 12)
    assert same._powers == spec._powers
    orbit_rep(6, same)
    assert calls == []


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


def test_rotation_group_is_shared():
    from scdforge.prune import rotation_group

    assert rotation_group(12, 3) is rotation_group(12, 3)


def test_action_tables_leave_equality_and_hash_alone():
    a = parse_group_spec("(1 2 3)(4 5 6 7)^2", 8)
    b = parse_group_spec("(1 2 3)(4 5 6 7)^2", 8)
    orbit_rep(3, a)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert repr(a) == repr(b)
