import pytest

from oracles import greedy_prune, is_scd, naive_orbits
from scdforge import prune
from scdforge.chainpow import tuple_orbit_count
from scdforge.core import mask_of
from scdforge.gk import _chains, gk_decomposition, gk_scd, partner
from scdforge.groups import burnside_count, orbit_rep, parse_group_spec, quotient_poset
from scdforge.prune import (
    _prune,
    prune_chains,
    quotient_scd,
    quotient_scd_cyclic,
    rotate,
    rotation_group,
    shadow_closure_failures,
)
from scdforge.verify import verify_decomposition


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_rotate_and_rep():
    assert rotate(mask_of([1, 2]), 1, 4) == mask_of([2, 3])
    assert rotate(mask_of([4]), 1, 4) == mask_of([1])
    assert orbit_rep(mask_of([2, 4]), rotation_group(4, 1)) == mask_of([1, 3])
    assert orbit_rep(mask_of([2, 4]), rotation_group(4, 2)) == mask_of([2, 4])


def test_prune_n3_full_rotation():
    family = prune_chains(gk_scd(3), 1)
    assert [pc.source for pc in family.chains] == [0]
    assert family.chains[0].orbits.elements == (0, 1, 3, 7)


def test_prune_n4_full_rotation():
    family = prune_chains(gk_scd(4), 1)
    assert [pc.source for pc in family.chains] == [0, 2]
    assert family.chains[0].orbits.elements == (0, 1, 3, 7, 15)
    assert family.chains[1].kept.elements == (mask_of([1, 3]),)
    assert family.chains[1].orbits.elements == (mask_of([1, 3]),)


def test_prune_n4_half_rotation():
    family = prune_chains(gk_scd(4), 2)
    assert [pc.source for pc in family.chains] == [0, 1, 2, 4]
    assert [pc.orbits.elements for pc in family.chains] == [
        (0, 1, 3, 7, 15),
        (2, 6, 11),
        (5,),
        (10,),
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_pruned_family_invariants(n):
    scd = gk_scd(n)
    for step in divisors(n):
        family = prune_chains(scd, step)
        seen = set()
        for pc in family.chains:
            source = scd.chains[pc.source]
            # the kept piece is a contiguous window of its source chain
            lo = source.elements.index(pc.kept.elements[0])
            window = source.elements[lo : lo + len(pc.kept)]
            assert window == pc.kept.elements
            # symmetric: mirrors stay kept
            assert pc.kept.ranks[0] + pc.kept.ranks[-1] == n
            for mask in pc.kept.elements:
                assert partner(mask, source) in pc.kept.elements
            for rep in pc.orbits.elements:
                assert rep not in seen
                seen.add(rep)
        assert len(seen) == burnside_count(n, rotation_group(n, step))


@pytest.mark.parametrize("n", range(1, 15))
def test_prune_matches_the_reference_pass(n):
    scd = gk_scd(n)
    for step in divisors(n):
        expected = burnside_count(n, rotation_group(n, step))
        assert _prune(scd.chains, n, step, expected) == greedy_prune(scd.chains, n, step), step


# every chain power with (k-1)m <= 12, then four beyond QUOTIENT_LIMIT, where the marks are a set
CHAIN_POWER_SHAPES = [(k, m) for k in range(2, 14) for m in range(1, 13) if (k - 1) * m <= 12]


@pytest.mark.parametrize("k, m", CHAIN_POWER_SHAPES + [(24, 1), (13, 2), (7, 4), (5, 6)])
def test_prune_matches_the_reference_pass_on_chain_powers(k, m):
    n = (k - 1) * m
    chains = _chains(n, k - 1)
    for step in divisors(m):
        got = _prune(chains, n, (k - 1) * step, tuple_orbit_count(k, m, step))
        assert got == greedy_prune(chains, n, (k - 1) * step), step


@pytest.mark.parametrize("n, step", [(12, 1), (12, 4), (16, 2)])
def test_prune_walks_each_orbit_once(monkeypatch, n, step):
    walk, walks = prune._members, []
    monkeypatch.setattr(prune, "_members", lambda s, actions: walks.append(s) or walk(s, actions))
    prune_chains(gk_scd(n), step)
    assert len(walks) == burnside_count(n, rotation_group(n, step))


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
        middle = n // 2
        middles = {
            orbit_rep(a, rotation_group(n, step))
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


def test_quotient_scd_against_dumb_checker():
    spec = parse_group_spec("(1 2 3)(4 5)", 5)
    decomp = quotient_scd(5, spec)
    orbits = naive_orbits(5, spec.generators())
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
