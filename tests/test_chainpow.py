import itertools
import random

import pytest

from oracles import (
    ambient_chainpower,
    in_chain_power,
    mask_levels,
    naive_tuple_orbit_ranks,
    naive_tuple_orbits,
    tuple_ascends,
    tuple_rotate,
)
from scdforge import prune
from scdforge.chainpow import (
    ChainPowerTarget,
    ChainProductTarget,
    canonical_levels,
    chainpower_scd,
    chainproduct_scd,
    check_dichotomy,
    level_mask,
)
from scdforge.core import Context, ResourceLimitError, make_decomposition, mask_of
from scdforge.gk import ChainBottoms, gk_scd
from scdforge.groups import necklace_ranks, orbit_rep
from scdforge.prune import ConsistencyError, _level_number, prune_chains, quotient_scd_cyclic, rotation_group
from scdforge.verify import verify_decomposition


def test_in_chain_power_examples():
    # the word 1100 is the subset {1,2}: blocks 11 and 00
    assert in_chain_power(mask_of([1, 2]), 3, 2)
    # the word 0100 is the subset {2}: block 01 is not monotone
    assert not in_chain_power(mask_of([2]), 3, 2)
    assert in_chain_power(0, 3, 2)


def test_in_chain_power_width_check():
    with pytest.raises(ValueError, match="beyond"):
        in_chain_power(1 << 4, 3, 2)


def test_level_mask_round_trip():
    for k, m in [(2, 3), (3, 2), (4, 3), (5, 2)]:
        for levels in itertools.product(range(k), repeat=m):
            mask = level_mask(levels, k)
            assert in_chain_power(mask, k, m)
            assert mask_levels(mask, k, m) == levels


def test_embedding_is_an_order_isomorphism():
    rng = random.Random(5)
    for k, m in [(2, 3), (3, 2), (3, 3), (4, 2), (2, 10), (3, 8), (5, 6)]:
        size = k**m
        if size <= 2048:
            pool = list(itertools.product(range(k), repeat=m))
            pairs = itertools.product(pool, pool)
        else:
            pairs = (
                (
                    tuple(rng.randrange(k) for _ in range(m)),
                    tuple(rng.randrange(k) for _ in range(m)),
                )
                for _ in range(20000)
            )
        for u, v in pairs:
            pointwise = all(a <= b for a, b in zip(u, v))
            mu, mv = level_mask(u, k), level_mask(v, k)
            assert pointwise == (mu | mv == mv)


def test_tuple_rotate_and_canonical():
    assert tuple_rotate((0, 1, 2), 1) == (2, 0, 1)
    assert canonical_levels((2, 0), 1) == (0, 2)
    assert canonical_levels((2, 0, 1), 1) == (0, 1, 2)
    assert canonical_levels((2, 0, 1, 0), 2) == (1, 0, 2, 0)  # only even shifts


@pytest.mark.parametrize(
    "k, m",
    [(2, 4), (3, 3), (4, 2), (2, 6), (5, 2)],
)
def test_tuple_orbit_count_against_enumeration(k, m):
    for step in range(1, m + 1):
        assert sum(necklace_ranks(k, m, step)) == len(naive_tuple_orbits(k, m, step))
        assert necklace_ranks(k, m, step) == naive_tuple_orbit_ranks(k, m, step)


@pytest.mark.parametrize("m", range(1, 17))
def test_necklace_ranks_of_every_chain_power_against_enumeration(m):
    # every chain power on at most 64 bits with k^m <= 2^16, at every step dividing m
    k = 2
    while k**m <= 1 << 16 and (k - 1) * m <= 64:
        for step in [d for d in range(1, m + 1) if m % d == 0]:
            assert necklace_ranks(k, m, step) == naive_tuple_orbit_ranks(k, m, step), (k, m, step)
        k += 1


def test_chainpower_fixture_3_2_1():
    decomp = chainpower_scd(3, 2, 1)
    assert [c.elements for c in decomp.chains] == [
        ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2)),
        ((1, 1),),
    ]
    assert decomp.element_count() == 6  # (9 + 3) / 2


def test_chainpower_k2_matches_subset_quotient():
    # the two builders run the same pass on the same chains, so they agree at every step
    for m in range(1, 13):
        for r in [d for d in range(1, m + 1) if m % d == 0]:
            tuples = chainpower_scd(2, m, r)
            masks = quotient_scd_cyclic(m, r)
            left = sorted(tuple(c.elements) for c in tuples.chains)
            right = sorted(tuple(canonical_levels(mask_levels(e, 2, m), r) for e in c.elements) for c in masks.chains)
            assert left == right, (m, r)


def test_chainpower_4_2_verifies():
    decomp = chainpower_scd(4, 2, 1)
    assert decomp.element_count() == 10  # (16 + 4) / 2
    target = ChainPowerTarget(4, 2, 1)
    assert verify_decomposition(target, decomp).ok


@pytest.mark.parametrize(
    "k, m",
    [(2, 2), (2, 5), (3, 2), (3, 4), (4, 3), (5, 2), (7, 2), (2, 8)],
)
def test_chainpower_verifies_for_all_divisor_steps(k, m):
    for r in [d for d in range(1, m + 1) if m % d == 0]:
        decomp = chainpower_scd(k, m, r)
        report = verify_decomposition(ChainPowerTarget(k, m, r), decomp)
        assert report.ok, (k, m, r, report.summary())


def test_chainpower_normalizes_rotation():
    assert chainpower_scd(3, 4, 3) == chainpower_scd(3, 4, 1)


def test_dichotomy_examples():
    assert check_dichotomy(3, 2)
    # with the deterministic tie-break, the inside chains are 0, 2, 5
    inside = [
        ci
        for ci, chain in enumerate(gk_scd(4).chains)
        if all(in_chain_power(a, 3, 2) for a in chain.elements)
    ]
    outside = [
        ci
        for ci, chain in enumerate(gk_scd(4).chains)
        if all(not in_chain_power(a, 3, 2) for a in chain.elements)
    ]
    assert inside == [0, 2, 5]
    assert outside == [1, 3, 4]

    assert check_dichotomy(2, 5)  # k=2 embeds everything
    assert check_dichotomy(4, 3)


def test_dichotomy_guard():
    with pytest.raises(ResourceLimitError):
        check_dichotomy(2, 19)


@pytest.mark.parametrize(
    "k, m",
    [(d + 1, n // d) for n in range(1, 17) for d in range(1, n + 1) if n % d == 0],
)
def test_bottom_search_finds_the_chains_inside_the_power(k, m):
    """The width-(k-1) search grows exactly the ambient chains whose bottom
    is inside the power, in the ambient order, chain by chain."""
    n = (k - 1) * m
    inside = [c for c in gk_scd(n).chains if in_chain_power(c.elements[0], k, m)]
    bottoms = ChainBottoms(n, k - 1)
    assert len(bottoms) == len(inside)
    assert [bottoms[i] for i in range(len(bottoms))] == inside


def test_chainpower_beyond_the_ambient_lattice_guard():
    # n = 24 is past QUOTIENT_LIMIT, but the power has only 4^8 elements
    decomp = chainpower_scd(4, 8, 1)
    report = verify_decomposition(ChainPowerTarget(4, 8, 1), decomp)
    assert report.ok, report.summary()
    assert report.element_count == sum(necklace_ranks(4, 8, 1))


def test_chainproduct_single_factor():
    assert chainproduct_scd([(3, 2, 1)]).chains == chainpower_scd(3, 2, 1).chains


def test_chainproduct_two_factors():
    decomp = chainproduct_scd([(3, 2, 1), (2, 1, 1)])
    assert decomp.element_count() == 12
    assert decomp.context.total_rank == 5
    target = ChainProductTarget([(3, 2, 1), (2, 1, 1)])
    assert verify_decomposition(target, decomp).ok


def test_chainproduct_squared_three_chain():
    decomp = chainproduct_scd([(2, 2, 1), (2, 2, 1)])
    assert decomp.element_count() == 9
    assert sorted(decomp.chain_sizes(), reverse=True) == [5, 3, 1]
    target = ChainProductTarget([(2, 2, 1), (2, 2, 1)])
    assert verify_decomposition(target, decomp).ok


def test_chainproduct_repeated_level_count_is_allowed():
    decomp = chainproduct_scd([(3, 2, 1), (3, 1, 1)])
    target = ChainProductTarget([(3, 2, 1), (3, 1, 1)])
    assert verify_decomposition(target, decomp).ok


def test_chainpower_input_errors():
    with pytest.raises(ValueError):
        chainpower_scd(1, 3)
    with pytest.raises(ValueError):
        chainpower_scd(3, 0)
    with pytest.raises(ValueError):
        chainpower_scd(3, 2, 0)
    with pytest.raises(ValueError, match="capped at 64"):
        chainpower_scd(66, 1)  # 66 elements, but a 65-bit ground
    with pytest.raises(ValueError):
        chainproduct_scd([])
    with pytest.raises(ValueError):
        chainproduct_scd([(3, "x", 1)])


@pytest.mark.parametrize("r", [0, -2])
def test_rotation_step_below_one_is_refused_by_every_entry_point(r):
    # a target once took r = 0 as the unrotated power and r = -2 as a rotation by 2
    for build in (ChainPowerTarget, chainpower_scd):
        with pytest.raises(ValueError, match="^rotation step must be positive$"):
            build(3, 4, r)
    for build in (ChainProductTarget, chainproduct_scd):
        with pytest.raises(ValueError, match="^rotation step must be positive$"):
            build([(2, 2, 1), (3, 4, r)])


@pytest.mark.parametrize(
    "build, args, shape",
    [
        # read as int(x), these once built the m = 4 product and took the factor as (2, 1, 1)
        (chainproduct_scd, ([(3, 4.7, 1)],), "(3, 4.7, 1)"),
        (ChainProductTarget, ([(2, True, "1")],), "(2, True, '1')"),
        (ChainPowerTarget, (3, True, 1), "(3, True, 1)"),
        (chainpower_scd, (3, 4.0, 1), "(3, 4.0, 1)"),  # once a raw TypeError
    ],
)
def test_a_chain_shape_must_be_integers(build, args, shape):
    with pytest.raises(ValueError) as got:
        build(*args)
    assert str(got.value) == f"levels, multiplicity and rotation step must be integers, got {shape}"


@pytest.mark.parametrize("item", [(3, 4), (2, 2, 1, 1), 5, None])
def test_a_factor_that_is_not_a_triple_keeps_its_message(item):
    with pytest.raises(ValueError, match=r"is not a \(levels, multiplicity, rotation\) triple$"):
        chainproduct_scd([item])


def test_chainproduct_size_guard():
    with pytest.raises(ResourceLimitError):
        chainproduct_scd([(2, 12, 1), (2, 12, 1)])
    with pytest.raises(ResourceLimitError, match=r"2\^22 elements"):
        chainpower_scd(2, 23)
    # the verifier's targets are guarded by element count before enumerating
    with pytest.raises(ResourceLimitError):
        ChainProductTarget([(2, 12, 1), (2, 12, 1)])
    with pytest.raises(ResourceLimitError):
        ChainPowerTarget(2, 23, 1)
    with pytest.raises(ResourceLimitError):
        ChainPowerTarget(2, 10**18, 1)
    assert ChainPowerTarget(2, 22, 1).expected_size() == sum(necklace_ranks(2, 22, 1))


def test_restriction_matches_ambient_orbits():
    """Chains kept by the ambient pruning, restricted to the embedded power,
    carry the same orbits as rotating tuples directly."""
    k, m, r = 3, 3, 1
    n = (k - 1) * m
    decomp = chainpower_scd(k, m, r)
    seen = {e for c in decomp.chains for e in c.elements}
    expected = {
        canonical_levels(u, r) for u in itertools.product(range(k), repeat=m)
    }
    assert seen == expected
    rotation = rotation_group(n, (k - 1) * r)
    for c in decomp.chains:
        for u in c.elements:
            assert orbit_rep(level_mask(u, k), rotation) == min(
                level_mask(tuple_rotate(u, j * r), k) for j in range(m)
            )


@pytest.mark.parametrize(
    "k, m",
    [(d + 1, n // d) for n in range(1, 13) for d in range(1, n + 1) if n % d == 0],
)
def test_restricted_pruning_matches_ambient(k, m):
    """Pruning only the chains inside the power gives what pruning all of B_n
    and restricting afterwards gives."""
    for step in [d for d in range(1, m + 1) if m % d == 0]:
        context = Context(kind="chainpower", total_rank=(k - 1) * m, k=k, m=m, r=step)
        assert chainpower_scd(k, m, step) == make_decomposition(ambient_chainpower(k, m, step), context)


def test_prune_checks_the_orbit_count(monkeypatch):
    # B_6 and (3, 3) at n = 6; (7, 4), (5, 6) and (24, 1) lie beyond QUOTIENT_LIMIT at n = 24.
    # The pass counts the orbits itself; a count off by one either way must fail its self-check
    counted = prune.necklace_ranks
    for k, m in ((2, 6), (3, 3), (7, 4), (5, 6), (24, 1)):
        bottoms = ChainBottoms((k - 1) * m, k - 1)
        expected = sum(necklace_ranks(k, m, 1))
        family = prune_chains(bottoms, 1)
        assert sum(len(pc.kept) for pc in family.chains) == expected
        for off in (-1, 1):
            with monkeypatch.context() as patch:
                patch.setattr(prune, "necklace_ranks", lambda *args, off=off: counted(*args) + (off,))
                with pytest.raises(ConsistencyError, match=f"covered {expected} orbits but the quotient has {expected + off}"):
                    prune_chains(bottoms, 1)


@pytest.mark.parametrize("k, m", [(24, 1), (13, 2), (7, 4), (5, 6), (3, 12), (4, 11), (65, 1)])
def test_level_index_is_the_base_k_number_of_the_levels(k, m):
    """The pass names a chain power's bottom by its level tuple read as a
    base-k number, coordinate 0 most significant, summed over chunks that may
    split a block."""
    index = _level_number((k - 1) * m, k - 1)
    rng = random.Random(100 * k + m)
    tuples = [(0,) * m, (k - 1,) * m] + [tuple(rng.randrange(k) for _ in range(m)) for _ in range(300)]
    for u in tuples:
        assert index(level_mask(u, k)) == sum(lv * k ** (m - 1 - i) for i, lv in enumerate(u)), u


def _ascends_inputs(target, rng, exhaustive):
    """Sequences of one and two elements: every pair of canonical tuples when
    exhaustive, else seeded pairs and canonical runs; then rejections."""
    k, m = target.k, target.m
    if exhaustive:
        canonical = list(target.elements())
        yield from ((u,) for u in canonical)
        yield from itertools.product(canonical, repeat=2)
    else:
        for _ in range(400):
            u = tuple(rng.randrange(k) for _ in range(m))
            v = tuple(rng.randrange(k) for _ in range(m))
            yield (canonical_levels(u, target.step), canonical_levels(v, target.step))
            yield (u,)
            yield (canonical_levels(u, target.step), v)
    good = canonical_levels(tuple(rng.randrange(k) for _ in range(m)), target.step)
    top = (k - 1,) * m
    for bad in (
        (True,) + good[1:],
        (1.0,) + good[1:],
        (-1,) + good[1:],
        (k,) + good[1:],
        good[:-1],
        good + (0,),
        list(good),
        None,
        tuple(reversed(range(min(k, m)))) + (0,) * (m - min(k, m)),  # not the least rotation for m > 1
    ):
        yield (bad,)
        yield (good, bad)
        yield (bad, top)


def _agree(target, exhaustive):
    rng = random.Random(f"ascends {target.k} {target.m} {target.step}")
    for seq in _ascends_inputs(target, rng, exhaustive):
        assert target.ascends(seq) == tuple_ascends(target, seq), (target.k, target.m, target.step, seq)


@pytest.mark.parametrize("m", range(1, 9))
def test_ascends_agrees_with_the_tuple_form_on_every_pair(m):
    # every shape with k^m <= 256 on a ground of at most 64 bits, at every step dividing m;
    # beyond it only verify builds the target: there the one- to two-byte boundary
    shapes = [k for k in range(2, 257) if k**m <= 256 and (k - 1) * m <= 64]
    if m == 1:
        shapes += [127, 128, 129, 256]
    for k in shapes:
        for r in range(1, m + 1):
            if m % r == 0:
                _agree(ChainPowerTarget(k, m, r), exhaustive=True)


@pytest.mark.parametrize("k, m, r", [
    (2, 16, 1), (2, 16, 4), (3, 12, 1), (3, 12, 6), (4, 11, 1), (5, 6, 2), (65, 1, 1), (2, 22, 11),
    # verify admits levels up to k - 1 with no ambient ground: two- and three-byte fields
    (128, 2, 1), (129, 2, 2), (300, 2, 1), (40000, 1, 1),
])
def test_ascends_agrees_with_the_tuple_form_on_random_pairs(k, m, r):
    _agree(ChainPowerTarget(k, m, r), exhaustive=False)
