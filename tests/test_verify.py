import itertools
import random

import pytest

from oracles import generators, naive_comparability, rotate, tuple_rotate
from scdforge import groups
from scdforge.chainpow import ChainPowerTarget, ChainProductTarget, chainpower_scd, chainproduct_scd
from scdforge.core import Chain, Context, Decomposition, mask_of, product_scd
from scdforge.gk import gk_decomposition
from scdforge.groups import GroupSpec, QuotientPoset, apply_perm, parse_group_spec, quotient_poset, rank_counts
from scdforge.prune import quotient_scd, quotient_scd_cyclic, rotation_group
from scdforge.reflect import involution_group, reflection_scd
from scdforge.verify import (
    ProductTarget,
    VerifyReport,
    _certified,
    _enumerated,
    rank_profile,
    verify_decomposition,
)


@pytest.fixture
def necklace4():
    return quotient_poset(4, rotation_group(4, 1))


def test_ok_report(necklace4):
    decomp = quotient_scd_cyclic(4, 1)
    report = verify_decomposition(necklace4, decomp)
    assert report.ok
    assert report.element_count == 6 == report.expected_count
    assert report.failures == ()
    assert report.summary().startswith("ok")


def _necklace_context():
    return Context(kind="quotient", total_rank=4, n=4, group="(1 2 3 4)")


def test_missing_chain_reported(necklace4):
    decomp = quotient_scd_cyclic(4, 1)
    pruned = Decomposition(decomp.chains[:1], decomp.context)
    report = verify_decomposition(necklace4, pruned)
    assert not report.ok
    assert report == _enumerated(necklace4, pruned)
    kinds = {(f.kind, f.witness) for f in report.failures}
    assert ("not-covered", mask_of([1, 3])) in kinds
    assert report.element_count == 5 != report.expected_count


def test_double_cover_reported(necklace4):
    decomp = quotient_scd_cyclic(4, 1)
    doubled = Decomposition(decomp.chains + (decomp.chains[1],), decomp.context)
    report = verify_decomposition(necklace4, doubled)
    assert not report.ok
    assert report == _enumerated(necklace4, doubled)
    assert any(f.kind == "double-covered" and f.witness == mask_of([1, 3]) for f in report.failures)


def test_rank_repeat_reported(necklace4):
    chains = (
        Chain((0, 1, 3, 7, 15), 0),
        Chain((mask_of([1, 3]), mask_of([1, 3])), 2),
    )
    decomp = Decomposition(chains, _necklace_context())
    report = verify_decomposition(necklace4, decomp)
    assert not report.ok
    assert report == _enumerated(necklace4, decomp)
    assert any(f.kind == "not-saturated" for f in report.failures)


def test_not_symmetric_reported():
    target = quotient_poset(3, GroupSpec.trivial(3))
    chains = (
        Chain((0, 1, 3), 0),
        Chain((7,), 3),
        Chain((2, 6), 1),
        Chain((4, 5), 1),
    )
    decomp = Decomposition(chains, Context(kind="boolean", total_rank=3, n=3))
    report = verify_decomposition(target, decomp)
    assert not report.ok
    assert report == _enumerated(target, decomp)
    assert any(f.kind == "not-symmetric" and f.witness == (0, 3) for f in report.failures)


def test_not_comparable_reported():
    target = quotient_poset(3, GroupSpec.trivial(3))
    chains = (
        Chain((0, 1, 3, 7), 0),
        Chain((2, 5), 1),  # {2} is not contained in {1,3}
        Chain((4, 6), 1),
    )
    decomp = Decomposition(chains, Context(kind="boolean", total_rank=3, n=3))
    report = verify_decomposition(target, decomp)
    assert not report.ok
    assert report == _enumerated(target, decomp)
    assert any(f.kind == "not-comparable" and f.witness == (2, 5) for f in report.failures)


def test_alien_element_reported(necklace4):
    chains = (Chain((0, 1, 3, 7, 15), 0), Chain((9,), 2))
    decomp = Decomposition(chains, _necklace_context())
    report = verify_decomposition(necklace4, decomp)
    assert not report.ok
    assert report == _enumerated(necklace4, decomp)
    assert any(
        f.kind == "not-covered" and f.witness == 9 and "not an element" in f.detail
        for f in report.failures
    )


def test_rank_profile_examples():
    profile = rank_profile(rank_counts(4, rotation_group(4, 1)))
    assert profile.counts == (1, 1, 2, 1, 1)
    assert profile.symmetric and profile.unimodal

    two = involution_group(4, [(1, 4), (2, 3)])
    profile = rank_profile(rank_counts(4, two))
    assert profile.counts == (1, 2, 4, 2, 1)
    assert profile.symmetric and profile.unimodal

    profile = rank_profile(rank_counts(3, GroupSpec.trivial(3)))
    assert profile.counts == (1, 3, 3, 1)


def test_rank_profile_flags_detect_defects():
    profile = rank_profile((1, 2, 1, 2, 1))
    assert profile.counts == (1, 2, 1, 2, 1)
    assert profile.symmetric and not profile.unimodal


def test_product_target():
    left = quotient_poset(2, GroupSpec.trivial(2))
    right = quotient_poset(1, GroupSpec.trivial(1))
    prod = ProductTarget(left, right)
    assert prod.total_rank == 3
    assert prod.expected_size() == 8
    assert prod.rank((3, 1)) == 3
    assert prod.ascends(((1, 0), (3, 1)))
    assert not prod.ascends(((2, 1), (1, 1)))
    assert prod.ascends(((1, 0), (1, 1), (3, 1)))
    assert not prod.ascends(((1, 0), (3, 0), (2, 1)))
    assert len(list(prod.elements())) == 8


def test_product_of_verified_decompositions_verifies():
    from scdforge.core import product_scd

    left = quotient_scd_cyclic(4, 1)
    right = gk_decomposition(3)
    prod = product_scd(left, right)
    target = ProductTarget(
        quotient_poset(4, rotation_group(4, 1)),
        quotient_poset(3, GroupSpec.trivial(3)),
    )
    report = verify_decomposition(target, prod)
    assert report.ok
    assert report.element_count == 6 * 8


def _quotient_case():
    spec = parse_group_spec("(1 2 3 4 5 6)", 6)
    return quotient_scd(6, spec), quotient_poset(6, spec)


def _reflection_case():
    return reflection_scd(9, "(1 9)(2 5)"), quotient_poset(9, involution_group(9, [(1, 9), (2, 5)]))


def _chain_power_case():
    return chainpower_scd(4, 5, 1), ChainPowerTarget(4, 5, 1)


def _chain_product_case():
    factors = [(3, 2, 1), (2, 4, 2)]
    return chainproduct_scd(factors), ChainProductTarget(factors)


# each builds a decomposition and its target, certifying the decomposition on the way if its builder does
CASES = {
    "gk": lambda: (gk_decomposition(8), quotient_poset(8, GroupSpec.trivial(8))),
    "quotient": _quotient_case,
    "multi-factor quotient": lambda: (
        quotient_scd(12, "(1 2 3 4)(5 6 7)^2 (9 11)"),
        quotient_poset(12, parse_group_spec("(1 2 3 4)(5 6 7)^2 (9 11)", 12)),
    ),
    "reflection": _reflection_case,
    "chain power": _chain_power_case,
    "chain product": _chain_product_case,
    "product": lambda: (
        product_scd(quotient_scd_cyclic(6, 2), gk_decomposition(3)),
        ProductTarget(quotient_poset(6, rotation_group(6, 2)), quotient_poset(3, GroupSpec.trivial(3))),
    ),
}


def _refuse(*args):
    raise AssertionError("the target was enumerated")


@pytest.mark.parametrize("case", sorted(CASES))
def test_passing_certification_never_enumerates(monkeypatch, case):
    monkeypatch.setattr(QuotientPoset, "orbits", property(_refuse))
    monkeypatch.setattr(ChainPowerTarget, "elements", _refuse)
    monkeypatch.setattr(ChainProductTarget, "elements", _refuse)
    decomp, target = CASES[case]()
    report = verify_decomposition(target, decomp)
    assert report.ok
    monkeypatch.undo()
    assert report == _enumerated(target, decomp)


def _drop_one_repeat_another(decomp: Decomposition) -> Decomposition:
    """Drop a chain and repeat an earlier one of the same length, so that
    the element count still matches."""
    first = {}
    for i, c in enumerate(decomp.chains):
        j = first.setdefault(len(c), i)
        if j != i:
            chains = decomp.chains[:i] + decomp.chains[i + 1:] + (decomp.chains[j],)
            return Decomposition(chains, decomp.context)
    raise AssertionError("no two chains share a length")


@pytest.mark.parametrize("case", ["quotient", "reflection", "chain power", "chain product"])
def test_count_preserving_mutation_fails_the_certificate(case):
    decomp, target = CASES[case]()
    mutant = _drop_one_repeat_another(decomp)
    assert mutant.element_count() == target.expected_size()
    assert not _certified(target, mutant, mutant.element_count())
    report = verify_decomposition(target, mutant)
    assert not report.ok
    assert {f.kind for f in report.failures} == {"not-covered", "double-covered"}
    assert report.to_dict() == _enumerated(target, mutant).to_dict()


def _ends_fit_and_steps_ascend(target, decomp: Decomposition) -> bool:
    """Every chain ascends and its end ranks pass the certificate's rule, so
    only the repeat check is left to refuse the decomposition."""
    return all(
        target.ascends(c.elements)
        and target.rank(c.elements[0]) + target.rank(c.elements[-1]) == target.total_rank
        and target.rank(c.elements[-1]) - target.rank(c.elements[0]) == len(c.elements) - 1
        for c in decomp.chains
    )


def _middle_lowered(target, decomp: Decomposition) -> Decomposition:
    """The first chain of three or more elements, with its middle element
    replaced by its lower neighbour: a repeat inside the chain."""
    chains = list(decomp.chains)
    i = next(i for i, c in enumerate(chains) if len(c.elements) >= 3)
    elems = list(chains[i].elements)
    j = len(elems) // 2
    elems[j] = elems[j - 1]
    chains[i] = Chain(tuple(elems), chains[i].rank)
    return Decomposition(tuple(chains), decomp.context)


def _bottom_taken_from_another_chain(target, decomp: Decomposition) -> Decomposition:
    """The first chain of two or more elements, with its bottom replaced by
    an element of another chain at the same rank that also lies below the
    chain's second element: a repeat across chains."""
    chains = list(decomp.chains)
    for i, c in enumerate(chains):
        if len(c.elements) < 2:
            continue
        low, second = target.rank(c.elements[0]), c.elements[1]
        for d in chains:
            if d is c:
                continue
            for e in d.elements:
                if target.rank(e) == low and target.ascends((e, second)):
                    chains[i] = Chain((e,) + c.elements[1:], c.rank)
                    return Decomposition(tuple(chains), decomp.context)
    raise AssertionError("no element of another chain lies below a second element")


@pytest.mark.parametrize("mutate", [_middle_lowered, _bottom_taken_from_another_chain])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_repeat_that_keeps_the_end_ranks_fails_the_certificate(case, mutate):
    # the end-rank rule leans on the repeat check: these mutants pass every per-chain check
    decomp, target = CASES[case]()
    mutant = mutate(target, decomp)
    assert mutant.element_count() == target.expected_size()
    assert _ends_fit_and_steps_ascend(target, mutant)
    assert not _certified(target, mutant, mutant.element_count())
    report = verify_decomposition(target, mutant)
    assert not report.ok
    assert report == _enumerated(target, mutant)


def _turn(target, e, rng):
    """Another element of the same rank: a group image of e (a member of its
    orbit, often not the least), or a rotated word when the group is trivial."""
    if isinstance(target, QuotientPoset):
        gens = generators(target.group)
        return apply_perm(rng.choice(gens), e) if gens else rotate(e, 1, target.n)
    if isinstance(target, ChainPowerTarget):
        return tuple_rotate(e, rng.randrange(1, target.m + 1))
    if isinstance(target, ChainProductTarget):
        i = rng.randrange(len(target.parts))
        cuts = list(itertools.accumulate([0] + [part.m for part in target.parts]))
        parts = [e[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        parts[i] = _turn(target.parts[i], parts[i], rng)
        return tuple(itertools.chain.from_iterable(parts))
    return (_turn(target.left, e[0], rng), e[1])


def _mutant(target, decomp: Decomposition, rng) -> Decomposition:
    """Drop, swap, repeat or turn one element of the decomposition."""
    chains = [list(c.elements) for c in decomp.chains]
    i = rng.randrange(len(chains))
    j = rng.randrange(len(chains[i]))
    k = rng.randrange(len(chains))
    h = rng.randrange(len(chains[k]))
    kind = rng.choice(("drop", "swap", "repeat", "turn"))
    if kind == "drop":
        del chains[i][j]
    elif kind == "swap":
        chains[i][j], chains[k][h] = chains[k][h], chains[i][j]
    elif kind == "repeat":
        chains[i][j] = chains[k][h]
    else:
        chains[i][j] = _turn(target, chains[i][j], rng)
    return Decomposition(
        tuple(Chain(tuple(c), target.rank(c[0])) for c in chains if c),
        decomp.context,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificate_and_enumeration_agree_on_mutants(case):
    decomp, target = CASES[case]()
    rng = random.Random(f"mutants {case}")
    failing = 0
    for _ in range(50):
        mutant = _mutant(target, decomp, rng)
        report = _enumerated(target, mutant)
        assert _certified(target, mutant, mutant.element_count()) == report.ok
        if not report.ok:
            failing += 1
            assert verify_decomposition(target, mutant) == report
    assert failing >= 25


WALKED = {
    "gk": lambda: (gk_decomposition(10), quotient_poset(10, GroupSpec.trivial(10))),
    "reflection": lambda: (
        reflection_scd(10, "(1 10)(2 9)(4 7)"),
        quotient_poset(10, involution_group(10, [(1, 10), (2, 9), (4, 7)])),
    ),
    "quotient": lambda: (
        quotient_scd(12, "(1 2 3 4 5 6)(7 8 9 10)^2"),
        quotient_poset(12, parse_group_spec("(1 2 3 4 5 6)(7 8 9 10)^2", 12)),
    ),
}


@pytest.mark.parametrize("case", sorted(WALKED))
def test_passing_certificate_walks_each_generator_once_per_element(monkeypatch, case):
    decomp, target = WALKED[case]()
    claimed = sorted(e for c in decomp.chains for e in c.elements)

    def refuse(*args):
        raise AssertionError("the certificate listed an orbit")

    monkeypatch.setattr(groups, "_members", refuse)
    reads = []  # per power of each generator, the indices read from its low and high chunk tables
    powers = []
    for support, tables in target.group._powers:
        counted = []
        for t0, t1 in tables:
            reads.append(([], []))
            counted.append((_CountedTable(t0, reads[-1][0]), _CountedTable(t1, reads[-1][1])))
        powers.append((support, tuple(counted)))
    monkeypatch.setitem(target.group.__dict__, "_powers", tuple(powers))
    tested, ascends = [], target.ascends
    monkeypatch.setattr(target, "ascends", lambda elems: tested.extend(elems) or ascends(elems))
    assert verify_decomposition(target, decomp).ok
    assert sorted(tested) == claimed
    assert len(reads) == sum(f.order() - 1 for f in target.group.factors)
    assert sum(len(low) for low, _ in reads) <= len(reads) * len(claimed)
    for low, high in reads:
        # the two lookups of one image are read in turn, so their indices pair up into the mask read
        assert len(low) == len(high)
        assert set(claimed) <= {lo | hi << 11 for lo, hi in zip(low, high)}


@pytest.mark.parametrize("case", ["gk", "reflection"])
def test_certificate_reads_the_ranks_of_each_chains_two_ends(monkeypatch, case):
    decomp, target = WALKED[case]()
    read = []
    rank = target.rank
    monkeypatch.setattr(target, "rank", lambda e: read.append(e) or rank(e))
    assert verify_decomposition(target, decomp).ok
    assert read == [e for c in decomp.chains for e in (c.elements[0], c.elements[-1])]


class _CountedTable(list):
    """A chunk table that logs each index read."""

    def __init__(self, table, log):
        super().__init__(table)
        self.log = log

    def __getitem__(self, index):
        self.log.append(index)
        return list.__getitem__(self, index)


def test_element_equal_to_a_mask_in_another_type_verifies():
    # True == 1 as a set member: the enumeration accepts it and walks the target's own mask
    decomp = gk_decomposition(3)
    chains = tuple(Chain(tuple(True if e == 1 else e for e in c.elements), c.rank) for c in decomp.chains)
    mutant = Decomposition(chains, decomp.context)
    assert any(e is True for e in mutant.chains[0].elements)
    report = verify_decomposition(quotient_poset(3, GroupSpec.trivial(3)), mutant)
    assert report == VerifyReport(True, 8, 8, ())


def _candidates(target):
    """Every element in the target's encoding, canonical or not."""
    if isinstance(target, QuotientPoset):
        return range(1 << target.n)
    if isinstance(target, ChainPowerTarget):
        return itertools.product(range(target.k), repeat=target.m)
    if isinstance(target, ChainProductTarget):
        return itertools.product(*(range(k) for k, m, _ in target.triples for _ in range(m)))
    return itertools.product(_candidates(target.left), _candidates(target.right))


WALK_TARGETS = {
    "quotient": lambda: quotient_poset(6, parse_group_spec("(1 2 3)(4 5)", 6)),
    "reflection": lambda: quotient_poset(6, involution_group(6, [(1, 6), (2, 4)])),
    "chain power": lambda: ChainPowerTarget(3, 4, 2),
    "chain product": lambda: ChainProductTarget([(3, 2, 1), (2, 3, 1)]),
    "product": lambda: ProductTarget(quotient_poset(4, rotation_group(4, 1)), quotient_poset(2, GroupSpec.trivial(2))),
}


@pytest.mark.parametrize("case", sorted(WALK_TARGETS))
def test_walk_agrees_with_the_enumeration(case):
    # ascends() walks each element's orbit once; on a pair it is the order itself,
    # and it rejects a pair as soon as either element is not canonical
    target = WALK_TARGETS[case]()
    leq = naive_comparability(target)
    candidates = list(_candidates(target))
    canonical = [e for e in candidates if target.ascends((e,))]
    assert canonical == sorted(target.elements())
    accepted = set(canonical)
    for a in candidates:
        expected = [a in accepted and b in accepted and leq(a, b) for b in candidates]
        assert [target.ascends((a, b)) for b in candidates] == expected


MALFORMED = [
    ("quotient", -1),
    ("quotient", 1 << 6),
    ("quotient", True),
    ("quotient", 1.0),
    ("quotient", (1,)),
    ("chain power", [0, 0, 0, 0]),
    ("chain power", (0, 0, 0)),
    ("chain power", (0, 0, 0, 3)),
    ("chain power", (0, 0, 0, -1)),
    ("chain power", (0, 0, 0, True)),
    ("chain product", (0, 0, 0, 0)),
    ("chain product", (0, 0, 0, 0, 0, 0)),
    ("product", (0,)),
    ("product", (0, 0, 0)),
    ("product", [0, 0]),
    ("product", (0, 4)),
]


@pytest.mark.parametrize("case, element", MALFORMED)
def test_walk_rejects_malformed_elements(case, element):
    target = WALK_TARGETS[case]()
    bottom = min(target.elements())  # below every element of these targets
    assert not target.ascends((element,))
    assert not target.ascends((bottom, element))


@pytest.mark.parametrize("case", sorted(WALK_TARGETS))
def test_ascends_checks_every_step_and_position(case):
    target = WALK_TARGETS[case]()
    leq = naive_comparability(target)
    canonical = sorted(target.elements())
    rng = random.Random(f"triples {case}")
    for _ in range(200):
        a = rng.choice(canonical)
        b = rng.choice([x for x in canonical if leq(a, x)] if rng.random() < 0.7 else canonical)
        c = rng.choice([x for x in canonical if leq(b, x)] if rng.random() < 0.7 else canonical)
        assert target.ascends((a, b, c)) == (leq(a, b) and leq(b, c)), (a, b, c)
    # the least and greatest elements bound every other one
    good = (canonical[0], canonical[len(canonical) // 2], canonical[-1])
    assert target.ascends(good)
    non_canonical = next(e for e in _candidates(target) if e not in set(canonical))
    for bad in [e for c, e in MALFORMED if c == case] + [non_canonical]:
        for i in range(3):
            assert not target.ascends(good[:i] + (bad,) + good[i + 1 :]), (bad, i)
