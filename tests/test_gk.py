import gc
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import chain_index, interval_pairing, rotate
from scdforge.core import Context, Decomposition, ResourceLimitError, full_mask, make_decomposition, mask_of
from scdforge.gk import (
    ChainBottoms,
    boolean_scd_on_support,
    chain_of,
    gk_decomposition,
    gk_scd,
    pairing,
    partner,
    predecessor,
    successor,
)


def test_pairing_examples():
    p = pairing(mask_of([2]), 3)
    assert p.partner == {2: 1}
    assert p.paired_members == mask_of([2])
    assert p.paired_nonmembers == mask_of([1])

    empty = pairing(0, 5)
    assert empty.partner == {}
    assert empty.paired_members == 0 == empty.paired_nonmembers

    nested = pairing(mask_of([3, 4]), 4)
    assert nested.partner == {3: 2, 4: 1}
    assert nested.paired_members == mask_of([3, 4])
    assert nested.paired_nonmembers == mask_of([1, 2])


@pytest.mark.parametrize("n", range(1, 14))
def test_pairing_matches_interval_rule(n):
    if n <= 11:
        subsets = range(1 << n)
    else:
        subsets = range(0, 1 << n, 7)  # deterministic sample for the big sizes
    for a in subsets:
        assert pairing(a, n).partner == interval_pairing(a, n), (n, a)


def test_pairing_intervals_sit_inside_paired_set():
    for n in range(1, 11):
        for a in range(1 << n):
            p = pairing(a, n)
            paired = p.paired
            values = list(p.partner.values())
            assert len(values) == len(set(values))  # injective
            for x, y in p.partner.items():
                assert y < x and not a >> (y - 1) & 1
                span = range(y, x + 1)
                assert all(paired >> (i - 1) & 1 for i in span)
                inside = sum(a >> (i - 1) & 1 for i in span)
                assert inside * 2 == len(span)


def test_successor_examples():
    assert successor(0, 3) == mask_of([1])
    assert successor(mask_of([2]), 3) == mask_of([2, 3])
    assert successor(mask_of([2, 4]), 4) is None


def test_predecessor_examples():
    assert predecessor(mask_of([1]), 3) == 0
    assert predecessor(mask_of([2]), 3) is None
    # round-trip confirmed: the unmatched member 4 is the one removed,
    # and successor({1,3}) == {1,3,4}
    assert predecessor(mask_of([1, 3, 4]), 4) == mask_of([1, 3])
    assert successor(mask_of([1, 3]), 4) == mask_of([1, 3, 4])


@pytest.mark.parametrize("n", range(1, 11))
def test_successor_predecessor_round_trip(n):
    for a in range(1 << n):
        up = successor(a, n)
        if up is not None:
            assert predecessor(up, n) == a
        down = predecessor(a, n)
        if down is not None:
            assert successor(down, n) == a


def test_chain_of_examples():
    assert chain_of(mask_of([2]), 3).elements == (mask_of([2]), mask_of([2, 3]))
    assert chain_of(mask_of([1, 2, 3]), 3).elements == (0, 1, 3, 7)
    assert chain_of(mask_of([2, 4]), 4).elements == (mask_of([2, 4]),)


@pytest.mark.parametrize("n", range(1, 11))
def test_chain_of_matches_gk_scd(n):
    scd = gk_scd(n)
    index = chain_index(scd)
    for a in range(1 << n):
        assert chain_of(a, n) == scd.chains[index[a]], (n, a)


def test_gk_scd_b2():
    scd = gk_scd(2)
    assert [c.elements for c in scd.chains] == [(0, 1, 3), (2,)]


def test_gk_scd_b3():
    scd = gk_scd(3)
    assert [len(c) for c in scd.chains] == [4, 2, 2]
    assert len(scd.chains) == 3  # C(3,1)


def test_gk_scd_b4_frozen():
    scd = gk_scd(4)
    assert [c.elements for c in scd.chains] == [
        (0, 1, 3, 7, 15),
        (2, 6, 14),
        (4, 5, 13),
        (8, 9, 11),
        (10,),
        (12,),
    ]
    singles = [c.elements[0] for c in scd.chains if len(c) == 1]
    assert singles == [mask_of([2, 4]), mask_of([3, 4])]


@pytest.mark.parametrize("n", range(1, 11))
def test_gk_scd_partitions_and_indexes(n):
    import math

    scd = gk_scd(n)
    assert len(scd.chains) == math.comb(n, n // 2)
    seen = set()
    for chain in scd.chains:
        assert [mask.bit_count() for mask in chain.elements] == list(range(chain.rank, chain.rank + len(chain)))
        assert 2 * chain.rank + len(chain) - 1 == n
        for mask in chain.elements:
            assert mask not in seen
            seen.add(mask)
    assert seen == set(range(1 << n))
    # longest chains first; equal lengths by ascending bottom mask
    order = [(c.elements[0].bit_count(), c.elements[0]) for c in scd.chains]
    assert order == sorted(order)


@pytest.mark.parametrize("n", range(1, 12))
def test_chain_members_share_matching(n):
    scd = gk_scd(n)
    for chain in scd.chains:
        base = pairing(chain.elements[0], n)
        for mask in chain.elements:
            p = pairing(mask, n)
            assert p.paired_members == base.paired_members
            for x in base.partner:
                assert p.partner[x] == base.partner[x]


@pytest.mark.parametrize("n", range(1, 12))
def test_chain_endpoints_and_prefix_form(n):
    scd = gk_scd(n)
    for chain in scd.chains:
        bottom = chain.elements[0]
        p = pairing(bottom, n)
        assert bottom == p.paired_members
        assert chain.elements[-1] == full_mask(n) & ~p.paired_nonmembers
        free = [
            i
            for i in range(1, n + 1)
            if not p.paired >> (i - 1) & 1
        ]
        expected = [bottom]
        acc = bottom
        for i in free:
            acc |= 1 << (i - 1)
            expected.append(acc)
        assert list(chain.elements) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_partner_commutes_with_all_rotation_powers(n):
    scd = gk_scd(n)
    index = chain_index(scd)
    for chain in scd.chains:
        for x in chain.elements:
            if x.bit_count() > n // 2:
                break
            mirror = partner(x, chain)
            for j in range(n):
                shifted = rotate(x, j, n)
                host = scd.chains[index[shifted]]
                assert partner(shifted, host) == rotate(mirror, j, n)


def test_partner_examples():
    b2_top = gk_scd(2).chains[0]
    assert partner(0, b2_top) == 3

    chain23 = chain_of(mask_of([2]), 3)
    assert partner(mask_of([2]), chain23) == mask_of([2, 3])

    single = chain_of(mask_of([2, 4]), 4)
    assert partner(mask_of([2, 4]), single) == mask_of([2, 4])


def test_partner_rejects_outsiders():
    with pytest.raises(ValueError, match="not on the chain"):
        partner(mask_of([1, 3]), gk_scd(4).chains[0])


@pytest.mark.parametrize("n", range(1, 11))
def test_gk_scd_is_the_canonical_boolean_decomposition(n):
    # the bottoms are sorted by (rank, bottom), so re-sorting the chains changes nothing
    scd = gk_scd(n)
    context = Context(kind="boolean", total_rank=n, n=n)
    assert type(scd) is Decomposition and scd.context == context
    assert scd == make_decomposition(list(ChainBottoms(n)), context)
    assert gk_decomposition is gk_scd and gk_decomposition(n) == scd


def test_boolean_scd_on_support_is_in_canonical_order():
    support = mask_of([2, 3, 5, 8, 9])
    decomp = boolean_scd_on_support(support)
    assert decomp == make_decomposition(decomp.chains, decomp.context)
    assert {e for c in decomp.chains for e in c.elements} == {a for a in range(1 << 9) if a & ~support == 0}


def test_gk_scd_holds_elements_and_bottom_ranks_only():
    # a chain is its elements and its bottom's rank: 3.67 MiB, 4.66 MiB with a ranks tuple per chain
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        scd = gk_scd(16)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert scd.element_count() == 1 << 16
    assert held < 4 << 20, held


def test_gk_scd_guards():
    with pytest.raises(ValueError):
        gk_scd(0)
    with pytest.raises(ResourceLimitError):
        gk_scd(29)


@given(st.integers(min_value=1, max_value=12), st.data())
def test_round_trip_random(n, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    up = successor(a, n)
    if up is not None:
        assert predecessor(up, n) == a
