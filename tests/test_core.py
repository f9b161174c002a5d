import copy
import json
import operator
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bit_string_reference, is_symmetric_chain, level_digits, pairwise_fold, relabelled_parts
from scdforge.chainpow import ChainPowerTarget, ChainProductTarget, chainpower_scd, chainproduct_scd
from scdforge.core import (
    CHUNK_BITS,
    Chain,
    Context,
    Decomposition,
    bit_map,
    bit_string,
    chunk_tables,
    element_text,
    elements_of,
    hook_chains,
    make_decomposition,
    map_elements,
    mask_of,
    product_scd,
    relabel_map,
    set_string,
)
from scdforge.gk import ChainBottoms, Pairing, boolean_scd_on_support, gk_decomposition
from scdforge.groups import CycleFactor, GroupSpec, parse_group_spec, quotient_poset
from scdforge.prune import PrunedChain, PrunedFamily, prune_chains, quotient_scd, quotient_scd_cyclic
from scdforge.reflect import reflection_poset, reflection_scd
from scdforge.verify import Failure, ProductTarget, RankProfile, VerifyReport


def test_rank_examples():
    assert (0).bit_count() == 0
    assert mask_of([1, 2, 3, 4]).bit_count() == 4
    assert mask_of([1, 3]).bit_count() == 2


def test_mask_round_trip():
    assert elements_of(mask_of([3, 1])) == (1, 3)
    assert bit_string(mask_of([1, 3]), 4) == "1010"
    assert set_string(mask_of([1, 3])) == "{1,3}"
    assert set_string(0) == "{}"


def test_bit_string_matches_the_bit_loop():
    # every mask up to n = 14, then negative masks, masks with bits above n, and n <= 0, which give ""
    for n in range(15):
        assert [bit_string(a, n) for a in range(1 << n)] == [bit_string_reference(a, n) for a in range(1 << n)], n
    rng = random.Random(0)
    masks = [-1, -2, -3, -(1 << 70), -rng.getrandbits(80), 1 << 70, rng.getrandbits(80), rng.getrandbits(80) << 13]
    for n in (-2, -1, 0, 1, 5, 13, 64, 90):
        assert [bit_string(a, n) for a in masks] == [bit_string_reference(a, n) for a in masks], n
    assert bit_string(-2, 3) == "011"
    assert bit_string(5, -1) == bit_string(5, 0) == ""


@pytest.mark.parametrize("mask", [-1, -3, -(1 << 64)])
def test_a_negative_mask_has_no_elements(mask):
    # refused at once, where the bit loop would never reach 0
    for write in (elements_of, set_string, boolean_scd_on_support):
        with pytest.raises(ValueError, match=f"mask must be >= 0, got {mask}$"):
            write(mask)


def test_symmetric_chain_examples():
    full_b2 = Chain((0, 1, 3), 0)
    assert is_symmetric_chain(full_b2, 2)
    singleton = Chain((mask_of([1, 3]),), 2)
    assert is_symmetric_chain(singleton, 4)  # 2 + 2 = 4
    lopsided = Chain((1, 3), 1)
    assert not is_symmetric_chain(lopsided, 4)
    # the elements' ranks decide, not the record's
    assert not is_symmetric_chain(Chain((0, 3), 0), 2)  # skips rank 1
    assert not is_symmetric_chain(Chain((0, 1, 3), 1), 4)
    assert is_symmetric_chain(Chain(((0,), (1,), (2,)), 5), 2, sum)


def test_empty_chain_rejected():
    with pytest.raises(ValueError, match="empty chain"):
        Chain((), 0)


def test_hook_chains_small():
    assert hook_chains(0, 0) == [((0, 0),)]
    assert hook_chains(1, 1) == [
        ((0, 0), (0, 1), (1, 1)),
        ((1, 0),),
    ]
    two = hook_chains(2, 1)
    assert len(two) == 2
    assert sum(len(c) for c in two) == 6
    for c in two:
        lo = sum(c[0])
        hi = sum(c[-1])
        assert lo + hi == 3


def test_hook_chains_negative():
    with pytest.raises(ValueError):
        hook_chains(-1, 2)


@pytest.mark.parametrize("a", range(9))
@pytest.mark.parametrize("b", range(9))
def test_hook_chains_partition(a, b):
    chains = hook_chains(a, b)
    assert len(chains) == min(a, b) + 1
    seen = set()
    for c in chains:
        for (x0, y0), (x1, y1) in zip(c, c[1:]):
            assert x1 + y1 == x0 + y0 + 1
            assert x1 >= x0 and y1 >= y0
        assert sum(c[0]) + sum(c[-1]) == a + b
        seen.update(c)
    assert len(seen) == sum(len(c) for c in chains) == (a + 1) * (b + 1)


def test_product_of_two_b1_copies_looks_like_b2():
    b1 = gk_decomposition(1)
    prod = product_scd(b1, b1)
    assert sorted(len(c) for c in prod.chains) == [1, 3]
    assert prod.context.total_rank == 2
    assert prod.element_count() == 4


def test_product_with_singleton_factor_is_isomorphic():
    point = Decomposition(
        (Chain(("pt",), 0),), Context(kind="product", total_rank=0)
    )
    dq = gk_decomposition(2)
    prod = product_scd(point, dq)
    assert prod.chain_sizes() == dq.chain_sizes()
    assert [tuple(e[1] for e in c.elements) for c in prod.chains] == [
        c.elements for c in dq.chains
    ]


def test_product_b2_by_b2():
    b2 = gk_decomposition(2)
    prod = product_scd(b2, b2)
    assert sorted(len(c) for c in prod.chains) == [1, 1, 3, 3, 3, 5]
    elems = [e for c in prod.chains for e in c.elements]
    assert len(elems) == len(set(elems)) == 16
    assert set(elems) == {(x, y) for x in range(4) for y in range(4)}


def test_product_chain_count_matches_middle_rank():
    for n_p, n_q in [(1, 2), (2, 3), (3, 3)]:
        dp, dq = gk_decomposition(n_p), gk_decomposition(n_q)
        prod = product_scd(dp, dq)
        expected = sum(
            min(len(c), len(d)) for c in dp.chains for d in dq.chains
        )
        assert len(prod.chains) == expected
        # every symmetric chain crosses the middle rank of the product
        middle = (n_p + n_q) // 2
        middle_count = sum(
            1 for c in prod.chains for p, q in c.elements if p.bit_count() + q.bit_count() == middle
        )
        assert middle_count == len(prod.chains)
        for c in prod.chains:
            assert [p.bit_count() + q.bit_count() for p, q in c.elements] == list(range(c.rank, c.rank + len(c)))


def _constructions():
    """(label, chains, rank function of their elements) over a small grid of
    every construction, the greedy pass's pieces included."""
    for n in range(1, 9):
        trivial = quotient_poset(n, GroupSpec.trivial(n))
        yield f"gk {n}", gk_decomposition(n).chains, trivial.rank
        for step in [d for d in range(1, n + 1) if n % d == 0]:
            decomp = quotient_scd_cyclic(n, step)
            yield f"cyclic {n}/{step}", decomp.chains, int.bit_count
            family = prune_chains(ChainBottoms(n), step)
            yield f"pieces {n}/{step}", [c for pc in family.chains for c in (pc.kept, pc.orbits)], int.bit_count
    yield "support", boolean_scd_on_support(mask_of([2, 3, 5, 8, 9])).chains, int.bit_count
    for n, text in [(6, "(1 2 3 4)^2"), (7, "(1 2 3)(4 5 6 7)^2"), (9, "(2 5 7)(1 9)"), (10, "(2 4 6)(7 8)(9 10)^2")]:
        yield f"quotient {n} {text}", quotient_scd(n, text).chains, quotient_poset(n, parse_group_spec(text, n)).rank
    for n, text in [(6, "(1 6)(2 5)(3 4)"), (7, "(2 6)(1 3)"), (9, "(1 9)"), (5, "(2 4)^2")]:
        yield f"reflect {n} {text}", reflection_scd(n, text).chains, reflection_poset(n, parse_group_spec(text, n)).rank
    for k, m, r in [(2, 6, 1), (3, 4, 2), (4, 3, 1), (5, 2, 1)]:
        decomp = chainpower_scd(k, m, r)
        yield f"chainpower {k} {m} {r}", decomp.chains, ChainPowerTarget(k, m, r).rank
        family = prune_chains(ChainBottoms((k - 1) * m, k - 1), r)
        pieces = [c for pc in family.chains for c in (pc.kept, pc.orbits)]
        yield f"level pieces {k} {m} {r}", pieces, lambda x, k=k, m=m: sum(level_digits(x, k, m))
    triples = [(3, 2, 1), (2, 3, 1), (2, 2, 2)]
    yield "chainproduct", chainproduct_scd(triples).chains, ChainProductTarget(triples).rank
    necklaces = quotient_poset(4, GroupSpec(4, (CycleFactor((1, 2, 3, 4)),)))
    pairs = ProductTarget(necklaces, quotient_poset(3, GroupSpec.trivial(3)))
    yield "product", product_scd(quotient_scd_cyclic(4, 1), gk_decomposition(3)).chains, pairs.rank


def test_every_chain_is_saturated_from_its_recorded_bottom_rank():
    # the stats and the canonical order rest on rank: each element's own rank is the bottom's plus its place
    for label, chains, rank in _constructions():
        assert chains, label
        for c in chains:
            assert [rank(e) for e in c.elements] == list(range(c.rank, c.rank + len(c))), (label, c)


def test_product_rejects_broken_input():
    # a two-element chain from rank 0 ends at rank 1, which is not symmetric for rank 2
    bad = Decomposition(
        (Chain((0, 3), 0),), Context(kind="boolean", total_rank=2, n=2)
    )
    with pytest.raises(ValueError, match="invalid input decomposition: chain .* is not symmetric for rank 2"):
        product_scd(bad, gk_decomposition(1))
    repeated = Decomposition((Chain((0, 1, 3), 0), Chain((1,), 1)), Context(kind="boolean", total_rank=2, n=2))
    with pytest.raises(ValueError, match="invalid input decomposition: element 1 appears twice"):
        product_scd(gk_decomposition(1), repeated)
    # every factor of a longer fold is checked, the last one too
    with pytest.raises(ValueError, match="invalid input decomposition: chain .* is not symmetric for rank 2"):
        product_scd(gk_decomposition(1), gk_decomposition(1), bad)


@pytest.mark.parametrize("parts, join", [
    ([chainpower_scd(*t) for t in [(2, 2, 1), (3, 2, 1), (2, 3, 3)]], operator.add),
    (relabelled_parts(9, parse_group_spec("(1 2 3)(5 6 7 8)^2", 9)), operator.or_),
    (relabelled_parts(10, parse_group_spec("(2 4 6)(7 8)(9 10)^2", 10)), operator.or_),
    ([quotient_scd_cyclic(6, 2)], operator.or_),
], ids=["chainproduct-3", "quotient-9", "quotient-10", "one-factor"])
def test_product_fold_matches_the_pairwise_fold(parts, join):
    # one pass writing join(p, q) per cell gives the chains of pair products joined afterwards
    ctx = Context(kind="product", total_rank=sum(p.context.total_rank for p in parts))
    folded = product_scd(*parts, join=join)
    assert folded.context == ctx
    assert make_decomposition(folded.chains, ctx) == make_decomposition(pairwise_fold(parts, join).chains, ctx)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_hook_chain_ranks_symmetric(a, b):
    for i, c in enumerate(hook_chains(a, b)):
        assert sum(c[0]) == i
        assert sum(c[-1]) == a + b - i


def _moved(mask: int, targets) -> int:
    """Bit-by-bit reference: local bit i goes to bit targets[i]."""
    return sum(1 << t for i, t in enumerate(targets) if mask >> i & 1)


def test_chunk_tables_are_two_up_to_the_quotient_limit():
    # one layout for every mask a group action or a relabelling reads: below 12 bits the high table is [0]
    for n in range(23):
        tables = chunk_tables(lambda bit: bit, n)
        assert len(tables) == 2, n
        assert tables[0] == list(range(1 << min(n, CHUNK_BITS)))
        assert tables[1] == [v << CHUNK_BITS for v in range(1 << max(n - CHUNK_BITS, 0))]
    assert len(chunk_tables(lambda bit: bit, 23)) == 3


@pytest.mark.parametrize("n", [1, 8, 11, 12, 22, 23, 64])
def test_bit_map_matches_the_bit_loop(n):
    # two chunks up to n = 22, the high one empty up to 11; the chunk loop beyond
    rng = random.Random(n)
    targets = rng.sample(range(64), n)
    calls = []

    def fn(mask):
        calls.append(mask)
        return _moved(mask, targets)

    move = bit_map(fn, n)
    # fn runs once on each single bit, in order; every other entry is an addition
    assert calls == [1 << b for b in range(n)]
    masks = [0, (1 << n) - 1] + [1 << i for i in range(n)] + [rng.getrandbits(n) for _ in range(500)]
    assert [move(a) for a in masks] == [_moved(a, targets) for a in masks]


@pytest.mark.parametrize("n", [*range(1, 23), 23, 33, 64])
def test_text_tables_match_the_join_form(n):
    # the text tables element_text reads, entry by entry, against joining elements_of over
    # chunk_tables' masks; each starts from the empty image, b"" here, "" for str texts
    calls = []

    def fn(bit):
        calls.append(bit)
        return b",%d" % bit.bit_length()

    tables = chunk_tables(fn, n)
    assert calls == [1 << b for b in range(n)]
    masks = chunk_tables(lambda bit: bit, n)
    assert len(tables) == len(masks)
    for table, chunk in zip(tables, masks):
        assert table == [b"," + ",".join(map(str, elements_of(mask))).encode() if mask else b"" for mask in chunk]
    assert chunk_tables(lambda bit: ",%d" % bit.bit_length(), n) == [[t.decode() for t in table] for table in tables]


@pytest.mark.parametrize("n", [*range(1, 14), 22, 23, 28, 40, 64])
def test_element_text_matches_the_bit_loop(n):
    # the chain writer: every mask up to n = 13 (an empty high chunk, then not), sampled masks beyond,
    # in chains of one to five masks
    rng = random.Random(n)
    write = element_text(n)
    if n <= 13:
        masks = list(range(1 << n))
    else:
        masks = [0, (1 << n) - 1] + [1 << i for i in range(n)] + [rng.getrandbits(n) for _ in range(500)]
        masks += [a & ~0x7FF for a in masks] + [a & 0x7FF for a in masks]  # an empty low or high chunk
    rng.shuffle(masks)
    start = 0
    while start < len(masks):
        chain = tuple(masks[start:start + rng.randint(1, 5)])
        start += len(chain)
        out = write(chain)
        assert type(out) is bytes
        assert out == json.dumps([list(elements_of(a)) for a in chain], separators=(",", ":")).encode()


def test_relabel_moves_each_bit_to_its_target():
    targets = random.Random(0).sample(range(30), 13)
    local = gk_decomposition(13)
    moved = map_elements(local, relabel_map(targets))
    assert moved.context == local.context
    for c, d in zip(local.chains, moved.chains):
        assert d.elements == tuple(_moved(a, targets) for a in c.elements)
        assert d.rank == c.rank


_CHAIN = Chain((1, 3), 1)
_PIECE = PrunedChain(4, _CHAIN, Chain((1,), 1))

# (record, its fields in order, its repr, the fields that a shorter call leaves
# at their defaults, calls that must raise ValueError)
RECORDS = [
    (Chain, dict(elements=(1, 3), rank=1),
     "Chain(elements=(1, 3), rank=1)",
     {}, [dict(elements=(), rank=0)]),
    (Context, dict(kind="quotient", total_rank=4, n=4, group="(1 2)", k=3, m=2, r=1, factors=((2, 2, 1),)),
     "Context(kind='quotient', total_rank=4, n=4, group='(1 2)', k=3, m=2, r=1, factors=((2, 2, 1),))",
     dict(n=None, group=None, k=None, m=None, r=None, factors=None), []),
    (Decomposition, dict(chains=(_CHAIN,), context=Context("boolean", 1, n=1)),
     "Decomposition(chains=(Chain(elements=(1, 3), rank=1),), context=Context(kind='boolean', "
     "total_rank=1, n=1, group=None, k=None, m=None, r=None, factors=None))",
     {}, []),
    (Pairing, dict(n=3, subset=6, partner={2: 1}, paired_members=2, paired_nonmembers=1),
     "Pairing(n=3, subset=6, partner={2: 1}, paired_members=2, paired_nonmembers=1)",
     {}, []),
    (CycleFactor, dict(cycle=(1, 2, 3), exponent=2),
     "CycleFactor(cycle=(1, 2, 3), exponent=2)",
     dict(exponent=1), []),
    (GroupSpec, dict(n=4, factors=(CycleFactor((1, 2, 3), 2),)),
     "GroupSpec(n=4, factors=(CycleFactor(cycle=(1, 2, 3), exponent=2),))",
     {}, [dict(n=0, factors=()), dict(n=4, factors=(CycleFactor((1, 2, 1)),)),
          dict(n=4, factors=(CycleFactor((1, 5)),)), dict(n=4, factors=(CycleFactor((1, 2), -1),)),
          dict(n=4, factors=(CycleFactor((1, 2)), CycleFactor((2, 3))))]),
    (PrunedChain, dict(source=4, kept=_CHAIN, orbits=Chain((1,), 1)),
     "PrunedChain(source=4, kept=Chain(elements=(1, 3), rank=1), orbits=Chain(elements=(1,), rank=1))",
     {}, []),
    (PrunedFamily, dict(chains=(_PIECE,)),
     "PrunedFamily(chains=(PrunedChain(source=4, kept=Chain(elements=(1, 3), rank=1), "
     "orbits=Chain(elements=(1,), rank=1)),))",
     {}, []),
    (Failure, dict(kind="not-covered", witness=(1, 2), detail="x"),
     "Failure(kind='not-covered', witness=(1, 2), detail='x')",
     dict(detail=""), []),
    (VerifyReport, dict(ok=False, element_count=1, expected_count=2, failures=(Failure("not-covered", 5),)),
     "VerifyReport(ok=False, element_count=1, expected_count=2, "
     "failures=(Failure(kind='not-covered', witness=5, detail=''),))",
     {}, []),
    (RankProfile, dict(counts=(1, 2, 1), symmetric=True, unimodal=True),
     "RankProfile(counts=(1, 2, 1), symmetric=True, unimodal=True)",
     {}, []),
]


@pytest.mark.parametrize("cls, fields, text, defaults, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, text, defaults, bad):
    names, values = list(fields), tuple(fields.values())
    x = cls(*values)
    assert [getattr(x, name) for name in names] == list(values)
    assert cls(**fields) == x and not cls(**fields) != x
    required = len(names) - len(defaults)
    short = cls(*values[:required])
    assert {name: getattr(short, name) for name in defaults} == defaults
    assert short == cls(*values[:required], *defaults.values())
    if defaults:
        assert short != x
    # equal only to the same class with equal fields
    twin = type("Twin", (cls,), {})(*values)
    assert x != twin and twin != x and not x == twin
    assert x != values and x != list(values)
    for name in names:  # one field changed
        changed = {**fields, name: (fields[name], 0)}
        if cls is GroupSpec:  # its fields are checked
            changed = {**fields, name: {"n": 5, "factors": ()}[name]}
        assert cls(**changed) != x
    try:
        expected = hash(values)
    except TypeError:  # Pairing's partner is a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected
        assert {x: 1}[cls(**fields)] == 1
    assert repr(x) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert [getattr(x, name) for name in names] == list(values)
    assert copy.copy(x) == x and copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
    for kwargs in bad:
        with pytest.raises(ValueError):
            cls(**kwargs)
