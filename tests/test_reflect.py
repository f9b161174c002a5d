import hashlib
import random

import pytest

from oracles import pair_mask, reflection_named_after_fold, staircase_peel, word_reverse
from scdforge import cli, reflect
from scdforge.cli import run, target_for_context
from scdforge.core import ResourceLimitError, mask_of
from scdforge.gk import gk_decomposition, gk_scd
from scdforge.groups import ParseError, parse_group_spec, quotient_poset
from scdforge.prune import quotient_scd
from scdforge.reflect import (
    half_blocks,
    involution_group,
    reflection_poset,
    reflection_scd,
    scd_of_diagonal_block,
    standard_reflection,
)
from scdforge.verify import verify_decomposition


def _cells(ci, cj, grids):
    """The (u, v) pairs of half-words that a block's grids cover, in grid order."""
    return [(ci.elements[x], cj.elements[y]) for grid in grids for x, y in grid]


def test_half_blocks_counts():
    for k, cell_total in [(1, 3), (2, 10), (3, 36), (4, 136), (5, 528), (6, 2080)]:
        blocks = list(half_blocks(k))
        t = len(gk_scd(k).chains)
        assert len(blocks) == t * (t + 1) // 2
        for ci, cj, grids in blocks:  # the grids cover the rectangle, or the staircase x <= y, once
            cells = [c for grid in grids for c in grid]
            block = {(x, y) for x in range(len(ci)) for y in range(len(cj)) if ci is not cj or x <= y}
            assert len(cells) == len(block) and set(cells) == block
        assert sum(len(_cells(*b)) for b in blocks) == cell_total == (4**k + 2**k) // 2


def test_block_rank_arithmetic():
    for k in range(1, 5):
        scd = gk_scd(k)  # half_blocks pairs its chains, in its order
        blocks = list(half_blocks(k))
        assert [(ci, cj) for ci, cj, _ in blocks] == [
            (c, d) for i, c in enumerate(scd.chains) for d in scd.chains[i:]
        ]
        for ci, cj, grids in blocks:
            r_i, r_j = ci.elements[0].bit_count(), cj.elements[0].bit_count()
            assert (r_i, r_j) == (ci.rank, cj.rank)
            ranks = [u.bit_count() + v.bit_count() for u, v in _cells(ci, cj, grids)]
            assert min(ranks) == r_i + r_j
            assert max(ranks) == 2 * k - (r_i + r_j)


def test_half_cube_and_gk_guards_run_before_any_chain(monkeypatch):
    # half_blocks(12) walks 2^23 + 2^11 cells; both refuse at the guard, not in ChainBottoms
    def refuse(*args):
        raise AssertionError("chains grown before the size guard")

    monkeypatch.setattr("scdforge.reflect.ChainBottoms", refuse)
    monkeypatch.setattr("scdforge.gk.ChainBottoms", refuse)
    cells = (r"^half_blocks walks the \(4\^k \+ 2\^k\)/2 = 8390656 cells of B_k x B_k"
             r" and is capped at k <= 11, got k = 12$")
    with pytest.raises(ResourceLimitError, match=cells):
        next(half_blocks(12))
    with pytest.raises(ValueError, match=r"^ground set size must be >= 1, got 0$"):
        next(half_blocks(0))
    with pytest.raises(ResourceLimitError, match=r"capped at n <= 22, got 23"):
        gk_scd(23)


def test_diagonal_singleton():
    assert scd_of_diagonal_block(0) == [((0, 0),)]
    ci, cj, grids = list(half_blocks(2))[-1]  # over chain 1 of B_2: the single half-word 01
    assert ci is cj and ci.elements == (2,)
    assert grids == [((0, 0),)]


def test_diagonal_peel_b2_top_chain():
    ci, cj, grids = next(half_blocks(2))  # over chain 0: 00 < 10 < 11
    assert ci is cj and ci.elements == (0, 1, 3)
    assert grids == [
        ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2)),
        ((1, 1),),
    ]


def test_diagonal_peel_odd_side():
    ci, cj, grids = next(half_blocks(3))  # over chain 0, of length 4
    assert ci is cj and len(ci) == 4
    assert sorted(len(g) for g in grids) == [3, 7]
    cells = {c for g in grids for c in g}
    assert cells == {(x, y) for x in range(4) for y in range(x, 4)}


@pytest.mark.parametrize("k", range(1, 7))
def test_peel_by_side_matches_the_peel_of_the_block(k):
    diagonal = [(ci, grids) for ci, cj, grids in half_blocks(k) if ci is cj]
    assert len(diagonal) == len(gk_scd(k).chains)
    for chain, grids in diagonal:
        rows = chain.elements
        assert grids == scd_of_diagonal_block(len(rows) - 1) == staircase_peel(rows)
        cells = [(rows[x], rows[y]) for x in range(len(rows)) for y in range(x, len(rows))]
        assert sorted(_cells(chain, chain, grids)) == sorted(cells)


def test_peel_rejects_a_negative_side():
    with pytest.raises(ValueError):
        scd_of_diagonal_block(-1)


@pytest.mark.parametrize("k", range(1, 7))
def test_pairing_map_is_a_bijection_onto_orbits(k):
    images = set()
    for block in half_blocks(k):
        for u, v in _cells(*block):
            word = pair_mask(u, v, k)
            rep = min(word, word_reverse(word, 2 * k))
            assert rep not in images
            images.add(rep)
    pairs = [(i, 2 * k + 1 - i) for i in range(1, k + 1)]
    poset = quotient_poset(2 * k, involution_group(2 * k, pairs))
    assert images == set(poset.elements())


@pytest.mark.parametrize("k", range(1, 7))
def test_pairing_map_preserves_order(k):
    for block in half_blocks(k):
        cells = _cells(*block)
        for u1, v1 in cells:
            for u2, v2 in cells:
                if u1 | u2 == u2 and v1 | v2 == v2:
                    w1 = pair_mask(u1, v1, k)
                    w2 = pair_mask(u2, v2, k)
                    assert w1 | w2 == w2


def test_reflection_n2():
    decomp = reflection_scd(2, "(1 2)")
    assert [c.elements for c in decomp.chains] == [(0, 1, 3)]


def test_reflection_n3_with_fixed_point():
    decomp = reflection_scd(3, "(1 2)")
    assert decomp.chain_sizes() == (4, 2)
    assert decomp.element_count() == 6


def test_reflection_n4_frozen():
    decomp = reflection_scd(4, "(1 4)(2 3)")
    assert [c.elements for c in decomp.chains] == [
        (0, 1, 3, 11, 15),
        (2, 5, 7),
        (mask_of([2, 3]),),
        (mask_of([1, 4]),),
    ]
    assert sorted(decomp.chain_sizes(), reverse=True) == [5, 3, 1, 1]
    assert decomp.element_count() == 10


def test_reflection_input_validation():
    with pytest.raises(ValueError, match="transpositions"):
        reflection_scd(4, "(1 2 3)")
    with pytest.raises(ParseError):
        reflection_scd(4, "(1 2)(2 3)")


def test_reflection_identity_factors_drop_to_plain_boolean():
    decomp = reflection_scd(4, "(1 2)^2")
    assert [c.elements for c in decomp.chains] == [
        c.elements for c in gk_decomposition(4).chains
    ]
    assert decomp.context.kind == "reflection"


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_reflection_standard_verifies(n):
    rho = standard_reflection(n)
    decomp = reflection_scd(n, rho)
    pairs = [(i, n + 1 - i) for i in range(1, n // 2 + 1)]
    poset = quotient_poset(n, involution_group(n, pairs))
    assert verify_decomposition(poset, decomp).ok


@pytest.mark.parametrize(
    "n, text",
    [(5, "(2 4)"), (6, "(1 6)(3 4)"), (7, "(1 2)(3 7)(4 6)"), (9, "(2 3)(5 9)")],
)
def test_reflection_with_fixed_points_verifies(n, text):
    decomp = reflection_scd(n, text)
    assert decomp.context.group == text
    assert decomp.rank_counts() == tuple(reversed(decomp.rank_counts()))


@pytest.mark.parametrize(
    "n, text",
    [(9, "(2 3)(5 9)"), (9, "(1 9)"), (9, "(1 8)(2 7)(3 6)(4 5)"), (9, "(4 6)(1 3)(7 8)"),
     (10, "(1 10)(2 9)(3 8)(4 7)(5 6)")],
)
def test_naming_before_the_fold_matches_naming_after(n, text):
    decomp = reflection_scd(n, text)
    reference = reflection_named_after_fold(n, parse_group_spec(text, n))
    assert decomp == reference


def _random_involution(rng, n, k):
    """k transpositions on a random 2k of [n], in random order with shuffled
    ends; the fixed points may carry identity factors, an even power of a
    transposition or a 1-cycle."""
    points = rng.sample(range(1, n + 1), n)
    terms = [f"({points[2 * t]} {points[2 * t + 1]})" for t in range(k)]
    terms = [t + "^3" if rng.random() < 0.2 else t for t in terms]
    rest = points[2 * k:]
    if len(rest) >= 2 and rng.random() < 0.7:
        terms.append(f"({rest.pop()} {rest.pop()})^{rng.choice((2, 4))}")
    if rest and rng.random() < 0.5:
        terms.append(f"({rest.pop()})")
    rng.shuffle(terms)
    return "".join(terms)


@pytest.mark.parametrize("n", range(2, 15))
def test_named_cells_match_naming_after_the_fold_on_random_involutions(n):
    # three draws that move all of [n] (but one point when n is odd), then
    # three that leave at least one more point fixed where n allows it
    rng = random.Random(1600 + n)
    for k in [n // 2] * 3 + [rng.randint(1, max(1, (n - 1) // 2)) for _ in range(3)]:
        text = _random_involution(rng, n, k)
        rho = parse_group_spec(text, n)
        assert reflection_scd(n, rho) == reflection_named_after_fold(n, rho), text


# sha256 and length of two reflect documents: no fixed point, and three fixed
# points (3, 8, 11) with the transpositions written out of order
PINNED_DOCUMENTS = [
    (("reflect", "--n", "12", "--group", "(1 7)(2 8)(3 9)(4 10)(5 11)(6 12)"),
     32515, "687d8f54f1bbc8bfa5e5b8e3928dbda3795d070f133c47ecfb3611d5da202eed"),
    (("reflect", "--n", "13", "--group", "(7 10)(2 5)(13 1)(4 9)(6 12)"),
     71998, "d0151ded83a92c54f4db5383d48e25b1f6a996f06ca43d8ad53c36146c364826"),
]


@pytest.mark.parametrize("argv, size, sha256", PINNED_DOCUMENTS)
def test_reflect_documents_are_pinned(capsysbinary, argv, size, sha256):
    assert run(list(argv)) == 0
    data = capsysbinary.readouterr().out
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)


def test_reflection_agrees_with_cycle_power_route(capsys):
    """The same two-element group is also a power of a single cycle, so the
    pruning route applies; the decompositions need not coincide, we only
    record whether the chain-size multisets do."""
    outcomes = []
    for n, pairs in [(4, [(1, 4), (2, 3)]), (6, [(1, 6), (2, 5), (3, 4)]), (6, [(1, 2), (3, 4)])]:
        text = "".join(f"({a} {b})" for a, b in pairs)
        via_blocks = reflection_scd(n, text)
        via_pruning = quotient_scd(n, involution_group(n, pairs))
        assert via_blocks.element_count() == via_pruning.element_count()
        same = sorted(via_blocks.chain_sizes()) == sorted(via_pruning.chain_sizes())
        outcomes.append(((n, text), same))
    print(f"reflection vs cycle-power size multisets: {outcomes}")



@pytest.mark.parametrize("n, text, pairs", [
    (6, "(1 6)(4 2)", [(1, 6), (2, 4)]),
    (4, "(4 1)(2 3)^3", [(1, 4), (2, 3)]),
    (5, "(3)(1 2)^2", []),  # normalizes to the identity: the target is B_5
])
def test_reflection_poset_is_the_one_reflection_target(monkeypatch, n, text, pairs):
    # the certificate of reflection_scd and the target of verify both come from reflection_poset
    rho = parse_group_spec(text, n)
    target = reflection_poset(n, rho)
    assert target.n == n and target.group == involution_group(n, pairs)
    built = []
    for module in (reflect, cli):
        monkeypatch.setattr(module, "reflection_poset", lambda *args: built.append(args) or target)
    decomp = reflection_scd(n, text)
    assert target_for_context(decomp.context) is target
    assert built == [(n, rho)] * 2
    assert verify_decomposition(target, decomp).ok


def test_reflection_poset_refuses_a_longer_cycle():
    with pytest.raises(ValueError, match="not a product of disjoint transpositions"):
        reflection_poset(4, parse_group_spec("(1 2 3)", 4))
