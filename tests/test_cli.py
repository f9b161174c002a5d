import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    enumerated_profile_lines,
    every_cycle_power_group,
    full_rotations_ranks,
    rank_counts_reference,
    read_subset_reference,
    reference_bytes,
    sampled_groups_with_fixed_points,
)
from scdforge.chainpow import chainpower_scd, chainproduct_scd
from scdforge.core import Chain, Context, Decomposition, elements_of, make_decomposition, map_elements, relabel_map
from scdforge.cli import (
    DecodeError,
    build_document,
    decode,
    encode,
    run,
    target_for_context,
)
from scdforge.gk import chain_of, gk_decomposition
from scdforge.groups import GroupSpec, ParseError, QuotientPoset, parse_group_spec
from scdforge.prune import quotient_scd, quotient_scd_cyclic
from scdforge.reflect import reflection_scd
from scdforge.verify import VerificationError, verify_decomposition


def run_bytes(capsysbinary, argv):
    code = run(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def test_gk_text_first_line(capsys):
    assert run(["gk", "--n", "3", "--text"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "chains=3"
    assert len(out) == 4


def test_gk_json_document(capsysbinary):
    code, out, _ = run_bytes(capsysbinary, ["gk", "--n", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "scdforge/1"
    assert doc["context"] == {"kind": "boolean", "n": 3}
    assert len(doc["chains"]) == 3
    decomp, stats = decode(out)
    assert decomp == gk_decomposition(3)
    assert stats == doc["stats"]


def test_quotient_document(capsysbinary):
    code, out, _ = run_bytes(capsysbinary, ["quotient", "--n", "4", "--group", "(1 2 3 4)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["chains"][0] == [[], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4]]
    assert doc["chains"][1] == [[1, 3]]
    decomp, stats = decode(out)
    assert stats == {"chain_count": 2, "element_count": 6, "rank_profile": [1, 1, 2, 1, 1]}
    assert [c.elements for c in decomp.chains] == [(0, 1, 3, 7, 15), (5,)]
    assert [c.rank for c in decomp.chains] == [0, 2]
    assert decomp.context == Context(kind="quotient", total_rank=4, n=4, group="(1 2 3 4)")


def test_reflect_and_chainpower_commands(capsysbinary):
    code, out, _ = run_bytes(capsysbinary, ["reflect", "--n", "4", "--group", "(1 4)(2 3)"])
    assert code == 0
    assert decode(out)[1]["element_count"] == 10

    code, out, _ = run_bytes(capsysbinary, ["chainpower", "--k", "3", "--m", "2", "--r", "1"])
    assert code == 0
    assert json.loads(out)["context"] == {"kind": "chainpower", "k": 3, "m": 2, "r": 1}
    decomp, _ = decode(out)
    assert decomp.context == Context(kind="chainpower", total_rank=4, k=3, m=2, r=1)
    assert decomp.chains[1] == Chain(((1, 1),), 2)


@pytest.mark.parametrize("argv", [
    ["chainpower", "--k", "3", "--m", "4", "--r", "0"],
    ["chainpower", "--k", "3", "--m", "30", "--r", "0"],  # 3^30 tuples too: the step is refused first
    ["chainpower", "--k", "66", "--m", "1", "--r", "-1"],  # a 65-bit ground too
], ids=lambda argv: " ".join(argv[1:]))
def test_chainpower_refuses_a_step_below_one(capsysbinary, argv):
    assert run_bytes(capsysbinary, argv) == (2, b"", b"error: rotation step must be positive\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["gk", "--n", "5"],
        ["quotient", "--n", "6", "--group", "(1 2 3 4)^2 (5 6)"],
        ["reflect", "--n", "5", "--group", "(1 5)(2 4)"],
        ["chainpower", "--k", "3", "--m", "3"],
        ["orbits", "--n", "4", "--group", "(1 2 3 4)", "--dot"],
    ],
)
def test_byte_identical_reruns(capsysbinary, argv):
    code1, out1, _ = run_bytes(capsysbinary, argv)
    code2, out2, _ = run_bytes(capsysbinary, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_round_trip(tmp_path, capsysbinary):
    code, out, _ = run_bytes(capsysbinary, ["quotient", "--n", "4", "--group", "(1 2 3 4)"])
    path = tmp_path / "doc.json"
    path.write_bytes(out)
    code, out, err = run_bytes(capsysbinary, ["verify", "--input", str(path)])
    assert code == 0
    assert b"ok" in out


def test_verify_tampered_document(tmp_path, capsysbinary):
    code, out, _ = run_bytes(capsysbinary, ["quotient", "--n", "4", "--group", "(1 2 3 4)"])
    doc = json.loads(out)
    del doc["chains"][1]
    doc["stats"]["chain_count"] = 1
    doc["stats"]["element_count"] = 5
    doc["stats"]["rank_profile"] = [1, 1, 1, 1, 1]
    path = tmp_path / "bad.json"
    path.write_bytes(encode(doc))
    code, out, err = run_bytes(capsysbinary, ["verify", "--input", str(path)])
    assert code == 1
    assert b"not-covered" in err
    assert b"[1, 3]" in err or b"5" in err


def test_verify_json_report(tmp_path, capsysbinary):
    code, out, _ = run_bytes(capsysbinary, ["quotient", "--n", "2", "--group", "(1 2)"])
    doc = json.loads(out)
    assert doc["chains"] == [[[], [1], [1, 2]]]  # one chain of three orbits
    path = tmp_path / "doc.json"
    path.write_bytes(out)
    code, out, _ = run_bytes(capsysbinary, ["verify", "--input", str(path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["element_count"] == 3 == report["expected_count"]
    assert report["stats_consistent"] is True

    doc["chains"][0] = doc["chains"][0][:2]
    doc["stats"]["element_count"] = 2
    doc["stats"]["rank_profile"] = [1, 1, 0]
    path.write_bytes(encode(doc))
    code, out, _ = run_bytes(capsysbinary, ["verify", "--input", str(path), "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["failures"][0]["kind"] in {"not-covered", "not-symmetric"}


def test_verify_rejects_malformed(tmp_path, capsysbinary):
    path = tmp_path / "junk.json"
    path.write_bytes(b"not json\n")
    code, _, err = run_bytes(capsysbinary, ["verify", "--input", str(path)])
    assert code == 2
    assert b"error" in err


def test_decode_rejects_non_integer_elements():
    doc = build_document(quotient_scd_cyclic(4, 1))
    doc["chains"][1] = [["x"]]
    with pytest.raises(DecodeError, match="/chains/1"):
        decode(encode_raw(doc))


def encode_raw(doc):
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def test_decode_rejects_unsorted_subset():
    doc = build_document(quotient_scd_cyclic(4, 1))
    doc["chains"][1] = [[3, 1]]
    with pytest.raises(DecodeError, match="/chains/1/0"):
        decode(encode_raw(doc))


def test_decode_rejects_wrong_schema():
    doc = build_document(quotient_scd_cyclic(4, 1))
    doc["schema"] = "other/9"
    with pytest.raises(DecodeError, match="/schema"):
        decode(encode_raw(doc))


def write_doc(tmp_path, data: bytes) -> str:
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("subset", [[1.0], [True], [1, 2.5]])
def test_verify_rejects_non_integer_subset(tmp_path, capsysbinary, subset):
    doc = build_document(quotient_scd_cyclic(4, 1))
    doc["chains"][0][1] = subset
    code, _, err = run_bytes(capsysbinary, ["verify", "--input", write_doc(tmp_path, encode_raw(doc))])
    assert code == 2
    assert err.startswith(b"error: /chains/0/1: ")


def test_verify_rejects_deep_nesting(tmp_path, capsysbinary):
    depth = 100_000
    path = write_doc(tmp_path, b"[" * depth + b"]" * depth)
    code, _, err = run_bytes(capsysbinary, ["verify", "--input", path])
    assert code == 2
    assert err.startswith(b"error: /: ")


def test_verify_checks_ground_size_before_elements(tmp_path, capsysbinary):
    huge = 10**30
    doc = {
        "schema": "scdforge/1",
        "context": {"kind": "boolean", "n": huge},
        "chains": [[[huge]]],
        "stats": {"chain_count": 1, "element_count": 1, "rank_profile": [1]},
    }
    code, _, err = run_bytes(capsysbinary, ["verify", "--input", write_doc(tmp_path, encode(doc))])
    assert code == 2
    assert b"capped at 64" in err


@pytest.mark.parametrize("n", [23, 100])
def test_verify_reports_a_misordered_subset_before_the_ground_guards(tmp_path, capsysbinary, n):
    # n = 23 trips the quotient guard (exit 3) and n = 100 the 64-bit ground (exit 2);
    # the bad element's pointer wins over both, after a valid element n
    doc = {
        "schema": "scdforge/1",
        "context": {"kind": "boolean", "n": n},
        "chains": [[[], [n]], [[2, 1]]],
        "stats": {"chain_count": 2, "element_count": 3, "rank_profile": [1, 2] + [0] * (n - 1)},
    }
    code, out, err = run_bytes(capsysbinary, ["verify", "--input", write_doc(tmp_path, encode(doc))])
    assert (code, out) == (2, b"")
    assert err == b"error: /chains/1/0: subset must be a sorted list of distinct elements\n"


@pytest.mark.parametrize("kind, group", [("boolean", None), ("quotient", "(1 2"), ("reflection", "(1 99)")])
def test_verify_refuses_a_wide_ground_after_reading_every_element(tmp_path, capsysbinary, kind, group):
    # valid elements beyond bit 64 are read, then the ground is refused, before the group is parsed
    context = {"kind": kind, "n": 100} if group is None else {"kind": kind, "n": 100, "group": group}
    doc = {
        "schema": "scdforge/1",
        "context": context,
        "chains": [[[], [99], [64, 99], [1, 64, 99]], [[100]]],
        "stats": {"chain_count": 2, "element_count": 5, "rank_profile": [1, 2, 1, 1] + [0] * 97},
    }
    code, out, err = run_bytes(capsysbinary, ["verify", "--input", write_doc(tmp_path, encode(doc))])
    assert (code, out) == (2, b"")
    assert err == b"error: ground set size capped at 64, got 100\n"


ODD_ELEMENTS = [True, False, 1.0, 2.5, "1", None, [1], 2**64, 10**30]


@st.composite
def subset_values(draw, n):
    """A subset entry as a document may hold it: sorted valid elements, the
    same with one entry replaced, ints in -2..n+2 in drawn order or with a
    repeat, a list mixing them with values that are not JSON integers, or a
    value that is not a list."""
    shape = draw(st.sampled_from(["sorted", "sorted", "one replaced", "unsorted", "repeat", "mixed", "not a list"]))
    number = st.integers(-2, n + 2)
    anything = st.one_of(number, st.sampled_from(ODD_ELEMENTS))
    if shape == "not a list":
        return draw(st.sampled_from([1, "1", None, {}]))
    if shape in ("sorted", "one replaced"):
        elems = sorted(draw(st.lists(st.integers(1, n), unique=True, min_size=shape == "one replaced", max_size=8)))
        if shape == "one replaced":
            elems[draw(st.integers(0, len(elems) - 1))] = draw(anything)
        return elems
    elems = draw(st.lists(anything if shape == "mixed" else number, min_size=shape == "repeat", max_size=8))
    if shape == "repeat":
        i = draw(st.integers(0, len(elems) - 1))
        elems.insert(i, elems[i])
    return elems


@st.composite
def one_chain_boolean_documents(draw):
    n = draw(st.sampled_from([1, 5, 16, 63, 64, 65, 100]))
    return n, draw(st.lists(subset_values(n), min_size=1, max_size=4))


@settings(max_examples=400)
@given(one_chain_boolean_documents())
def test_decode_reads_subsets_as_the_reference_reader_does(case):
    n, chain = case
    doc = {
        "schema": "scdforge/1",
        "context": {"kind": "boolean", "n": n},
        "chains": [chain],
        "stats": {"chain_count": 1, "element_count": 1, "rank_profile": [1]},
    }
    masks = []
    for i, elems in enumerate(chain):
        try:
            masks.append(read_subset_reference(elems, n))
        except DecodeError as e:
            with pytest.raises(DecodeError) as got:
                decode(encode_raw(doc))
            assert str(got.value) == f"/chains/0/{i}: {e}"
            return
    if n > 64:
        with pytest.raises(ValueError) as got:
            decode(encode_raw(doc))
        assert type(got.value) is ValueError
        assert str(got.value) == f"ground set size capped at 64, got {n}"
    else:
        decomp, _ = decode(encode_raw(doc))
        assert decomp.chains[0].elements == tuple(masks)
        assert decomp.chains[0].rank == len(chain[0])


@pytest.mark.parametrize(
    "decomp",
    [
        gk_decomposition(10),
        quotient_scd(8, "(1 2 3 4)^2 (5 6)"),
        reflection_scd(6, "(1 6)(2 5)(3 4)"),
        reflection_scd(7, "(1 4)(2 3)"),
    ],
    ids=["gk10", "quotient", "reflect", "reflect-fixed-points"],
)
def test_decode_reads_valid_subsets_without_the_explainer(monkeypatch, decomp):
    def explainer(elems, n):
        raise AssertionError(f"explainer called on {elems!r}")

    monkeypatch.setattr("scdforge.cli._read_subset", explainer)
    assert decode(encode(decomp))[0] == decomp


def test_verify_reports_a_bad_level_before_the_chain_power_guard(tmp_path, capsysbinary):
    doc = {
        "schema": "scdforge/1",
        "context": {"kind": "chainpower", "k": 2, "m": 60, "r": 1},
        "chains": [[[0] * 60], [[0] * 59 + [2]]],
        "stats": {"chain_count": 2, "element_count": 2, "rank_profile": [1, 1] + [0] * 59},
    }
    code, out, err = run_bytes(capsysbinary, ["verify", "--input", write_doc(tmp_path, encode(doc))])
    assert (code, out) == (2, b"")
    assert err == b"error: /chains/1/0: levels must lie in 0..1\n"


def test_decode_rejects_float_stats():
    doc = build_document(quotient_scd_cyclic(4, 1))
    doc["stats"]["chain_count"] = float(doc["stats"]["chain_count"])
    with pytest.raises(DecodeError, match="^/stats/chain_count: "):
        decode(encode_raw(doc))


def _quotient_doc():
    return build_document(quotient_scd_cyclic(4, 1))


def _product_doc():
    return build_document(chainproduct_scd([(2, 2, 1), (3, 3, 1)]))


_DELETE = object()


def _edit(doc, path, value):
    """doc with the value at path (a tuple of keys and indices) replaced, or
    deleted when value is _DELETE."""
    *parents, last = path
    inner = doc
    for key in parents:
        inner = inner[key]
    if value is _DELETE:
        del inner[last]
    else:
        inner[last] = value
    return doc


_KINDS = "boolean, quotient, reflection, chainpower, product"

# one case for each check of decode's envelope, with the full message it raises
ENVELOPE_CASES = {
    "array": (_quotient_doc, lambda d: [d], "/: must be an object"),
    "no-stats": (_quotient_doc, lambda d: _edit(d, ("stats",), _DELETE), "/: missing required key 'stats'"),
    "extra-key": (_quotient_doc, lambda d: _edit(d, ("extra",), 1), "/: unexpected key 'extra'"),
    "bad-kind": (_quotient_doc, lambda d: _edit(d, ("context", "kind"), "necklace"), f"/context/kind: must be one of {_KINDS}"),
    "int-kind": (_quotient_doc, lambda d: _edit(d, ("context", "kind"), 1), f"/context/kind: must be one of {_KINDS}"),
    "no-kind": (_quotient_doc, lambda d: _edit(d, ("context", "kind"), _DELETE), "/context: missing required key 'kind'"),
    "n-zero": (_quotient_doc, lambda d: _edit(d, ("context", "n"), 0), "/context/n: must be >= 1"),
    "n-true": (_quotient_doc, lambda d: _edit(d, ("context", "n"), True), "/context/n: must be an integer"),
    "int-group": (_quotient_doc, lambda d: _edit(d, ("context", "group"), 12), "/context/group: must be a string"),
    "no-group": (_quotient_doc, lambda d: _edit(d, ("context", "group"), _DELETE),
                 "/context: kind 'quotient' requires 'group'"),
    "extra-stat": (_quotient_doc, lambda d: _edit(d, ("stats", "extra"), 1), "/stats: unexpected key 'extra'"),
    "no-chains": (_quotient_doc, lambda d: _edit(d, ("chains",), []), "/chains: must have at least 1 item(s)"),
    "float-profile": (_quotient_doc, lambda d: _edit(d, ("stats", "rank_profile", 0), 1.0),
                      "/stats/rank_profile/0: must be an integer"),
    "no-factors": (_product_doc, lambda d: _edit(d, ("context", "factors"), []),
                   "/context/factors: must have at least 1 item(s)"),
    "short-factor": (_product_doc, lambda d: _edit(d, ("context", "factors", 0), [2, 2]),
                     "/context/factors/0: must be a [k, m, r] triple"),
    "factor-k-1": (_product_doc, lambda d: _edit(d, ("context", "factors", 0, 0), 1),
                   "/context/factors/0/0: must be >= 2"),
}


@pytest.mark.parametrize("name", ENVELOPE_CASES)
def test_decode_names_each_envelope_problem_in_full(tmp_path, capsysbinary, name):
    build, mutate, message = ENVELOPE_CASES[name]
    data = encode_raw(mutate(build()))
    with pytest.raises(DecodeError) as caught:
        decode(data)
    assert str(caught.value) == message
    if name in ("array", "no-kind", "factor-k-1"):
        code, out, err = run_bytes(capsysbinary, ["verify", "--input", write_doc(tmp_path, data)])
        assert (code, out, err) == (2, b"", f"error: {message}\n".encode())


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


@pytest.mark.parametrize("decomp", [
    gk_decomposition(4),
    quotient_scd(5, "(1 2 3)(4 5)"),
    reflection_scd(5, "(1 5)(2 3)"),
    chainpower_scd(3, 2, 1),
    chainproduct_scd([(2, 2, 1), (3, 1, 1)]),
], ids=lambda d: d.context.kind)
def test_loose_formatting_decodes_as_the_canonical_form(tmp_path, capsysbinary, decomp):
    canonical = encode(decomp)
    loose = (json.dumps(_reversed_keys(json.loads(canonical)), indent=1) + "\n").encode()
    assert loose.startswith(b'{\n "stats": {\n  "rank_profile": [') and b"\n" in loose[:-1]
    assert decode(loose) == decode(canonical)
    outputs = []
    for name, data in (("canonical", canonical), ("loose", loose)):
        path = tmp_path / name
        path.write_bytes(data)
        outputs.append(run_bytes(capsysbinary, ["verify", "--input", str(path)]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize(
    "context, width",
    [
        ({"kind": "chainpower", "k": 2, "m": 60, "r": 1}, 60),
        ({"kind": "product", "factors": [[2, 12, 1], [2, 12, 1]]}, 24),
    ],
)
def test_verify_guards_chain_power_targets(tmp_path, capsysbinary, context, width):
    doc = {
        "schema": "scdforge/1",
        "context": context,
        "chains": [[[0] * width]],
        "stats": {"chain_count": 1, "element_count": 1, "rank_profile": [1]},
    }
    code, _, err = run_bytes(capsysbinary, ["verify", "--input", write_doc(tmp_path, encode(doc))])
    assert code == 3
    assert b"capped" in err


def _spread(n: int, width: int, seed: int) -> Decomposition:
    # the chains of B_width on random bits of [n]: masks from every chunk, some with empty ones
    targets = sorted(random.Random(seed).sample(range(n), width))
    moved = map_elements(gk_decomposition(width), relabel_map(targets))
    return Decomposition(moved.chains, Context(kind="boolean", total_rank=n, n=n))


def _high_bits_only() -> Decomposition:
    # n = 40: every mask leaves the low chunk empty, and some the middle one too
    chains = (Chain((0,), 0), Chain((1 << 11, 1 << 11 | 1 << 39), 1),
              Chain((1 << 22, 1 << 22 | 1 << 30, 1 << 22 | 1 << 30 | 1 << 33), 1))
    return Decomposition(chains, Context(kind="boolean", total_rank=40, n=40))


ENCODED = {
    "boolean-1": lambda: gk_decomposition(1),
    "boolean-11": lambda: gk_decomposition(11),
    "boolean-12": lambda: gk_decomposition(12),
    "boolean-22": lambda: _spread(22, 9, 0),
    "boolean-40": _high_bits_only,
    "quotient-fixed-12": lambda: quotient_scd(12, "(1 2 3 4)^2(6 7 8)(10 12)"),
    "quotient-11": lambda: quotient_scd_cyclic(11, 1),
    "reflection-12": lambda: reflection_scd(12, "(1 12)(2 11)(3 10)(4 9)(5 8)(6 7)"),
    "reflection-fixed-11": lambda: reflection_scd(11, "(1 11)(3 4)(5 9)"),
    "reflection-none-1": lambda: reflection_scd(1, "(1)"),
    "chainpower": lambda: chainpower_scd(4, 3, 1),
    "product": lambda: chainproduct_scd([(2, 2, 1), (3, 3, 1)]),
}


@pytest.mark.parametrize("name", ENCODED)
def test_encode_writes_the_json_dumps_bytes(name):
    decomp = ENCODED[name]()
    data = encode(decomp)
    assert data == reference_bytes(decomp)
    assert json.loads(data) == build_document(decomp)
    assert encode(build_document(decomp)) == data


def test_encode_decode_round_trip():
    # decode inverts encode on every construction: chains, ranks, context and stats
    for name, build in ENCODED.items():
        decomp = build()
        stats = {
            "chain_count": len(decomp.chains),
            "element_count": decomp.element_count(),
            "rank_profile": list(decomp.rank_counts()),
        }
        assert decode(encode(decomp)) == (decomp, stats), name
    for decomp in (quotient_scd_cyclic(4, 2), chainpower_scd(3, 2, 1)):
        rebuilt, _ = decode(encode(decomp))
        assert verify_decomposition(target_for_context(rebuilt.context), rebuilt).ok


def test_encode_refuses_a_decoded_chain_whose_claimed_ranks_pass_the_top():
    # the chain's record claims ranks 2..4 from its bottom {1,2}, past n = 3: a ValueError naming it, not an IndexError
    doc = (b'{"chains":[[[1,2],[1,2,3],[1]],[[2],[2,3]],[[3],[1,3]]],"context":{"kind":"boolean","n":3},'
           b'"schema":"scdforge/1","stats":{"chain_count":3,"element_count":8,"rank_profile":[1,3,3,1]}}')
    decomp, _ = decode(doc)
    with pytest.raises(ValueError, match=r"^chain \(3, 7, 1\) claims ranks 2\.\.4 past the top rank 3$"):
        decomp.rank_counts()
    with pytest.raises(ValueError, match=r"^chain \(3, 7, 1\) claims ranks"):
        encode(decomp)


@st.composite
def chain_records(draw):
    """Random chain records over B_n: decoded chains of random subsets, not
    saturated, or records whose rank need not be their first element's; some
    run past the top rank, and some records start below rank 0."""
    n = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        subsets = st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n + 2)
        chains = draw(st.lists(subsets, min_size=1, max_size=10))
        doc = {
            "schema": "scdforge/1",
            "context": {"kind": "boolean", "n": n},
            "chains": [[list(elements_of(mask)) for mask in c] for c in chains],
            "stats": {"chain_count": 1, "element_count": 1, "rank_profile": [1]},
        }
        return decode(encode(doc))[0]
    records = draw(st.lists(st.tuples(st.integers(-1, n + 1), st.integers(1, n + 2)), min_size=1, max_size=10))
    chains = tuple(Chain(tuple(range(length)), rank) for rank, length in records)
    return Decomposition(chains, Context(kind="boolean", total_rank=n, n=n))


@given(chain_records())
def test_rank_counts_match_the_per_rank_reference(decomp):
    # the difference array counts what the per-rank loop counts, and refuses the same first chain out of range
    try:
        expected = rank_counts_reference(decomp)
    except ValueError as e:
        with pytest.raises(ValueError) as raised:
            decomp.rank_counts()
        assert str(raised.value) == str(e)
    else:
        assert decomp.rank_counts() == expected


def test_rank_counts_refuses_a_chain_below_rank_0():
    # a library record may claim any rank: one below 0 is named, not wrapped onto the top ranks
    decomp = Decomposition((Chain((0, 1), 0), Chain((1, 2), -1)), Context(kind="boolean", total_rank=3, n=3))
    with pytest.raises(ValueError, match=r"^chain \(1, 2\) claims ranks -1\.\.0 below rank 0$"):
        decomp.rank_counts()


def test_encode_peak_memory_is_a_few_document_lengths():
    decomp = gk_decomposition(14)
    tracemalloc.start()
    try:
        data = encode(decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(data)


def test_verify_of_a_one_chain_document_stays_within_its_memory_bound(tmp_path, capsysbinary):
    # verify's failing route: one chain claimed of B_16, so 65,519 subsets are
    # not covered; the bound is 10% above the 9.57 MiB peak it was set from
    n = 16
    decomp = Decomposition((chain_of(0, n),), Context(kind="boolean", total_rank=n, n=n))
    path = write_doc(tmp_path, encode(decomp))
    tracemalloc.start()
    try:
        code = run(["verify", "--input", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsysbinary.readouterr().err
    assert code == 1 and err.startswith(b"failed: 65519 problem(s), 17 elements vs 65536 expected\n")
    assert peak < 10.5 * 2**20, peak


def test_resource_guard_exit_code(capsysbinary):
    code, _, err = run_bytes(capsysbinary, ["quotient", "--n", "23", "--group", "(1 2)"])
    assert code == 3
    assert b"capped" in err


def test_gk_guard_runs_before_any_chain_is_built(capsysbinary, monkeypatch):
    def refuse(*args):
        raise AssertionError("a chain was grown before the size guard")

    monkeypatch.setattr("scdforge.gk.ChainBottoms", refuse)
    code, _, err = run_bytes(capsysbinary, ["gk", "--n", "23"])
    assert code == 3
    assert b"capped" in err


def _refuse_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated before the size guard")

    monkeypatch.setattr("scdforge.gk.ChainBottoms", refuse)
    monkeypatch.setattr("scdforge.cli.verify_decomposition", refuse)  # verify's own call
    monkeypatch.setattr("scdforge.verify.verify_decomposition", refuse)  # each builder's certificate
    monkeypatch.setattr("scdforge.groups._members", refuse)
    monkeypatch.setattr(GroupSpec, "_powers", property(refuse))
    monkeypatch.setattr(QuotientPoset, "orbits", property(refuse))


def test_gk_guard_builds_no_orbit(capsysbinary, monkeypatch):
    _refuse_enumeration(monkeypatch)
    code, out, err = run_bytes(capsysbinary, ["gk", "--n", "23"])
    assert (code, out) == (3, b"")
    assert b"capped" in err


def test_verify_guards_boolean_targets_before_any_orbit(tmp_path, capsysbinary, monkeypatch):
    doc = {
        "schema": "scdforge/1",
        "context": {"kind": "boolean", "n": 23},
        "chains": [[[], [23]]],
        "stats": {"chain_count": 1, "element_count": 2, "rank_profile": [1, 1] + [0] * 22},
    }
    path = write_doc(tmp_path, encode(doc))
    _refuse_enumeration(monkeypatch)
    for argv in (["verify", "--input", path], ["verify", "--input", path, "--json"]):
        code, out, err = run_bytes(capsysbinary, argv)
        assert (code, out) == (3, b"")
        assert b"capped" in err


def test_construct_that_fails_its_check_exits_1(capsysbinary, monkeypatch):
    def drop_a_chain(chains, context):
        decomp = make_decomposition(chains, context)
        return Decomposition(decomp.chains[1:], decomp.context)

    monkeypatch.setattr("scdforge.chainpow.make_decomposition", drop_a_chain)
    code, out, err = run_bytes(capsysbinary, ["chainpower", "--k", "3", "--m", "2"])
    assert code == 1
    assert out == b""
    assert err.startswith(b"error: failed:")


def _drop_first_chain(build):
    def dropped(*args, **kwargs):
        out = build(*args, **kwargs)
        return Decomposition(out.chains[1:], out.context) if isinstance(out, Decomposition) else list(out)[1:]

    return dropped


def test_every_command_builder_certifies_its_result(monkeypatch):
    # each construct command writes its builder's result as it is: a chain dropped
    # inside the builder must fail the builder's own certificate
    builders = [
        ("scdforge.gk.ChainBottoms", lambda: gk_decomposition(6)),
        ("scdforge.prune.product_scd", lambda: quotient_scd(7, "(1 2 3)(4 5)")),
        # a reflection with fixed points takes the fold's order; one without sorts its own chains
        ("scdforge.reflect.product_scd", lambda: reflection_scd(7, "(1 7)(2 5)")),
        ("scdforge.reflect.make_decomposition", lambda: reflection_scd(6, "(1 6)(2 5)(3 4)")),
        ("scdforge.chainpow.make_decomposition", lambda: chainpower_scd(3, 4, 1)),
        # the two library builders no command runs: a rotation quotient and a chain-power product
        ("scdforge.prune.product_scd", lambda: quotient_scd_cyclic(7, 1)),
        ("scdforge.chainpow.product_scd", lambda: chainproduct_scd([(3, 2, 1), (2, 3, 1)])),
    ]
    for name, build in builders:
        with monkeypatch.context() as patch:
            module, attr = name.rsplit(".", 1)
            patch.setattr(name, _drop_first_chain(getattr(sys.modules[module], attr)))
            with pytest.raises(VerificationError, match="not-covered"):
                build()


def test_parse_error_exit_code(capsysbinary):
    code, _, err = run_bytes(capsysbinary, ["quotient", "--n", "4", "--group", "(1 2)(2 3)"])
    assert code == 2
    assert b"disjoint" in err


@pytest.mark.parametrize("group, message", [
    ("(1 2)^" + "9" * 5000, b"integer too long"),  # beyond the interpreter's int() digit limit
    ("(1 \u00b2)", b"expected an integer"),  # a digit that int() rejects
], ids=["long-integer", "non-decimal-digit"])
def test_group_integer_errors_name_a_position(capsysbinary, group, message):
    code, _, err = run_bytes(capsysbinary, ["quotient", "--n", "4", "--group", group])
    assert code == 2
    assert message in err and b"at position" in err


@pytest.mark.parametrize("digit", ["\u0660", "\uff11", "\u00b2"], ids=["arabic-indic-zero", "fullwidth-one", "superscript-two"])
def test_group_integers_are_ascii_digits(capsysbinary, digit):
    # str.isdecimal() and int() take the first two: "(1\u0660 2)" once built the quotient by (10 2)
    code, out, err = run_bytes(capsysbinary, ["quotient", "--n", "12", "--group", f"(1{digit} 2)"])
    assert (code, out, err) == (2, b"", b"error: expected an integer (at position 2)\n")
    with pytest.raises(ParseError, match=r"expected an integer \(at position 6\)"):
        parse_group_spec(f"(1 2)^{digit}", 12)


@pytest.mark.parametrize("command", ["orbits", "profile"])
def test_empty_group_is_a_parse_error(capsysbinary, command):
    # an omitted --group is the trivial group; an empty one is rejected as quotient and reflect reject it
    code, out, err = run_bytes(capsysbinary, [command, "--n", "4", "--group", ""])
    assert code == 2
    assert out == b""
    assert b"expected '(' (at position 0)" in err


def test_usage_error_exit_code(capsysbinary):
    assert run([]) == 2
    capsysbinary.readouterr()
    assert run(["gk"]) == 2
    capsysbinary.readouterr()


def test_orbits_text(capsys):
    assert run(["orbits", "--n", "4", "--group", "(1 2 3 4)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "orbits=6"
    assert lines[1] == "rank 0: {} size=1"


def test_orbits_dot(capsys):
    assert run(["orbits", "--n", "3", "--group", "(1 2 3)", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"{1}" -> "{1,2}"' in out


def test_profile_output(capsys):
    assert run(["profile", "--n", "4", "--group", "(1 2 3 4)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["ranks=1 1 2 1 1", "symmetric=true", "unimodal=true"]


@pytest.mark.parametrize("n, group, lengths", [
    (22, "(1 2)", [2]),
    (40, None, []),
    (40, "(1 2)", [2]),
    (64, None, []),
    (64, "(1 2)", [2]),
    (64, "(3 1 4 7 5 9 2 6 64 8 33)", [11]),
])
def test_profile_counts_without_enumerating(capsys, monkeypatch, n, group, lengths):
    _refuse_enumeration(monkeypatch)
    argv = ["profile", "--n", str(n)] + (["--group", group] if group is not None else [])
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ranks=" + " ".join(map(str, full_rotations_ranks(n, lengths)))
    assert lines[1:] == ["symmetric=true", "unimodal=true"]


@pytest.mark.parametrize("argv", [
    ["profile", "--n", "65"],
    ["profile", "--n", "65", "--group", "(1 2)"],
    ["profile", "--n", "0"],
    ["profile", "--n", "40", "--group", ""],
])
def test_profile_refuses_bad_ground_and_groups(capsysbinary, argv):
    code, out, err = run_bytes(capsysbinary, argv)
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: ")


def _profile_groups(n):
    """The trivial group (no --group), every cycle-power group up to n = 6
    and four seeded groups with fixed points."""
    groups = list(sampled_groups_with_fixed_points(n, 4))
    if n <= 6:
        groups += every_cycle_power_group(n)
    return [None] + [g.text() for g in groups if g.factors]


@pytest.mark.parametrize("n", range(1, 13))
def test_profile_output_matches_the_enumerated_orbits(capsys, n):
    for text in _profile_groups(n):
        argv = ["profile", "--n", str(n)] + (["--group", text] if text is not None else [])
        assert run(argv) == 0
        group = parse_group_spec(text, n) if text is not None else GroupSpec.trivial(n)
        assert capsys.readouterr().out.splitlines() == enumerated_profile_lines(n, group), text


# The process entry: `python -m scdforge.cli` runs main(), which turns the
# cyclic collector off and ends the process with os._exit after flushing.

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REFLECT_18 = "".join(f"({i} {19 - i})" for i in range(1, 10))


def _process(argv, stdout=subprocess.PIPE, unbuffered=False, **kwargs):
    """Run argv in a fresh `python -m scdforge.cli` process at a fixed
    terminal width (argparse wraps help and usage to it)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
           "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "scdforge.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120, **kwargs)


@pytest.fixture
def documents(tmp_path):
    good = tmp_path / "good.json"
    good.write_bytes(encode(quotient_scd(6, "(1 2 3 4 5 6)")))
    doc = json.loads(good.read_bytes())
    del doc["chains"][1]
    bad = tmp_path / "bad.json"
    bad.write_bytes(encode(doc))
    return {"good": str(good), "bad": str(bad)}


@pytest.mark.parametrize("argv, expected", [
    (["gk", "--n", "5"], 0),
    (["gk", "--n", "4", "--text"], 0),
    (["reflect", "--n", "18", "--group", REFLECT_18], 0),  # a 3.2 MB document
    (["verify", "--input", "good"], 0),
    (["verify", "--input", "good", "--json"], 0),
    (["profile", "--n", "8", "--group", "(1 2 3 4)^2"], 0),
    (["orbits", "--n", "4", "--group", "(1 2 3 4)"], 0),
    (["--help"], 0),
    (["verify", "--input", "bad"], 1),
    (["quotient", "--n", "4", "--group", "(1 2"], 2),
    (["gk"], 2),
    (["gk", "--n", "23"], 3),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_process_entry_matches_run(capsysbinary, monkeypatch, documents, argv, expected):
    argv = [documents.get(a, a) for a in argv]
    process = _process(argv)
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_bytes(capsysbinary, argv)
    assert code == expected
    assert (process.returncode, process.stdout, process.stderr) == (code, out, err)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["verify", "--input", "good"], ["profile", "--n", "4"]], ids=["verify", "profile"])
def test_closed_stdout_is_a_write_error(documents, argv, unbuffered):
    # buffered, the output reaches the pipe only at main()'s flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        process = _process([documents.get(a, a) for a in argv], stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (process.returncode, process.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("fd", [1, 2], ids=["stdout", "stderr"])
def test_process_started_with_a_closed_stream_succeeds(fd):
    # a descriptor closed before the interpreter starts makes sys.stdout or
    # sys.stderr None, and print() drops its text
    process = _process(["profile", "--n", "4"], preexec_fn=lambda: os.close(fd))
    assert (process.returncode, process.stderr) == (0, b"")


def test_run_leaves_the_cyclic_collector_on():
    # the collector policy belongs to main(): importing the CLI and calling
    # run() leave it as the interpreter set it
    script = ("import gc, scdforge.cli as cli; imported = gc.isenabled(); "
              "code = cli.run(['gk', '--n', '3', '--text']); print(imported, gc.isenabled(), code)")
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert result.stdout.splitlines()[-1] == b"True True 0"
