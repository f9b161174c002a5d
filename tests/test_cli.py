import json
import random
import tracemalloc

import pytest

from oracles import (
    enumerated_profile_lines,
    every_cycle_power_group,
    full_rotations_ranks,
    reference_bytes,
    sampled_groups_with_fixed_points,
)
from scdforge.chainpow import chainpower_scd, chainproduct_scd
from scdforge.core import Chain, Context, Decomposition, relabel
from scdforge.cli import (
    DecodeError,
    build_document,
    decode,
    encode,
    run,
    target_for_context,
)
from scdforge.gk import gk_decomposition
from scdforge.groups import GroupSpec, QuotientPoset, parse_group_spec
from scdforge.prune import quotient_scd, quotient_scd_cyclic
from scdforge.reflect import reflection_scd
from scdforge.verify import verify_decomposition


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
    assert [c.ranks for c in decomp.chains] == [(0, 1, 2, 3, 4), (2,)]
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
    assert decomp.chains[1] == Chain(((1, 1),), (2,))


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
    moved = relabel(gk_decomposition(width), targets)
    return Decomposition(moved.chains, Context(kind="boolean", total_rank=n, n=n))


def _high_bits_only() -> Decomposition:
    # n = 40: every mask leaves the low chunk empty, and some the middle one too
    chains = (Chain.from_masks([0]), Chain.from_masks([1 << 11, 1 << 11 | 1 << 39]),
              Chain.from_masks([1 << 22, 1 << 22 | 1 << 30, 1 << 22 | 1 << 30 | 1 << 33]))
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


def test_encode_peak_memory_is_a_few_document_lengths():
    decomp = gk_decomposition(14)
    tracemalloc.start()
    try:
        data = encode(decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(data)


def test_resource_guard_exit_code(capsysbinary):
    code, _, err = run_bytes(capsysbinary, ["quotient", "--n", "23", "--group", "(1 2)"])
    assert code == 3
    assert b"capped" in err


def test_gk_guard_runs_before_any_chain_is_built(capsysbinary, monkeypatch):
    def refuse(n):
        raise AssertionError("gk_decomposition ran before the size guard")

    monkeypatch.setattr("scdforge.cli.gk_decomposition", refuse)
    code, _, err = run_bytes(capsysbinary, ["gk", "--n", "23"])
    assert code == 3
    assert b"capped" in err


def _refuse_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated before the size guard")

    monkeypatch.setattr("scdforge.cli.gk_decomposition", refuse)
    monkeypatch.setattr("scdforge.cli.verify_decomposition", refuse)
    monkeypatch.setattr("scdforge.groups._members", refuse)
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
    def drop_a_chain(k, m, r):
        decomp = chainpower_scd(k, m, r)
        return Decomposition(decomp.chains[1:], decomp.context)

    monkeypatch.setattr("scdforge.cli.chainpower_scd", drop_a_chain)
    code, out, err = run_bytes(capsysbinary, ["chainpower", "--k", "3", "--m", "2"])
    assert code == 1
    assert out == b""
    assert err.startswith(b"error: failed:")


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
