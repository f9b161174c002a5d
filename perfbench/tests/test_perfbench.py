"""Tests of the benchmark itself: seeded inputs, output checks, trace repeatability.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
from math import gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import calibrate  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Command,
    commands_for,
    cycle_power_orbits,
    necklaces,
)

SMALL = [
    Command("rot8", ("quotient", "--n", "8", "--group", "(3 1 4 8 5 2 7 6)"), cycle_power_orbits(8, ((8, 1),))),
    Command("multi8", ("quotient", "--n", "8", "--group", "(1 2 3)(4 5 6 7)^2"),
            cycle_power_orbits(8, ((3, 1), (4, 2)))),
    Command("refl8", ("reflect", "--n", "8", "--group", "(1 5)(2 7)(3 4)"), (2**8 + 2**5) // 2),
    Command("cp3x3", ("chainpower", "--k", "3", "--m", "3", "--r", "2"), necklaces(3, 3, 1)),
    Command("gk6", ("gk", "--n", "6"), 64),
    Command("verify-gk6", ("verify",), 64, reads="gk6"),
]


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _deadline():
    return time.monotonic() + 120


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_arguments(workload):
    for seed in (0, 1, 977):
        assert commands_for(workload, seed) == commands_for(workload, seed)


def test_seed_varies_groups_but_not_the_work():
    a, b = commands_for("quotients", 1), commands_for("quotients", 2)
    assert [c.argv for c in a] != [c.argv for c in b]
    assert [c.expected_elements for c in a] == [c.expected_elements for c in b]
    for seed in range(20):
        for cmd in commands_for("chain-powers", seed):
            m, r = int(cmd.argv[4]), int(cmd.argv[6])
            assert 1 <= r <= m and gcd(r, m) == 1


def _brute_orbits(n, perm):
    """Orbits of subsets of [n] under the group generated by one permutation."""
    seen, count = set(), 0
    for mask in range(1 << n):
        if mask in seen:
            continue
        count += 1
        x = mask
        while x not in seen:
            seen.add(x)
            x = sum(1 << (perm[i] - 1) for i in range(n) if x >> i & 1)
    return count


def test_burnside_counts_match_brute_force():
    # (1 2 3 4 5 6)^2 (7 8 9 10) on [11]: one permutation generates the group
    perm = [3, 4, 5, 6, 1, 2, 8, 9, 10, 7, 11]
    assert cycle_power_orbits(11, ((6, 2), (4, 1))) == _brute_orbits(11, perm)
    for k, m in itertools.product((2, 3), (1, 4, 6)):
        tuples = set(itertools.product(range(k), repeat=m))
        orbits = {min(t[i:] + t[:i] for i in range(m)) for t in tuples}
        assert necklaces(k, m, 1) == len(orbits)


@pytest.mark.parametrize("data", [
    b"",
    b"{\"schema\": \"scdforge/1\", \"chains\": [[[1]]",
    b"[1, 2, 3]\n",
    b"{\"schema\": \"scdforge/1\", \"chains\": 5, \"stats\": {}}\n",
    b"\xff\xfe not utf-8",
])
def test_corrupted_document_is_a_failure(data):
    elements, failures = run.check_output(SMALL[4], 0, data, None)
    assert elements == 0 and failures


def test_corrupted_verdict_is_a_failure():
    _, failures = run.check_output(SMALL[5], 1, b"verification failed\n", None)
    assert failures


def test_wrong_golden_and_corrupted_input_fail_without_crashing(work):
    good = run.run_pass(SMALL[4:], False, _deadline(), None)
    assert [o.failures for o in good.outcomes] == [[], []]
    data = (work / "gk6.out").read_bytes()
    golden = {"gk6": {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}}
    assert run.check_output(SMALL[4], 0, data, golden) == (64, [])

    wrong = {"gk6": {"sha256": "0" * 64, "bytes": len(data)}}
    result = run.run_pass(SMALL[4:5], False, _deadline(), wrong)
    assert result.outcomes[0].failures == ["document differs from the golden"]

    # a document cut short fails its own check, and so does a verify that reads it
    cut = data[: len(data) // 2]
    assert run.check_output(SMALL[4], 0, cut, None)[1]
    (work / "cut.json").write_bytes(cut)
    reader = Command("verify-cut", ("verify", "--input", str(work / "cut.json")), 64)
    outcome = run.run_pass([reader], False, _deadline(), None).outcomes[0]
    assert outcome.code == 2 and outcome.failures


def test_traced_runs_repeat_span_names_and_counts_exactly(work):
    first, second = (run.run_pass(SMALL, True, _deadline(), None) for _ in range(2))
    for a, b in zip(first.outcomes, second.outcomes):
        assert a.failures == [] and b.failures == []
        assert run.trace_signature(a.trace) == run.trace_signature(b.trace)
    names = set()
    for o in first.outcomes:
        names |= set(run.layer_totals(o.trace)[0])
    for layer in ("gk.gk_scd", "prune.prune_chains", "groups.quotient_poset", "groups.orbit_rep",
                  "core.product_scd", "core.map_elements", "reflect.reflection_scd",
                  "chainpow.chainpower_scd", "verify.verify_decomposition", "cli.decode",
                  "cli.encode", "cli.run"):
        assert layer in names
    metrics = run.layer_metrics(first.outcomes)
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["groups.apply_perm.calls"] > 0 and metrics["prune.chains_selected"] > 0


def test_reference_workload_is_fixed(work):
    assert calibrate.reference_work() == calibrate.CHECKSUM
    assert run.reference_cpu_s(_deadline()) > 0
    plain = run.run_pass(SMALL[:1], False, _deadline(), None)
    assert len(plain.reference_s) == 2 and plain.outcomes[0].cpu_s > 0
    assert run.run_pass(SMALL[:1], True, _deadline(), None).reference_s == []


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
