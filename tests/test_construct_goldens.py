"""Every construct command's output is a contract: the stdout of a grid of
small commands must keep the length and sha256 recorded in
construct_goldens.json (by record_construct_goldens.py).  So must the orbit
listings and rank profiles, and the verify reports, text and --json, of a
corpus of wrong documents."""

import json
import platform

import pytest
from record_construct_goldens import GOLDENS, _digest, grid, listings, outcome, verify_outcomes, wrong_documents


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    # recorded once; another interpreter is a different contract to check, not one to skip
    assert goldens["python"] == platform.python_version(), "goldens recorded with another Python"
    return goldens


def test_construct_grid_matches_the_goldens(goldens):
    commands = grid()
    assert len(commands) >= 200
    assert [golden["argv"] for golden in goldens["commands"]] == commands
    for golden in goldens["commands"]:
        expected = {key: golden[key] for key in ("code", "bytes", "sha256")}
        assert outcome(golden["argv"]) == expected, golden["argv"]


def test_orbit_listings_and_profiles_match_the_goldens(goldens):
    commands = listings()
    assert {argv[0] for argv in commands} == {"orbits", "profile"}
    assert sum("--dot" in argv for argv in commands) == len(commands) // 3
    assert [golden["argv"] for golden in goldens["listings"]] == commands
    for golden in goldens["listings"]:
        expected = {key: golden[key] for key in ("code", "bytes", "sha256")}
        assert outcome(golden["argv"]) == expected, golden["argv"]


def test_verify_of_wrong_documents_matches_the_goldens(goldens):
    documents = wrong_documents()
    assert len(documents) >= 30
    assert {label.split()[0] for label, _ in documents} == {"boolean", "quotient", "reflection", "chainpower", "product"}
    for what in (": element_count off by one", ": chain_count off by one", " moved to rank ", " swapped",
                 " last element moved to the end of chain "):
        assert sum(what in label for label, _ in documents) == 19, what
    assert [golden["label"] for golden in goldens["verify"]] == [label for label, _ in documents]
    for golden, (label, document) in zip(goldens["verify"], documents):
        assert _digest(document) == golden["document"], label
        assert verify_outcomes(document) == golden["outcomes"], label
        assert all(o["code"] == 1 for o in golden["outcomes"]), label
