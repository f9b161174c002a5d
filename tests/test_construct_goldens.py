"""Every construct command's output is a contract: the stdout of a grid of
small commands must keep the length and sha256 recorded in
construct_goldens.json (by record_construct_goldens.py)."""

import json
import platform

from record_construct_goldens import GOLDENS, grid, outcome


def test_construct_grid_matches_the_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    # recorded once; another interpreter is a different contract to check, not one to skip
    assert goldens["python"] == platform.python_version(), "goldens recorded with another Python"
    commands = grid()
    assert len(commands) >= 200
    assert [golden["argv"] for golden in goldens["commands"]] == commands
    for golden in goldens["commands"]:
        expected = {key: golden[key] for key in ("code", "bytes", "sha256")}
        assert outcome(golden["argv"]) == expected, golden["argv"]
