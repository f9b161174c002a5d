"""Write construct_goldens.json: the exit code, length and sha256 of stdout of
every construct command in a grid of small inputs, and the interpreter
version they were recorded with.

The grid covers gk at n = 1..14; quotients by single cycles at every
exponent (those that reduce to the identity included), by several factors
and with fixed points, all at n <= 14; reflect with and without fixed
points; and small chainpower shapes.  Run from the repository root, on the
commit whose output is the contract:

    PYTHONPATH=src python3 tests/record_construct_goldens.py

Re-recording is a contract change: name every command whose output changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "construct_goldens.json")


def _cycle(elements) -> str:
    return "(" + " ".join(map(str, elements)) + ")"


def grid() -> list[list[str]]:
    """The construct command lines, in a fixed order."""
    commands = [["gk", "--n", str(n)] for n in range(1, 15)]
    # one cycle at every exponent, 0 and the length included, alone and with fixed points
    for length in range(2, 9):
        for exponent in range(length + 1):
            term = _cycle(range(1, length + 1)) + f"^{exponent}"
            commands.append(["quotient", "--n", str(length), "--group", term])
        shifted = _cycle(range(3, length + 3)) + f"^{length // 2}"
        commands.append(["quotient", "--n", str(length + 4), "--group", shifted])
    for n in range(9, 15):
        commands.append(["quotient", "--n", str(n), "--group", _cycle(range(1, n + 1))])
        divisor = min(d for d in range(2, n + 1) if n % d == 0)
        commands.append(["quotient", "--n", str(n), "--group", _cycle(range(n, 0, -1)) + f"^{divisor}"])
    for n, text in [
        (5, "(1 2)(3 4 5)"),
        (6, "(1 2 3 4)^2 (5 6)"),
        (7, "(1 2 3)(4 5 6 7)^2"),
        (7, "(3 7 5)(1 2 4 6)^6"),
        (8, "(1 3 5 7)(2 4 6 8)"),
        (8, "(1 2)(3 4)(5 6)(7 8)"),
        (9, "(1 2 3 4 5)(6 7 8)"),
        (9, "(2 5 7)(1 9)"),
        (10, "(2 4 6)(7 8)(9 10)^2"),
        (10, "(1 2 3 4 5)^5 (6 7 8 9 10)"),
        (11, "(1 2 3)(4 5 6)(7 8 9)(10 11)"),
        (12, "(1 2 3 4 5 6)(7 8 9 10)^2"),
        (12, "(1 2 3)(4 5 6 7)^2 (9 10 12)"),
        (12, "(12 1 11 2)(3 10)^3 (4 9 5 8 6 7)^4"),
        (13, "(1 2 3 4 5 6 7 8 9 10 11 12 13)^5"),
        (13, "(1 2 3 4)^0 (5 6 7 8 9 10 13)^2"),
        (14, "(1 2 3 4 5 6 7)(8 9 10 11 12 13 14)^3"),
        (14, "(1 14)(2 13)(3 12)(4 11)(5 10)(6 9)(7 8)"),
        (14, "(2 4 6 8 10 12 14)^7 (1 3 5)"),
    ]:
        commands.append(["quotient", "--n", str(n), "--group", text])
    # cycles across the 11-bit chunk boundary, with and without fixed points on either side
    for n in range(12, 15):
        for text in ["(10 11 12)", f"(1 {n})^1 (11 12)" if n > 12 else "(1 12)", f"(5 9 11 {n})^2", f"(2 3)(4 5 6)(9 10 11 12)^3"]:
            commands.append(["quotient", "--n", str(n), "--group", text])
    # reflections: every pairing of the ends, then pairings that leave points fixed
    for n in range(2, 15):
        pairs = "".join(_cycle((i, n + 1 - i)) for i in range(1, n // 2 + 1))
        commands.append(["reflect", "--n", str(n), "--group", pairs])
        if n >= 4:
            commands.append(["reflect", "--n", str(n), "--group", _cycle((1, n))])
        if n >= 5:
            commands.append(["reflect", "--n", str(n), "--group", _cycle((2, n - 1)) + _cycle((1, 3))])
    # chain powers: every coprime and non-coprime step of small shapes
    for k, m in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                 (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (6, 3)]:
        for r in range(1, m + 1):
            commands.append(["chainpower", "--k", str(k), "--m", str(m), "--r", str(r)])
    commands.append(["chainpower", "--k", "3", "--m", "6", "--r", "2"])
    # the text renderer, once per kind
    commands += [
        ["gk", "--n", "4", "--text"],
        ["quotient", "--n", "6", "--group", "(1 2 3 4 5 6)", "--text"],
        ["reflect", "--n", "5", "--group", "(1 5)(2 4)", "--text"],
        ["chainpower", "--k", "3", "--m", "3", "--r", "1", "--text"],
    ]
    assert len({tuple(c) for c in commands}) == len(commands)
    return commands


def outcome(argv) -> dict:
    """Exit code, length and sha256 of the stdout of one in-process run."""
    from scdforge.cli import run

    buffer = io.BytesIO()
    out = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
        out.flush()
    data = buffer.getvalue()
    return {"code": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def main() -> int:
    commands = grid()
    goldens = {
        "python": platform.python_version(),
        "commands": [{"argv": argv, **outcome(argv)} for argv in commands],
    }
    failed = [c["argv"] for c in goldens["commands"] if c["code"] != 0]
    if failed:
        print(f"error: {len(failed)} command(s) did not exit 0, first {failed[0]}", file=sys.stderr)
        return 1
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        rows = ",\n".join("  " + json.dumps(c) for c in goldens["commands"])
        fh.write(f'{{"python": {json.dumps(goldens["python"])}, "commands": [\n{rows}\n]}}\n')
    print(f"{len(commands)} commands recorded with Python {goldens['python']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
