"""Write construct_goldens.json: the exit code, length and sha256 of the
output of three grids of small commands, and the interpreter version they
were recorded with.

"commands" is every construct command: gk at n = 1..14; quotients by single
cycles at every exponent (those that reduce to the identity included), by
several factors and with fixed points, all at n <= 14; reflect with and
without fixed points; small chainpower shapes; and --text once per kind and
for words of 12 and 13 bits.  "listings" is orbits
(text and --dot) and profile for the trivial group at n = 1..12 and for every
group of the quotient and reflect commands.  "verify" is verify, in text and
--json, of wrong documents: a boolean, quotient, reflection, chainpower or
product document from a construction with one chain dropped, one element
replaced by a non-least member of its orbit, one element repeated, one chain
split, two adjacent elements of a chain swapped, the last element of a
chain moved to the end of another, an element moved into the middle of
another chain, two elements of one rank exchanged across chains, or one
number of an element shifted by one onto another element, or with its
element_count or chain_count off by one or one rank_profile count moved up a
rank, each named by a stable label and pinned by its own sha256; its stderr
is pinned too.  Run
from the repository root, on the commit whose output is the contract:

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
import random
import sys
import tempfile

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
        # words of 12 bits or more, so the high chunk is written too
        ["gk", "--n", "12", "--text"],
        ["quotient", "--n", "13", "--group", "(5 9 11 13)^2", "--text"],
    ]
    assert len({tuple(c) for c in commands}) == len(commands)
    return commands


def listings() -> list[list[str]]:
    """orbits, orbits --dot and profile of the trivial group at n = 1..12 and of
    each group that a quotient or reflect command of grid() names, in a fixed order."""
    groups = [(n, None) for n in range(1, 13)]
    for argv in grid():
        if argv[0] in ("quotient", "reflect") and (int(argv[2]), argv[4]) not in groups:
            groups.append((int(argv[2]), argv[4]))
    commands = []
    for n, text in groups:
        group = ["--group", text] if text is not None else []
        commands += [["orbits", "--n", str(n), *group], ["orbits", "--n", str(n), *group, "--dot"],
                     ["profile", "--n", str(n), *group]]
    return commands


# the constructions the wrong documents start from: (kind, n, group) of the
# subset kinds, and (kind, factor triples) of a chain power or a product
_SOURCES = [
    *(("boolean", n, None) for n in (3, 4, 5, 6)),
    ("quotient", 4, "(1 2 3 4)"),
    ("quotient", 6, "(1 2 3 4)^2 (5 6)"),
    ("quotient", 7, "(1 2 3)(4 5 6 7)^2"),
    ("quotient", 8, "(1 3 5 7)(2 4 6 8)"),
    ("quotient", 12, "(10 11 12)"),
    ("quotient", 13, "(5 9 11 13)^2"),
    ("reflection", 5, "(1 5)(2 4)"),
    ("reflection", 6, "(1 6)(2 5)(3 4)"),
    ("reflection", 7, "(2 6)(1 3)"),
    ("reflection", 12, "(1 12)"),
    ("chainpower", ((3, 4, 1),)),
    ("chainpower", ((4, 3, 1),)),
    ("chainpower", ((2, 6, 2),)),
    ("product", ((3, 2, 1), (2, 3, 1))),
    ("product", ((2, 4, 1), (3, 3, 2))),
]


def _source(kind: str, *shape):
    """A construction's label and document as a JSON value, and its target's
    generators as functions from one element's JSON value to its image."""
    from scdforge.chainpow import chainpower_scd, chainproduct_scd
    from scdforge.cli import build_document, target_for_context
    from scdforge.gk import gk_decomposition
    from scdforge.groups import perm_from_cycle_power
    from scdforge.prune import quotient_scd
    from scdforge.reflect import reflection_scd

    if kind in ("chainpower", "product"):
        (triples,) = shape
        label = f"{kind} " + " x ".join(f"k={k} m={m} r={r}" for k, m, r in triples)
        decomp = chainpower_scd(*triples[0]) if kind == "chainpower" else chainproduct_scd(triples)
        target = target_for_context(decomp.context)
        moves, offset = [], 0
        for part in getattr(target, "parts", [target]):
            # rotate this factor's levels by its step, the others stay
            i, j, s = offset, offset + part.m, part.step
            moves.append(lambda u, i=i, j=j, s=s: u[:i] + u[i + s:j] + u[i:i + s] + u[j:])
            offset = j
        return label, build_document(decomp), moves
    n, text = shape
    label = f"{kind} n={n}" + (f" {text}" if text is not None else "")
    decomp = {"boolean": lambda: gk_decomposition(n), "quotient": lambda: quotient_scd(n, text),
              "reflection": lambda: reflection_scd(n, text)}[kind]()
    group = target_for_context(decomp.context).group
    perms = [perm_from_cycle_power(f.cycle, f.exponent, n) for f in group.factors]
    return label, build_document(decomp), [lambda x, p=p: sorted(p[e - 1] for e in x) for p in perms]


def _below(x, y, moves, subsets: bool) -> bool:
    """Whether some image of x under the group the moves generate lies below
    y: inside it as a set, or level by level as a tuple."""
    orbit, todo = {tuple(x)}, [x]
    while todo:
        z = todo.pop()
        for move in moves:
            image = move(z)
            if tuple(image) not in orbit:
                orbit.add(tuple(image))
                todo.append(image)
    if subsets:
        return any(set(a) <= set(y) for a in orbit)
    return any(all(u <= v for u, v in zip(a, y)) for a in orbit)


def wrong_documents() -> list[tuple[str, bytes]]:
    """(label, canonical bytes) of each wrong document, in a fixed order: each
    source with one chain dropped, one element repeated in place, one chain
    split in two, where the group moves an element, one element replaced by
    another member of its orbit; then its own chains with element_count off
    by one, with chain_count off by one, and with one rank_profile count
    moved to the next rank; then two adjacent elements of one chain swapped,
    and the last element of one chain moved to the end of another, which
    leave chains that are not saturated; then three that keep some step
    between adjacent ranks, so the verifier tests that step's comparability:
    an element moved into another chain just above an element one rank
    below it, two elements of one rank exchanged between chains where that
    leaves a step whose elements are not comparable, and one
    number of an element shifted by one onto another element of the
    document.  Every stat that is not off is counted from the changed
    chains' elements, one element at a time."""
    from scdforge.cli import encode

    documents = []
    for kind, *shape in _SOURCES:
        source, doc, moves = _source(kind, *shape)
        rank = len if kind in ("boolean", "quotient", "reflection") else sum
        chains = doc["chains"]
        rng = random.Random(source)
        mutants = []  # (what, chains, errors in the stats counted from them)
        i = rng.randrange(len(chains))
        mutants.append((f"chain {i} dropped", chains[:i] + chains[i + 1:], {}))
        i = rng.randrange(len(chains))
        j = rng.randrange(len(chains[i]))
        mutants.append((f"chain {i} element {j} repeated",
                        chains[:i] + [chains[i][:j + 1] + chains[i][j:]] + chains[i + 1:], {}))
        i = rng.choice([k for k, c in enumerate(chains) if len(c) > 1])
        j = rng.randrange(1, len(chains[i]))
        mutants.append((f"chain {i} split before element {j}",
                        chains[:i] + [chains[i][:j], chains[i][j:]] + chains[i + 1:], {}))
        moved = [(k, j, y) for k, c in enumerate(chains) for j, x in enumerate(c)
                 for y in (move(x) for move in moves) if y != x]
        if moved:
            i, j, y = rng.choice(moved)
            mutants.append((f"chain {i} element {j} replaced by {y}",
                            chains[:i] + [chains[i][:j] + [y] + chains[i][j + 1:]] + chains[i + 1:], {}))
        mutants.append(("element_count off by one", chains, {"element_count": 1}))
        mutants.append(("chain_count off by one", chains, {"chain_count": 1}))
        r = rng.choice([r for r, count in enumerate(doc["stats"]["rank_profile"][:-1]) if count])
        mutants.append((f"rank_profile count at rank {r} moved to rank {r + 1}", chains, {"rank_profile": r}))
        i = rng.choice([k for k, c in enumerate(chains) if len(c) > 1])
        j = rng.randrange(len(chains[i]) - 1)
        mutants.append((f"chain {i} elements {j} and {j + 1} swapped",
                        chains[:i] + [chains[i][:j] + [chains[i][j + 1], chains[i][j]] + chains[i][j + 2:]]
                        + chains[i + 1:], {}))
        i = rng.choice([k for k, c in enumerate(chains) if len(c) > 1])
        j = rng.choice([k for k in range(len(chains)) if k != i])
        changed = [c[:-1] if k == i else c + [chains[i][-1]] if k == j else c for k, c in enumerate(chains)]
        mutants.append((f"chain {i} last element moved to the end of chain {j}", changed, {}))
        # three that keep a step between adjacent ranks, so the verifier tests its comparability
        spots = {}  # rank -> (chain, position) of each element above another in its chain
        for k, c in enumerate(chains):
            for p in range(1, len(c)):
                spots.setdefault(rank(c[p]), []).append((k, p))
        i, j = rng.choice([(k, j) for k, c in enumerate(chains) for j, x in enumerate(c)
                           if any(h != k for h, _ in spots.get(rank(x), ()))])
        k, p = rng.choice([(h, p) for h, p in spots[rank(chains[i][j])] if h != i])
        changed = [c[:j] + c[j + 1:] if h == i else c[:p] + [chains[i][j]] + c[p:] if h == k else c
                   for h, c in enumerate(chains)]
        mutants.append((f"chain {i} element {j} moved into chain {k} before element {p}",
                        [c for c in changed if c], {}))
        level = {}  # rank -> (chain, position) of each element
        for k, c in enumerate(chains):
            for h, y in enumerate(c):
                level.setdefault(rank(y), []).append((k, h))
        places = [(k, h) for group in level.values() for k, h in group if any(g != k for g, _ in group)]
        for _ in range(100):  # the first draw that leaves a step not comparable, if one does
            i, j = rng.choice(places)
            k, h = rng.choice([(g, h) for g, h in level[rank(chains[i][j])] if g != i])
            changed = [list(c) for c in chains]
            changed[i][j], changed[k][h] = chains[k][h], chains[i][j]
            if not all(_below(x, y, moves, rank is len) for c in (changed[i], changed[k]) for x, y in zip(c, c[1:])):
                mutants.append((f"chain {i} element {j} exchanged with chain {k} element {h}", changed, {}))
                break
        present = {tuple(x) for c in chains for x in c}
        shifts = [(k, j, t, d) for k, c in enumerate(chains) for j, x in enumerate(c) for t in range(len(x))
                  for d in (-1, 1) if tuple(x[:t] + [x[t] + d] + x[t + 1:]) in present]
        i, j, t, d = rng.choice(shifts)
        x = chains[i][j]
        changed = chains[:i] + [chains[i][:j] + [x[:t] + [x[t] + d] + x[t + 1:]] + chains[i][j + 1:]] + chains[i + 1:]
        mutants.append((f"chain {i} element {j} number {t} shifted from {x[t]} to {x[t] + d}", changed, {}))
        for what, changed, errors in mutants:
            profile = [0] * len(doc["stats"]["rank_profile"])
            for c in changed:
                for x in c:
                    profile[rank(x)] += 1
            if "rank_profile" in errors:
                profile[errors["rank_profile"]] -= 1
                profile[errors["rank_profile"] + 1] += 1
            wrong = dict(doc, chains=changed, stats={"chain_count": len(changed) + errors.get("chain_count", 0),
                                                     "element_count": sum(profile) + errors.get("element_count", 0),
                                                     "rank_profile": profile})
            documents.append((f"{source}: {what}", encode(wrong)))
    assert len({label for label, _ in documents}) == len(documents)
    return documents


def _run(argv) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one in-process run."""
    from scdforge.cli import run

    streams = [io.BytesIO(), io.BytesIO()]
    out, err = (io.TextIOWrapper(b, encoding="utf-8", newline="\n") for b in streams)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
        out.flush()
        err.flush()
    return code, streams[0].getvalue(), streams[1].getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(argv) -> dict:
    """Exit code, length and sha256 of the stdout of one in-process run."""
    code, data, _ = _run(argv)
    return {"code": code, "bytes": len(data), "sha256": _digest(data)}


def verify_outcomes(document: bytes) -> list[dict]:
    """verify of a document, in text and in --json: the exit code and the
    length and sha256 of stdout and of stderr of each run."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "document.json")
        with open(path, "wb") as fh:
            fh.write(document)
        results = []
        for flags in ([], ["--json"]):
            code, data, err = _run(["verify", "--input", path, *flags])
            results.append({"code": code, "bytes": len(data), "sha256": _digest(data),
                            "stderr_bytes": len(err), "stderr_sha256": _digest(err)})
    return results


def main() -> int:
    commands = grid()
    goldens = {
        "python": platform.python_version(),
        "commands": [{"argv": argv, **outcome(argv)} for argv in commands],
        "listings": [{"argv": argv, **outcome(argv)} for argv in listings()],
        "verify": [{"label": label, "document": _digest(document), "outcomes": verify_outcomes(document)}
                   for label, document in wrong_documents()],
    }
    failed = [c["argv"] for c in goldens["commands"] + goldens["listings"] if c["code"] != 0]
    if failed:
        print(f"error: {len(failed)} command(s) did not exit 0, first {failed[0]}", file=sys.stderr)
        return 1
    passed = [v["label"] for v in goldens["verify"] if any(o["code"] != 1 for o in v["outcomes"])]
    if passed:
        print(f"error: {len(passed)} wrong document(s) did not fail verify, first {passed[0]}", file=sys.stderr)
        return 1
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        fh.write(f'{{"python": {json.dumps(goldens["python"])}')
        for key in ("commands", "listings", "verify"):
            rows = ",\n".join("  " + json.dumps(c) for c in goldens[key])
            fh.write(f', "{key}": [\n{rows}\n]')
        fh.write("}\n")
    print(f"{len(commands)} construct commands, {len(goldens['listings'])} listings and "
          f"{len(goldens['verify'])} wrong documents recorded with Python {goldens['python']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
