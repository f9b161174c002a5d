"""Mutated documents and group strings always get a defined exit code.

Every input to the command line must end in exit code 0, 1, 2 or 3 with a
message, never in a traceback or a hang.  The mutations swap one value for a
float, bool, string, null, deep list or huge integer, or drop or add a key.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, strategies as st

from scdforge.chainpow import chainpower_scd, chainproduct_scd
from scdforge.cli import build_document, run
from scdforge.gk import gk_decomposition
from scdforge.prune import quotient_scd
from scdforge.reflect import reflection_scd

EXIT_CODES = {0, 1, 2, 3}
DEEP = "deep-list-placeholder"  # replaced by 100k nested brackets after encoding
DOCUMENTS = [
    build_document(d)
    for d in (
        gk_decomposition(3),
        quotient_scd(5, "(1 2 3 4)^2"),
        reflection_scd(4, "(1 4)(2 3)"),
        chainpower_scd(3, 2, 1),
        chainproduct_scd([(2, 2, 1), (3, 1, 1)]),
    )
]
LEAVES = st.sampled_from(
    [1.0, 0.5, True, False, "x", "(1 2", None, DEEP, [[[[[1]]]]], 10**30, -1, 0, 2**64]
)
KEYS = st.sampled_from(["kind", "n", "k", "m", "r", "group", "factors", "extra"])
GROUP_ALPHABET = "()^ 0123456789-x"


def run_quietly(argv) -> int:
    out = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


def paths(value, prefix=()):
    """The path of every value inside a document, containers included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from paths(item, prefix + (i,))


@st.composite
def mutated_documents(draw) -> bytes:
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    path = draw(st.sampled_from(list(paths(doc))))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    target = parent[path[-1]] if path else doc
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "add" and isinstance(target, dict):
        target[draw(KEYS)] = draw(LEAVES)
    elif action == "add" and isinstance(target, list):
        target.append(draw(LEAVES))
    elif action == "drop" and path:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = draw(LEAVES)
    else:
        doc = draw(LEAVES)
    text = json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)
    return text.encode()


@st.composite
def group_strings(draw) -> str:
    text = draw(st.sampled_from(["(1 2 3 4)^2 (5 6)", "(1 2)(3 4 5)", "(2 4 6)^0 (1 3)", "(1 6)(2 5)(3 4)"]))
    start = draw(st.integers(0, len(text)))
    end = start + draw(st.integers(0, 2))
    insert = draw(
        st.one_of(
            st.text(GROUP_ALPHABET, max_size=3),
            st.sampled_from(["^99999999999999999999", "^-1", "(7)", "(1 1)", "9" * 5000]),
        )
    )
    return text[:start] + insert + text[end:]


@given(data=mutated_documents(), as_json=st.booleans())
def test_verify_mutated_documents(tmp_path_factory, data, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(data)
    argv = ["verify", "--input", str(path)] + (["--json"] if as_json else [])
    assert run_quietly(argv) in EXIT_CODES


@given(n=st.integers(1, 6), text=st.one_of(group_strings(), st.text(GROUP_ALPHABET, max_size=16)))
def test_construct_mutated_group_strings(n, text):
    for command in ("quotient", "reflect"):
        assert run_quietly([command, "--n", str(n), "--group", text]) in EXIT_CODES
