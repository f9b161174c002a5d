"""Package hygiene: every export resolves, every module export has a caller
outside the tests, the package exports exactly the construct and verify API,
the CLI imports no third-party code and no dataclass machinery, every function
the benchmark trace binds onto still exists and is still called on a traced
run, the seed-0 benchmark documents match their goldens, the subset
documents among them and among the construct goldens decode from their
text alone, and the demos run."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import scdforge
from record_construct_goldens import grid
from scdforge.cli import decode, encode, run

MODULES = sorted(m.name for m in pkgutil.iter_modules(scdforge.__path__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"scdforge.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _names_used(top):
    """Every Name id and Attribute attr in the Python files under ROOT/top;
    under perfbench/ also every string constant, since its trace binds
    functions by name.  A def's own name and its __all__ entry are neither."""
    used = set()
    for folder, _, files in os.walk(os.path.join(ROOT, top)):
        for file in files:
            if not file.endswith(".py"):
                continue
            with open(os.path.join(folder, file), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif top == "perfbench" and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_module_exports_have_a_caller_outside_tests():
    # src/ keeps what a command, another module, a demo or the benchmark calls;
    # helpers that only the tests need live in tests/oracles.py
    used = PUBLIC | _names_used("src") | _names_used("demos") | _names_used("perfbench")
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"scdforge.{name}")
        unused += [f"{name}.{n}" for n in module.__all__ if n not in used]
    assert unused == []


def test_package_exports_are_module_exports():
    for name, value in vars(scdforge).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert name in sys.modules[value.__module__].__all__, name


# the construct and verify API; documents live in scdforge.cli, exposition helpers in their modules
PUBLIC = {
    "ChainPowerTarget", "ChainProductTarget", "chainpower_scd", "chainproduct_scd",
    "Chain", "Context", "Decomposition", "ResourceLimitError", "bit_string", "mask_of", "product_scd", "set_string",
    "gk_decomposition",
    "GroupSpec", "ParseError", "QuotientPoset", "burnside_count", "parse_group_spec", "quotient_poset",
    "quotient_scd", "quotient_scd_cyclic",
    "involution_group", "reflection_scd",
    "ProductTarget", "VerificationError", "VerifyReport", "rank_profile", "verify_decomposition",
}


def test_package_exports_construct_and_verify_only():
    names = {
        name for name, value in vars(scdforge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


def test_cli_import_adds_no_heavy_modules():
    # every command starts a process: its import must not pull in a schema
    # library or the dataclass machinery (inspect, ast, dis, tokenize); the
    # interpreter's site hooks may have loaded typing already, so only what
    # the import itself adds counts
    src = os.path.dirname(os.path.dirname(scdforge.__file__))
    probe = (
        "import sys; before = set(sys.modules); import scdforge.cli; "
        "print(sorted({'jsonschema', 'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_src_keeps_no_process_wide_cache():
    # a result lives and dies with its call and a group's tables with its
    # GroupSpec: no functools.lru_cache or functools.cache, as a decorator or
    # otherwise; an instance's cached_property dies with the instance
    memos = {"lru_cache", "cache"}
    found = []
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for file in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, file), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    found += [f"{file}:{node.lineno}" for alias in node.names if alias.name in memos]
                elif isinstance(node, ast.Attribute) and node.attr in memos and getattr(node.value, "id", None) == "functools":
                    found.append(f"{file}:{node.lineno}")
    assert found == []


def test_trace_targets_resolve():
    # perfbench/tracing.py rebinds these names on the scdforge modules; a missing
    # one would break the traced benchmark run, not any test of the package
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for table in (tracing.SPANS, tracing.COUNTED):
        for layer, names in table.items():
            module = importlib.import_module(f"scdforge.{layer}")
            missing += [f"{layer}.{n}" for n in names if not callable(getattr(module, n, None))]
    assert missing == []


def _traced(tmp_path, argv):
    """The trace and the stdout of one command run through perfbench/tracing.py."""
    trace_out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "tracing.py"), str(trace_out), *argv],
        env=env, capture_output=True, check=True,
    )
    return json.loads(trace_out.read_text()), result.stdout


def _span_names(spans):
    for span in spans:
        yield span["name"]
        yield from _span_names(span["children"])


def _spans_named(spans, name):
    for span in spans:
        if span["name"] == name:
            yield span
        yield from _spans_named(span["children"], name)


def test_traced_quotient_counts_apply_perm_and_orbit_rep(tmp_path):
    # the benchmark's own tests (not in this suite) need both on a traced run
    trace, _ = _traced(tmp_path, ["quotient", "--n", "8", "--group", "(1 2 3)(4 5 6 7)^2"])
    assert trace["counters"]["groups.apply_perm.calls"] > 0
    assert "groups.orbit_rep" in set(_span_names(trace["spans"]))


def test_traced_chainpower_runs_the_pruning_pass(tmp_path):
    # chain powers reach the greedy pass through prune.prune_chains, so its counters are live
    trace, _ = _traced(tmp_path, ["chainpower", "--k", "3", "--m", "4", "--r", "1"])
    assert "prune.prune_chains" in set(_span_names(trace["spans"]))
    assert trace["counters"]["prune.chains_scanned"] > 0


def test_traced_quotient_builds_no_gk_scd(tmp_path):
    # the pass streams sorted bottoms; the fixed point 8 takes the Boolean factor, also without gk_scd
    trace, _ = _traced(tmp_path, ["quotient", "--n", "8", "--group", "(1 2 3)(4 5 6 7)^2"])
    names = set(_span_names(trace["spans"]))
    assert "prune.prune_chains" in names
    assert "gk.gk_scd" not in names
    assert trace["counters"].get("gk.chains", 0) == 0


def test_traced_quotient_names_orbits_per_factor(tmp_path):
    # each factor's local quotient is named before the fold, so orbit_rep runs
    # once per local element (14 + 10), not once per element of the document
    trace, stdout = _traced(tmp_path, ["quotient", "--n", "12", "--group", "(1 2 3 4 5 6)(7 8 9 10)^2"])
    calls = sum(span["calls"] for span in _spans_named(trace["spans"], "groups.orbit_rep"))
    assert 0 < calls < json.loads(stdout)["stats"]["element_count"]


def test_traced_quotient_folds_its_parts_in_one_product(tmp_path):
    # the fixed point 8 and the two rotated blocks are three parts: one product_scd folds them all,
    # map_elements runs once per part (the fixed block's relabel and each factor's naming), not per fold
    # step, and the chains are sorted once, by the fold, not once per rotated block as well
    trace, _ = _traced(tmp_path, ["quotient", "--n", "8", "--group", "(1 2 3)(4 5 6 7)^2"])
    calls = {name: sum(span["calls"] for span in _spans_named(trace["spans"], name))
             for name in ("core.product_scd", "core.map_elements", "core.make_decomposition")}
    assert calls == {"core.product_scd": 1, "core.map_elements": 3, "core.make_decomposition": 1}


def _callers_of(spans, name, caller="root"):
    """(the name of the enclosing span, calls) of every span with the given name."""
    for span in spans:
        if span["name"] == name:
            yield caller, span["calls"]
        yield from _callers_of(span["children"], name, span["name"])


@pytest.mark.parametrize("argv, builder", [
    (("gk", "--n", "12"), "gk.gk_scd"),
    (("chainpower", "--k", "3", "--m", "4"), "chainpow.chainpower_scd"),
], ids=["gk", "chainpower"])
def test_traced_builder_certifies_its_own_result(tmp_path, argv, builder):
    # the one certificate runs inside the builder; the CLI only writes what it returns
    trace, _ = _traced(tmp_path, argv)
    assert list(_callers_of(trace["spans"], "verify.verify_decomposition")) == [(builder, 1)]


@pytest.mark.parametrize("argv", [
    ("quotient", "--n", "8", "--group", "(1 2 3)(4 5 6 7)^2"),
    ("reflect", "--n", "9", "--group", "(1 9)(3 4)"),
    ("gk", "--n", "12"),
    ("chainpower", "--k", "3", "--m", "4", "--r", "1"),
])
def test_traced_construct_writes_through_encode(tmp_path, argv):
    # the benchmark's cli.encode span and cli.doc_bytes counter are taken from encode's result
    trace, stdout = _traced(tmp_path, argv)
    assert "cli.encode" in set(_span_names(trace["spans"]))
    assert trace["counters"]["cli.doc_bytes"] == len(stdout) > 0


def _refuse_the_tree_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the JSON-tree route was reached")

    monkeypatch.setattr("scdforge.cli._decode_tree", refuse)
    monkeypatch.setattr("scdforge.cli._read_subset", refuse)


def _decodes_from_its_text(data: bytes) -> bool:
    # with the tree route refused: the result re-encodes to the same bytes, stats included
    decomp, stats = decode(data)
    return encode(decomp) == data and stats == json.loads(b"{" + data[data.index(b'],"context":') + 2 :])["stats"]


def test_seed_0_documents_match_the_goldens(capsysbinary, monkeypatch):
    # the benchmark checks its goldens only on its own runs; this catches a drift in tier-1.  Each document
    # of a subset kind is then read from its bytes alone, as test_golden_documents_decode_from_their_text does
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    with open(os.path.join(ROOT, "perfbench", "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    seed = workloads.DEFAULT_SEED
    commands = workloads.commands_for("chain-powers", seed)
    commands += [c for c in workloads.commands_for("roundtrip", seed) if c.name == "gk16"]
    commands += workloads.commands_for("quotients", seed)
    assert sorted(c.name for c in commands) == sorted(goldens)  # every golden, reflection18 included
    subset_documents = {}
    for cmd in commands:
        assert run(list(cmd.argv)) == 0, cmd.name
        data = capsysbinary.readouterr().out
        golden = goldens[cmd.name]
        assert (len(data), hashlib.sha256(data).hexdigest()) == (golden["bytes"], golden["sha256"]), cmd.name
        if cmd.argv[0] != "chainpower":
            subset_documents[cmd.name] = data
    assert sorted(subset_documents) == ["gk16", "multifactor18", "reflection18", "rotation18"]
    _refuse_the_tree_route(monkeypatch)
    for name, data in subset_documents.items():
        assert _decodes_from_its_text(data), name


def test_golden_documents_decode_from_their_text(capsysbinary, monkeypatch):
    # every construct-golden document of a subset kind is read from its bytes alone: neither the JSON-tree
    # route nor _read_subset runs
    argvs = [argv for argv in grid() if argv[0] in ("gk", "quotient", "reflect") and "--text" not in argv]
    documents = []
    for argv in argvs:
        assert run(argv) == 0, argv
        documents.append((argv, capsysbinary.readouterr().out))
    _refuse_the_tree_route(monkeypatch)
    for argv, data in documents:
        assert _decodes_from_its_text(data), argv


# the sha256 of each demo's stdout, so that a demo whose printout drifts fails
DEMO_STDOUT_SHA256 = {
    "01_bracketing_and_chains.py": "c45b9c439604250b1195a548feea2927f75ffdee7b8360010eef2ace4dc3a451",
    "02_necklaces.py": "0fd1a1083b4e10e15a332986afef2fdaa73f06b66fad672d69d01b020fb300f0",
    "03_cycle_power_groups.py": "fefa6324435fc44023cb199b2ef6187c49233de03418b5de39d6d609e20ead63",
    "04_reflections.py": "2b6e88aea493242261dbc80a9f96c8ba6139fdcfa4be53b1a838c21bcac0556e",
    "05_chain_powers.py": "630e93190f80010e7168caa947f090307a77cdd70f6c57398e747c922e768a21",
    "06_documents_and_cli.py": "e35f0596e8a40bad9975dd47b2f35c4ccabf0f47ca190ebc4c2ed796460b6ea0",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demos_run(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo], result.stdout.decode()


def test_documents_demo_prints_the_same_bytes_twice(tmp_path):
    # the demo writes its document in a scratch folder it removes, and names it by a fixed relative name
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    demo = [sys.executable, os.path.join(ROOT, "demos", "06_documents_and_cli.py")]
    first, second = (subprocess.run(demo, env=env, capture_output=True) for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert (first.stdout, first.stderr) == (second.stdout, second.stderr)
    assert b"doc.json" in first.stdout
    assert list(tmp_path.iterdir()) == []
