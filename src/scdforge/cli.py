"""Command-line front end: construct, verify, and export decompositions.

Documents use the canonical JSON form "scdforge/1": sorted keys, compact
separators, UTF-8, newline-terminated, chains in the deterministic order the
constructions emit.  Subsets serialize as sorted 1-based element lists and
chain-power elements as level lists.  encode() writes a decomposition's chains
straight from its elements, each subset's text from one table lookup per
11-bit chunk of its mask, and leaves only the context and stats to json.dumps;
the bytes are those json.dumps would give for the whole document.  decode()
is its inverse: one pass over the parsed document checks every value and
builds each subset's mask or each level tuple, returning the Decomposition
and the document's stats.  Every construct subcommand re-verifies its result
against an independently defined target before emitting anything.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chainpow import ChainPowerTarget, ChainProductTarget, chainpower_scd
from .core import (
    MASK_WIDTH_LIMIT,
    Chain,
    Context,
    Decomposition,
    ResourceLimitError,
    bit_string,
    check_ground,
    element_text,
    mask_of,
    set_string,
)
from .gk import gk_decomposition
from .groups import GroupSpec, ParseError, parse_group_spec, quotient_poset, rank_counts
from .prune import quotient_scd
from .reflect import _transpositions, involution_group, reflection_scd
from .verify import VerificationError, certify, rank_profile, verify_decomposition

SCHEMA_ID = "scdforge/1"


class DecodeError(ValueError):
    """Document rejected; the message carries a JSON pointer."""


_DOCUMENT_KEYS = ("schema", "context", "chains", "stats")
_STATS_KEYS = ("chain_count", "element_count", "rank_profile")
_REQUIRED_CONTEXT = {
    "boolean": ("n",),
    "quotient": ("n", "group"),
    "reflection": ("n", "group"),
    "chainpower": ("k", "m", "r"),
    "product": ("factors",),
}
_CONTEXT_MINIMUM = {"n": 1, "k": 2, "m": 1, "r": 1}
_CONTEXT_KEYS = ("kind", "group", "factors", *_CONTEXT_MINIMUM)
_SUBSET_KINDS = ("boolean", "quotient", "reflection")


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _chain_bytes(decomp: Decomposition):
    """Each chain as its canonical JSON array of element arrays."""
    ctx = decomp.context
    if ctx.kind in _SUBSET_KINDS:
        text = element_text(ctx.n)
        for c in decomp.chains:
            yield b"[[" + b"],[".join(map(text, c.elements)) + b"]]"
    else:
        for c in decomp.chains:
            yield ("[[" + "],[".join(",".join(map(str, t)) for t in c.elements) + "]]").encode()


def encode(doc) -> bytes:
    """Canonical bytes of a Decomposition's document, or of a dict: sorted
    keys, compact separators, newline-terminated.

    A decomposition's chains are written straight from its elements, one
    table lookup per chunk of each mask; json.dumps writes only the other
    three keys, which sort after "chains".
    """
    if not isinstance(doc, Decomposition):
        return (_canonical_json(doc) + "\n").encode("utf-8")
    ctx = doc.context
    context = {"kind": ctx.kind}
    for key in ("n", "group", "k", "m", "r"):
        value = getattr(ctx, key)
        if value is not None:
            context[key] = value
    if ctx.factors is not None:
        context["factors"] = [list(t) for t in ctx.factors]
    stats = {
        "chain_count": len(doc.chains),
        "element_count": doc.element_count(),
        "rank_profile": list(doc.rank_counts()),
    }
    rest = _canonical_json({"context": context, "schema": SCHEMA_ID, "stats": stats})
    pieces = []
    for chain in _chain_bytes(doc):
        pieces += (b",", chain)
    pieces[:1] = [b'{"chains":[']  # in place of the first comma
    pieces.append(("]," + rest[1:] + "\n").encode("utf-8"))
    return b"".join(pieces)


def build_document(decomp: Decomposition) -> dict:
    """The document of a decomposition, as the JSON value encode() writes."""
    return json.loads(encode(decomp))


def _fail(pointer: str, message: str):
    raise DecodeError(f"{pointer}: {message}")


def _check_object(value, pointer: str, required, allowed) -> dict:
    if type(value) is not dict:
        _fail(pointer, "must be an object")
    for key in required:
        if key not in value:
            _fail(pointer, f"missing required key {key!r}")
    for key in value:
        if key not in allowed:
            _fail(pointer, f"unexpected key {key!r}")
    return value


def _check_array(value, pointer: str, min_items: int = 0) -> list:
    if type(value) is not list:
        _fail(pointer, "must be an array")
    if len(value) < min_items:
        _fail(pointer, f"must have at least {min_items} item(s)")
    return value


def _check_int(value, pointer: str, minimum: int | None = None) -> None:
    # type() rather than isinstance(): bool is an int subclass, and floats
    # such as 1.0 are not integers here either
    if type(value) is not int:
        _fail(pointer, "must be an integer")
    if minimum is not None and value < minimum:
        _fail(pointer, f"must be >= {minimum}")


def _read_subset(elems, n: int) -> int:
    """The mask of one subset of [n]; raises DecodeError naming its first problem."""
    if type(elems) is not list or not set(map(type, elems)) <= {int}:
        raise DecodeError("subset must be an array of integers")
    distinct = sorted(set(elems))
    if distinct and (distinct[0] < 1 or distinct[-1] > n):
        raise DecodeError(f"element out of range 1..{n}")
    if distinct != elems:
        raise DecodeError("subset must be a sorted list of distinct elements")
    # an element past the mask width has no bit: decode refuses such an n after the walk
    return mask_of(elems) if n <= MASK_WIDTH_LIMIT else 0


def _read_levels(elems, blocks) -> tuple[int, ...]:
    """The level tuple of one element of a product of (k, m) chain powers;
    raises DecodeError naming its first problem."""
    if type(elems) is not list or not set(map(type, elems)) <= {int}:
        raise DecodeError("level tuple must be an array of integers")
    width = sum(m for _, m in blocks)
    if len(elems) != width:
        raise DecodeError(f"level tuple must have {width} entries")
    i = 0
    for k, m in blocks:
        if any(lv < 0 or lv > k - 1 for lv in elems[i : i + m]):
            raise DecodeError(f"levels must lie in 0..{k - 1}")
        i += m
    return tuple(elems)


def decode(data: bytes | str) -> tuple[Decomposition, dict]:
    """Read a document into its Decomposition and its stats object, checking
    each value as it is read.

    Raises DecodeError whose message starts with the JSON pointer of the
    first offending value, the elements in chain order after the context and
    stats.  Integers must be JSON integers: booleans and floats, 1.0
    included, are rejected.  A subset document whose n passes the 64-bit mask
    width raises check_ground's ValueError once its elements are read.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise DecodeError(f"/: not valid JSON ({e.msg} at line {e.lineno})") from None
    except UnicodeDecodeError:
        raise DecodeError("/: not valid UTF-8") from None
    except RecursionError:
        raise DecodeError("/: nesting too deep") from None
    except ValueError as e:  # an integer literal beyond the interpreter's digit limit
        raise DecodeError(f"/: not valid JSON ({e})") from None
    _check_object(doc, "/", _DOCUMENT_KEYS, _DOCUMENT_KEYS)
    if doc["schema"] != SCHEMA_ID:
        _fail("/schema", f"must be {SCHEMA_ID!r}")

    ctx = _check_object(doc["context"], "/context", ("kind",), _CONTEXT_KEYS)
    kind = ctx["kind"]
    if type(kind) is not str or kind not in _REQUIRED_CONTEXT:
        _fail("/context/kind", "must be one of " + ", ".join(_REQUIRED_CONTEXT))
    for key, minimum in _CONTEXT_MINIMUM.items():
        if key in ctx:
            _check_int(ctx[key], f"/context/{key}", minimum)
    if "group" in ctx and type(ctx["group"]) is not str:
        _fail("/context/group", "must be a string")
    if "factors" in ctx:
        for i, triple in enumerate(_check_array(ctx["factors"], "/context/factors", 1)):
            pointer = f"/context/factors/{i}"
            if len(_check_array(triple, pointer)) != 3:
                _fail(pointer, "must be a [k, m, r] triple")
            for j, minimum in enumerate((2, 1, 1)):
                _check_int(triple[j], f"{pointer}/{j}", minimum)
    for key in _REQUIRED_CONTEXT[kind]:
        if key not in ctx:
            _fail("/context", f"kind {kind!r} requires {key!r}")

    stats = _check_object(doc["stats"], "/stats", _STATS_KEYS, _STATS_KEYS)
    _check_int(stats["chain_count"], "/stats/chain_count", 1)
    _check_int(stats["element_count"], "/stats/element_count", 1)
    for i, count in enumerate(_check_array(stats["rank_profile"], "/stats/rank_profile")):
        _check_int(count, f"/stats/rank_profile/{i}")

    if kind in _SUBSET_KINDS:
        read, shape, rank, total = _read_subset, ctx["n"], int.bit_count, ctx["n"]
    else:
        triples = ctx["factors"] if kind == "product" else [(ctx["k"], ctx["m"], ctx["r"])]
        shape = [(k, m) for k, m, _ in triples]
        read, rank, total = _read_levels, sum, sum((k - 1) * m for k, m in shape)
    chains = []
    for ci, chain in enumerate(_check_array(doc["chains"], "/chains", 1)):
        chain = _check_array(chain, f"/chains/{ci}", 1)
        elements = []
        try:
            for elems in chain:
                elements.append(read(elems, shape))
        except DecodeError as e:
            _fail(f"/chains/{ci}/{len(elements)}", str(e))
        chains.append(Chain(tuple(elements), tuple(map(rank, elements))))
    if kind in _SUBSET_KINDS:
        check_ground(ctx["n"])
    context = Context(
        kind=kind,
        total_rank=total,
        n=ctx.get("n"),
        group=ctx.get("group"),
        k=ctx.get("k"),
        m=ctx.get("m"),
        r=ctx.get("r"),
        factors=tuple(tuple(t) for t in ctx["factors"]) if "factors" in ctx else None,
    )
    return Decomposition(tuple(chains), context), stats


def target_for_context(ctx: Context):
    kind = ctx.kind
    if kind == "boolean":
        return quotient_poset(ctx.n, GroupSpec.trivial(ctx.n))
    if kind == "quotient":
        return quotient_poset(ctx.n, parse_group_spec(ctx.group, ctx.n))
    if kind == "reflection":
        spec = parse_group_spec(ctx.group, ctx.n)
        return quotient_poset(ctx.n, involution_group(ctx.n, _transpositions(spec)))
    if kind == "chainpower":
        return ChainPowerTarget(ctx.k, ctx.m, ctx.r)
    return ChainProductTarget(ctx.factors)


def _render_element(e, ctx: Context) -> str:
    if isinstance(e, int):
        return bit_string(e, ctx.n)
    return "(" + ",".join(str(x) for x in e) + ")"


def _emit(decomp: Decomposition, args) -> None:
    if getattr(args, "text", False):
        print(f"chains={len(decomp.chains)}")
        for c in decomp.chains:
            print(" < ".join(_render_element(e, decomp.context) for e in c.elements))
    else:
        sys.stdout.buffer.write(encode(decomp))
        sys.stdout.buffer.flush()


def _cmd_gk(args) -> int:
    # the target guards the ground size before any chain is built
    target = quotient_poset(args.n, GroupSpec.trivial(args.n))
    _emit(certify(target, gk_decomposition(args.n)), args)
    return 0


def _cmd_quotient(args) -> int:
    decomp = quotient_scd(args.n, args.group)  # verifies internally
    _emit(decomp, args)
    return 0


def _cmd_reflect(args) -> int:
    decomp = reflection_scd(args.n, args.group)  # verifies internally
    _emit(decomp, args)
    return 0


def _cmd_chainpower(args) -> int:
    target = ChainPowerTarget(args.k, args.m, args.r)
    _emit(certify(target, chainpower_scd(args.k, args.m, args.r)), args)
    return 0


def _cmd_orbits(args) -> int:
    group = parse_group_spec(args.group, args.n) if args.group is not None else GroupSpec.trivial(args.n)
    poset = quotient_poset(args.n, group)
    if args.dot:
        print("digraph quotient {")
        print("  rankdir=BT;")
        label = {o.rep: set_string(o.rep) for o in poset.orbits}
        for o in poset.orbits:
            print(f'  "{label[o.rep]}" [label="{label[o.rep]} x{o.size}"];')
        for lower, upper in poset.covers():
            print(f'  "{label[lower]}" -> "{label[upper]}";')
        print("}")
        return 0
    print(f"orbits={poset.size()}")
    for r, bucket in enumerate(poset.orbits_by_rank):
        for o in bucket:
            print(f"rank {r}: {set_string(o.rep)} size={o.size}")
    return 0


def _cmd_profile(args) -> int:
    group = parse_group_spec(args.group, args.n) if args.group is not None else GroupSpec.trivial(args.n)
    profile = rank_profile(rank_counts(args.n, group))
    print("ranks=" + " ".join(str(c) for c in profile.counts))
    print(f"symmetric={'true' if profile.symmetric else 'false'}")
    print(f"unimodal={'true' if profile.unimodal else 'false'}")
    return 0


def _cmd_verify(args) -> int:
    with open(args.input, "rb") as fh:
        decomp, stats = decode(fh.read())
    target = target_for_context(decomp.context)
    report = verify_decomposition(target, decomp)
    stats_ok = (
        stats["chain_count"] == len(decomp.chains)
        and stats["element_count"] == decomp.element_count()
        and tuple(stats["rank_profile"]) == decomp.rank_counts()
    )
    if args.json:
        payload = report.to_dict()
        payload["stats_consistent"] = stats_ok
        sys.stdout.buffer.write(encode(payload))
        return 0 if report.ok and stats_ok else 1
    if report.ok and stats_ok:
        print(f"ok: {report.element_count} elements in {len(decomp.chains)} chains")
        return 0
    if not stats_ok:
        print("stats do not match the chains", file=sys.stderr)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scdforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="canonical JSON (default)")
        fmt.add_argument("--text", action="store_true", help="plain text chains")

    p = sub.add_parser("gk", help="Greene-Kleitman SCD of B_n")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_gk)

    p = sub.add_parser("quotient", help="SCD of B_n modulo powers of disjoint cycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", required=True, help='cycles with powers, e.g. "(1 2 3 4)^2 (5 6)"')
    add_format(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("reflect", help="SCD of B_n modulo a product of disjoint transpositions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", required=True, help='transpositions, e.g. "(1 4)(2 3)"')
    add_format(p)
    p.set_defaults(func=_cmd_reflect)

    p = sub.add_parser("chainpower", help="SCD of a chain power modulo coordinate rotation")
    p.add_argument("--k", type=int, required=True, help="levels of the chain")
    p.add_argument("--m", type=int, required=True, help="number of coordinates")
    p.add_argument("--r", type=int, default=1, help="rotation step (default 1)")
    add_format(p)
    p.set_defaults(func=_cmd_chainpower)

    p = sub.add_parser("orbits", help="orbit poset of B_n under a group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", default=None)
    p.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("verify", help="re-verify a document")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("profile", help="rank profile of a quotient poset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", default=None)
    p.set_defaults(func=_cmd_profile)

    return parser


def run(argv=None) -> int:
    """Dispatch a command line; returns the exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ParseError, DecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


__all__ = [
    "DecodeError",
    "SCHEMA_ID",
    "build_document",
    "build_parser",
    "decode",
    "encode",
    "main",
    "run",
    "target_for_context",
]


if __name__ == "__main__":
    main()
