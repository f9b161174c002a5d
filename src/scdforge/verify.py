"""Construction-independent certification of claimed decompositions.

A target poset provides five members: elements(), rank(x),
failing_runs(runs), total_rank and expected_size().  failing_runs(runs)
returns the indices, ascending, of the runs that do not ascend, none when
all do; a run ascends iff every element is a canonical element of the target
(the least member of its orbit, in the target's own encoding) and each lies
below the next.  It is the target's only comparability test, and it sees
every run at once: a quotient packs slices of whole runs, about 2^15
elements each, into 32-bit lanes of one integer and reads each non-identity
power's image of a slice with a few shifts and masks, and a chain power
reads each element's rotations once.  The verifier tests every comparability
and reads every rank it needs itself, and never trusts the construction's
bookkeeping.

A family of chains partitions the target into symmetric chains as soon as
every element is canonical, no element repeats, every chain steps up one rank
at a time through comparable elements with end ranks summing to total_rank,
and the elements number exactly expected_size(): distinct canonical elements
name distinct orbits, and a Burnside count of the orbits equals the true one,
so by pigeonhole every orbit is covered exactly once.  The steps need only
the ranks of a chain's two ends: in every target two distinct comparable
elements have different ranks (canonical orbit representatives of a
quotient, canonical tuples of a chain power under the componentwise order,
pairs of a product coordinatewise), so along a chain that ascends without a
repeat the ranks rise strictly, and len - 1 rises that add up to len - 1 are
each one.  That certificate makes one failing_runs() call over every chain
and two rank() calls per chain, and tests each claimed element once.  Only
when it fails does the verifier enumerate elements() to name every problem,
reading every element's rank and passing every step it tests, as a pair, to
one failing_runs() call, whose verdicts each chain's report reads in order,
so the reports of both routes are the same.
"""

from __future__ import annotations

from collections import Counter

from .core import Decomposition, _Record, _set


class Failure(_Record):
    __slots__ = ("kind", "witness", "detail")

    def __init__(self, kind: str, witness: object, detail: str = ""):
        _set(self, "kind", kind)  # not-covered | double-covered | not-saturated | not-symmetric | not-comparable
        _set(self, "witness", witness)
        _set(self, "detail", detail)


def _jsonable(value):
    if value is None or isinstance(value, int):  # bool included
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return str(value)


class VerifyReport(_Record):
    __slots__ = ("ok", "element_count", "expected_count", "failures")

    def __init__(self, ok: bool, element_count: int, expected_count: int, failures: tuple[Failure, ...]):
        _set(self, "ok", ok)
        _set(self, "element_count", element_count)
        _set(self, "expected_count", expected_count)
        _set(self, "failures", failures)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "element_count": self.element_count,
            "expected_count": self.expected_count,
            "failures": [
                {"kind": f.kind, "witness": _jsonable(f.witness), "detail": f.detail}
                for f in self.failures
            ],
        }

    def summary(self) -> str:
        if self.ok:
            return f"ok: {self.element_count} elements"
        head = f"failed: {len(self.failures)} problem(s), {self.element_count} elements vs {self.expected_count} expected"
        lines = [head] + [f"  {f.kind}: {f.witness!r} {f.detail}".rstrip() for f in self.failures[:10]]
        if len(self.failures) > 10:
            lines.append(f"  ... {len(self.failures) - 10} more")
        return "\n".join(lines)


class VerificationError(RuntimeError):
    """A construction failed its own certification; carries the report."""

    def __init__(self, report: VerifyReport):
        super().__init__(report.summary())
        self.report = report


def verify_decomposition(target, decomp: Decomposition) -> VerifyReport:
    """Check that a decomposition partitions the target into symmetric chains.

    Per chain: consecutive elements must be comparable with ranks stepping by
    one, and the end ranks must sum to the poset rank.  Globally: every target
    element is covered exactly once and the element count matches the target's
    independent counting oracle.  Tries the pigeonhole certificate first and
    enumerates the target only to explain a failure.
    """
    count = decomp.element_count()
    if _certified(target, decomp, count):
        return VerifyReport(True, count, count, ())
    return _enumerated(target, decomp)


def _certified(target, decomp: Decomposition, count: int) -> bool:
    """The pigeonhole certificate of the module docstring over `count`
    elements; False on any doubt.  One failing_runs() call tests every chain's
    elements, then each chain's ranks are read at its two ends only: the
    end-rank rule accepts a chain with a repeat, such as (a, a, c) with c two
    ranks above a, and the global repeat check, len(seen) == count, refuses it."""
    if count != target.expected_size():
        return False
    if target.failing_runs(chain.elements for chain in decomp.chains):
        return False
    rank, total = target.rank, target.total_rank
    seen = set()
    for chain in decomp.chains:
        elems = chain.elements
        low, high = rank(elems[0]), rank(elems[-1])
        if low + high != total or high - low != len(elems) - 1:
            return False
        seen.update(elems)
    return len(seen) == count


def _rising(target, elems) -> int:
    """The number of steps of a chain before its first rank that does not rise by one."""
    ranks = [target.rank(e) for e in elems]
    return next((i for i in range(len(elems) - 1) if ranks[i + 1] != ranks[i] + 1), len(elems) - 1)


def _enumerated(target, decomp: Decomposition) -> VerifyReport:
    """Enumerate the target and report every problem of the decomposition."""
    # each element maps to itself: a claimed element may equal one in another type (True for mask 1),
    # which failing_runs() rejects, so comparability is tested on the target's own copies
    universe = {e: e for e in target.elements()}
    total = target.total_rank
    inside = [all(e in universe for e in chain.elements) for chain in decomp.chains]
    # one call tests, as pairs, the steps of each chain inside the target below its first rank
    # that does not rise by one; each chain's report reads the verdicts of its own steps in order
    failing = set(target.failing_runs(
        (universe[a], universe[b])
        for chain, whole in zip(decomp.chains, inside) if whole
        for a, b in zip(chain.elements, chain.elements[1:_rising(target, chain.elements) + 1])
    ))
    failures = []
    counts = Counter()
    step = 0
    for chain, whole in zip(decomp.chains, inside):
        elems = chain.elements
        alien = [] if whole else [e for e in elems if e not in universe]
        for e in alien:
            failures.append(Failure("not-covered", e, "not an element of the target"))
        counts.update(e for e in elems if e in universe)
        if alien:
            continue
        rising = _rising(target, elems)
        bad = next((i for i in range(rising) if step + i in failing), None)
        step += rising
        if bad is not None:
            failures.append(Failure("not-comparable", (elems[bad], elems[bad + 1])))
        elif rising < len(elems) - 1:
            failures.append(Failure("not-saturated", (elems[rising], elems[rising + 1])))
        low, high = target.rank(elems[0]), target.rank(elems[-1])
        if low + high != total:
            failures.append(Failure("not-symmetric", (elems[0], elems[-1]), f"rank sum {low + high} != {total}"))
    for e in sorted(universe.keys() - counts.keys()):
        failures.append(Failure("not-covered", e))
    for e, c in counts.items():
        if c > 1:
            failures.append(Failure("double-covered", e, f"covered {c} times"))
    element_count = decomp.element_count()
    expected = target.expected_size()
    ok = not failures and element_count == expected and element_count == len(universe)
    return VerifyReport(ok, element_count, expected, tuple(failures))


def certify(target, decomp: Decomposition) -> Decomposition:
    """Return the decomposition if it verifies against the target; raise
    VerificationError with the report otherwise."""
    report = verify_decomposition(target, decomp)
    if not report.ok:
        raise VerificationError(report)
    return decomp


class RankProfile(_Record):
    __slots__ = ("counts", "symmetric", "unimodal")

    def __init__(self, counts: tuple[int, ...], symmetric: bool, unimodal: bool):
        _set(self, "counts", counts)
        _set(self, "symmetric", symmetric)
        _set(self, "unimodal", unimodal)


def rank_profile(counts) -> RankProfile:
    """Per-rank element counts with their palindrome and unimodality flags."""
    counts = tuple(counts)
    unimodal = True
    falling = False
    for a, b in zip(counts, counts[1:]):
        if b < a:
            falling = True
        elif b > a and falling:
            unimodal = False
            break
    return RankProfile(counts, counts == counts[::-1], unimodal)


class ProductTarget:
    """Cartesian product of two targets: elements are pairs and ranks add."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.total_rank = left.total_rank + right.total_rank

    def elements(self):
        rights = list(self.right.elements())
        return ((x, y) for x in self.left.elements() for y in rights)

    def rank(self, pair) -> int:
        return self.left.rank(pair[0]) + self.right.rank(pair[1])

    def failing_runs(self, runs) -> list[int]:
        """The indices, ascending, of the runs that do not ascend: a run ascends
        iff every element is a pair and each coordinate's sequence ascends in its
        own target; x <= x holds there, so a coordinate may stay put while the
        other rises.  Each coordinate's target tests, in one call, the runs that
        have not failed before it."""
        runs = [tuple(run) for run in runs]
        failing = {i for i, run in enumerate(runs) if any(type(p) is not tuple or len(p) != 2 for p in run)}
        for side, target in enumerate((self.left, self.right)):
            failing.update(target.failing_runs([() if i in failing else tuple([p[side] for p in run])
                                                for i, run in enumerate(runs)]))
        return sorted(failing)

    def expected_size(self) -> int:
        return self.left.expected_size() * self.right.expected_size()


__all__ = [
    "Failure",
    "ProductTarget",
    "RankProfile",
    "VerificationError",
    "VerifyReport",
    "certify",
    "rank_profile",
    "verify_decomposition",
]
