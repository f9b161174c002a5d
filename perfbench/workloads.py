"""Seeded workloads for the scdforge benchmark.

A workload is a list of CLI commands run one after another, each in a fresh
process.  The seed only changes the arguments the program receives; the
expected size of every output is computed here from the shape of the input,
by Burnside's lemma, without importing scdforge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

DEFAULT_SEED = 0

# (cycle length, exponent) per generator; the rest of [N] is fixed.
N = 18
ROTATION = ((18, 1),)
MULTIFACTOR = ((6, 1), (6, 2), (4, 1))
TRANSPOSITIONS = 9
GK_N = 16
CHAIN_POWERS = ((3, 8), (5, 4), (4, 6), (2, 16))


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy.

    `reads` names an earlier command of the same pass whose document is
    passed as `--input`; such a command prints a verdict, not a document.
    """

    name: str
    argv: tuple[str, ...]
    expected_elements: int
    reads: str | None = None


def cycle_power_orbits(n: int, factors) -> int:
    """Orbits of subsets of [n] under powers of disjoint cycles.

    The group is a direct product of one cyclic group per cycle, so the count
    is 2^(fixed points) times the necklace count of each cycle.
    """
    count = 1 << (n - sum(length for length, _ in factors))
    for length, exponent in factors:
        count *= necklaces(2, length, gcd(exponent, length))
    return count


def necklaces(k: int, m: int, step: int) -> int:
    """Orbits of [k]^m under rotation by multiples of step (step divides m)."""
    order = m // step
    return sum(k ** gcd(j * step, m) for j in range(order)) // order


def _cycle_text(cycle, exponent: int) -> str:
    text = "(" + " ".join(str(x) for x in cycle) + ")"
    return text if exponent == 1 else f"{text}^{exponent}"


def conjugated_group(factors, sigma) -> str:
    """Group spec of the cycle powers laid out on 1..N, relabelled by sigma.

    Conjugating by a permutation keeps the orbit structure and the cost of
    every construction and changes only which masks appear.
    """
    parts, start = [], 1
    for length, exponent in factors:
        cycle = [sigma[x - 1] for x in range(start, start + length)]
        parts.append(_cycle_text(cycle, exponent))
        start += length
    return " ".join(parts)


def _seeded_perm(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(1, n + 1), n)


def _units(m: int) -> list[int]:
    return [r for r in range(1, m + 1) if gcd(r, m) == 1]


def quotients(rng: random.Random) -> list[Command]:
    rotation = conjugated_group(ROTATION, _seeded_perm(rng, N))
    multifactor = conjugated_group(MULTIFACTOR, _seeded_perm(rng, N))
    sigma = _seeded_perm(rng, N)
    pairs = sorted(tuple(sorted((sigma[t], sigma[N - 1 - t]))) for t in range(TRANSPOSITIONS))
    involution = "".join(f"({a} {b})" for a, b in pairs)
    return [
        Command("rotation18", ("quotient", "--n", str(N), "--group", rotation),
                cycle_power_orbits(N, ROTATION)),
        Command("multifactor18", ("quotient", "--n", str(N), "--group", multifactor),
                cycle_power_orbits(N, MULTIFACTOR)),
        Command("reflection18", ("reflect", "--n", str(N), "--group", involution),
                ((1 << N) + (1 << (N - TRANSPOSITIONS))) // 2),
    ]


def roundtrip(rng: random.Random) -> list[Command]:
    return [
        Command("gk16", ("gk", "--n", str(GK_N)), 1 << GK_N),
        Command("verify-gk16", ("verify",), 1 << GK_N, reads="gk16"),
    ]


def chain_powers(rng: random.Random) -> list[Command]:
    # r is drawn among the units mod m: gcd(r, m) fixes the group, and with it
    # the element count and the cost, so every seed measures the same work.
    commands = []
    for k, m in CHAIN_POWERS:
        r = rng.choice(_units(m))
        commands.append(Command(f"chainpower-{k}x{m}",
                                ("chainpower", "--k", str(k), "--m", str(m), "--r", str(r)),
                                necklaces(k, m, 1)))
    return commands


WORKLOADS = {
    "quotients": quotients,
    "roundtrip": roundtrip,
    "chain-powers": chain_powers,
}


def commands_for(workload: str, seed: int) -> list[Command]:
    """The workload's commands for this seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(seed))
