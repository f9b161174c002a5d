"""Acceptance suite: one test per exit criterion, every tolerance exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its measured time against the stated target.
"""

import math
import random
import time

from oracles import chain_index, generators, naive_orbits, rotate, shadow_closure_failures
from scdforge.chainpow import (
    ChainPowerTarget,
    chainpower_scd,
    check_dichotomy,
)
from scdforge.cli import run
from scdforge.core import mask_of, product_scd
from scdforge.gk import gk_decomposition, gk_scd, pairing, partner
from scdforge.groups import (
    CycleFactor,
    GroupSpec,
    burnside_count,
    necklace_ranks,
    quotient_poset,
)
from scdforge.prune import (
    quotient_scd,
    quotient_scd_cyclic,
    rotation_group,
)
from scdforge.reflect import involution_group, reflection_scd, standard_reflection
from scdforge.verify import ProductTarget, verify_decomposition


class Timer:
    def __init__(self, name, target_seconds):
        self.name = name
        self.target = target_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"acceptance {self.name}: PASS ({elapsed:.2f}s, target {self.target}s)")
            assert elapsed < self.target, f"{self.name} exceeded its time target"
        else:
            print(f"acceptance {self.name}: FAIL after {elapsed:.2f}s")


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_01_greene_kleitman_correctness():
    with Timer("01 greene-kleitman-correctness", 10):
        for n in range(1, 17):
            scd = gk_scd(n)
            assert len(scd.chains) == math.comb(n, n // 2)
            covered = 0
            for chain in scd.chains:
                assert [mask.bit_count() for mask in chain.elements] == list(range(chain.rank, chain.rank + len(chain)))
                assert 2 * chain.rank + len(chain) - 1 == n
                covered += len(chain)
            assert covered == 1 << n
            assert len({mask for chain in scd.chains for mask in chain.elements}) == 1 << n


def test_02_bracketing_facts():
    with Timer("02 bracketing-facts", 30):
        for n in range(1, 15):
            full = (1 << n) - 1
            for chain in gk_scd(n).chains:
                bottom = chain.elements[0]
                base = pairing(bottom, n)
                assert bottom == base.paired_members
                assert chain.elements[-1] == full & ~base.paired_nonmembers
                free = [i for i in range(1, n + 1) if not base.paired >> (i - 1) & 1]
                acc = bottom
                expected = [bottom]
                for i in free:
                    acc |= 1 << (i - 1)
                    expected.append(acc)
                assert list(chain.elements) == expected
                for a in chain.elements:
                    p = pairing(a, n)
                    assert p.paired_members == base.paired_members
                    assert p.partner == base.partner
                    for x, y in p.partner.items():
                        span = range(y, x + 1)
                        assert all(p.paired >> (i - 1) & 1 for i in span)
                        assert sum(a >> (i - 1) & 1 for i in span) * 2 == len(span)


def test_03_partner_commutes_with_rotation():
    with Timer("03 partner-rotation-commutation", 30):
        for n in range(1, 15):
            scd = gk_scd(n)
            index = chain_index(scd)
            half = n // 2
            for chain in scd.chains:
                for x in chain.elements:
                    if x.bit_count() > half:
                        break
                    mirror = partner(x, chain)
                    shifted = rotate(x, 1, n)
                    target_chain = scd.chains[index[shifted]]
                    assert partner(shifted, target_chain) == rotate(mirror, 1, n)


def test_04_predecessor_shadow_closure():
    with Timer("04 predecessor-shadow-closure", 60):
        for n in range(1, 13):
            scd = gk_scd(n)
            for step in divisors(n):
                assert shadow_closure_failures(scd, step) == [], (n, step)


def test_05_cycle_power_quotients():
    with Timer("05 cycle-power-quotients", 300):
        for n in range(1, 15):
            for step in divisors(n):
                decomp = quotient_scd_cyclic(n, step)
                group = rotation_group(n, step)
                report = verify_decomposition(quotient_poset(n, group), decomp)
                assert report.ok, (n, step, report.summary())
                assert report.element_count == burnside_count(n, group)

        rng = random.Random(20260811)
        cases = 0
        while cases < 50:
            n = rng.randint(6, 14)
            elements = list(range(1, n + 1))
            rng.shuffle(elements)
            factors = []
            pos = 0
            while pos < n and len(factors) < 4:
                length = rng.randint(1, min(6, n - pos))
                cycle = tuple(elements[pos : pos + length])
                exponent = rng.randint(0, length + 2)
                factors.append(CycleFactor(cycle, exponent))
                pos += length
                if rng.random() < 0.3:
                    break
            group = GroupSpec(n, tuple(factors))
            decomp = quotient_scd(n, group)  # certifies internally
            assert decomp.element_count() == burnside_count(n, group)
            cases += 1


def test_06_regression_fixtures():
    with Timer("06 regression-fixtures", 60):
        necklace = quotient_scd_cyclic(4, 1)
        assert [c.elements for c in necklace.chains] == [(0, 1, 3, 7, 15), (5,)]
        assert sorted(necklace.chain_sizes(), reverse=True) == [5, 1]

        half_turn = quotient_scd_cyclic(4, 2)
        assert [c.elements for c in half_turn.chains] == [
            (0, 1, 3, 7, 15),
            (2, 6, 11),
            (5,),
            (10,),
        ]
        assert sorted(half_turn.chain_sizes(), reverse=True) == [5, 3, 1, 1]

        reflected = reflection_scd(4, "(1 4)(2 3)")
        assert [c.elements for c in reflected.chains] == [
            (0, 1, 3, 11, 15),
            (2, 5, 7),
            (mask_of([2, 3]),),
            (mask_of([1, 4]),),
        ]
        assert sorted(reflected.chain_sizes(), reverse=True) == [5, 3, 1, 1]

        squared = chainpower_scd(3, 2, 1)
        assert [c.elements for c in squared.chains] == [
            ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2)),
            ((1, 1),),
        ]
        assert sorted(squared.chain_sizes(), reverse=True) == [5, 1]

        # cross-check the covered orbit sets against a dumb closure
        rot = rotation_group(4, 1)
        assert {e for c in necklace.chains for e in c.elements} == {
            min(orb) for orb in naive_orbits(4, generators(rot))
        }
        half = rotation_group(4, 2)
        assert {e for c in half_turn.chains for e in c.elements} == {
            min(orb) for orb in naive_orbits(4, generators(half))
        }
        two = involution_group(4, [(1, 4), (2, 3)])
        assert {e for c in reflected.chains for e in c.elements} == {
            min(orb) for orb in naive_orbits(4, generators(two))
        }


def test_07_reflection_quotients():
    with Timer("07 reflection-quotients", 120):
        for n in range(2, 17, 2):
            rho = standard_reflection(n)
            decomp = reflection_scd(n, rho)  # certifies internally
            assert decomp.element_count() == (2**n + 2 ** (n // 2)) // 2

        rng = random.Random(20260812)
        cases = 0
        while cases < 20:
            n = rng.randint(5, 14)
            k = rng.randint(1, (n - 1) // 2)
            elements = list(range(1, n + 1))
            rng.shuffle(elements)
            pairs = [
                (elements[2 * i], elements[2 * i + 1]) for i in range(k)
            ]
            rho = GroupSpec(n, tuple(CycleFactor((a, b)) for a, b in pairs))
            decomp = reflection_scd(n, rho)  # certifies internally
            two = involution_group(n, [(min(p), max(p)) for p in pairs])
            assert decomp.element_count() == burnside_count(n, two)
            cases += 1


def test_08_chain_powers():
    with Timer("08 chain-powers", 120):
        for n in range(1, 19):
            for d in divisors(n):
                assert check_dichotomy(d + 1, n // d), (d + 1, n // d)

        built = {}
        for n in range(1, 17):
            for d in divisors(n):
                k, m = d + 1, n // d
                for r in range(1, m + 1):
                    step = math.gcd(r, m)
                    decomp = chainpower_scd(k, m, r)
                    if (k, m, step) in built:
                        # rotation steps with the same gcd generate the same
                        # group, and the construction normalizes first
                        assert decomp == built[(k, m, step)]
                        continue
                    built[(k, m, step)] = decomp
                    report = verify_decomposition(ChainPowerTarget(k, m, r), decomp)
                    assert report.ok, (k, m, r, report.summary())
                    assert report.element_count == sum(necklace_ranks(k, m, step))


def test_09_products_reverify():
    with Timer("09 product-construction", 60):
        pool = []

        def add(decomp, target):
            assert verify_decomposition(target, decomp).ok
            pool.append((decomp, target))

        for a in range(2, 10):
            add(gk_decomposition(a), quotient_poset(a, GroupSpec.trivial(a)))
        for n, step in [(4, 1), (5, 1), (6, 1), (6, 2), (8, 2), (10, 1)]:
            add(
                quotient_scd_cyclic(n, step),
                quotient_poset(n, rotation_group(n, step)),
            )
        for k, m in [(3, 2), (2, 4), (4, 2)]:
            add(chainpower_scd(k, m, 1), ChainPowerTarget(k, m, 1))

        rng = random.Random(20260813)
        cases = 0
        while cases < 24:
            (dp, tp), (dq, tq) = rng.choice(pool), rng.choice(pool)
            if tp.expected_size() * tq.expected_size() > 1 << 18:
                continue
            prod = product_scd(dp, dq)
            report = verify_decomposition(ProductTarget(tp, tq), prod)
            assert report.ok, report.summary()
            assert report.element_count <= 1 << 20
            cases += 1


def test_10_cli_determinism(capsysbinary):
    with Timer("10 cli-determinism", 60):
        commands = [
            ["gk", "--n", "6"],
            ["quotient", "--n", "6", "--group", "(1 2 3 4 5 6)^2"],
            ["quotient", "--n", "7", "--group", "(1 2 3)(4 5 6 7)^2"],
            ["reflect", "--n", "6", "--group", "(1 6)(2 5)(3 4)"],
            ["chainpower", "--k", "4", "--m", "3", "--r", "1"],
        ]
        for argv in commands:
            assert run(argv) == 0
            first = capsysbinary.readouterr().out
            assert run(argv) == 0
            second = capsysbinary.readouterr().out
            assert first == second and first.endswith(b"\n")
