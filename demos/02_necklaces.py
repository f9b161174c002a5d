"""Necklace posets: subsets of [n] up to rotation, decomposed by pruning.

The chains of B_n are walked longest-first; a chain is kept when it still
reaches a fresh orbit and is trimmed to the members whose orbits are new.
The trimmed pieces project to symmetric chains of the quotient.
"""

from scdforge import (
    burnside_count,
    quotient_poset,
    quotient_scd_cyclic,
    rank_profile,
    set_string,
    verify_decomposition,
)
from scdforge.gk import ChainBottoms
from scdforge.groups import rank_counts
from scdforge.prune import prune_chains, rotation_group

n = 6
group = rotation_group(n, 1)
# the pass streams the chains from their sorted bottoms, rotates by one position,
# and checks its pieces against its own count of the necklaces; it names each
# subset by its word b_1...b_n read as a binary number
family = prune_chains(ChainBottoms(n), 1)
print(f"pruning B_{n} modulo full rotation:")
for pc in family.chains:
    kept = " < ".join(format(x, f"0{n}b") for x in pc.kept.elements)
    print(f"  chain {pc.source}: kept {kept}")

decomp = quotient_scd_cyclic(n, 1)
print(f"\n{len(decomp.chains)} chains cover {decomp.element_count()} necklaces"
      f" (Burnside says {burnside_count(n, group)})")
for c in decomp.chains:
    print("  " + " < ".join(set_string(rep) for rep in c.elements))

# the verifier recomputes ranks, comparability, and coverage from scratch
poset = quotient_poset(n, group)
report = verify_decomposition(poset, decomp)
print(f"\nindependent verification: {report.summary()}")

# the per-rank counts come from the cycle index, without enumerating the orbits
profile = rank_profile(rank_counts(n, group))
print(f"rank profile {list(profile.counts)}, symmetric={profile.symmetric}, unimodal={profile.unimodal}")

# subgroups of the rotation group: quotient by a half turn instead
half = quotient_scd_cyclic(6, 3)
print(f"\nmodulo rotation by 3: {len(half.chains)} chains over {half.element_count()} orbits")
