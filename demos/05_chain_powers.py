"""Powers of a chain modulo rotating the coordinates.

Level tuples embed into the subset lattice as blockwise monotone words, one
block per coordinate.  Every ambient chain lies inside the embedded power or
misses it entirely, so only the chains inside the power need to be pruned.
"""

from scdforge import ChainPowerTarget, bit_string, chainpower_scd, chainproduct_scd, verify_decomposition
from scdforge.chainpow import check_dichotomy, level_mask

k, m = 3, 3  # a 3-level chain, cubed
n = (k - 1) * m
print(f"embedding levels 0..{k - 1} per coordinate into B_{n}:")
for levels in [(0, 0, 0), (2, 0, 1), (1, 1, 2)]:
    print(f"  {levels} -> {bit_string(level_mask(levels, k), n)}")

print(f"\nevery ambient chain is all-in or all-out: {check_dichotomy(k, m)}")

decomp = chainpower_scd(k, m, 1)
print(f"\nquotient by rotating all {m} coordinates:"
      f" {len(decomp.chains)} chains over {decomp.element_count()} orbits")
for c in decomp.chains:
    print("  " + " < ".join(str(u) for u in c.elements))

report = verify_decomposition(ChainPowerTarget(k, m, 1), decomp)
print(f"\nindependent verification: {report.summary()}")

# products of different chain powers fold together with hooks
prod = chainproduct_scd([(3, 2, 1), (2, 2, 1)])
print(f"\n(3-chain)^2 modulo swap, times (2-chain)^2 modulo swap:"
      f" {prod.element_count()} elements, sizes {sorted(prod.chain_sizes(), reverse=True)}")
