"""Quotients by several disjoint cycle powers at once.

The ground set splits into the fixed points and the rotated blocks; each
block contributes its own cyclic quotient and the hook product glues the
factors back together.  The result is re-certified against the orbit poset
built by brute enumeration.
"""

from scdforge import burnside_count, parse_group_spec, quotient_scd, set_string
from scdforge.groups import factorize

n = 7
spec = parse_group_spec("(1 2 3 4)^2 (5 6)", n)
print(f"group on [{n}]: {spec.text()}, order {spec.order()}")

fixed, factors = factorize(n, spec)
print(f"fixed points: {set_string(fixed)}")
for f in factors:
    print(f"  rotated block {set_string(f.support_mask())}: step {f.exponent} of a {f.length}-cycle")

decomp = quotient_scd(n, spec)  # certifies itself before returning
print(f"\n{len(decomp.chains)} chains over {decomp.element_count()} orbits"
      f" (Burnside: {burnside_count(n, spec)})")
print(f"chain sizes: {sorted(decomp.chain_sizes(), reverse=True)}")
print(f"rank profile: {list(decomp.rank_counts())}")

for c in decomp.chains[:5]:
    print("  " + " < ".join(set_string(rep) for rep in c.elements))
print("  ...")

# an exponent that collapses to the identity leaves its support fixed
trivial = quotient_scd(4, "(1 2)^2")
print(f"\n(1 2)^2 is the identity: quotient is B_4 itself, {trivial.element_count()} elements")
