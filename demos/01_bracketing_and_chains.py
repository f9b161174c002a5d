"""Walk through the bracket matching that builds the chains of B_n.

A subset of [n] is a binary word; members close brackets, non-members open
them.  The matched positions freeze along a chain while the free positions
are added bottom-up, smallest first.
"""

from scdforge import bit_string, mask_of
from scdforge.gk import chain_of, gk_scd, pairing, partner, predecessor, successor

n = 6
a = mask_of([2, 3, 6])
print(f"word {bit_string(a, n)}  (the subset {{2,3,6}})")

p = pairing(a, n)
print(f"matched member -> partner: {p.partner}")
print(f"free positions stay unmatched: {bit_string(p.paired, n)} marks the matched ones")

# climb to the top of the chain, one smallest free non-member at a time
cur = a
while (up := successor(cur, n)) is not None:
    print(f"  {bit_string(cur, n)} -> {bit_string(up, n)}")
    cur = up
print(f"top of chain: {bit_string(cur, n)}")

# and back down: the largest unmatched member leaves first
while (down := predecessor(cur, n)) is not None:
    cur = down
print(f"bottom of chain: {bit_string(cur, n)}")

chain = chain_of(a, n)
print("\nfull chain through the word:")
for mask in chain:
    print(f"  {bit_string(mask, n)}")

# the whole lattice decomposes into symmetric chains, longest first
scd = gk_scd(4)
print(f"\nB_4 splits into {len(scd.chains)} symmetric chains:")
for c in scd.chains:
    print("  " + " < ".join(bit_string(m, 4) for m in c.elements))

# mirror elements pair off within each chain
top = scd.chains[0]
for x in top.elements:
    print(f"partner of {bit_string(x, 4)} is {bit_string(partner(x, top), 4)}")
