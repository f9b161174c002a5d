"""Quotients by an involution: subsets up to reversing the word.

Each orbit {u v^rev, v u^rev} is named by a pair of half-words (u, v) with
u no later than v in a total order read off an SCD of the half cube.  Pairs
from two chains tile a rectangle (split by hooks); pairs from one chain form
a staircase triangle (peeled border by border).
"""

from scdforge import bit_string, reflection_scd, set_string
from scdforge.reflect import half_blocks, standard_reflection

k = 3
blocks = list(half_blocks(k))  # (chain i, chain j, grids), one chain object on the diagonal
diagonal = [(ci, grids) for ci, cj, grids in blocks if ci is cj]
print(f"half cube B_{k} has {len(diagonal)} chains,"
      f" giving {len(blocks)} blocks and {sum(len(g) for *_, grids in blocks for g in grids)} orbit names")

chain, grids = diagonal[0]
print(f"\npeeling the staircase over chain 0 (length {len(chain)}):")
for grid in grids:
    cells = " < ".join(
        f"({bit_string(chain.elements[x], k)},{bit_string(chain.elements[y], k)})" for x, y in grid
    )
    print(f"  {cells}")

n = 2 * k
decomp = reflection_scd(n, standard_reflection(n))  # certifies itself
print(f"\nB_{n} modulo word reversal: {len(decomp.chains)} chains,"
      f" {decomp.element_count()} orbits")
print(f"chain sizes: {sorted(decomp.chain_sizes(), reverse=True)}")

# transpositions need not be nested; fixed points ride along as a Boolean factor
other = reflection_scd(5, "(1 3)(4 5)")
print(f"\nB_5 modulo (1 3)(4 5): {len(other.chains)} chains over {other.element_count()} orbits")
for c in other.chains:
    print("  " + " < ".join(set_string(rep) for rep in c.elements))
