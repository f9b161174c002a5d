"""Quotients by an involution: subsets up to reversing the word.

Each orbit {u v^rev, v u^rev} is named by a pair of half-words (u, v) with
u no later than v in a total order read off an SCD of the half cube.  Pairs
from two chains tile a rectangle (split by hooks); pairs from one chain form
a staircase triangle (peeled border by border).
"""

from scdforge import bit_string, reflection_scd, set_string
from scdforge.gk import gk_scd
from scdforge.reflect import build_blocks, scd_of_diagonal_block, standard_reflection

k = 3
blocks = build_blocks(k)
print(f"half cube B_{k} has {len(gk_scd(k).chains)} chains,"
      f" giving {len(blocks)} blocks and {sum(len(b.cells) for b in blocks)} orbit names")

diag = next(b for b in blocks if b.i == b.j == 0)
print(f"\npeeling the staircase over chain 0 (length {len(diag.rows)}):")
for grid in scd_of_diagonal_block(len(diag.rows) - 1):
    cells = " < ".join(
        f"({bit_string(diag.rows[x], k)},{bit_string(diag.rows[y], k)})" for x, y in grid
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
