"""Symmetric chain decompositions of the Boolean lattice and its quotients.

Constructions: the Greene-Kleitman SCD of B_n, quotients of B_n by groups
generated by powers of disjoint cycles (by pruning), quotients by a product
of disjoint transpositions (by half-word blocks), rotation quotients of chain
powers (by restriction), and products of all of the above (by hooks).  Every
construction can be certified by a construction-independent verifier.

The package exports the construct and verify API.  Documents live in
scdforge.cli; the exposition helpers (bracket pairings, chain walks, level
embeddings, the half-cube block walk that the reflection builder runs, orbit
listings) stay in the modules that define them.
"""

from .chainpow import ChainPowerTarget, ChainProductTarget, chainpower_scd, chainproduct_scd
from .core import (
    Chain,
    Context,
    Decomposition,
    ResourceLimitError,
    bit_string,
    mask_of,
    product_scd,
    set_string,
)
from .gk import gk_decomposition
from .groups import GroupSpec, ParseError, QuotientPoset, burnside_count, parse_group_spec, quotient_poset
from .prune import quotient_scd, quotient_scd_cyclic
from .reflect import involution_group, reflection_scd
from .verify import ProductTarget, VerificationError, VerifyReport, rank_profile, verify_decomposition

__version__ = "0.1.0"
