"""Symmetric chain decompositions of the Boolean lattice and its quotients.

Constructions: the Greene-Kleitman SCD of B_n, quotients of B_n by groups
generated by powers of disjoint cycles (by pruning), quotients by a product
of disjoint transpositions (by half-word blocks), rotation quotients of chain
powers (by restriction), and products of all of the above (by hooks).  Every
construction can be certified by a construction-independent verifier.
"""

from .chainpow import (
    ChainPowerTarget,
    ChainProductTarget,
    canonical_levels,
    chainpower_scd,
    chainproduct_scd,
    check_dichotomy,
    in_chain_power,
    level_mask,
    mask_levels,
)
from .core import (
    Chain,
    Context,
    Decomposition,
    GridChain,
    ResourceLimitError,
    bit_string,
    elements_of,
    full_mask,
    hook_chains,
    is_symmetric_chain,
    mask_of,
    product_scd,
    rank,
    set_string,
)
from .gk import (
    GkScd,
    Pairing,
    boolean_scd_on_support,
    chain_of,
    gk_decomposition,
    gk_scd,
    pairing,
    partner,
    predecessor,
    successor,
)
from .groups import (
    CycleFactor,
    GroupSpec,
    Orbit,
    ParseError,
    QuotientPoset,
    apply_perm,
    burnside_count,
    factorize,
    orbit,
    orbit_rep,
    parse_group_spec,
    quotient_poset,
)
from .prune import (
    PrunedFamily,
    check_shadow_closure,
    cyclic_rep,
    prune_chains,
    quotient_scd,
    quotient_scd_cyclic,
    rotate,
    rotation_group,
)
from .reflect import (
    PBlock,
    build_blocks,
    involution_group,
    reflection_scd,
    scd_of_diagonal_block,
    standard_reflection,
)
from .verify import (
    ProductTarget,
    VerificationError,
    VerifyReport,
    rank_profile,
    verify_decomposition,
)

__version__ = "0.1.0"
