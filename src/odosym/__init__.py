"""Exact-integer toolkit for the symmetry groups of Z^d odometers and
constant-shape substitution subshifts."""

__version__ = "0.1.0"

from .intmat import (  # noqa: F401
    FundamentalDomain,
    HnfBasis,
    IntMatrix,
    enumerate_subgroups,
    fundamental_domain,
    hnf,
    integer_eigenvalues,
    is_expansion,
    parse_matrix,
    parse_vector,
    reduce_vec,
    validate_domain,
)
from .odometer import (  # noqa: F401
    ChainBase,
    ConstantBase,
    NcCertificate,
    OdometerPoint,
    add,
    chain_nc_check,
    epimorphism_digits,
    kappa_embed,
    nc_bounded_check,
    nc_passes,
    nc_search,
    return_time_check,
    universal_chain,
)
from .classify2d import (  # noqa: F401
    MembershipVerdict,
    centralizer,
    classify,
    is_member,
    virtually_z_family,
)
from .substitution import (  # noqa: F401
    ConstantShapeSubstitution,
    Patch,
    fixed_point_patch,
    folner_defect,
    half_hex,
    k_set,
    recognizability_check,
    sigma_L,
    substitute,
    supports,
    tau,
)
from .subshift_norm import (  # noqa: F401
    NLCertificate,
    NLRejection,
    apply_endomorphism,
    build_local_rule,
    composition_check,
    conjugate_power,
    fiber_points,
    nl_membership,
    pi_factor,
)
