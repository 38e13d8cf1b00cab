"""Exact-integer toolkit for the symmetry groups of Z^d odometers and
constant-shape substitution subshifts."""

__version__ = "0.1.0"

from .intmat import (
    FundamentalDomain,
    HnfBasis,
    IntMatrix,
    fundamental_domain,
    hnf,
    integer_eigenvalues,
    is_expansion,
    parse_matrix,
    parse_vector,
    validate_domain,
)
from .odometer import (
    NcCertificate,
    nc_bounded_check,
    verify_nc_certificate,
)
from .classify2d import (
    MembershipVerdict,
    classify,
    is_member,
)
from .substitution import (
    ConstantShapeSubstitution,
    fixed_point_patch,
    half_hex,
    k_set,
    recognizability_check,
    sigma_L,
    supports,
    tau,
)
from .subshift_norm import (
    NLCertificate,
    NLRejection,
    apply_endomorphism,
    build_local_rule,
    composition_check,
    nl_membership,
    pullback_positions,
)

__all__ = [
    # intmat
    "FundamentalDomain", "HnfBasis", "IntMatrix", "fundamental_domain", "hnf",
    "integer_eigenvalues", "is_expansion", "parse_matrix", "parse_vector",
    "validate_domain",
    # odometer
    "NcCertificate", "nc_bounded_check", "verify_nc_certificate",
    # classify2d
    "MembershipVerdict", "classify", "is_member",
    # substitution
    "ConstantShapeSubstitution", "fixed_point_patch", "half_hex", "k_set",
    "recognizability_check", "sigma_L", "supports", "tau",
    # subshift_norm
    "NLCertificate", "NLRejection", "apply_endomorphism", "build_local_rule",
    "composition_check", "nl_membership", "pullback_positions",
]
