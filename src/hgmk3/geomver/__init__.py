"""Probabilistic and exact verification of the explicit geometry."""

from .kodaira import (
    FibrationError,
    FibrationProfile,
    JPair,
    j_invariants_pair,
    j_match_check,
    j_pair_coefficients,
    kodaira_profile,
)
from .maps import CATALOG, PSI_CHAIN, RationalMap
from .sz import (
    CatalogError,
    MapReport,
    verify_Qt_on_curve,
    verify_all_maps,
    verify_chain_psi,
    verify_map,
    verify_si_parameters,
    x0_2_checks,
)

__all__ = [
    "CATALOG",
    "PSI_CHAIN",
    "CatalogError",
    "FibrationError",
    "FibrationProfile",
    "JPair",
    "MapReport",
    "RationalMap",
    "j_invariants_pair",
    "j_match_check",
    "j_pair_coefficients",
    "kodaira_profile",
    "verify_Qt_on_curve",
    "verify_all_maps",
    "verify_chain_psi",
    "verify_map",
    "verify_si_parameters",
    "x0_2_checks",
]
