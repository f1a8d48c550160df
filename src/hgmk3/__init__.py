"""hgmk3: finite-field hypergeometric sums and K3 point-count verification.

The package evaluates the finite hypergeometric sums attached to the data
(1/4,1/2,3/4; 0,0,0) and (1/6,5/6; 1/4,3/4), counts points on the associated
affine quartic surfaces and elliptic K3 fibrations by independent methods, and
machine-checks the identities, lattice statements, tables and explicit
coordinate changes that tie them together.
"""

from .charsum import CharacterSystem, get_character_system
from .cmdata import classify_t, cm_trace_survey, verify_quadratic_cm, verify_rational_cm
from .ecount import (
    WeierstrassCurve,
    count_points,
    e1_e2,
    trace,
    verify_curve_trace_theorem,
)
from .ffield import FieldSpec, FqElem, dlog, field_new, quadratic_character, sqrt
from .geomver import (
    j_invariants_pair,
    j_match_check,
    kodaira_profile,
    verify_Qt_on_curve,
    verify_chain_psi,
    verify_map,
    verify_si_parameters,
    x0_2_checks,
)
from .hyperg import HGDatum, datum_from_parameters, hg_H2, hg_H3, hg_sum
from .k3count import (
    count_affine,
    count_elliptic_surface,
    trace_transcendental,
    verify_bcm_identity,
    verify_main_identity,
    verify_point_count_lemma,
    verify_trace_corollary,
)
from .nslat import (
    GramLattice,
    SectionProfile,
    delta_enumeration,
    height,
    ns_cm_gram,
    ns_gram_generic,
    u2_complement,
    verify_table5,
)

__all__ = [
    "CharacterSystem",
    "FieldSpec",
    "FqElem",
    "GramLattice",
    "HGDatum",
    "SectionProfile",
    "WeierstrassCurve",
    "classify_t",
    "cm_trace_survey",
    "count_affine",
    "count_elliptic_surface",
    "count_points",
    "datum_from_parameters",
    "delta_enumeration",
    "dlog",
    "e1_e2",
    "field_new",
    "get_character_system",
    "height",
    "hg_H2",
    "hg_H3",
    "hg_sum",
    "j_invariants_pair",
    "j_match_check",
    "kodaira_profile",
    "ns_cm_gram",
    "ns_gram_generic",
    "quadratic_character",
    "sqrt",
    "trace",
    "trace_transcendental",
    "u2_complement",
    "verify_Qt_on_curve",
    "verify_bcm_identity",
    "verify_chain_psi",
    "verify_curve_trace_theorem",
    "verify_main_identity",
    "verify_map",
    "verify_point_count_lemma",
    "verify_quadratic_cm",
    "verify_rational_cm",
    "verify_si_parameters",
    "verify_table5",
    "verify_trace_corollary",
    "x0_2_checks",
]
__version__ = "0.1.0"
