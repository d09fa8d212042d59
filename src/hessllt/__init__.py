"""Exact-arithmetic chromatic/LLT symmetric functions for unit interval
graphs, with moment-graph cohomology models, permutohedron face modules,
and coinvariant algebras, all with exact rational coefficients: each
polynomial in q holds integer numerators over one shared denominator.
"""

from .combinat import (
    all_permutations,
    class_representative,
    compose,
    cycle_type,
    inverse,
    partitions_of,
)
from .characters import (
    frobenius_char,
    frobenius_inverse,
    induced_young,
    regular_character,
    sign_character,
    trivial_character,
)
from .errors import BudgetExceededError, PoleError
from .gkm import (
    EquivariantClass,
    GkmModel,
    GkmSpace,
    betti_numbers,
    degree_piece,
    equivariant_palindromicity_check,
    gkm_report,
    localization_pushforward,
    quotient_graded_character,
    xi_transport,
)
from .hessgraph import (
    HessenbergFunction,
    csf,
    hessenberg_all,
    llt,
    orientation_e_expansion,
    verify_identities,
)
from .permco import (
    PermutohedronFace,
    coinvariant_closed_form_check,
    coinvariant_graded_character,
    complete_graph_agreement,
    f_vector,
    face_and_h_series,
    face_module_character,
    face_module_twin_check,
    faces,
    permco_report,
    q_binomial_sum_check,
)
from .qrat import QPoly, QRat, format_poly
from .symfunc import SymFunc

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "EquivariantClass",
    "GkmModel",
    "GkmSpace",
    "HessenbergFunction",
    "PermutohedronFace",
    "PoleError",
    "QPoly",
    "QRat",
    "SymFunc",
    "all_permutations",
    "betti_numbers",
    "class_representative",
    "coinvariant_closed_form_check",
    "coinvariant_graded_character",
    "complete_graph_agreement",
    "compose",
    "csf",
    "cycle_type",
    "degree_piece",
    "equivariant_palindromicity_check",
    "f_vector",
    "face_and_h_series",
    "face_module_character",
    "face_module_twin_check",
    "faces",
    "format_poly",
    "frobenius_char",
    "frobenius_inverse",
    "gkm_report",
    "hessenberg_all",
    "induced_young",
    "inverse",
    "llt",
    "localization_pushforward",
    "orientation_e_expansion",
    "partitions_of",
    "permco_report",
    "q_binomial_sum_check",
    "quotient_graded_character",
    "regular_character",
    "sign_character",
    "trivial_character",
    "verify_identities",
    "xi_transport",
]
