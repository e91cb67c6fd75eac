"""Exact arithmetic, classification and monomial representations of real
quasi-Clifford algebra presentations, plus the plug-in Hadamard pipeline
built on top of them."""

from .decompose import Central, Decomposition, HyperbolicPair, form_matrix, radical_dimension
from .errors import CapExceeded, VerificationError
from .gf2 import Gf2Matrix
from .hadamard import (
    HadamardBundle,
    TransversalSpec,
    VerificationReport,
    complete,
    lambda_of_transversal,
    plug_in,
    transversal,
    verify_bundle,
)
from .matrices import (
    DenseSignMatrix,
    MonomialMatrix,
    sylvester,
)
from .presentation import (
    AlgebraPresentation,
    SignedMonomial,
    clifford_presentation,
    quaternion_presentation,
)
from .represent import (
    Representation,
    build_irrep,
    character_length,
    minimal_images,
    pushforward,
    zero_character,
)
from .solve import (
    HurwitzRadonReport,
    LambdaPattern,
    SolveResult,
    check_hr_bound,
    presentation_from,
    rho,
    verify_solution,
)
from .structure import (
    StructureCase,
    WedderburnType,
    classification_grid,
    classify,
    classify_presentation,
    compact_label,
    irrep_dimension_rows,
    table_entry,
    tensor_presentation,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraPresentation",
    "CapExceeded",
    "Central",
    "Decomposition",
    "DenseSignMatrix",
    "Gf2Matrix",
    "HadamardBundle",
    "HurwitzRadonReport",
    "HyperbolicPair",
    "LambdaPattern",
    "MonomialMatrix",
    "Representation",
    "SignedMonomial",
    "SolveResult",
    "StructureCase",
    "TransversalSpec",
    "VerificationError",
    "VerificationReport",
    "WedderburnType",
    "build_irrep",
    "character_length",
    "check_hr_bound",
    "classification_grid",
    "classify",
    "classify_presentation",
    "clifford_presentation",
    "compact_label",
    "complete",
    "form_matrix",
    "irrep_dimension_rows",
    "lambda_of_transversal",
    "minimal_images",
    "plug_in",
    "presentation_from",
    "pushforward",
    "quaternion_presentation",
    "radical_dimension",
    "rho",
    "sylvester",
    "table_entry",
    "tensor_presentation",
    "transversal",
    "verify_bundle",
    "verify_solution",
    "zero_character",
]
