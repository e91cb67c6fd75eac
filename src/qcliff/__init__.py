"""Exact arithmetic, classification and monomial representations of real
quasi-Clifford algebra presentations, plus the plug-in Hadamard pipeline
built on top of them.

The names below are the pipeline's entry points; everything else is
imported from its module (``qcliff.decompose``, ``qcliff.structure``, ...).
"""

from .errors import CapExceeded, VerificationError
from .hadamard import complete, verify_bundle
from .matrices import MonomialMatrix
from .presentation import AlgebraPresentation, SignedMonomial
from .represent import minimal_images
from .solve import LambdaPattern, rho
from .structure import classify_presentation

__version__ = "0.1.0"

__all__ = [
    "AlgebraPresentation",
    "CapExceeded",
    "LambdaPattern",
    "MonomialMatrix",
    "SignedMonomial",
    "VerificationError",
    "classify_presentation",
    "complete",
    "minimal_images",
    "rho",
    "verify_bundle",
]
