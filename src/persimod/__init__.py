"""Exact persistence-module calculus: interval barcodes over a scalar
field, hom-constrained morphisms, interleaving distances with verified
certificates, tower colimits with error bounds, Cauchy completion,
sublevel spectral numbers, and sampled-set cone geometry.
"""

from .intervals import DEG0, DEG1, ZERO, ExtRat, Interval, NEG_INF, POS_INF, hom, leq
from .fields import GF2, QQ, PrimeField, RationalField, field_by_name
from .barcodes import Bar, Barcode
from .morphisms import Morphism, compose, identity, tau_morphism
from .canonical import (
    CanonicalFormResult,
    DiagonalizationError,
    InductiveSystem,
    StageDiagonalization,
    canonical_form,
    diagonalize_system,
)
from .interleaving import (
    DistanceReport,
    InterleavingCertificate,
    check_interleaving,
    gamma,
    gamma_symmetric,
)
from .limits import (
    Chain,
    CompletionError,
    CompletionResult,
    HocolimResult,
    ToleranceError,
    complete_cauchy,
    cone_diagonal,
    defect_check,
    gamma_to_zero,
    hocolim,
)
from .spectral import (
    PLFunction,
    SpectralReport,
    left_infinite_form,
    spectral_invariants,
    sublevel_barcode,
)

__version__ = "0.1.0"
