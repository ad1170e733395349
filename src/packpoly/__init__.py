"""Exact packing polynomials on lattice domains.

Packing (pairing) polynomials map a lattice domain bijectively onto the
nonnegative integers.  This package provides the two classical quadratic
packings of the quadrant with exact inverses, m-dimensional packing by
composition, packing pairs for rational sectors, and a certificate-
producing classifier that decides whether a candidate quadratic packs
the quadrant, with independent verification for every verdict.
"""

from .bruteforce import (
    PackingVerdict,
    quadrant_box_points,
    verify_packing_bruteforce,
    verify_quadratic_packing,
    verify_sector_packing,
)
from .classifier import (
    CantorMatch,
    Certificate,
    Collision,
    Gap,
    LinearSubject,
    ModularGap,
    StructuralFail,
    classify,
    refute_linear,
    search_quadratics,
    verify_certificate,
    verify_linear_collision,
)
from .errors import (
    BudgetExhausted,
    CrossCheckFailed,
    DimensionTooSmall,
    FactorizationTooHard,
    FrontierNotClosed,
    InvalidM,
    InvalidSectorSpec,
    IsSquare,
    ModuliNotCoprime,
    NotCoprime,
    NotInSector,
    NotOddPrime,
    NotQuadratic,
    OddNumerator,
    PackpolyError,
    SearchExhausted,
    SectorDivisibilityError,
    ZeroInput,
)
from .numtheory import (
    NonResidueCertificate,
    SquareDecomposition,
    crt,
    is_prime,
    is_square,
    jacobi,
    least_nonresidue_prime,
    legendre,
    nonresidue_prime,
    prime_in_ap,
    square_decompose,
)
from .pairing import (
    cantor1,
    cantor1_inverse,
    cantor2,
    cantor2_inverse,
    pack_m,
    triangular,
    triangular_root,
    unpack_m,
)
from .quadratic import (
    CANTOR1,
    CANTOR2,
    QuadPoly2,
    RegionCounts,
    SquareCompletion,
    ValidationCheck,
    diagonal_tail_min,
    gap_box_bound,
    is_positive_definite_on_quadrant,
    quadrant_outside_min,
    region_counts,
    square_completion,
    validate,
)
from .sector import (
    SectorSpec,
    sector_F,
    sector_G,
    sector_contains,
    sector_enumerate,
    sector_evaluate,
    sector_tail_min,
    sector_unpack,
)
from .serialize import (
    document_from_json,
    document_to_json,
    make_document,
    verify_document,
)

__version__ = "0.1.0"
