"""Exception types shared across the package.

Every contract violation gets its own class so callers (and the CLI) can
tell refutations, bad input, and exhausted searches apart.
"""


class PackpolyError(Exception):
    """Base class for all library-specific failures."""


class OddNumerator(PackpolyError):
    """A half-integer polynomial form did not evaluate to an integer."""


class InvalidM(PackpolyError, ValueError):
    """Region counts need a scale parameter m >= 2."""


class NotOddPrime(PackpolyError, ValueError):
    """Legendre symbol needs an odd prime modulus."""


class ZeroInput(PackpolyError, ValueError):
    """An argument that must be nonzero was zero."""


class FactorizationTooHard(PackpolyError):
    """Trial division gave up before the number was fully factored."""


class ModuliNotCoprime(PackpolyError, ValueError):
    """Chinese remaindering needs pairwise coprime moduli."""


class NotCoprime(PackpolyError, ValueError):
    """Arithmetic-progression prime search needs gcd(s, M) = 1."""


class BudgetExhausted(PackpolyError):
    """A bounded search ran out of candidates before succeeding."""


class IsSquare(PackpolyError, ValueError):
    """Non-residue construction is impossible for perfect squares."""


class NotQuadratic(PackpolyError, ValueError):
    """The candidate has no quadratic part at all."""


class SearchExhausted(PackpolyError):
    """A bounded witness search found nothing within its configured box."""


class CrossCheckFailed(PackpolyError):
    """Two independent computations disagreed: a bug, not a spent budget."""


class DimensionTooSmall(PackpolyError, ValueError):
    """Linear refutation needs at least two variables."""


class NotInSector(PackpolyError, ValueError):
    """The point lies outside the rational sector."""


class InvalidSectorSpec(PackpolyError, ValueError):
    """Sector parameters must satisfy 1 <= r < s with gcd(r, s) = 1."""


class SectorDivisibilityError(InvalidSectorSpec):
    """Sector parameters must additionally satisfy r | s - 1."""


class FrontierNotClosed(PackpolyError):
    """The brute-force frontier could not certify the requested value range."""
