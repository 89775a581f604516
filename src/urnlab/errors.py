"""Exception taxonomy. Everything raised on purpose derives from UrnlabError."""


class UrnlabError(Exception):
    """Base class for all urnlab errors."""


class NonPositiveParameter(UrnlabError):
    """Rule parameters must satisfy alpha >= 1, beta >= 1 (counts >= 0)."""


class EmptyUrn(UrnlabError):
    """The initial configuration holds no balls."""


class CapacityExceeded(UrnlabError):
    """Building the table would exceed the configured memory budget."""


class OracleTooLarge(UrnlabError):
    """Brute-force enumeration requested beyond its cutoff."""


class RowMissing(UrnlabError):
    """The requested row is not present in the table."""


class UnsupportedInitialConfig(UrnlabError):
    """Operation requires the (a0, b0) = (0, 1) initial configuration."""


class PoleHit(UrnlabError):
    """Evaluation point coincides with a pole of the integrand."""


class ContourCrossesPole(UrnlabError):
    """The contour passes too close to a pole, or encloses one besides w=0."""


class QuadratureNotConverged(UrnlabError):
    """Adaptive refinement stalled before reaching the target tolerance, or
    the integral is too ill-conditioned for its arithmetic to reach it:
    float64 for the sector; for the circle, the mpmath digits its condition
    number still asks for more of after the last allowed raise."""


class OutOfInterval(UrnlabError):
    """Rate-function argument lies outside the admissible interval [t0, t1]."""


class EmptyTail(UrnlabError):
    """No support point lies in the requested tail."""


class InvalidTable(UrnlabError, ValueError):
    """A serialized history table failed validation (schema, spec, shape or row sums)."""
