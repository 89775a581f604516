"""Coefficient extraction by numerical contour integration.

The n-th series coefficient at a fixed x is

    sigma^(n+1) / (2*pi*i) * closed integral of a_x(w) * h_x(w)^(n+1) dw

around w = 0, where (with S = sigma*(x^-alpha - 1)/(alpha+beta), v = 1 - w)

    h_x(w) = 1 / (1 + S - v^(alpha+beta) * (S + v^alpha))
    a_x(w) = v^(alpha+beta-2) * (x^-alpha - 1 + v^alpha)

h_x has sigma poles (the roots of the denominator, one always at w = 0;
simple unless x^alpha = sigma/alpha, where 1 + S = 0 puts a pole of order
alpha+beta at w = 1) and sigma - 1 saddle points: w = 1 with multiplicity
alpha+beta-1 and the alpha points 1 - gamma with gamma^alpha = 1 - x^-alpha,
which coalesce into w = 1 as x -> 1.

Two contours are implemented:

* "sector": two rays leaving w = 1 at angles +-pi*(sigma-1)/sigma, joined by
  the circular arc about w = 1 through their endpoints.  The ray is
  parametrized by t via w = 1 + (t/n)^(1/sigma) * e^(i*theta); quadrature
  runs in the regularized variable s = t^(1/sigma), in which the integrand
  is analytic at the saddle endpoint.  h_x(1)^(n+1) is factored out of the
  integrand and the value is put together in log scale, so only a value
  truly past float64's normal range is refused.  Valid only when no pole
  besides w = 0 lies inside the wedge or near its boundary — true for x
  near 1, false in general (e.g. alpha=3, beta=2, x=2 puts a real pole at
  w ~ 0.095 inside any such wedge).  It runs in float64, Gauss-Legendre
  panels node by node on Python complex numbers.
* "circle": the trapezoid rule on |w| = r, where r is the smallest
  nonzero |saddle| (for x > 1 the dominant saddle 1 - gamma), or half the
  nearest nonzero pole's modulus when that saddle lies outside it.  On a
  circle through the saddle the rule is spectrally accurate (Bornemann
  2011; Trefethen & Weideman 2014); nodes double from 64 until two passes
  agree to _REL_TOL.  One loop serves float64 and mpmath: each term is
  a_x(w) w (q/m)^(n+1), q = den(r)/den(w) and m the largest |q| so far, so
  no power overflows, and the value is put together in log scale.

Both measure the condition number kappa = (integral of |F| |dw|) /
|closed integral of F dw|: h_x^(n+1) carries n+1 times the rounding of h_x,
and the cancellation multiplies it by kappa.  The sector refuses
(QuadratureNotConverged, naming kappa) when (n+1) * kappa * eps > _REL_TOL,
as when it misses the dominant saddle at x > 1.  The circle picks its
arithmetic from kappa instead: float64 while (n+1) * kappa * eps <= _REL_TOL,
else mpmath at dps = 17 + ceil(log10((n+1) * kappa / _REL_TOL)), raised by
at least 17 digits (at most _MAX_DPS_RAISES times in all) whenever a
doubling's kappa asks for more; a circle where h_x's denominator is past
float64's normal range (large |x|) starts in mpmath.  Only then is mpmath
imported, into a private context: the global mpmath.mp is left alone.  The
float64 contours and the poles (Aberth-Ehrlich iteration on the
denominator) use only Python complex, cmath and math: a contour command
loads neither numpy nor mpmath unless the circle goes to mpmath.
auto_contour() gives the contours to try, in order: the sector (when
geometrically valid), then the circle.  coefficient_auto() moves on past a
refusal by geometry or conditioning, never past an overflow or underflow,
which belongs to the value.
"""
from __future__ import annotations

import cmath
import functools
import math
import sys
from fractions import Fraction
from numbers import Rational
from typing import Callable, Optional, Sequence

from ._record import record
from .errors import (
    ContourCrossesPole,
    PoleHit,
    QuadratureNotConverged,
    UrnlabError,
)
from .urn import UrnSpec

_POLE_EVAL_TOL = 1e-12  # |denominator| below this (relative) is a pole hit
_POLE_TOL = 1e-8  # contour nodes keep this distance from poles; circles this fraction of the nearest
_PANEL_POINTS = 24  # Gauss-Legendre nodes per panel
_ROOT_SWEEPS = 100  # Aberth-Ehrlich sweeps before the pole solve is refused
_CIRCLE_NODES = 64  # fewest trapezoid nodes on the circle
_MAX_REFINEMENTS = 10  # node doublings a segment or the circle may take
_REL_TOL = 1e-9  # two passes agree to this (relative): the contour's target
_GUARD_DIGITS = 17  # an mpmath pass carries this many digits beyond what (n+1)*kappa costs
_MAX_DPS_RAISES = 8  # kappa grows as doublings resolve the circle: raise the digits at most this often
_EPS = sys.float_info.epsilon
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max  # the normal range
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)  # the smallest normal float


def _geometric(v, k: int):
    """P_k(v) = 1 + v + ... + v^(k-1), so that 1 - v^k = (1 - v) * P_k(v)."""
    p = 1
    for _ in range(k - 1):
        p = p * v + 1
    return p


def _den_coefficients(spec: UrnSpec, c) -> list:
    """[q_1, .., q_sigma] in the arithmetic of c = x^-alpha, so that h_x's
    denominator is w/(alpha+beta) * sum_k q_k w^(k-1): its Taylor series at
    w = 0, regrouped in c as in _kernel, where no term cancels as c -> 0."""
    ab, sigma = spec.alpha + spec.beta, spec.sigma
    return [
        (-1) ** (k + 1) * (sigma * c * math.comb(ab, k) + (ab * math.comb(sigma, k) - sigma * math.comb(ab, k)))
        for k in range(1, sigma + 1)
    ]


def _kernel(spec: UrnSpec, x) -> Callable:
    """w -> (denominator of h_x, a_x) at w, with what does not depend on w
    computed once.

    With c = x^-alpha and v = 1 - w, 1 + S - v^(alpha+beta) (S + v^alpha)
    and v^(alpha+beta-2) (c - 1 + v^alpha) are regrouped as

        den = w * (sigma*c*P_{alpha+beta}(v) + w*R(v)) / (alpha+beta)
        a   = v^(alpha+beta-2) * (c - w*P_alpha(v))

    where R has the integer coefficients r_j = -(j+1)*alpha for
    j < alpha+beta and (alpha+beta)*(j+1-sigma) up to j = sigma-2.  No term
    cancels as w -> 0 or c -> 0, so both keep full relative accuracy on
    the small circles that large x asks for.  Plain operators only, so one
    formula serves a Python complex and an mpmath number; each caller keeps
    its own arithmetic.
    """
    al, ab, sigma = spec.alpha, spec.alpha + spec.beta, spec.sigma
    c = x ** (-al)
    sigma_c = sigma * c
    r_coeffs = [-(j + 1) * al if j < ab else ab * (j + 1 - sigma) for j in range(sigma - 2, -1, -1)]

    def kernel(w):
        v = 1 - w
        r = 0
        for r_j in r_coeffs:
            r = r * v + r_j
        den = w * (sigma_c * _geometric(v, ab) + w * r) / ab
        a = v ** (ab - 2) * (c - w * _geometric(v, al))
        return den, a

    return kernel


def _ray_angle(sigma: int) -> float:
    """Angle of the upper ray at w = 1: pi*(sigma-1)/sigma, in [2pi/3, pi)."""
    return math.pi * (sigma - 1) / sigma


def _ray_point(spec: UrnSpec, n: int, t: float) -> complex:
    """The point at parameter t on the upper ray: w = 1 + (t/n)^(1/sigma) e^(i theta)."""
    return 1 + (t / n) ** (1.0 / spec.sigma) * cmath.exp(1j * _ray_angle(spec.sigma))


def _overflow(what: str, n: int) -> UrnlabError:
    return UrnlabError(f"{what} at n={n} overflows float64")


def _check_range(log_abs: float, n: int) -> None:
    """Refuse a contour value whose log-modulus lies outside float64's
    normal range: the float would be inf, or 0 / a subnormal with few digits."""
    if log_abs > _LOG_MAX:
        raise _overflow("the contour value", n)
    if log_abs < _LOG_MIN:
        raise UrnlabError(f"the contour value at n={n} underflows float64")


def _from_log(log_value, n: int, exp: Callable = cmath.exp) -> complex:
    """exp(log_value) in its own arithmetic, rounded once to a Python
    complex; refused outside float64's normal range."""
    _check_range(float(log_value.real), n)
    try:
        value = complex(exp(log_value))
    except OverflowError:  # cmath, within rounding of float64's largest value
        value = complex(math.inf)
    if not cmath.isfinite(value):  # mpmath rounds such a value to inf
        raise _overflow("the contour value", n)
    return value


@record
class Integrand:
    """h_x and its prefactor for a fixed urn and evaluation point x."""

    spec: UrnSpec
    x: complex

    def __post_init__(self):
        if self.x == 0:
            raise ValueError("x must be nonzero")
        if isinstance(self.x, Rational):  # exact x: check it survives float64
            mag = abs(Fraction(self.x))
            if not all(_FLOAT_MIN <= m <= _FLOAT_MAX for m in (mag, mag**-self.spec.alpha)):
                log10 = math.log10(mag.numerator) - math.log10(mag.denominator)
                raise UrnlabError(
                    f"--x = ~1e{log10:.0f} is outside the float64 range of the contour: "
                    f"|x| and |x|^-alpha must lie in [{_FLOAT_MIN:.4g}, {_FLOAT_MAX:.4g}]"
                )

    @functools.cached_property
    def S(self) -> complex:
        """S = sigma*(x^-alpha - 1)/(alpha+beta), in complex arithmetic."""
        spec = self.spec
        return spec.sigma * (complex(self.x) ** (-spec.alpha) - 1) / (spec.alpha + spec.beta)

    @functools.cached_property
    def kernel(self) -> Callable:
        """_kernel at this x in float64, w -> (denominator of h_x, a_x),
        built on first use and kept with the instance."""
        return _kernel(self.spec, complex(self.x))

    @functools.cached_property
    def poles(self) -> tuple[complex, ...]:
        """integrand_poles(self), solved on first use and kept with the instance."""
        return integrand_poles(self)

    @classmethod
    def for_u(cls, spec: UrnSpec, u: float, n: int) -> "Integrand":
        """Integrand at x = exp(i*u/sqrt(n)), the scaling of the limit laws."""
        return cls(spec, cmath.exp(1j * u / math.sqrt(n)))


def eval_integrand(integrand: Integrand, w: complex) -> tuple[complex, complex]:
    """Return (h_x(w), a_x(w)).  Raises PoleHit at zeros of the denominator,
    and UrnlabError where the denominator, a_x or the pole test's scale
    overflows float64 (far from w = 1)."""
    spec = integrand.spec
    S = integrand.S
    try:
        den, a = integrand.kernel(complex(w))
        m = abs(1 - complex(w))
        scale = 1 + abs(S) + m ** (spec.alpha + spec.beta) * (abs(S) + m**spec.alpha)
        pole = abs(den) < _POLE_EVAL_TOL * scale
        finite = math.isfinite(scale) and cmath.isfinite(den) and cmath.isfinite(a)
    except OverflowError:  # a power or a modulus past float64's largest value
        finite = False
    if not finite:
        raise UrnlabError(f"the terms of h_x at w={w} overflow float64")
    if pole:
        raise PoleHit(f"w={w} is a pole of h (|denominator|={abs(den):.3e})")
    return 1 / den, a


def _horner(coeffs: Sequence[complex], z: complex) -> tuple[complex, complex, float]:
    """(p(z), p'(z), err) for coefficients highest degree first, where
    err = eps * sum_k (4k+1) |a_k| |z|^k bounds the rounding error of
    Horner's p(z) in complex arithmetic (Bini 1996)."""
    deg = len(coeffs) - 1
    p = dp = 0j
    err, r = 0.0, abs(z)
    for i, a in enumerate(coeffs):
        dp = dp * z + p
        p = p * z + a
        err = err * r + (4 * (deg - i) + 1) * abs(a)
    return p, dp, _EPS * err


def _log_derivative(coeffs: Sequence[complex], z: complex) -> tuple[Optional[complex], bool]:
    """(p'(z)/p(z), or None where p(z) = 0; whether |p(z)| is within
    Horner's rounding bound).  Past |z| = 1 both come from the reversed
    polynomial P(y) = y^d p(1/y) at y = 1/z, whose powers cannot overflow:
    p'/p = y (d - y P'(y)/P(y))."""
    if abs(z) <= 1:
        p, dp, err = _horner(coeffs, z)
        return (dp / p if p else None), abs(p) <= err
    y = 1 / z
    p, dp, err = _horner(coeffs[::-1], y)
    return (y * (len(coeffs) - 1 - y * dp / p) if p else None), abs(p) <= err


def _polygon_starts(coeffs: Sequence[complex]) -> list[complex]:
    """Starting points for all roots (Bini 1996): each edge of the upper
    convex hull of the points (k, log|a_k|) puts as many points as it is
    long on the circle whose modulus its slope gives.  Moduli that differ by
    many orders, as at large x, then start on their own scales."""
    deg = len(coeffs) - 1
    points = [(k, math.log(abs(a))) for k, a in enumerate(reversed(coeffs)) if a]
    hull: list[tuple[int, float]] = []
    for k, y in points:
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1]) >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
        ):
            hull.pop()
        hull.append((k, y))
    starts = [0j] * hull[0][0]  # a zero constant term: roots at w = 0 exactly
    for (k0, y0), (k1, y1) in zip(hull, hull[1:]):
        m, radius = k1 - k0, math.exp((y0 - y1) / (k1 - k0))
        for j in range(m):
            starts.append(radius * cmath.exp(1j * (2 * math.pi * (j / m + k1 / deg) + 0.4)))
    return starts


def _aberth_roots(coeffs: Sequence[complex]) -> list[complex]:
    """All roots of the polynomial by Aberth-Ehrlich iteration: Newton's
    step on each root, deflated by the others.  A root is settled once
    |p(z)| is within Horner's rounding bound, which a root's neighbourhood
    always reaches; UrnlabError if some root is not after _ROOT_SWEEPS
    sweeps."""
    deg = len(coeffs) - 1
    roots = _polygon_starts(coeffs)
    settled = [False] * deg
    for _ in range(_ROOT_SWEEPS):
        for k, z in enumerate(roots):
            if settled[k]:
                continue
            ratio, settled[k] = _log_derivative(coeffs, z)
            if settled[k]:
                continue
            deflation = sum(1 / (z - y) for j, y in enumerate(roots) if j != k)
            roots[k] = z - 1 / (ratio - deflation)
        if all(settled):
            return roots
    raise UrnlabError(
        f"the poles of h_x did not converge: {deg - sum(settled)} of {deg} roots unsettled "
        f"after {_ROOT_SWEEPS} Aberth-Ehrlich sweeps"
    )


def integrand_poles(integrand: Integrand) -> tuple[complex, ...]:
    """All sigma poles of h_x in the w-plane: w = 0 first, exactly, then the
    roots of Q(w) = (alpha+beta) den / w by Aberth-Ehrlich iteration, each
    polished by three Newton steps.  One step settles a simple root; a root
    of a cluster (alpha >= 2 at large x) halves its error with each step
    until rounding stops it.  Q is scaled by a power of 2, exactly, so that
    its largest coefficient is near 1.  Taken in w, from _den_coefficients,
    a pole near w = 0 keeps its relative digits.  Contour code reads
    Integrand.poles, which solves once per instance."""
    q = _den_coefficients(integrand.spec, complex(integrand.x) ** (-integrand.spec.alpha))[::-1]
    scale = 2.0 ** -math.frexp(max(abs(a) for a in q))[1]
    q = [a * scale for a in q]
    roots = _aberth_roots(q)
    for _ in range(3):
        polished = []
        for z in roots:
            ratio, _ = _log_derivative(q, z)
            polished.append(z - 1 / ratio if ratio else z)
        roots = polished
    return (0j, *roots)


@record
class SaddleSet:
    """Stationary points of h_x: the fixed one at w=1 plus alpha movable ones."""

    main: complex
    main_multiplicity: int
    secondary: tuple
    derivative_residuals: tuple


def _one_minus_exp(z: complex) -> complex:
    """1 - e^z without cancellation near z = 0 (cmath has no expm1):
    e^(a+ib) - 1 = expm1(a)*cos(b) - 2*sin(b/2)^2 + i*e^a*sin(b)."""
    a, b = z.real, z.imag
    # 0.0 - ..., not -(...): a real saddle keeps the imaginary part +0.0
    return complex(2 * math.sin(b / 2) ** 2 - math.expm1(a) * math.cos(b), 0.0 - math.exp(a) * math.sin(b))


def find_saddle_points(integrand: Integrand) -> SaddleSet:
    """Closed-form saddle set, with a numerical stationarity check.

    The derivative factors as -sigma*h^2 * (1-w)^(alpha+beta-1) *
    (x^-alpha - 1 + (1-w)^alpha) = -sigma*h^2 * (1-w) * a_x(w), so saddles
    are w = 1 (multiplicity alpha+beta-1) and w = 1 - gamma for every
    alpha-th root gamma of 1 - x^-alpha.  Residuals |h'/(sigma*h^2)| are
    recorded per point.
    """
    spec = integrand.spec
    x = complex(integrand.x)
    u = x ** (-spec.alpha)
    c = 1 - u
    secondary = []
    if abs(c) == 0:
        secondary = [1.0 + 0j] * spec.alpha  # coalesced onto the main point
    else:
        # 1 - gamma = -expm1(log(c)/alpha + 2*pi*i*j/alpha), with log|c| from
        # log1p: gamma -> 1 as x -> infinity, and 1 - gamma would cancel.
        if abs(u) < 1:
            log_abs_c = math.log1p(u.real * (u.real - 2) + u.imag**2) / 2
        else:
            log_abs_c = math.log(abs(c))
        phi = cmath.phase(c) / spec.alpha
        for j in range(spec.alpha):
            angle = phi + 2 * math.pi * j / spec.alpha
            secondary.append(_one_minus_exp(complex(log_abs_c / spec.alpha, angle)))
    residuals = []
    for w in [1.0 + 0j] + secondary:
        _, a = integrand.kernel(w)
        residuals.append(abs((1 - w) * a))
    return SaddleSet(
        main=1.0 + 0j,
        main_multiplicity=spec.alpha + spec.beta - 1,
        secondary=tuple(secondary),
        derivative_residuals=tuple(residuals),
    )


@record
class ContourSpec:
    """The coefficient index n and the contour to extract it along.

    With kind="sector", rays run from w=1 at angles +-pi*(sigma-1)/sigma out
    to t = n^2 (radius n^(1/sigma)), and the closing arc passes through the
    ray endpoints.  With kind="circle", the trapezoid rule runs on the
    saddle circle in the arithmetic its condition number asks for.  Each
    kind doubles its nodes up to _MAX_REFINEMENTS times until successive
    values agree to _REL_TOL.
    """

    n: int
    kind: str = "sector"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind not in ("sector", "circle"):
            raise ValueError(f"unknown contour kind {self.kind!r}")


@record
class ContourResult:
    """Value plus per-segment contributions and convergence diagnostics.

    Every diagnostics dict holds ``condition`` (kappa), ``refinements`` (node
    doublings until two passes agreed; for the sector, the most any segment
    needed) and ``last_delta`` (the relative change of the value over the
    last doubling); a circle also reports ``radius``, ``nodes`` and ``dps``.
    """

    n: int
    kind: str
    value: complex
    segments: dict
    diagnostics: dict


def _sector_geometry(spec: UrnSpec, n: int):
    t_max = float(n) ** 2
    radius = (t_max / n) ** (1.0 / spec.sigma)
    return _ray_angle(spec.sigma), t_max, radius


def sector_validity(integrand: Integrand, contour: ContourSpec) -> tuple[bool, str]:
    """Check the pole enclosure: w=0 strictly inside the wedge, every other
    pole strictly outside, nothing within the pole tolerance of the boundary,
    and no pole at the apex w=1 itself."""
    theta, _, radius = _sector_geometry(integrand.spec, contour.n)
    tol = _POLE_TOL
    if radius <= 1 + tol:
        return False, f"arc radius {radius:.6g} does not clear the pole at w=0"
    for p in integrand.poles[1:]:  # not w = 0, the pole integrated around
        d = complex(p) - 1.0
        r_p = abs(d)
        phi = cmath.phase(d) % (2 * math.pi)
        inside_angle = theta - tol <= phi <= 2 * math.pi - theta + tol
        # distance to each boundary piece first: a pole at the saddle, known
        # only to rounding, touches the rays on whichever side it lands
        for ang in (theta, -theta):
            e = cmath.exp(1j * ang)
            proj = min(max((d * e.conjugate()).real, 0.0), radius)
            if abs(d - proj * e) < tol:
                return False, f"pole at w={p:.6g} touches a ray"
        if inside_angle and abs(r_p - radius) < tol:
            return False, f"pole at w={p:.6g} touches the arc"
        if inside_angle and r_p < radius + tol:
            return False, f"pole at w={p:.6g} inside the sector"
    # x^alpha = sigma/alpha makes 1 + S = 0: rounding splits that pole into a
    # ring around w = 1 that the checks above can pass
    spec, x = integrand.spec, integrand.x
    if isinstance(x, Rational):
        apex = Fraction(x) ** -spec.alpha * spec.sigma == spec.alpha
    else:
        apex = abs(complex(x) ** -spec.alpha * spec.sigma - spec.alpha) <= 4 * _EPS * spec.alpha
    if apex:
        return False, f"h_x has a pole of order {spec.alpha + spec.beta} at w = 1, where the rays start (1 + S = 0)"
    return True, "ok"


def auto_contour(integrand: Integrand, n: int) -> tuple[ContourSpec, ...]:
    """The automatic chain, in the order its contours are tried: the sector
    when its wedge validly encloses only w=0, then the circle; otherwise the
    circle alone."""
    circle = ContourSpec(n=n, kind="circle")
    sector = ContourSpec(n=n, kind="sector")
    ok, _ = sector_validity(integrand, sector)
    return (sector, circle) if ok else (circle,)


@functools.cache
def _gauss_nodes() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], computed on
    first use.  Each positive node is Newton's method on the three-term
    Legendre recurrence, from the estimate cos(pi (i + 3/4) / (N + 1/2));
    its weight is 2 / ((1 - x^2) P_N'(x)^2).  N is even, so the negative
    nodes are the positive ones mirrored."""
    n = _PANEL_POINTS
    positive = []  # (node, weight), largest node first
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            slope = n * (p_prev - x * p) / (1 - x * x)
            step = p / slope
            x -= step
            if abs(step) <= 1e-16:
                break
        positive.append((x, 2 / ((1 - x * x) * slope * slope)))
    pairs = [(-x, wt) for x, wt in positive] + positive[::-1]
    return tuple(x for x, _ in pairs), tuple(wt for _, wt in pairs)


def _gauss_panels(f: Callable[[float], complex], breaks: Sequence[float]) -> tuple[list[complex], float]:
    """Gauss-Legendre on each [breaks[i], breaks[i+1]], f one node at a
    time: the per-panel sums of f, and the rule's integral of |f|."""
    xg, wg = _gauss_nodes()
    panels, mass = [], 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total, total_abs = 0j, 0.0
        for xk, wk in zip(xg, wg):
            value = f(mid + half * xk)
            total += value * wk
            total_abs += abs(value) * wk
        panels.append(half * total)
        mass += half * total_abs
    return panels, mass


def _refine_breaks(breaks: list[float]) -> list[float]:
    out = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        out.extend([lo, 0.5 * (lo + hi)])
    out.append(breaks[-1])
    return out


def _sector_integrand(integrand: Integrand, n: int) -> tuple[Callable[[complex, complex], complex], float]:
    """F(w, dw) = a_x(w) (h_x(w)/|h_x(1)|)^(n+1) dw at one node, and
    log|h_x(1)|^-1 = log|1 + S|.  Dividing by |h_x(1)|^(n+1) keeps the values
    near 1 in modulus at the saddle w = 1, where the sector's rays start,
    whatever n is.  The modulus, not h_x(1) itself, so that a real x keeps
    the integrand real on the real axis (and conjugate-symmetric about it)
    also where h_x(1) < 0.  sector_validity has kept every pole farther
    than _POLE_TOL from the rays and the arc."""
    kernel = integrand.kernel
    log_den1 = cmath.log(kernel(1.0)[0]).real  # log|1 + S|, h_x(1) = 1/(1 + S)

    def F(w: complex, dw: complex) -> complex:
        # an overflow is refused here, not left to stall the refinement
        try:
            den, a = kernel(w)
            # (h/|h(1)|)^(n+1) via exp; an integer power, so the log branch cancels
            value = (a * cmath.exp((n + 1) * (log_den1 - cmath.log(den)))) * dw
        except OverflowError:  # cmath.exp past float64's largest value
            value = complex(math.inf)
        if not cmath.isfinite(value):
            raise _overflow("the contour integrand a_x h_x^(n+1)", n)
        return value

    return F, log_den1


def _path_integral(f: Callable[[float], complex], breaks: list[float], n: int, abs_tol: float = 0.0):
    """Adaptive composite Gauss-Legendre of f over the break grid, each
    pass doubling the panels until two passes agree to _REL_TOL.  Returns
    the last pass's panels, grid, total, |f| mass, doublings and the
    absolute change over the last one.

    abs_tol is a floor for the convergence test: a path whose whole
    contribution sits below it (e.g. the closing arc, often ~1e-100 of the
    rays) is accepted without chasing relative digits of noise.
    """
    grid = list(breaks)
    panels, _ = _gauss_panels(f, grid)
    total = sum(panels)
    for refinements in range(1, _MAX_REFINEMENTS + 1):
        grid = _refine_breaks(grid)
        panels, mass = _gauss_panels(f, grid)
        total, prev = sum(panels), total
        delta = abs(total - prev)
        tol = max(_REL_TOL * abs(total), abs_tol, 1e-300)
        if delta <= tol:
            break
        # rounding alone moves the sum by ~eps * mass: past tol, further
        # doublings would refine noise
        if _EPS * mass > tol:
            raise QuadratureNotConverged(
                f"a sector segment is ill-conditioned at n={n}: condition number "
                f"κ={mass / abs(total) if total else math.inf:.3g}, so rounding noise "
                f"eps·κ exceeds the convergence tolerance"
            )
    else:
        raise QuadratureNotConverged(
            f"segment quadrature did not stabilize to rel {_REL_TOL} at n={n} after {len(grid) - 1} panels"
        )
    return panels, grid, total, mass, refinements, delta


def _sector_coefficient(integrand: Integrand, contour: ContourSpec) -> ContourResult:
    spec = integrand.spec
    n = contour.n
    sigma = spec.sigma
    theta, t_max, radius = _sector_geometry(spec, n)

    ok, reason = sector_validity(integrand, contour)
    if not ok:
        raise ContourCrossesPole(f"sector contour invalid: {reason}")

    F, log_den1 = _sector_integrand(integrand, n)
    c = float(n) ** (-1.0 / sigma)
    s_max = t_max ** (1.0 / sigma)

    # Tail cut n^(1/(sigma+1)), taken both in the ray parameter t (w-distance
    # (t/n)^(1/sigma)) and in the regularized variable s = t^(1/sigma); both
    # tails are reported.
    t_cut = float(n) ** (1.0 / (sigma + 1))
    s_cut_t = min(t_cut, t_max) ** (1.0 / sigma)
    s_cut_s = min(t_cut, s_max)

    # s-grid: fine near the saddle (s=0), geometric growth outward, with a
    # break at each cut so that each tail is a sum of whole panels
    breaks = [0.0, 0.25, 0.5, 1.0]
    while breaks[-1] < s_max:
        breaks.append(min(2 * breaks[-1], s_max))
    breaks = sorted(set(breaks) | {s for s in (s_cut_t, s_cut_s) if breaks[0] < s < breaks[-1]})

    def ray(e):
        panels, grid, total, mass, refinements, delta = _path_integral(lambda s: F(1.0 + c * s * e, c * e), breaks, n)
        tail_t, tail_s = (sum(p for p, lo in zip(panels, grid[:-1]) if lo >= cut) for cut in (s_cut_t, s_cut_s))
        return total, tail_t, tail_s, mass, refinements, delta

    # Rays first (they carry the value); the arc then converges against an
    # absolute floor set by the ray scale, instead of chasing relative digits
    # of an exponentially negligible contribution.
    up_total, up_tail_t, up_tail_s, up_mass, up_refinements, up_delta = ray(cmath.exp(1j * theta))
    real_x = complex(integrand.x).imag == 0
    if real_x:
        # real x: h_x and a_x have real coefficients, and the integrand is
        # scaled by the real |h_x(1)|^(n+1), so each node of the lower ray
        # takes the conjugate of its mirror's value, in rounding too, and so
        # does the integral
        lo_total, lo_tail_t, lo_tail_s = up_total.conjugate(), up_tail_t.conjugate(), up_tail_s.conjugate()
        lo_mass, lo_refinements, lo_delta = up_mass, up_refinements, up_delta
    else:
        lo_total, lo_tail_t, lo_tail_s, lo_mass, lo_refinements, lo_delta = ray(cmath.exp(-1j * theta))

    def on_arc(phi):
        z = cmath.exp(1j * phi)
        return F(1.0 + radius * z, 1j * radius * z)

    end = 2 * math.pi - theta
    step = (end - theta) / 8
    arc_floor = _REL_TOL * max(abs(up_total), abs(lo_total), 1e-300) * 1e-3
    _, _, arc_total, arc_mass, arc_refinements, arc_delta = _path_integral(
        on_arc, [theta + i * step for i in range(8)] + [end], n, arc_floor
    )

    # counterclockwise: upper ray outward, arc through angle pi, lower ray inward
    loop = up_total + arc_total - lo_total
    mass = up_mass + arc_mass + lo_mass
    condition = mass / abs(loop) if loop else math.inf
    if (n + 1) * condition * _EPS > _REL_TOL:  # float64 cannot deliver _REL_TOL
        raise QuadratureNotConverged(
            f"the sector integral is ill-conditioned at n={n}: condition number κ={condition:.3g}, "
            f"so (n+1)·κ·eps={(n + 1) * condition * _EPS:.2g} > rel_tol {_REL_TOL:g}"
        )
    # value = sigma^(n+1) |h_x(1)|^(n+1) loop / (2 pi i), combined in log scale
    log_scale = (n + 1) * (math.log(sigma) - log_den1) - cmath.log(2j * math.pi)
    value = _from_log(log_scale + cmath.log(loop), n)
    if real_x:
        # real x: the true loop is 2 pi i times a real number, so the value
        # is real and its imaginary part is rounding, as on the circle
        value = complex(value.real)

    def share(part: complex) -> float:
        return float(abs(part / loop))

    segments = {
        "ray_upper": complex(value * (up_total / loop)),
        "arc": complex(value * (arc_total / loop)),
        "ray_lower": complex(value * (-lo_total / loop)),
    }
    diagnostics = {
        "arc_rel": share(arc_total),
        "tail_rel_t_cut": share(up_tail_t - lo_tail_t),
        "tail_rel_s_cut": share(up_tail_s - lo_tail_s),
        "t_cut": float(t_cut),
        "s_cut": float(s_cut_s),
        "radius": float(radius),
        "theta": float(theta),
        "condition": float(condition),
        "refinements": max(up_refinements, arc_refinements, lo_refinements),
        "last_delta": share(up_delta + arc_delta + lo_delta),
    }
    return ContourResult(n=n, kind="sector", value=value, segments=segments, diagnostics=diagnostics)


def _circle_radius(integrand: Integrand) -> float:
    """The smallest nonzero |saddle|, or (when that does not clear the
    nearest pole) half the nearest pole's modulus: either way the circle
    separates w=0 from the other poles."""
    nearest = min(abs(p) for p in integrand.poles[1:])
    saddles = find_saddle_points(integrand)
    radius = min(abs(w) for w in (saddles.main, *saddles.secondary) if w != 0)
    if radius >= nearest * (1 - _POLE_TOL):
        radius = 0.5 * nearest
    return radius


def _circle_nodes(integrand: Integrand, n: int, radius: float, dps: Optional[int] = None):
    """The circle's nodes, in float64 when dps is None, else in a private
    mpmath context at dps digits: (log_mean, finish).

    log_mean(nodes) gives the log of the trapezoid mean of
    a_x(w) w (h_x(w)/h_x(r))^(n+1), and its condition number.  With
    q = den(r)/den(w), a term is a_x(w) w (q/m)^(n+1), m the largest |q| so
    far: both sums are kept relative to m^(n+1), so no power overflows.  A
    doubling evaluates only the new (odd) nodes and rescales the carried
    sums to the new m.  finish(log_mean) is the value
    sigma^(n+1) h_x(r)^(n+1) exp(log_mean), rounded once.
    """
    if dps is None:
        kernel, r, log, exp = integrand.kernel, radius, cmath.log, cmath.exp

        def expjpi(t: float) -> complex:
            return cmath.exp(1j * math.pi * t)

        def total(terms: list) -> complex:
            return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))

    else:
        import mpmath  # only an mpmath pass needs it

        ctx = mpmath.MPContext()  # its own digits: mpmath.mp is left alone
        ctx.dps = dps
        x = integrand.x
        x = ctx.mpf(x.numerator) / x.denominator if isinstance(x, Rational) else ctx.mpmathify(x)
        kernel, r, log, exp = _kernel(integrand.spec, x), ctx.mpf(radius), ctx.log, ctx.exp
        expjpi, total = ctx.expjpi, ctx.fsum
    den_r, _ = kernel(r)
    sums = {}  # nodes -> (sum of the terms, sum of their moduli, m)

    def log_mean(nodes: int):
        carried = sums.get(nodes // 2)
        acc, mass, m = carried or (0, 0, 0)
        new, m_carried = [], m
        for j in range(1 if carried else 0, nodes, 2 if carried else 1):
            w = r * expjpi(2 * j / nodes)  # 2*j/nodes is a dyadic float: exact in both arithmetics
            den, a = kernel(w)
            try:
                q = den_r / den
                size = abs(q)
            except (ZeroDivisionError, OverflowError):
                size = math.inf
            if not size < math.inf:
                raise UrnlabError(f"h_x(w)/h_x(r) at the circle node w={complex(w)} is not finite at n={n}")
            new.append((a * w, q))
            m = max(m, size)
        shrink = (m_carried / m) ** (n + 1)  # exactly 1 unless m grew
        terms = [aw * (q / m) ** (n + 1) for aw, q in new]
        acc, mass = total([acc * shrink, *terms]), abs(total([mass * shrink, *map(abs, terms)]))
        sums[nodes] = acc, mass, m
        if not acc:
            return None, math.inf
        return log(acc / nodes) + (n + 1) * log(m), float(mass / abs(acc))

    def finish(log_mean) -> complex:
        return _from_log(log_mean + (n + 1) * log(integrand.spec.sigma / den_r), n, exp)

    return log_mean, finish


def _circle(integrand: Integrand, contour: ContourSpec) -> ContourResult:
    """Trapezoid rule on |w| = r, in log scale: (1/2 pi i) of the closed
    integral of F dw is the mean of F(w) w over equispaced nodes.

    _circle_nodes keeps the terms O(1) where the integrand is large and adds
    the scales in log scale.  Every doubling judges kappa: when (n+1) kappa
    rounding costs more digits than the arithmetic has, the same node count
    is evaluated again in mpmath, at the digits kappa asks for and at least
    _GUARD_DIGITS more than the last pass.  A circle where h_x's denominator
    is below float64's normal range starts in mpmath, with float64's digits
    plus the guard.
    """
    n = contour.n
    radius = _circle_radius(integrand)
    dps, digits, raises = 15, -math.log10(_EPS), 0
    if abs(integrand.kernel(radius)[0]) < _FLOAT_MIN:  # den ~ r * x^-alpha: both small at large x
        dps = _GUARD_DIGITS + dps
    log_mean, finish = _circle_nodes(integrand, n, radius, dps if dps > 15 else None)
    nodes, prev, refinements = _CIRCLE_NODES, None, 0
    while True:
        cur, condition = log_mean(nodes)
        # the digits (n+1) kappa rounding costs against _REL_TOL; the first
        # pass may be too coarse to judge kappa, every doubling is judged
        lost = math.log10((n + 1) * condition / _REL_TOL)
        if refinements and lost > digits:
            if raises == _MAX_DPS_RAISES or not math.isfinite(lost):
                raise QuadratureNotConverged(
                    f"the saddle-circle integral is ill-conditioned at n={n}: condition number "
                    f"κ={condition:.3g} asks for more than dps={dps}"
                )
            dps = max(_GUARD_DIGITS + math.ceil(lost), dps + _GUARD_DIGITS)
            digits, raises = dps - _GUARD_DIGITS, raises + 1
            log_mean, finish = _circle_nodes(integrand, n, radius, dps)
            continue
        if prev is not None:
            delta = abs(_one_minus_exp(complex(prev - cur)))
            if delta <= _REL_TOL:
                break
        if refinements == _MAX_REFINEMENTS:
            raise QuadratureNotConverged(
                f"saddle-circle quadrature did not stabilize at {nodes} nodes "
                f"(condition number κ={condition:.3g}, dps={dps})"
            )
        prev, nodes, refinements = cur, 2 * nodes, refinements + 1
    value = finish(cur)
    if complex(integrand.x).imag == 0:
        # real x: the nodes come in conjugate pairs, so the true value is
        # real and its imaginary part is rounding
        value = complex(value.real)
    diagnostics = {
        "radius": float(radius),
        "nodes": nodes,
        "dps": dps,
        "condition": condition,
        "refinements": refinements,
        "last_delta": delta,
    }
    return ContourResult(n=n, kind="circle", value=value, segments={"circle": value}, diagnostics=diagnostics)


def contour_coefficient(integrand: Integrand, contour: ContourSpec) -> ContourResult:
    """Numerically extract the n-th coefficient along the given contour.

    The sector refuses (ContourCrossesPole) geometries whose wedge holds a
    pole besides w=0 — the integral would pick up its residue and stop
    matching the coefficient — and (QuadratureNotConverged) an integral too
    ill-conditioned for float64 to reach _REL_TOL.  The circle refuses
    (QuadratureNotConverged) an integral whose kappa still asks for more
    digits after its last allowed raise, or whose nodes stop doubling before
    two passes agree.  No other contour is tried here: coefficient_auto()
    walks auto_contour's chain.  The integral is the coefficient of the urn
    started as one white ball, so any other start is refused
    (UnsupportedInitialConfig).
    """
    integrand.spec.require_single_white("the contour formula")
    if contour.kind == "sector":
        return _sector_coefficient(integrand, contour)
    return _circle(integrand, contour)


def coefficient_auto(integrand: Integrand, n: int) -> ContourResult:
    """contour_coefficient along auto_contour's chain: the first contour not
    refused by geometry or conditioning gives the value."""
    *first, last = auto_contour(integrand, n)
    for contour in first:
        try:
            return contour_coefficient(integrand, contour)
        except (ContourCrossesPole, QuadratureNotConverged):
            pass
    return contour_coefficient(integrand, last)


def hx_power_residual(integrand: Integrand, n: int, t: float, u: float) -> complex:
    """Deviation of n*log h_x(w(t)) from the predicted i*mu*u*sqrt(n) -
    (nu^2/2)*u^2 - t, with w(t) on the upper ray and x = exp(i*u/sqrt(n)).

    The prediction's error term carries an unknown constant; callers estimate
    it by fitting the returned residuals, never by assuming it.
    """
    from .asymptotics import limit_params

    spec = integrand.spec
    expected_x = cmath.exp(1j * u / math.sqrt(n))
    if abs(complex(integrand.x) - expected_x) > 1e-9:
        raise ValueError("integrand.x must be exp(i*u/sqrt(n)); use Integrand.for_u")
    if t < 0:
        raise ValueError("t must be >= 0")
    h, _ = eval_integrand(integrand, _ray_point(spec, n, t))
    params = limit_params(spec)
    mu, nu2 = float(params.mu), float(params.nu2)
    predicted = 1j * mu * u * math.sqrt(n) - 0.5 * nu2 * u * u - t
    return n * cmath.log(h) - predicted


def power_residual_scale(spec: UrnSpec, n: int, t: float, u: float) -> float:
    """|residual| normalized by its predicted envelope
    t^((alpha+beta)/sigma) * |u| * n^(-beta/(2*sigma)) + n^(-1/2) (|u|^3 + |u| t);
    boundedness of this ratio over an n-ladder is the testable content."""
    r = hx_power_residual(Integrand.for_u(spec, u, n), n, t, u)
    sigma = spec.sigma
    envelope = (
        t ** ((spec.alpha + spec.beta) / sigma) * abs(u) * n ** (-spec.beta / (2 * sigma))
        + n ** (-0.5) * (abs(u) ** 3 + abs(u) * t)
    )
    if envelope == 0:
        return float("inf") if abs(r) > 0 else 0.0
    return abs(r) / envelope
