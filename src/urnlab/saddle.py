"""Coefficient extraction by numerical contour integration.

The n-th series coefficient at a fixed x is

    sigma^(n+1) / (2*pi*i) * closed integral of a_x(w) * h_x(w)^(n+1) dw

around w = 0, where (with S = sigma*(x^-alpha - 1)/(alpha+beta), v = 1 - w)

    h_x(w) = 1 / (1 + S - v^(alpha+beta) * (S + v^alpha))
    a_x(w) = v^(alpha+beta-2) * (x^-alpha - 1 + v^alpha)

h_x has sigma simple poles (the roots of the denominator, one always at
w = 0) and sigma - 1 saddle points: w = 1 with multiplicity alpha+beta-1 and
the alpha points 1 - gamma with gamma^alpha = 1 - x^-alpha, which coalesce
into w = 1 as x -> 1.

Three contours are implemented, two kinds in float64 and one in mpmath:

* "sector": two rays leaving w = 1 at angles +-pi*(sigma-1)/sigma, joined by
  the circular arc about w = 1 through their endpoints.  The ray is
  parametrized by t via w = 1 + (t/n)^(1/sigma) * e^(i*theta); quadrature
  runs in the regularized variable s = t^(1/sigma), in which the integrand
  is analytic at the saddle endpoint.  h_x(1)^(n+1) is factored out of the
  integrand and the value is put together in log scale, so only a value
  truly past float64's normal range is refused.  Valid only when no pole
  besides w = 0 lies inside the wedge or near its boundary — true for x
  near 1, false in general (e.g. alpha=3, beta=2, x=2 puts a real pole at
  w ~ 0.099 inside any such wedge).
* "circle", float64: the trapezoid rule in log scale on |w| = r, where r is
  the smallest nonzero |saddle| (for x > 1 the dominant saddle 1 - gamma),
  provided r lies inside the nearest nonzero pole.  On a circle through the
  saddle the rule is spectrally accurate (Bornemann 2011; Trefethen &
  Weideman 2014); nodes double from 64 until two passes agree.
* "circle", mpmath: the same rule at 60 + n digits on a circle of
  circle_radius (default half the smallest nonzero pole modulus).  It runs
  when circle_radius is given, when n <= _MPMATH_MAX_N (cheap there, and
  correctly rounded), and as the last fallback.  Only it imports mpmath.

Both float64 contours measure the condition number
kappa = (integral of |F| |dw|) / |closed integral of F dw| of their integral
and refuse (QuadratureNotConverged, naming kappa) when (n+1) * kappa * eps
exceeds rel_tol: h_x^(n+1) carries n+1 times the rounding of h_x, and the
cancellation multiplies it by kappa, so float64 cannot deliver rel_tol.  This
is what happens on a sector through w = 1 that misses the dominant saddle at
x > 1, and on the saddle circle at most x <= 1.  auto_contour() chains the
sector (when geometrically valid), the float64 circle and the mpmath circle;
coefficient_auto() moves down the chain past a refusal by geometry or
conditioning, never past an overflow or underflow, which belongs to the value.
"""
from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ContourCrossesPole,
    PoleHit,
    QuadratureNotConverged,
    UrnlabError,
)
from .urn import UrnSpec

_POLE_EVAL_TOL = 1e-12  # |denominator| below this (relative) is a pole hit
_POLE_TOL = 1e-8  # contour nodes must keep this distance from poles
_PANEL_POINTS = 24  # Gauss-Legendre nodes per panel
_CIRCLE_NODES = 64  # fewest trapezoid nodes on the circle
_MPMATH_MAX_N = 16  # up to this n the circle runs in mpmath (<= ~0.13 s)
_EPS = sys.float_info.epsilon
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)  # the smallest normal float


def _S(spec: UrnSpec, x):
    """S = sigma*(x^-alpha - 1)/(alpha+beta), in the arithmetic of x."""
    return spec.sigma * (x ** (-spec.alpha) - 1) / (spec.alpha + spec.beta)


def _geometric(v, k: int):
    """P_k(v) = 1 + v + ... + v^(k-1), so that 1 - v^k = (1 - v) * P_k(v)."""
    p = 1
    for _ in range(k - 1):
        p = p * v + 1
    return p


def _kernel(spec: UrnSpec, x, w):
    """(denominator of h_x, a_x) at w.

    With c = x^-alpha and v = 1 - w, 1 + S - v^(alpha+beta) (S + v^alpha)
    and v^(alpha+beta-2) (c - 1 + v^alpha) are regrouped as

        den = w * (sigma*c*P_{alpha+beta}(v) + w*R(v)) / (alpha+beta)
        a   = v^(alpha+beta-2) * (c - w*P_alpha(v))

    where R has the integer coefficients r_j = -(j+1)*alpha for
    j < alpha+beta and (alpha+beta)*(j+1-sigma) up to j = sigma-2.  No term
    cancels as w -> 0 or c -> 0, so both keep full relative accuracy on
    the small circles that large x asks for.  Plain operators only, so one
    formula serves a Python complex, a numpy array and an mpmath number;
    each caller keeps its own arithmetic.
    """
    al, ab, sigma = spec.alpha, spec.alpha + spec.beta, spec.sigma
    c = x ** (-al)
    v = 1 - w
    r = 0
    for j in range(sigma - 2, -1, -1):
        r = r * v + (-(j + 1) * al if j < ab else ab * (j + 1 - sigma))
    den = w * (sigma * c * _geometric(v, ab) + w * r) / ab
    a = v ** (ab - 2) * (c - w * _geometric(v, al))
    return den, a


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


def _from_log(log_value: complex, n: int) -> complex:
    _check_range(log_value.real, n)
    try:
        return cmath.exp(log_value)
    except OverflowError:  # within rounding of float64's largest value
        raise _overflow("the contour value", n) from None


def _ill_conditioned(what: str, condition: float, n: int, rel_tol: float) -> QuadratureNotConverged:
    """h_x^(n+1) carries n+1 times the relative rounding of h_x, and the
    integral multiplies that by its condition number: past rel_tol, float64
    cannot deliver the value."""
    return QuadratureNotConverged(
        f"{what} is ill-conditioned at n={n}: condition number κ={condition:.3g}, "
        f"so (n+1)·κ·eps={(n + 1) * condition * _EPS:.2g} > rel_tol {rel_tol:g}"
    )


@dataclass(frozen=True)
class Integrand:
    """h_x and its prefactor for a fixed urn and evaluation point x."""

    spec: UrnSpec
    x: complex

    def __post_init__(self):
        if self.x == 0:
            raise ValueError("x must be nonzero")

    @property
    def S(self) -> complex:
        return _S(self.spec, complex(self.x))

    @classmethod
    def for_u(cls, spec: UrnSpec, u: float, n: int) -> "Integrand":
        """Integrand at x = exp(i*u/sqrt(n)), the scaling of the limit laws."""
        return cls(spec, cmath.exp(1j * u / math.sqrt(n)))


def eval_integrand(integrand: Integrand, w: complex) -> tuple[complex, complex]:
    """Return (h_x(w), a_x(w)).  Raises PoleHit at zeros of the denominator."""
    spec = integrand.spec
    S = integrand.S
    den, a = _kernel(spec, complex(integrand.x), complex(w))
    m = abs(1 - complex(w))
    scale = 1 + abs(S) + m ** (spec.alpha + spec.beta) * (abs(S) + m**spec.alpha)
    if abs(den) < _POLE_EVAL_TOL * scale:
        raise PoleHit(f"w={w} is a pole of h (|denominator|={abs(den):.3e})")
    return 1 / den, a


def integrand_poles(integrand: Integrand) -> np.ndarray:
    """All sigma poles of h_x in the w-plane (w = 0 is always among them)."""
    spec = integrand.spec
    S = integrand.S
    # roots of D(v) = -v^sigma - S v^(alpha+beta) + (1 + S)
    coeffs = np.zeros(spec.sigma + 1, dtype=complex)
    coeffs[0] = -1.0
    coeffs[spec.sigma - (spec.alpha + spec.beta)] = -S
    coeffs[spec.sigma] = 1.0 + S
    roots = np.roots(coeffs)
    # Newton polish; D(1) = 0 identically, so snap the root nearest v = 1.
    for _ in range(2):
        d = -roots**spec.sigma - S * roots ** (spec.alpha + spec.beta) + (1 + S)
        dp = -spec.sigma * roots ** (spec.sigma - 1) - S * (spec.alpha + spec.beta) * roots ** (
            spec.alpha + spec.beta - 1
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(np.abs(dp) > 1e-300, d / dp, 0.0)
        roots = roots - step
    snap = np.argmin(np.abs(roots - 1.0))
    roots[snap] = 1.0
    return 1.0 - roots


@dataclass(frozen=True)
class SaddleSet:
    """Stationary points of h_x: the fixed one at w=1 plus alpha movable ones."""

    main: complex
    main_multiplicity: int
    secondary: tuple
    derivative_residuals: tuple

    @property
    def total_multiplicity(self) -> int:
        return self.main_multiplicity + len(self.secondary)


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
        _, a = _kernel(spec, x, w)
        residuals.append(abs((1 - w) * a))
    return SaddleSet(
        main=1.0 + 0j,
        main_multiplicity=spec.alpha + spec.beta - 1,
        secondary=tuple(secondary),
        derivative_residuals=tuple(residuals),
    )


@dataclass(frozen=True)
class ContourSpec:
    """Contour and quadrature settings for one coefficient extraction.

    With kind="sector", rays run from w=1 at angles +-pi*(sigma-1)/sigma out
    to t = n^2 (radius n^(1/sigma)), and the closing arc passes through the
    ray endpoints.  With kind="circle", the float64 trapezoid rule runs on
    the circle through the smallest nonzero saddle; given circle_radius, or
    at n <= _MPMATH_MAX_N, the mpmath rule runs instead on a circle of that
    radius (default half the smallest nonzero pole modulus), at 60 + n
    digits.  Each kind doubles its nodes up to max_refinements times until
    successive values agree to rel_tol; the float64 kinds also refuse when
    (n+1) times their condition number times eps exceeds rel_tol.  ``fallback`` is the
    contour to try next when this one is refused by geometry or
    conditioning: auto_contour() links its chain through it.
    """

    n: int
    kind: str = "sector"
    max_refinements: int = 10
    rel_tol: float = 1e-9
    circle_radius: Optional[float] = None
    fallback: Optional["ContourSpec"] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind not in ("sector", "circle"):
            raise ValueError(f"unknown contour kind {self.kind!r}")


@dataclass(frozen=True)
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
    pole strictly outside, nothing within the pole tolerance of the boundary."""
    theta, _, radius = _sector_geometry(integrand.spec, contour.n)
    tol = _POLE_TOL
    if radius <= 1 + tol:
        return False, f"arc radius {radius:.6g} does not clear the pole at w=0"
    for p in integrand_poles(integrand):
        if abs(p) < 1e-9:
            continue  # the origin pole is the one we integrate around
        d = complex(p) - 1.0
        r_p = abs(d)
        phi = cmath.phase(d) % (2 * math.pi)
        inside_angle = theta - tol <= phi <= 2 * math.pi - theta + tol
        if inside_angle and r_p < radius + tol:
            return False, f"pole at w={p:.6g} inside the sector"
        # distance to each boundary piece
        for ang in (theta, -theta):
            e = cmath.exp(1j * ang)
            proj = min(max((d * e.conjugate()).real, 0.0), radius)
            if abs(d - proj * e) < tol:
                return False, f"pole at w={p:.6g} touches a ray"
        if inside_angle and abs(r_p - radius) < tol:
            return False, f"pole at w={p:.6g} touches the arc"
    return True, "ok"


def _nearest_pole(poles: np.ndarray) -> float:
    """The smallest nonzero pole modulus (1 if w=0 is the only pole)."""
    others = [abs(p) for p in poles if abs(p) > 1e-9]
    return min(others) if others else 1.0


def auto_contour(integrand: Integrand, n: int) -> ContourSpec:
    """The first contour of the automatic chain, each linked to the next by
    ``fallback``: the sector when its wedge validly encloses only w=0, then
    the float64 saddle circle (for n > _MPMATH_MAX_N), then the mpmath circle."""
    chain = ContourSpec(n=n, kind="circle", circle_radius=0.5 * _nearest_pole(integrand_poles(integrand)))
    if n > _MPMATH_MAX_N:
        chain = ContourSpec(n=n, kind="circle", fallback=chain)
    sector = ContourSpec(n=n, kind="sector", fallback=chain)
    ok, _ = sector_validity(integrand, sector)
    return sector if ok else chain


@functools.cache
def _gauss_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use.

    Not at import: numpy loads np.polynomial lazily, and a CLI command that
    never integrates a segment should not pay for it.
    """
    return np.polynomial.legendre.leggauss(_PANEL_POINTS)


def _gauss_panels(f: Callable[[np.ndarray], np.ndarray], breaks: Sequence[float]):
    """Gauss-Legendre on each [breaks[i], breaks[i+1]], all panels in one
    call of f: the per-panel sums of f, and the rule's integral of |f|."""
    xg, wg = _gauss_nodes()
    b = np.asarray(breaks, dtype=float)
    mid, half = 0.5 * (b[1:] + b[:-1]), 0.5 * (b[1:] - b[:-1])
    vals = f((mid[:, None] + half[:, None] * xg).ravel()).reshape(mid.size, xg.size)
    return half * (vals @ wg), float(half @ (np.abs(vals) @ wg))


def _refine_breaks(breaks: list[float]) -> list[float]:
    out = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        out.extend([lo, 0.5 * (lo + hi)])
    out.append(breaks[-1])
    return out


@dataclass(frozen=True)
class _Segment:
    """One path's integral: total, |F||dw| mass, tails past the split points,
    doublings used and the absolute change over the last one."""

    total: complex
    mass: float
    tails: list
    refinements: int
    delta: float


class _SegmentIntegrator:
    """Adaptive composite quadrature of F(w) dw / h_x(1)^(n+1) along one
    parametrized path.  Dividing by h_x(1)^(n+1) keeps the values near 1 at
    the saddle w = 1, where the sector's rays start, whatever n is."""

    def __init__(self, integrand: Integrand, n: int, poles: np.ndarray, contour: ContourSpec):
        self.spec = integrand.spec
        self.x = complex(integrand.x)
        self.n = n
        self.poles = poles
        self.rel_tol = contour.rel_tol
        self.max_refinements = contour.max_refinements
        self.log_den1 = cmath.log(_kernel(self.spec, self.x, 1.0)[0])  # h_x(1) = 1/(1 + S)

    def _integrand_values(self, w: np.ndarray) -> np.ndarray:
        if self.poles.size:
            dist = np.abs(w[:, None] - self.poles[None, :]).min(axis=1)
            if (dist < _POLE_TOL).any():
                worst = w[np.argmin(dist)]
                raise ContourCrossesPole(
                    f"quadrature node w={worst:.8g} within {_POLE_TOL} of a pole"
                )
        den, a = _kernel(self.spec, self.x, w)
        # (h/h(1))^(n+1) via exp; an integer power, so the log branch cancels
        return a * np.exp((self.n + 1) * (self.log_den1 - np.log(den)))

    def integrate(
        self,
        to_w: Callable[[np.ndarray], np.ndarray],
        dw: Callable[[np.ndarray], np.ndarray],
        breaks: list[float],
        split_at: Sequence[float] = (),
        abs_tol: float = 0.0,
    ) -> _Segment:
        """Integrate F(w(s)) w'(s) ds over the break grid, with the absolute
        sub-integrals beyond each requested split point.

        abs_tol is a floor for the convergence test: a segment whose whole
        contribution sits below it (e.g. the closing arc, often ~1e-100 of
        the rays) is accepted without chasing relative digits of noise.
        """
        breaks = sorted(set(breaks) | {s for s in split_at if breaks[0] < s < breaks[-1]})

        def f(s: np.ndarray) -> np.ndarray:
            # an overflow is refused here, not left to stall the refinement
            with np.errstate(over="ignore", invalid="ignore"):
                values = self._integrand_values(to_w(s)) * dw(s)
            if not np.isfinite(values).all():
                raise _overflow("the contour integrand a_x h_x^(n+1)", self.n)
            return values

        grid = list(breaks)
        panels, _ = _gauss_panels(f, grid)
        total = panels.sum()
        for refinements in range(1, self.max_refinements + 1):
            grid = _refine_breaks(grid)
            panels, mass = _gauss_panels(f, grid)
            total, prev = panels.sum(), total
            delta = abs(total - prev)
            tol = max(self.rel_tol * abs(total), abs_tol, 1e-300)
            if delta <= tol:
                break
            # rounding alone moves the sum by ~eps * mass: past tol, further
            # doublings would refine noise
            if _EPS * mass > tol:
                raise QuadratureNotConverged(
                    f"a sector segment is ill-conditioned at n={self.n}: condition number "
                    f"κ={mass / abs(total) if total else math.inf:.3g}, so rounding noise "
                    f"eps·κ exceeds the convergence tolerance"
                )
        else:
            raise QuadratureNotConverged(
                f"segment quadrature did not stabilize to rel {self.rel_tol}"
            )
        tails = [sum(p for p, lo in zip(panels, grid[:-1]) if lo >= cut) for cut in split_at]
        return _Segment(total, mass, tails, refinements, delta)


def _sector_coefficient(integrand: Integrand, contour: ContourSpec) -> ContourResult:
    spec = integrand.spec
    n = contour.n
    sigma = spec.sigma
    theta, t_max, radius = _sector_geometry(spec, n)

    ok, reason = sector_validity(integrand, contour)
    if not ok:
        raise ContourCrossesPole(f"sector contour invalid: {reason}")

    poles = integrand_poles(integrand)
    seg = _SegmentIntegrator(integrand, n, poles, contour)
    c = float(n) ** (-1.0 / sigma)
    s_max = t_max ** (1.0 / sigma)

    # Tail cut n^(1/(sigma+1)), taken both in the ray parameter t (w-distance
    # (t/n)^(1/sigma)) and in the regularized variable s = t^(1/sigma); both
    # tails are reported.
    t_cut = float(n) ** (1.0 / (sigma + 1))
    s_cut_t = min(t_cut, t_max) ** (1.0 / sigma)
    s_cut_s = min(t_cut, s_max)

    # s-grid: fine near the saddle (s=0), geometric growth outward
    breaks = [0.0, 0.25, 0.5, 1.0]
    while breaks[-1] < s_max:
        breaks.append(min(2 * breaks[-1], s_max))
    splits = sorted({s_cut_t, s_cut_s})

    def ray(e):
        def to_w(s):
            return 1.0 + c * s * e

        def dw(s):
            return np.full_like(s, c * e, dtype=complex)

        return seg.integrate(to_w, dw, breaks, splits)

    def arc(abs_tol):
        def to_w(phi):
            return 1.0 + radius * np.exp(1j * phi)

        def dw(phi):
            return 1j * radius * np.exp(1j * phi)

        npanels = 8
        grid = list(np.linspace(theta, 2 * math.pi - theta, npanels + 1))
        return seg.integrate(to_w, dw, grid, abs_tol=abs_tol)

    # Rays first (they carry the value); the arc then converges against an
    # absolute floor set by the ray scale, instead of chasing relative digits
    # of an exponentially negligible contribution.
    up = ray(cmath.exp(1j * theta))
    lo = ray(cmath.exp(-1j * theta))
    arc_floor = contour.rel_tol * max(abs(up.total), abs(lo.total), 1e-300) * 1e-3
    arc_seg = arc(arc_floor)

    # counterclockwise: upper ray outward, arc through angle pi, lower ray inward
    loop = up.total + arc_seg.total - lo.total
    mass = up.mass + arc_seg.mass + lo.mass
    condition = mass / abs(loop) if loop else math.inf
    if (n + 1) * condition * _EPS > contour.rel_tol:
        raise _ill_conditioned("the sector integral", condition, n, contour.rel_tol)
    # value = sigma^(n+1) h_x(1)^(n+1) loop / (2 pi i), combined in log scale
    log_scale = (n + 1) * (math.log(sigma) - seg.log_den1) - cmath.log(2j * math.pi)
    value = _from_log(log_scale + cmath.log(loop), n)

    def share(part: complex) -> float:
        return float(abs(part / loop))

    i_t, i_s = splits.index(s_cut_t), splits.index(s_cut_s)
    segments = {
        "ray_upper": complex(value * (up.total / loop)),
        "arc": complex(value * (arc_seg.total / loop)),
        "ray_lower": complex(value * (-lo.total / loop)),
    }
    diagnostics = {
        "arc_rel": share(arc_seg.total),
        "tail_rel_t_cut": share(up.tails[i_t] - lo.tails[i_t]),
        "tail_rel_s_cut": share(up.tails[i_s] - lo.tails[i_s]),
        "t_cut": float(t_cut),
        "s_cut": float(s_cut_s),
        "radius": float(radius),
        "theta": float(theta),
        "condition": float(condition),
        "refinements": max(up.refinements, arc_seg.refinements, lo.refinements),
        "last_delta": share(up.delta + arc_seg.delta + lo.delta),
    }
    return ContourResult(n=n, kind="sector", value=value, segments=segments, diagnostics=diagnostics)


def _saddle_circle_radius(integrand: Integrand, poles: np.ndarray) -> float:
    """The smallest nonzero |saddle|, refused unless inside the nearest pole."""
    saddles = find_saddle_points(integrand)
    radius = min(abs(w) for w in (saddles.main, *saddles.secondary) if w != 0)
    nearest = _nearest_pole(poles)
    if radius >= nearest - _POLE_TOL:
        raise ContourCrossesPole(
            f"saddle circle radius {radius:.6g} does not clear the pole at distance {nearest:.6g}"
        )
    return radius


def _float64_circle(integrand: Integrand, contour: ContourSpec) -> ContourResult:
    """Trapezoid rule on the saddle circle, in log scale: (1/2 pi i) of the
    closed integral of F dw is the mean of F(w) w over equispaced nodes.

    h_x is taken relative to its value at the saddle node w = r, so each
    log value stays O(1) where the integrand is large, and the scale
    (n+1) log(sigma h_x(r)) is added once at the end.
    """
    spec, n = integrand.spec, contour.n
    radius = _saddle_circle_radius(integrand, integrand_poles(integrand))
    x = complex(integrand.x)
    den_r, _ = _kernel(spec, x, radius)
    nodes = _CIRCLE_NODES
    prev = delta = None
    for refinements in range(contour.max_refinements + 1):
        w = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        den, a = _kernel(spec, x, w)
        with np.errstate(divide="ignore"):  # a is exactly 0 at some nodes
            log_f = np.log(a * w) - (n + 1) * np.log(den / den_r)
        top = log_f.real.max()
        g = np.exp(log_f - top)
        mean = complex(g.mean())
        condition = float(np.abs(g).mean()) / abs(mean) if mean else math.inf
        # the first pass may be too coarse to judge; every doubling is judged
        if refinements and (n + 1) * condition * _EPS > contour.rel_tol:
            raise _ill_conditioned("the saddle-circle integral", condition, n, contour.rel_tol)
        cur = top + cmath.log(mean) if mean else None
        if prev is not None and cur is not None:
            delta = abs(1 - cmath.exp(prev - cur))
            if delta <= contour.rel_tol:
                break
        prev = cur
        nodes *= 2
    else:
        raise QuadratureNotConverged(
            f"saddle-circle quadrature did not stabilize at {nodes // 2} nodes "
            f"(condition number κ={condition:.3g})"
        )
    value = _from_log(cur + (n + 1) * cmath.log(spec.sigma / den_r), n)
    diagnostics = {
        "radius": float(radius),
        "nodes": nodes,
        "dps": 15,
        "condition": condition,
        "refinements": refinements,
        "last_delta": delta,
    }
    return ContourResult(n=n, kind="circle", value=value, segments={"circle": value}, diagnostics=diagnostics)


def _mpmath_circle(integrand: Integrand, contour: ContourSpec) -> ContourResult:
    import mpmath as mp  # only this contour needs it

    spec = integrand.spec
    n = contour.n
    max_radius = _nearest_pole(integrand_poles(integrand))
    radius = contour.circle_radius if contour.circle_radius is not None else 0.5 * max_radius
    if radius <= 0 or radius >= max_radius - _POLE_TOL:
        raise ContourCrossesPole(
            f"circle radius {radius:.6g} does not separate w=0 from the pole at distance {max_radius:.6g}"
        )
    dps = 60 + n

    with mp.workdps(dps):
        xr = integrand.x
        if isinstance(xr, Fraction):
            x = mp.mpf(xr.numerator) / xr.denominator
        elif isinstance(xr, int):
            x = mp.mpf(xr)
        else:
            x = mp.mpmathify(xr)
        r = mp.mpf(radius)

        def trapezoid(nodes: int):
            acc, mass = mp.mpc(0), mp.mpf(0)
            for j in range(nodes):
                w = r * mp.expjpi(mp.mpf(2 * j) / nodes)
                den, a = _kernel(spec, x, w)
                term = a * den ** (-(n + 1)) * w
                acc += term
                mass += mp.fabs(term)
            return acc / nodes, mass / nodes  # (1/2*pi*i) closed integral F dw = mean of F(w)*w

        nodes = max(_CIRCLE_NODES, 2 * n + 16)
        prev, _ = trapezoid(nodes)
        # this pass is already good to ~2^-nodes relative, so a value twice
        # past float64 cannot come back into range: refuse before refining
        if mp.fabs(mp.mpf(spec.sigma) ** (n + 1) * prev) > 2 * mp.mpf(sys.float_info.max):
            raise _overflow("the contour value", n)
        for refinements in range(1, contour.max_refinements + 1):
            nodes *= 2
            cur, mass = trapezoid(nodes)
            delta = mp.fabs(cur - prev) / max(mp.fabs(cur), mp.mpf("1e-300"))
            prev = cur
            if delta <= contour.rel_tol:
                break
        else:
            raise QuadratureNotConverged(
                f"circle quadrature did not stabilize at {nodes} nodes (dps={dps})"
            )
        value = mp.mpf(spec.sigma) ** (n + 1) * prev
        _check_range(float(mp.log(mp.fabs(value))) if value else -math.inf, n)
        value = complex(value)
        condition = float(mass / mp.fabs(prev)) if prev else math.inf

    diagnostics = {
        "radius": radius,
        "nodes": nodes,
        "dps": dps,
        "condition": condition,
        "refinements": refinements,
        "last_delta": float(delta),
    }
    return ContourResult(n=n, kind="circle", value=value, segments={"circle": value}, diagnostics=diagnostics)


def contour_coefficient(integrand: Integrand, contour: ContourSpec) -> ContourResult:
    """Numerically extract the n-th coefficient along the given contour.

    The sector kind refuses (ContourCrossesPole) geometries whose wedge holds
    a pole besides w=0 — the integral would pick up its residue and stop
    matching the coefficient.  The float64 kinds refuse (QuadratureNotConverged)
    an integral too ill-conditioned for rel_tol.  ``contour.fallback`` is not
    followed here: coefficient_auto() does that.
    """
    if contour.kind == "sector":
        return _sector_coefficient(integrand, contour)
    if contour.circle_radius is None and contour.n > _MPMATH_MAX_N:
        return _float64_circle(integrand, contour)
    return _mpmath_circle(integrand, contour)


def coefficient_auto(integrand: Integrand, n: int) -> ContourResult:
    """contour_coefficient along auto_contour's chain: the first contour not
    refused by geometry or conditioning gives the value."""
    contour = auto_contour(integrand, n)
    while contour.fallback is not None:
        try:
            return contour_coefficient(integrand, contour)
        except (ContourCrossesPole, QuadratureNotConverged):
            contour = contour.fallback
    return contour_coefficient(integrand, contour)


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


def contour_samples(integrand: Integrand, n: int, t_values: Sequence[float]) -> list[tuple]:
    """(t, Re h, Im h, |h|^n) along the upper ray, for external plotting."""
    rows = []
    for t in t_values:
        h, _ = eval_integrand(integrand, _ray_point(integrand.spec, n, t))
        rows.append((t, h.real, h.imag, abs(h) ** n))
    return rows
