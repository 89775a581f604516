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

Two contours are implemented:

* "sector": two rays leaving w = 1 at angles +-pi*(sigma-1)/sigma, joined by
  the circular arc about w = 1 through their endpoints.  The ray is
  parametrized by t via w = 1 + (t/n)^(1/sigma) * e^(i*theta); quadrature
  runs in the regularized variable s = t^(1/sigma), in which the integrand
  is analytic at the saddle endpoint.  Valid only when no pole besides w = 0
  lies inside the wedge or near its boundary — true for x near 1, false in
  general (e.g. alpha=3, beta=2, x=2 puts a real pole at w ~ 0.099 inside
  any such wedge).
* "circle": a small origin-centered circle integrated by the trapezoid rule
  in high-precision arithmetic (spectrally accurate for Laurent series).
  Always valid; used as the automatic fallback.
"""
from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath as mp
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


def _S(spec: UrnSpec, x):
    """S = sigma*(x^-alpha - 1)/(alpha+beta), in the arithmetic of x."""
    return spec.sigma * (x ** (-spec.alpha) - 1) / (spec.alpha + spec.beta)


def _kernel(spec: UrnSpec, x, S, v):
    """(denominator of h_x, a_x) at v = 1 - w.

    Plain operators only, so one formula serves a Python complex, a numpy
    array and an mpmath number; each caller keeps its own arithmetic.
    """
    va = v**spec.alpha
    den = 1 + S - v ** (spec.alpha + spec.beta) * (S + va)
    a = v ** (spec.alpha + spec.beta - 2) * (x ** (-spec.alpha) - 1 + va)
    return den, a


def _ray_angle(sigma: int) -> float:
    """Angle of the upper ray at w = 1: pi*(sigma-1)/sigma, in [2pi/3, pi)."""
    return math.pi * (sigma - 1) / sigma


def _ray_point(spec: UrnSpec, n: int, t: float) -> complex:
    """The point at parameter t on the upper ray: w = 1 + (t/n)^(1/sigma) e^(i theta)."""
    return 1 + (t / n) ** (1.0 / spec.sigma) * cmath.exp(1j * _ray_angle(spec.sigma))


def _overflow(what: str, n: int) -> UrnlabError:
    return UrnlabError(f"{what} at n={n} overflows float64")


def _finite(value: complex, n: int) -> complex:
    if not cmath.isfinite(value):
        raise _overflow("the contour value", n)
    return value


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
    v = 1 - complex(w)
    S = integrand.S
    den, a = _kernel(spec, complex(integrand.x), S, v)
    m = abs(v)
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
    S = integrand.S
    c = 1 - x ** (-spec.alpha)
    secondary = []
    if abs(c) == 0:
        secondary = [1.0 + 0j] * spec.alpha  # coalesced onto the main point
    else:
        r = abs(c) ** (1.0 / spec.alpha)
        phi = cmath.phase(c) / spec.alpha
        for j in range(spec.alpha):
            gamma = r * cmath.exp(1j * (phi + 2 * math.pi * j / spec.alpha))
            secondary.append(1 - gamma)
    residuals = []
    for w in [1.0 + 0j] + secondary:
        v = 1 - w
        _, a = _kernel(spec, x, S, v)
        residuals.append(abs(v * a))
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
    ray endpoints.  With kind="circle", a circle of circle_radius around the
    origin is used (default: half the smallest nonzero pole modulus),
    integrated at 60 + n digits.  Either kind doubles its nodes up to
    max_refinements times until successive values agree to rel_tol.
    """

    n: int
    kind: str = "sector"
    max_refinements: int = 10
    rel_tol: float = 1e-9
    circle_radius: Optional[float] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind not in ("sector", "circle"):
            raise ValueError(f"unknown contour kind {self.kind!r}")


@dataclass(frozen=True)
class ContourResult:
    """Value plus per-segment contributions and convergence diagnostics."""

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


def auto_contour(integrand: Integrand, n: int) -> ContourSpec:
    """Sector when the wedge validly encloses only w=0, else circle fallback."""
    sector = ContourSpec(n=n, kind="sector")
    ok, _ = sector_validity(integrand, sector)
    return sector if ok else ContourSpec(n=n, kind="circle")


@functools.cache
def _gauss_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use.

    Not at import: numpy loads np.polynomial lazily, and a CLI command that
    never integrates a segment should not pay for it.
    """
    return np.polynomial.legendre.leggauss(_PANEL_POINTS)


def _gauss_panels(f: Callable[[np.ndarray], np.ndarray], breaks: Sequence[float]):
    """Gauss-Legendre on each [breaks[i], breaks[i+1]]; returns per-panel sums."""
    xg, wg = _gauss_nodes()
    out = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        vals = f(mid + half * xg)
        out.append(half * np.sum(vals * wg))
    return out


def _refine_breaks(breaks: list[float]) -> list[float]:
    out = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        out.extend([lo, 0.5 * (lo + hi)])
    out.append(breaks[-1])
    return out


class _SegmentIntegrator:
    """Adaptive composite quadrature of F(w) dw along one parametrized path."""

    def __init__(self, integrand: Integrand, n: int, poles: np.ndarray, contour: ContourSpec):
        self.spec = integrand.spec
        self.x = complex(integrand.x)
        self.S = integrand.S
        self.n = n
        self.poles = poles
        self.rel_tol = contour.rel_tol
        self.max_refinements = contour.max_refinements

    def _integrand_values(self, w: np.ndarray) -> np.ndarray:
        if self.poles.size:
            dist = np.abs(w[:, None] - self.poles[None, :]).min(axis=1)
            if (dist < _POLE_TOL).any():
                worst = w[np.argmin(dist)]
                raise ContourCrossesPole(
                    f"quadrature node w={worst:.8g} within {_POLE_TOL} of a pole"
                )
        den, a = _kernel(self.spec, self.x, self.S, 1.0 - w)
        # h^(n+1) via exp((n+1) * log h); integer power, so the log branch cancels
        log_h = -np.log(den)
        return a * np.exp((self.n + 1) * log_h)

    def integrate(
        self,
        to_w: Callable[[np.ndarray], np.ndarray],
        dw: Callable[[np.ndarray], np.ndarray],
        breaks: list[float],
        split_at: Sequence[float] = (),
        abs_tol: float = 0.0,
    ):
        """Integrate F(w(s)) w'(s) ds over the break grid; returns the total
        plus the absolute sub-integrals beyond each requested split point.

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
        panels = _gauss_panels(f, grid)
        total = sum(panels)
        for _ in range(self.max_refinements):
            grid2 = _refine_breaks(grid)
            panels2 = _gauss_panels(f, grid2)
            total2 = sum(panels2)
            if abs(total2 - total) <= max(self.rel_tol * abs(total2), abs_tol, 1e-300):
                grid, panels, total = grid2, panels2, total2
                break
            grid, panels, total = grid2, panels2, total2
        else:
            raise QuadratureNotConverged(
                f"segment quadrature did not stabilize to rel {self.rel_tol}"
            )
        tails = []
        for s_cut in split_at:
            tail = sum(p for p, lo in zip(panels, grid[:-1]) if lo >= s_cut)
            tails.append(tail)
        return total, tails


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
    up, tails_up = ray(cmath.exp(1j * theta))
    lo, tails_lo = ray(cmath.exp(-1j * theta))
    arc_floor = contour.rel_tol * max(abs(up), abs(lo), 1e-300) * 1e-3
    arc_val, _ = arc(arc_floor)

    # counterclockwise: upper ray outward, arc through angle pi, lower ray inward
    loop = up + arc_val - lo
    try:
        prefac = sigma ** (n + 1) / (2j * math.pi)
    except OverflowError:  # sigma^(n+1) alone is past float64
        raise _overflow("the contour value", n) from None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by _finite
        value = _finite(complex(prefac * loop), n)

    scale = abs(value) if value != 0 else 1e-300
    tail_t = abs(prefac * (tails_up[splits.index(s_cut_t)] - tails_lo[splits.index(s_cut_t)]))
    tail_s = abs(prefac * (tails_up[splits.index(s_cut_s)] - tails_lo[splits.index(s_cut_s)]))
    segments = {
        "ray_upper": complex(prefac * up),
        "arc": complex(prefac * arc_val),
        "ray_lower": complex(-prefac * lo),
    }
    diagnostics = {
        "arc_rel": float(abs(prefac * arc_val) / scale),
        "tail_rel_t_cut": float(tail_t / scale),
        "tail_rel_s_cut": float(tail_s / scale),
        "t_cut": float(t_cut),
        "s_cut": float(s_cut_s),
        "radius": float(radius),
        "theta": float(theta),
    }
    return ContourResult(n=n, kind="sector", value=value, segments=segments, diagnostics=diagnostics)


def _circle_coefficient(integrand: Integrand, contour: ContourSpec) -> ContourResult:
    spec = integrand.spec
    n = contour.n
    poles = integrand_poles(integrand)
    others = [abs(p) for p in poles if abs(p) > 1e-9]
    max_radius = min(others) if others else 1.0
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
        S = _S(spec, x)
        r = mp.mpf(radius)

        def trapezoid(nodes: int):
            acc = mp.mpc(0)
            for j in range(nodes):
                w = r * mp.expjpi(mp.mpf(2 * j) / nodes)
                den, a = _kernel(spec, x, S, 1 - w)
                h_pow = mp.e ** (-(n + 1) * mp.log(den))
                acc += a * h_pow * w
            return acc / nodes  # (1/2*pi*i) closed integral F dw = mean of F(w)*w

        nodes = max(_CIRCLE_NODES, 2 * n + 16)
        prev = trapezoid(nodes)
        # this pass is already good to ~2^-nodes relative, so a value twice
        # past float64 cannot come back into range: refuse before refining
        if mp.fabs(mp.mpf(spec.sigma) ** (n + 1) * prev) > 2 * mp.mpf(sys.float_info.max):
            raise _overflow("the contour value", n)
        converged = False
        for _ in range(contour.max_refinements):
            nodes *= 2
            cur = trapezoid(nodes)
            if mp.fabs(cur - prev) <= contour.rel_tol * max(mp.fabs(cur), mp.mpf("1e-300")):
                converged = True
                prev = cur
                break
            prev = cur
        if not converged:
            raise QuadratureNotConverged(
                f"circle quadrature did not stabilize at {nodes} nodes (dps={dps})"
            )
        value = _finite(complex(mp.mpf(spec.sigma) ** (n + 1) * prev), n)

    return ContourResult(
        n=n,
        kind="circle",
        value=value,
        segments={"circle": value},
        diagnostics={"radius": radius, "nodes": float(nodes), "dps": float(dps)},
    )


def contour_coefficient(integrand: Integrand, contour: ContourSpec) -> ContourResult:
    """Numerically extract the n-th coefficient along the given contour.

    The sector kind refuses (ContourCrossesPole) geometries whose wedge holds
    a pole besides w=0 — the integral would pick up its residue and stop
    matching the coefficient.  auto_contour() chooses a valid kind upfront.
    """
    if contour.kind == "sector":
        return _sector_coefficient(integrand, contour)
    return _circle_coefficient(integrand, contour)


def coefficient_auto(integrand: Integrand, n: int) -> ContourResult:
    """Convenience: contour_coefficient over auto_contour."""
    return contour_coefficient(integrand, auto_contour(integrand, n))


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
