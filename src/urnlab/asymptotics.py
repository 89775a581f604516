"""Limit-law parameters and the error metrics that test them.

Everything here is the second half of a comparison: closed-form predictions
(Gaussian parameters mu and nu^2, the quasi-power form of the probability
generating function, the large-deviation rate W) on one side, and exact
distributions out of the history DP on the other.  The functions return
scalar error metrics so the n-scaling of each law can be measured directly.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Union

from ._record import record
from .errors import OutOfInterval
from .histories import HistoryTable, LogHistoryTable, MassTable
from .urn import UrnSpec

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi_cdf(t: float) -> float:
    """Standard normal CDF via erfc; absolute accuracy ~1e-16."""
    return 0.5 * math.erfc(-t / SQRT2)


def _phi_density(t: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * t * t)


@record
class LimitParams:
    """Gaussian limit parameters: (X_n - mu*n)/(nu*sqrt(n)) -> N(0,1)."""

    mu: Fraction
    nu2: Fraction

    def __post_init__(self):
        if self.mu <= 0 or self.nu2 <= 0:
            raise ValueError("limit parameters must be positive")

    @property
    def nu(self) -> float:
        return math.sqrt(self.nu2)


def limit_params(spec: UrnSpec) -> LimitParams:
    """Exact rational mu = a(2a+b)/(a+b) and nu^2 = a^3(2a+b)/(a+b)^2.

    >>> limit_params(UrnSpec(1, 1, 0, 1))
    LimitParams(mu=Fraction(3, 2), nu2=Fraction(3, 4))
    """
    a, b = spec.alpha, spec.beta
    return LimitParams(
        mu=Fraction(a * (2 * a + b), a + b),
        nu2=Fraction(a**3 * (2 * a + b), (a + b) ** 2),
    )


def mean_variance_expansion(spec: UrnSpec, n: int) -> tuple[float, float]:
    """Second-order mean and first-order variance predictions for the urn's
    own start (a0, b0):

    mean ~ mu*n - C * n^(a/sigma) + a*s0/(a+b),   C = ``mean_correction_coefficient``
    var  ~ nu2*n

    with s0 = a0 + b0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b = spec.alpha, spec.beta
    s0 = spec.a0 + spec.b0
    params = limit_params(spec)
    coeff = mean_correction_coefficient(spec)
    mean = float(params.mu) * n - coeff * n ** (a / spec.sigma) + a * s0 / (a + b)
    variance = float(params.nu2) * n
    return mean, variance


def mean_correction_coefficient(spec: UrnSpec) -> float:
    """C = (a*s0/(a+b) - a0) * Gamma(s0/sigma)/Gamma((s0+a)/sigma), s0 = a0 + b0
    (~0.98917 for A(1,1) from one white ball).

    The mean recurrence m_{n+1} = m_n (1 + a/s_n) + a, s_n = s0 + sigma*n,
    has the exact solution m_n = mu*n + a*s0/(a+b) + (a0 - a*s0/(a+b)) *
    prod_{j<n} (1 + a/s_j), and the product is ~Gamma(s0/sigma) /
    Gamma((s0+a)/sigma) * n^(a/sigma): the mean is mu*n - C n^(a/sigma) +
    a*s0/(a+b) + o(1).
    """
    a, b = spec.alpha, spec.beta
    s0 = spec.a0 + spec.b0
    # the Gamma ratio from lgamma: each Gamma overflows past ~171.6, the ratio does not
    ratio = math.exp(math.lgamma(s0 / spec.sigma) - math.lgamma((s0 + a) / spec.sigma))
    return (a * s0 / (a + b) - spec.a0) * ratio


def quasi_power_modulus(params: LimitParams, u: float) -> float:
    """|p_n(e^(i*u/sqrt(n)))| prediction: exp(-nu2*u^2/2), independent of n."""
    return math.exp(-0.5 * float(params.nu2) * u * u)


LimitTable = Union[HistoryTable, MassTable, LogHistoryTable]


def _row_masses(table: LimitTable, n: int) -> Iterator[tuple[int, float, float, float]]:
    """(black, mass, P(X_n < black), P(X_n <= black)) for k = 0..n.

    From an exact table the CDF values are exact integer prefix sums divided
    by the row total; from a float table (masses, or exp of log masses) they
    are a running float sum of the masses.
    """
    spec = table.spec
    if isinstance(table, HistoryTable):
        total = table.row_total(n)
        cum = 0
        for k, count in enumerate(table.row(n)):
            below, cum = cum, cum + count
            yield spec.black_count(n, k), count / total, below / total, cum / total
        return
    cum = 0.0
    for k, mass in enumerate(table.masses(n)):
        below, cum = cum, cum + mass
        yield spec.black_count(n, k), mass, below, cum


def _first_order(params: LimitParams, n: int) -> tuple[float, float]:
    """The first-order centre mu*n and scale nu*sqrt(n) of X_n at n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1 for a limit-law metric; got n={n}")
    return float(params.mu) * n, params.nu * math.sqrt(n)


def gaussian_cdf_error(table: LimitTable, params: LimitParams, n: int) -> float:
    """Kolmogorov distance between the normalized law of X_n and N(0,1).

    The sup of |F_n(t) - Phi(t)| over all t is attained at the jump points
    of the step function F_n, comparing Phi against both the left limit and
    the value at each jump.
    """
    mu_n, scale = _first_order(params, n)
    worst = 0.0
    for black, mass, below, at in _row_masses(table, n):
        if mass == 0:
            continue
        phi = _phi_cdf((black - mu_n) / scale)
        worst = max(worst, abs(below - phi), abs(at - phi))
    return worst


def local_limit_error(table: LimitTable, params: LimitParams, n: int) -> float:
    """Sup-norm distance between the lattice-normalized masses and the
    standard normal density.

    X_n lives on a lattice of span alpha, so each mass is compared as a
    density estimate mass * nu*sqrt(n)/alpha at its own normalized abscissa.
    One lattice step beyond each end of the support the mass is zero while
    the density is not; those two points are included in the sup.
    """
    spec = table.spec
    mu_n, scale = _first_order(params, n)
    cell = spec.alpha / scale
    worst = 0.0
    for black, mass, _, _ in _row_masses(table, n):
        worst = max(worst, abs(mass / cell - _phi_density((black - mu_n) / scale)))
    for black_outside in (spec.black_count(n, 0) - spec.alpha, spec.black_count(n, n) + spec.alpha):
        worst = max(worst, _phi_density((black_outside - mu_n) / scale))
    return worst


@record
class RateFunction:
    """Large-deviation data on [x0, x1] = [xi, 2-xi] for xi in (0, 1).

    chi(x) = x^mu * exp((nu2/2) ln(x)^2) is the per-step growth factor of
    the probability generating function; the admissible deviation interval
    [t0, t1] is the image of [x0, x1] under x -> x * chi'(x)/chi(x).
    """

    params: LimitParams
    xi: float

    def __post_init__(self):
        if not 0.0 < self.xi < 1.0:
            raise ValueError("xi must lie in (0, 1)")

    @property
    def x0(self) -> float:
        return self.xi

    @property
    def x1(self) -> float:
        return 2.0 - self.xi

    @property
    def t0(self) -> float:
        return float(self.params.mu) + float(self.params.nu2) * math.log(self.x0)

    @property
    def t1(self) -> float:
        return float(self.params.mu) + float(self.params.nu2) * math.log(self.x1)


def rate_function_eval(rf: RateFunction, t: float) -> float:
    """W(t) = -min over [x0, x1] of log(chi(x)/x^t), for t in [t0, t1].

    The objective f(u) = (mu - t) u + (nu2/2) u^2 is a convex quadratic in
    u = ln x, so its minimiser is u = (t - mu)/nu2, clamped to
    [ln x0, ln x1] (it lies inside up to rounding at t0 and t1), and W is
    -f there: the objective itself, not the closed form (t - mu)^2 / (2 nu2)
    it equals.  W(mu) is +0.0.
    """
    if not rf.t0 <= t <= rf.t1:
        raise OutOfInterval(f"t={t} outside [{rf.t0}, {rf.t1}]")
    mu, nu2 = float(rf.params.mu), float(rf.params.nu2)
    u = min(max((t - mu) / nu2, math.log(rf.x0)), math.log(rf.x1))
    return 0.0 - ((mu - t) * u + 0.5 * nu2 * u * u)


def rate_function_closed_form(rf: RateFunction, t: float) -> float | None:
    """(t-mu)^2/(2 nu2) when the stationary point is interior, else None.

    Interior means t in [t0, t1], the interval ``rate_function_eval``
    accepts, tested on t: at t1 (or t0) the stationary point (t - mu)/nu2
    can round one ulp past ln x1 (or ln x0).
    """
    mu, nu2 = float(rf.params.mu), float(rf.params.nu2)
    if rf.t0 <= t <= rf.t1:
        return (t - mu) ** 2 / (2.0 * nu2)
    return None


def tail_side(params: LimitParams, t: float) -> str:
    """The side of the tail P(X_n >= t*n) or P(X_n <= t*n) that
    ``empirical_tail_exponent`` measures: 'right' for t >= mu, else 'left'."""
    return "right" if t >= float(params.mu) else "left"


def empirical_tail_exponent(
    table: Union[HistoryTable, LogHistoryTable],
    params: LimitParams,
    n: int,
    t: float,
) -> float:
    """-(1/n) * log of the exact tail mass P(X_n >= t*n) (or <= for t < mu).

    Works from either the exact big-integer table or the log-space one; in
    both cases the log is taken before any underflow can occur.  At t = mu
    the (right) tail mass is Theta(1), so the exponent tends to 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 for a limit-law metric; got n={n}")
    log_tail = table.log_tail(n, t * n, tail_side(params, t))
    return -log_tail / n if log_tail else 0.0  # a tail holding all the mass is +0.0, not -0.0
