"""Truncated power series of the history generating function, and the
algebraic identity its slices satisfy.

For a fixed evaluation point x, the exponential generating function of
histories has z-coefficients

    c_n = (1/n!) * sum_k counts[n][k] * x**black(n, k)

and, when the urn starts as a single white ball, y(z) = sum c_n z^n is a root
of the degree-sigma polynomial

    (z - A - B) * y**sigma + B * y**alpha + A,     A = 1/sigma,
                                                   B = (x**-alpha - 1)/(alpha+beta).

The residual of that polynomial against a truncated y must vanish through the
truncation order, and is checked exactly: x must be rational.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from ._record import record
from .errors import RowMissing
from .histories import HistoryTable, total_histories
from .saddle import _den_coefficients
from .urn import UrnSpec


@record
class TruncatedSeries:
    """Coefficients c_0..c_order of the history EGF at a fixed x."""

    x_value: object
    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs length must be order + 1")


def _exact_x(x_value) -> Fraction:
    if not isinstance(x_value, Rational):
        raise ValueError(f"x must be rational (an int or a Fraction); got {x_value!r}")
    if x_value == 0:
        raise ValueError("x must be nonzero")
    return Fraction(x_value)


def series_coefficient(table: HistoryTable, x_value, n: int) -> Fraction:
    """c_n alone, from row n of the table (which may keep only that row),
    at a rational x_value.

    With x = p/q and top the largest exponent black(n, n), the sum of
    count * p^e * q^(top - e) is formed in integers and divided once by
    q^top * n!.
    """
    x_value = _exact_x(x_value)
    if n > table.n_max:
        raise RowMissing(f"order {n} > table n_max {table.n_max}")
    if n < 0:
        raise ValueError("order must be >= 0")
    spec = table.spec
    p, q = x_value.numerator, x_value.denominator
    e, top = spec.black_count(n, 0), spec.black_count(n, n)
    pe, qe = p**e, q ** (top - e)  # p^e and q^(top - e), stepped with e
    pa, qa = p**spec.alpha, q**spec.alpha
    acc = 0
    for c in table.row(n):
        if c:
            acc += c * pe * qe
        pe *= pa
        qe //= qa
    return Fraction(acc, q**top * math.factorial(n))


def series_from_table(table: HistoryTable, x_value, order: int) -> TruncatedSeries:
    """Build the truncated series c_0..c_order from exact counts (every row
    up to ``order`` must be kept), exactly as ``series_coefficient``."""
    x_value = _exact_x(x_value)
    if order > table.n_max:
        raise RowMissing(f"order {order} > table n_max {table.n_max}")
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = tuple(series_coefficient(table, x_value, n) for n in range(order + 1))
    return TruncatedSeries(x_value, order, coeffs)


@record
class AlgebraicEquation:
    """The polynomial (z - A - B_x) y^sigma + B_x y^alpha + A.

    Only valid for the single-white start; raises UnsupportedInitialConfig
    otherwise.
    """

    spec: UrnSpec

    def __post_init__(self):
        self.spec.require_single_white("the algebraic identity")

    def B(self, x) -> Fraction:
        """(x**-alpha - 1) / (alpha + beta) at a rational x."""
        return (_exact_x(x) ** (-self.spec.alpha) - 1) / (self.spec.alpha + self.spec.beta)


def _mul_trunc(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i in range(min(len(a), order + 1)):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(min(len(b), order + 1 - i)):
            out[i + j] += ai * b[j]
    return out


def _pow_trunc(a: Sequence[int], exponent: int, order: int) -> list[int]:
    out = [1] + [0] * order
    for _ in range(exponent):
        out = _mul_trunc(out, a, order)
    return out


def algebraic_residual(series: TruncatedSeries, eq: AlgebraicEquation) -> tuple:
    """Coefficients (through the series order) of the defining polynomial
    applied to the truncated series; every entry must vanish.

    x and the coefficients must be rational.  The series is scaled by the
    lcm L of its denominators and convolved in integers: with Y = L*y and
    B = b/d, the n-th residual is

        (s d [Y^sigma]_(n-1) - (d + s b) [Y^sigma]_n
         + s b L^(alpha+beta) [Y^alpha]_n + d L^sigma [n = 0]) / (s d L^sigma),

    s = sigma, formed once as a Fraction.
    """
    spec = eq.spec
    N, s = series.order, spec.sigma
    B = eq.B(series.x_value)
    for c in series.coeffs:
        if not isinstance(c, Rational):
            raise ValueError(f"series coefficients must be rational; got {c!r}")
    L = math.lcm(*(c.denominator for c in series.coeffs))
    y = [c.numerator * (L // c.denominator) for c in series.coeffs]
    b, d = B.numerator, B.denominator
    y_alpha = _pow_trunc(y, spec.alpha, N)
    y_sigma = _mul_trunc(y_alpha, _pow_trunc(y, spec.alpha + spec.beta, N), N)
    L_ab, L_sigma = L ** (spec.alpha + spec.beta), L**s  # y^alpha, y^sigma carry L^alpha, L^sigma
    res = []
    for n in range(N + 1):
        r = s * b * L_ab * y_alpha[n] - (d + s * b) * y_sigma[n]
        if n >= 1:  # z * y^sigma shifts coefficients up by one
            r += s * d * y_sigma[n - 1]
        if n == 0:
            r += d * L_sigma
        res.append(Fraction(r, s * d * L_sigma))
    return tuple(res)


def closed_form_x1_coefficient(spec: UrnSpec, n: int) -> Fraction:
    """c_n at x = 1, exactly: [z^n] of (1 - sigma*z)**(-s0/sigma), s0 = a0 + b0.

    At x = 1 the coefficient counts every history, c_n =
    total_histories(spec, n)/n!, for any start.  The binomial expansion gives
    sigma^n * (s0/sigma)(s0/sigma + 1)...(s0/sigma + n - 1)/n!, whose
    numerator telescopes to the integer product prod_{j<n} (s0 + sigma*j).
    """
    return Fraction(total_histories(spec, n), math.factorial(n))


def lagrange_coefficient(spec: UrnSpec, x, n: int) -> Fraction:
    """c_n at a rational x, exactly, by Lagrange inversion; no history table.

    With S = sigma*(x^-alpha - 1)/(alpha+beta) and v = 1 - w, the contour
    form c_n = sigma^(n+1)/(2 pi i) closed integral of a(w)/den(w)^(n+1) dw
    has den(w) = 1 + S - v^(alpha+beta) (S + v^alpha) = w E(w)/(alpha+beta),
    E from saddle._den_coefficients, and a(w) = v^(alpha+beta-2)
    (x^-alpha - 1 + v^alpha), so its residue at w = 0 is c_n =
    x^(alpha(n+1)) [w^n] a(w) e(w)^-(n+1), e = E/E(0).  J.C.P. Miller's
    rule gives the powers g = e^m, m = -(n+1):
    k g_k = sum_{j=1..sigma-1} e_j (m j - (k-j)) g_{k-j}.  With
    D the common denominator of the e_j, e is an integer polynomial in w/D
    with constant term 1, so h_k = g_k D^k are integers and the division by
    k is exact: O(n sigma) integer operations.

    >>> lagrange_coefficient(UrnSpec(1, 1, 0, 1), 2, 8)
    Fraction(14604634, 9)
    """
    spec.require_single_white("the Lagrange form")
    if n < 0:
        raise ValueError("n must be >= 0")
    x = _exact_x(x)
    al, ab, sigma = spec.alpha, spec.alpha + spec.beta, spec.sigma
    c = x**-al
    E = _den_coefficients(spec, c)
    a = [(-1) ** j * ((c - 1) * math.comb(ab - 2, j) + math.comb(sigma - 2, j)) for j in range(sigma - 1)]  # [w^j] of a
    e = [Ej / E[0] for Ej in E]
    D = math.lcm(*(q.denominator for q in e))
    b = [int(ej * D**j) for j, ej in enumerate(e)]
    m = -(n + 1)
    h = deque([1], maxlen=sigma - 1)  # h_{k-sigma+1} .. h_{k-1}
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, min(k, sigma - 1) + 1):
            acc += b[j] * (m * j - (k - j)) * h[-j]
        h.append(acc // k)
    L = math.lcm(*(q.denominator for q in a))
    total = sum(int(a[j] * L) * D**j * h[-1 - j] for j in range(min(n, sigma - 2) + 1))
    return x ** (al * (n + 1)) * Fraction(total, L * D**n)


def x1_asymptotic_ratio(spec: UrnSpec, n: int) -> float:
    """c_n * Gamma(s0/sigma) * n^(1 - s0/sigma) / sigma^n at x = 1, s0 = a0 + b0,
    evaluated in log space.

    Tends to 1 with an O(1/n) deviation.  log c_n is accumulated from the
    coefficient's own factors (fsum of the product logs minus log n!), so the
    ratio measures the actual coefficients, not a Stirling approximation of
    them; usable far beyond exact-arithmetic reach.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s0 = spec.a0 + spec.b0
    inv = s0 / spec.sigma
    # log(s0 + sigma*j), as log1p so that the single-white start sums log1p(sigma*j)
    log_cn = math.fsum(math.log1p(s0 - 1 + spec.sigma * j) for j in range(n)) - math.lgamma(n + 1)
    log_ratio = (
        log_cn + math.lgamma(inv) - n * math.log(spec.sigma) + (1.0 - inv) * math.log(n)
    )
    return math.exp(log_ratio)
