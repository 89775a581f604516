"""Limit-law parameters, error metrics, and the deviation rate function.

Frozen six-digit metric values act as regression pins (the computations are
exact-arithmetic underneath and fully deterministic); one case per metric is
additionally recomputed against scipy as an independent implementation.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from scipy.stats import norm

from urnlab import (
    EmptyTail,
    LimitParams,
    OutOfInterval,
    RateFunction,
    UrnSpec,
    build_log_table,
    empirical_tail_exponent,
    exact_distribution,
    exact_moments,
    gaussian_cdf_error,
    limit_params,
    local_limit_error,
    mean_correction_coefficient,
    mean_variance_expansion,
    moment_ladder,
    quasi_power_modulus,
    rate_function_closed_form,
    rate_function_eval,
)
from urnlab.asymptotics import tail_side


@pytest.fixture(scope="module")
def p11():
    return limit_params(UrnSpec(1, 1, 0, 1))


@pytest.fixture(scope="module")
def p32():
    return limit_params(UrnSpec(3, 2, 0, 1))


# -- parameters ----------------------------------------------------------------


def test_limit_params_exact_values(p11, p32):
    assert (p11.mu, p11.nu2) == (Fraction(3, 2), Fraction(3, 4))
    assert (p32.mu, p32.nu2) == (Fraction(24, 5), Fraction(216, 25))
    assert p11.nu == pytest.approx(math.sqrt(0.75))


def test_limit_params_must_be_positive():
    with pytest.raises(ValueError):
        LimitParams(mu=Fraction(0), nu2=Fraction(1))
    with pytest.raises(ValueError):
        LimitParams(mu=Fraction(1), nu2=Fraction(-1))


def test_mean_expansion_validation():
    with pytest.raises(ValueError):
        mean_variance_expansion(UrnSpec(1, 1, 0, 1), -1)


def test_mean_correction_coefficient_value():
    # (1/2) Gamma(1/3) / Gamma(2/3)
    c = mean_correction_coefficient(UrnSpec(1, 1, 0, 1))
    assert c == pytest.approx(0.5 * math.gamma(1 / 3) / math.gamma(2 / 3), rel=1e-15)
    assert c == pytest.approx(0.98918, abs=5e-6)


@pytest.mark.parametrize("a0, b0", [(0, 1000), (600, 0)])
def test_mean_prediction_at_a_large_start(a0, b0):
    # Gamma(s0/sigma) alone overflows float64 past s0/sigma ~ 171.6; the
    # ratio does not (~0.144 for s0 = 1000)
    spec = UrnSpec(1, 1, a0, b0)
    s0, sigma = mpmath.mpf(a0 + b0), 3
    with mpmath.workdps(40):
        ratio = mpmath.exp(mpmath.loggamma(s0 / sigma) - mpmath.loggamma((s0 + 1) / sigma))
        coeff = (s0 / 2 - a0) * ratio
        for n in (3, 10**6):
            reference = mpmath.mpf(3) / 2 * n - coeff * mpmath.cbrt(n) + s0 / 2
            predicted, _ = mean_variance_expansion(spec, n)
            assert abs(predicted - reference) <= 1e-12 * abs(reference), n


@pytest.mark.parametrize("alpha, beta", [(1, 1), (3, 2), (2, 5), (1, 4), (9, 7)])
def test_mean_prediction_holds_for_the_urns_own_start(alpha, beta):
    # mu*n - C n^(a/sigma) + a*s0/(a+b) is off the exact mean by O(n^(a/sigma - 1))
    for a0, b0 in ((0, 1), (1, 0), (1, 1), (7, 0), (2, 3), (0, 2), (3, 4), (5, 1)):
        spec = UrnSpec(alpha, beta, a0, b0)
        for n, (mean, _) in moment_ladder(spec, [1000, 4000]).items():
            predicted, _ = mean_variance_expansion(spec, n)
            assert abs(predicted - float(mean)) < 0.05, (spec, n)


def test_mean_expansion_tracks_exact_mean(big11, mid32):
    # the scaled residual (mean_n - mu n - a/(a+b)) / n^(a/sigma) must sit
    # within 0.01 of the (negative) correction coefficient
    for table, n in ((big11, 500), (mid32, 400)):
        spec = table.spec
        params = limit_params(spec)
        mean, _ = exact_moments(table, n)
        coeff = mean_correction_coefficient(spec)
        a, b = spec.alpha, spec.beta
        ratio = (float(mean) - float(params.mu) * n - a / (a + b)) / n ** (a / spec.sigma)
        assert ratio == pytest.approx(-coeff, abs=0.01)


# -- quasi-power form of the pgf -------------------------------------------------


def test_quasi_power_modulus_is_n_free(p11, p32):
    for params in (p11, p32):
        u = 0.8
        want = math.exp(-0.5 * float(params.nu2) * u * u)
        assert quasi_power_modulus(params, u) == pytest.approx(want, rel=1e-15)


def test_quasi_power_tracks_exact_pgf(log11_1600, p11):
    # |p_n(e^{iu/sqrt n})| converges to the predicted modulus as n grows
    u = 1.0
    errs = []
    for n in (100, 400, 1600):
        exact = abs(log11_1600.pgf(n, complex(math.cos(u / math.sqrt(n)), math.sin(u / math.sqrt(n)))))
        errs.append(abs(exact - quasi_power_modulus(p11, u)))
    assert errs[0] > errs[1] > errs[2]


# -- Gaussian law error metrics --------------------------------------------------


def test_cdf_error_pins(big11, mid32, p11, p32):
    assert gaussian_cdf_error(big11, p11, 25) == pytest.approx(0.31348114482833916, rel=1e-9)
    assert gaussian_cdf_error(big11, p11, 400) == pytest.approx(0.17940618447460777, rel=1e-9)
    assert gaussian_cdf_error(mid32, p32, 400) == pytest.approx(0.18395186094710758, rel=1e-9)


def test_cdf_error_against_scipy(big11, p11):
    # independent implementation of the same Kolmogorov sup
    n = 25
    dist = exact_distribution(big11, n)
    mu_n = 1.5 * n
    scale = p11.nu * math.sqrt(n)
    cum = Fraction(0)
    worst = 0.0
    for b in sorted(dist.masses):
        t = (b - mu_n) / scale
        lo = float(cum)
        cum += dist.masses[b]
        hi = float(cum)
        phi = norm.cdf(t)
        worst = max(worst, abs(lo - phi), abs(hi - phi))
    assert gaussian_cdf_error(big11, p11, n) == pytest.approx(worst, rel=1e-12)


def test_cdf_error_decreases(big11, mid32, p11, p32):
    for table, params in ((big11, p11), (mid32, p32)):
        errs = [gaussian_cdf_error(table, params, n) for n in (25, 100, 400)]
        assert errs[0] > errs[1] > errs[2]


def test_local_error_pins(big11, mid32, p11, p32):
    assert local_limit_error(big11, p11, 100) == pytest.approx(0.15238172503388736, rel=1e-9)
    assert local_limit_error(big11, p11, 900) == pytest.approx(0.09565979185249751, rel=1e-9)
    assert local_limit_error(mid32, p32, 400) == pytest.approx(0.11696587509158135, rel=1e-9)


def test_local_error_against_scipy(big11, p11):
    n = 100
    dist = exact_distribution(big11, n, numeric=True)
    scale = p11.nu * math.sqrt(n)
    worst = 0.0
    for b, m in dist.masses.items():
        t = (b - 1.5 * n) / scale
        worst = max(worst, abs(m * scale - norm.pdf(t)))
    # the support has a hole one lattice step outside each end; the package
    # includes those two density values, scipy recheck must too
    lo, hi = min(dist.masses), max(dist.masses)
    for b in (lo - 1, hi + 1):
        worst = max(worst, norm.pdf((b - 1.5 * n) / scale))
    assert local_limit_error(big11, p11, n) == pytest.approx(worst, rel=1e-12)


def test_local_error_decreases_and_lattice_normalization_sane(mid32, p32):
    errs = [local_limit_error(mid32, p32, n) for n in (25, 100, 400)]
    assert errs[0] > errs[1] > errs[2]
    # without the span-alpha cell normalization these would all exceed 1
    assert errs[-1] < 0.5


def test_metrics_require_retained_rows(big11, p11):
    from urnlab import RowMissing

    with pytest.raises(RowMissing):
        gaussian_cdf_error(big11, p11, 26)
    with pytest.raises(RowMissing):
        local_limit_error(big11, p11, 26)


@pytest.mark.parametrize("n", [0, -1])
def test_metrics_refuse_fewer_than_one_step(urn11, p11, n):
    table = build_log_table(urn11, 2)
    for metric in (gaussian_cdf_error, local_limit_error):
        with pytest.raises(ValueError, match=f"n={n}"):
            metric(table, p11, n)
    with pytest.raises(ValueError, match=f"n={n}"):
        empirical_tail_exponent(table, p11, n, 1.8)


# -- deviation rate function -----------------------------------------------------


def test_rate_function_interval(p11):
    rf = RateFunction(p11, 0.5)
    assert (rf.x0, rf.x1) == (0.5, 1.5)
    assert rf.t0 == pytest.approx(1.5 + 0.75 * math.log(0.5), rel=1e-15)
    assert rf.t1 == pytest.approx(1.5 + 0.75 * math.log(1.5), rel=1e-15)


def test_rate_function_xi_validation(p11):
    for xi in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            RateFunction(p11, xi)


RATE_URNS = ((1, 1), (3, 2), (2, 1), (1, 3), (2, 5))


def test_rate_at_the_mean_is_zero():
    # +0.0, which prints as 0.0, not -0.0
    for alpha, beta in RATE_URNS:
        params = limit_params(UrnSpec(alpha, beta, 0, 1))
        for xi in (0.1, 0.5, 0.9):
            w = rate_function_eval(RateFunction(params, xi), float(params.mu))
            assert (w, math.copysign(1.0, w)) == (0.0, 1.0), (alpha, beta, xi, w)


def test_rate_known_value(p11):
    # (1.8 - 1.5)^2 / (2 * 0.75) = 0.06
    rf = RateFunction(p11, 0.5)
    assert rate_function_eval(rf, 1.8) == pytest.approx(0.06, abs=1e-10)


def test_rate_matches_closed_form_on_a_grid(p11, p32):
    for params in (p11, p32):
        rf = RateFunction(params, 0.5)
        span = rf.t1 - rf.t0
        for i in range(1, 100):
            t = rf.t0 + span * i / 100.0
            cf = rate_function_closed_form(rf, t)
            assert cf is not None
            assert abs(rate_function_eval(rf, t) - cf) <= 1e-10


def _golden_rate(rf, t):
    """W(t) by a golden-section search on x to 1e-12, with f(1) = 0 folded
    in: an independent numeric minimiser of the same objective."""
    mu, nu2 = float(rf.params.mu), float(rf.params.nu2)

    def f(x):
        lx = math.log(x)
        return (mu - t) * lx + 0.5 * nu2 * lx * lx

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = rf.x0, rf.x1
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-12:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    fmin = min(f(0.5 * (lo + hi)), 0.0)
    return 0.0 if fmin == 0.0 else -fmin


def test_rate_matches_a_golden_section_search():
    # 5 urns x 3 xi x (1001 grid points, t1 and mu): the exact minimiser
    # agrees with a numeric search of the same objective to 1e-15 relative
    for alpha, beta in RATE_URNS:
        params = limit_params(UrnSpec(alpha, beta, 0, 1))
        for xi in (0.1, 0.5, 0.9):
            rf = RateFunction(params, xi)
            span = rf.t1 - rf.t0
            for t in [rf.t0 + span * i / 1000 for i in range(1001)] + [rf.t1, float(params.mu)]:
                w, want = rate_function_eval(rf, t), _golden_rate(rf, t)
                assert w >= 0.0
                assert abs(w - want) <= 1e-15 * want, (alpha, beta, xi, t, w, want)


def test_rate_convex_nonnegative_unique_zero(p11):
    rf = RateFunction(p11, 0.5)
    ts = [rf.t0 + (rf.t1 - rf.t0) * i / 999 for i in range(1000)]
    ws = [rate_function_eval(rf, t) for t in ts]
    assert all(w >= 0.0 for w in ws)
    for a, b, c in zip(ws, ws[1:], ws[2:]):
        assert b <= (a + c) / 2 + 1e-12  # midpoint convexity on a uniform grid
    mu = float(p11.mu)
    assert all(w > 0 for t, w in zip(ts, ws) if abs(t - mu) > 1e-3)


def test_rate_outside_interval_raises(p11):
    rf = RateFunction(p11, 0.5)
    for t in (rf.t0 - 1e-6, rf.t1 + 1e-6, 0.0, 5.0):
        with pytest.raises(OutOfInterval):
            rate_function_eval(rf, t)


def test_closed_form_is_none_when_stationary_point_leaves_bracket(p11):
    # the eval interval [t0, t1] is exactly the image of the bracket, so a
    # None can only happen for t outside it (where eval refuses anyway)
    rf = RateFunction(p11, 0.5)
    assert rate_function_closed_form(rf, 3.0) is None
    for alpha, beta in RATE_URNS:
        params = limit_params(UrnSpec(alpha, beta, 0, 1))
        for xi in (0.1, 0.5, 0.9):
            rf = RateFunction(params, xi)
            for t in (rf.t0, rf.t1):
                cf = rate_function_closed_form(rf, t)
                assert cf is not None, (alpha, beta, xi, t)
                assert abs(cf - rate_function_eval(rf, t)) <= 3.6e-15, (alpha, beta, xi, t)
            assert rate_function_closed_form(rf, math.nextafter(rf.t0, -math.inf)) is None
            assert rate_function_closed_form(rf, math.nextafter(rf.t1, math.inf)) is None


# -- tail exponents ---------------------------------------------------------------


def test_tail_exponent_pin(big11, p11):
    got = empirical_tail_exponent(big11, p11, 200, 1.8)
    assert got == pytest.approx(0.1150433295847904, rel=1e-12)


def test_tail_exponent_log_backend_agrees(big11, log11_1600, p11):
    e = empirical_tail_exponent(big11, p11, 400, 1.8)
    l = empirical_tail_exponent(log11_1600, p11, 400, 1.8)
    assert l == pytest.approx(e, rel=1e-10)


def test_tail_exponent_at_the_mean_is_small(big11, p11):
    # P(X >= mu n) is Theta(1), so the exponent is O(log / n)
    assert 0 < empirical_tail_exponent(big11, p11, 400, 1.5) < 0.01


def test_tail_exponent_left_side(big11, p11):
    got = empirical_tail_exponent(big11, p11, 400, 1.2)
    assert got == pytest.approx(0.0879035679095341, rel=1e-9)


def test_tail_holding_all_the_mass_is_plus_zero(urn11, dense11, p11):
    # X_1 = 1 from one white ball, so P(X_1 <= 1) = 1 and log 1 = 0: the
    # exponent is +0.0, never -0.0, from the exact, the log and the cone tables
    cone = build_log_table(urn11, 3, keep={1}, tail=(1.0, "left"))
    for table in (dense11, build_log_table(urn11, 3), cone):
        got = empirical_tail_exponent(table, p11, 1, 1.0)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_tail_side_splits_at_the_mean(p11, p32):
    assert tail_side(p11, 1.5) == "right" and tail_side(p11, 1.4999) == "left"
    assert tail_side(p32, 4.8) == "right" and tail_side(p32, 4.7999) == "left"


def test_tail_table_keeps_the_refusals(urn11, p11):
    # a table computed only for the tails refuses as a full one does, with
    # the same messages and the n >= 1 check first
    full = build_log_table(urn11, 1000, keep={0, 500})
    for t in (2.5, 1.8, 1.2):
        cone = build_log_table(urn11, 1000, keep={0, 500}, tail=(t, tail_side(p11, t)))
        for table in (full, cone):
            with pytest.raises(ValueError, match=r"^n must be >= 1 for a limit-law metric; got n=0$"):
                empirical_tail_exponent(table, p11, 0, t)
        if t == 2.5:
            for table in (full, cone):
                for n in (500, 1000):
                    with pytest.raises(EmptyTail, match=rf"^no support point with black >= {2.5 * n} at n={n}$"):
                        empirical_tail_exponent(table, p11, n, t)
        else:
            for n in (500, 1000):
                assert empirical_tail_exponent(cone, p11, n, t) == empirical_tail_exponent(full, p11, n, t)


def test_tail_exponent_empty_tail(big11, log11_1600, p11):
    with pytest.raises(EmptyTail):
        empirical_tail_exponent(big11, p11, 25, 2.2)  # max black is 2n-1
    with pytest.raises(EmptyTail):
        empirical_tail_exponent(log11_1600, p11, 400, 2.5)
