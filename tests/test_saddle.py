"""Contour extraction of series coefficients.

The ground truth throughout is the exact table: sigma^(n+1)/(2 pi i) times
the loop integral of a_x h_x^(n+1) must reproduce series_from_table
coefficients to near machine precision, whichever contour kind is selected.
"""

import cmath
import json
import math
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from urnlab import cli, saddle
from urnlab import (
    ContourCrossesPole,
    ContourSpec,
    Integrand,
    PoleHit,
    QuadratureNotConverged,
    UnsupportedInitialConfig,
    UrnSpec,
    UrnlabError,
    auto_contour,
    build_history_table,
    closed_form_x1_coefficient,
    coefficient_auto,
    contour_coefficient,
    eval_integrand,
    find_saddle_points,
    hx_power_residual,
    integrand_poles,
    lagrange_coefficient,
    power_residual_scale,
    sector_validity,
    series_coefficient,
    series_from_table,
)


# -- integrand values ---------------------------------------------------------


def test_integrand_values_by_hand_a11():
    # x=1: S=0, h = 1/(1 - v^3); at w=0.5, v=0.5: h = 8/7, a = v
    ig = Integrand(UrnSpec(1, 1, 0, 1), 1)
    h, a = eval_integrand(ig, 0.5)
    assert h == pytest.approx(8 / 7)
    assert a == pytest.approx(0.5)
    h1, a1 = eval_integrand(ig, 1.0)
    assert h1 == pytest.approx(1.0)
    assert a1 == pytest.approx(0.0)


def test_integrand_values_by_hand_a32():
    # x=1: h = 1/(1 - v^8); a = v^3 * v^3
    ig = Integrand(UrnSpec(3, 2, 0, 1), 1)
    h, a = eval_integrand(ig, 0.5)
    assert h == pytest.approx(256 / 255)
    assert a == pytest.approx(1 / 64)


def test_origin_is_always_a_pole():
    for spec in (UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1)):
        for x in (Fraction(1, 2), 1, 2):
            with pytest.raises(PoleHit):
                eval_integrand(Integrand(spec, x), 0.0)


def test_saddle_pole_collision_at_special_x():
    # S = -1 (x=3 for alpha=beta=1) puts a pole exactly at the saddle w=1
    with pytest.raises(PoleHit):
        eval_integrand(Integrand(UrnSpec(1, 1, 0, 1), 3), 1.0)


def test_integrand_conjugate_symmetry():
    ig = Integrand(UrnSpec(3, 2, 0, 1), 2)
    w = 0.8 + 0.3j
    h, a = eval_integrand(ig, w)
    hc, ac = eval_integrand(ig, w.conjugate())
    assert hc == pytest.approx(h.conjugate())
    assert ac == pytest.approx(a.conjugate())


def test_integrand_rejects_zero_x():
    with pytest.raises(ValueError):
        Integrand(UrnSpec(1, 1, 0, 1), 0)


def test_for_u_lands_on_unit_circle():
    ig = Integrand.for_u(UrnSpec(1, 1, 0, 1), 0.7, 50)
    assert abs(abs(ig.x) - 1.0) < 1e-15
    assert Integrand.for_u(UrnSpec(1, 1, 0, 1), 0.0, 50).x == 1.0


# -- poles and saddle points --------------------------------------------------


def test_poles_a11_x1():
    poles = integrand_poles(Integrand(UrnSpec(1, 1, 0, 1), 1))
    assert len(poles) == 3
    expected = {0.0, 1.5 + math.sqrt(3) / 2 * 1j, 1.5 - math.sqrt(3) / 2 * 1j}
    for p in poles:
        assert min(abs(p - e) for e in expected) < 1e-9


def test_poles_count_and_origin_membership():
    for spec in (UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1)):
        for x in (Fraction(1, 2), 1, 2):
            poles = integrand_poles(Integrand(spec, x))
            assert len(poles) == spec.sigma
            assert min(abs(p) for p in poles) < 1e-12


@pytest.mark.parametrize("alpha, beta, x", [(1, 1, 10**10), (4, 1, 1000), (2, 1, 10**6)])
def test_poles_near_origin_keep_their_digits(alpha, beta, x):
    # the pole nearest w=0 sits at ~x^-alpha; taken as a root in v = 1 - w it
    # came out ~1e-9 off (A(1,1) x=1e10: 5.5e-9 for 2.0e-10)
    import mpmath

    spec = UrnSpec(alpha, beta, 0, 1)
    poles = integrand_poles(Integrand(spec, x))
    assert poles[0] == 0
    with mpmath.workdps(50):
        S = spec.sigma * (mpmath.mpf(x) ** -alpha - 1) / (alpha + beta)

        def den(w):
            return 1 + S - (1 - w) ** (alpha + beta) * (S + (1 - w) ** alpha)

        for p in poles[1:]:
            ref = mpmath.findroot(den, mpmath.mpc(p))
            assert abs(p - ref) <= 1e-12 * abs(ref)


def test_a32_x2_has_a_pole_near_origin():
    # this is the pole that invalidates any saddle-anchored wedge
    poles = integrand_poles(Integrand(UrnSpec(3, 2, 0, 1), 2))
    nonzero = sorted(abs(p) for p in poles if abs(p) > 1e-9)
    assert nonzero[0] < 0.15


POLE_XS = [Fraction(1, 2), 1, 2, 10, 10**6, 10**10, -2, Fraction(-1, 3), cmath.exp(0.3j), 3 + 2j]


def _numpy_poles(spec, x) -> list:
    """The nonzero poles by np.roots on the same Q, with the same two Newton steps."""
    ab, sigma = spec.alpha + spec.beta, spec.sigma
    c = complex(x) ** (-spec.alpha)
    q = [
        (-1) ** (k + 1) * (sigma * c * math.comb(ab, k) + (ab * math.comb(sigma, k) - sigma * math.comb(ab, k)))
        for k in range(sigma, 0, -1)
    ]
    roots = np.roots(q)
    for _ in range(2):
        slope = np.polyval(np.polyder(q), roots)
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = roots - np.where(np.abs(slope) > 1e-300, np.polyval(q, roots) / slope, 0.0)
    return [complex(r) for r in roots]


@pytest.mark.parametrize("beta", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_poles_match_numpy_roots(alpha, beta):
    # 1e-6, not tighter: roots cluster for alpha >= 2 at large x, and both
    # solvers land 1e-7 to 4e-7 from mpmath's roots at A(4,4) x=1000
    spec = UrnSpec(alpha, beta, 0, 1)
    for x in POLE_XS:
        poles = integrand_poles(Integrand(spec, x))
        assert poles[0] == 0 and len(poles) == spec.sigma
        ours, ref = list(poles[1:]), _numpy_poles(spec, x)
        if x**-alpha == Fraction(alpha, spec.sigma):
            # S = -1 (A(2,4) at x = +-2): w = 1 is a pole of order alpha+beta,
            # which float64 resolves only to ~eps^(1/(alpha+beta)), in either solver
            for roots in (ours, ref):
                roots.sort(key=lambda p: abs(p - 1))
                assert max(abs(p - 1) for p in roots[: alpha + beta]) < 0.02
                del roots[: alpha + beta]
        for r in ref:
            p = min(ours, key=lambda z: abs(z - r))
            assert abs(p - r) <= 1e-6 * abs(r), (alpha, beta, x, p, r)
            ours.remove(p)


@pytest.mark.parametrize("alpha, beta, digits", [(4, 1, 76), (1, 4, 300)])
def test_poles_far_from_origin_keep_their_digits(alpha, beta, digits):
    # at x = 10^-digits, poles sit near |w| ~ 1/x, where Q's powers of w
    # overflow float64 unless the solve works in 1/w
    import mpmath

    spec = UrnSpec(alpha, beta, 0, 1)
    poles = integrand_poles(Integrand(spec, Fraction(1, 10**digits)))
    assert max(abs(p) for p in poles) > 1e75
    with mpmath.workdps(50):
        S = spec.sigma * (mpmath.mpf(10) ** (alpha * digits) - 1) / (alpha + beta)

        def den(w):
            return 1 + S - (1 - w) ** (alpha + beta) * (S + (1 - w) ** alpha)

        for p in poles[1:]:
            # the root of den(p (1 + t)) is p's relative error; den is ~1e495
            # there, so the root is not verified by the value of den
            t = mpmath.findroot(lambda t: den(mpmath.mpc(p) * (1 + t)), (0, 1e-20), verify=False)
            assert abs(t) <= 1e-12


def test_unconverged_pole_solve_is_refused(monkeypatch):
    monkeypatch.setattr(saddle, "_ROOT_SWEEPS", 1)
    with pytest.raises(UrnlabError, match="poles of h_x did not converge"):
        integrand_poles(Integrand(UrnSpec(3, 2, 0, 1), 2))


def test_poles_are_solved_once_per_run(monkeypatch, capsys):
    # the sector is checked, tried and refused for its kappa; the circle then
    # takes its radius from the same poles
    calls = []
    solve = saddle.integrand_poles
    monkeypatch.setattr(saddle, "integrand_poles", lambda ig: calls.append(ig) or solve(ig))
    assert cli.run(["saddle", "--alpha", "1", "--beta", "1", "--x", "2", "--n", "200"]) == 0
    assert json.loads(capsys.readouterr().out)["contour"] == "circle"
    assert len(calls) == 1


def test_surface_builds_the_kernel_once(monkeypatch, capsys):
    calls = []
    build = saddle._kernel
    monkeypatch.setattr(saddle, "_kernel", lambda spec, x: calls.append(x) or build(spec, x))
    assert cli.run(["surface", "--alpha", "1", "--beta", "1", "--x", "2", "--grid-points", "9"]) == 0
    assert len(json.loads(capsys.readouterr().out)["samples"]) == 81
    assert calls == [2]


@pytest.mark.parametrize("x, segments", [(Fraction(1, 2), 2), (1, 2), (Fraction(-1, 2), 2), (cmath.exp(0.05j), 3)])
def test_sector_integrates_the_lower_ray_only_for_complex_x(monkeypatch, x, segments):
    # real x: the lower ray is the upper one conjugated, also at x = -1/2
    # where h_x(1) < 0; complex x integrates it; the arc always is integrated
    calls = []
    integrate = saddle._path_integral
    monkeypatch.setattr(saddle, "_path_integral", lambda *a, **k: calls.append(a) or integrate(*a, **k))
    contour_coefficient(Integrand(UrnSpec(1, 1, 0, 1), x), ContourSpec(n=30))
    assert len(calls) == segments


@pytest.mark.parametrize("x", [Fraction(1, 2), 2, Fraction(-1, 2), -2])
def test_sector_integrand_is_conjugate_symmetric_for_real_x(x):
    # the scale |h_x(1)|^(n+1) is real whatever the sign of h_x(1), so the
    # lower ray's nodes are the upper ray's conjugated bit for bit
    integrand = Integrand(UrnSpec(1, 1, 0, 1), x)
    for n in (30, 31):
        F, _ = saddle._sector_integrand(integrand, n)
        for w in (1 + 0.1j, 1 + 0.05 * cmath.exp(1j * math.pi / 3), 0.7 + 0.4j, 1.2 - 0.3j):
            assert F(w.conjugate(), 1) == F(w, 1).conjugate()


@pytest.mark.parametrize("x", [Fraction(-1, 2), -2])
@pytest.mark.parametrize("n", [4, 5])
def test_sector_value_is_real_for_real_x(x, n):
    # the loop is 2 pi i times a real number: its sign, not a phase of -pi
    # through exp, makes a negative value, so no rounding imaginary part
    spec = UrnSpec(1, 1, 0, 1)
    res = contour_coefficient(Integrand(spec, x), ContourSpec(n=n, kind="sector"))
    assert res.value.imag == 0.0
    assert res.value.real == pytest.approx(float(lagrange_coefficient(spec, x, n)), rel=1e-12)


@pytest.mark.parametrize(
    "spec, x, n",
    [
        (UrnSpec(3, 2, 0, 1), 2, 30),  # float64 nodes
        (UrnSpec(1, 1, 0, 1), 2, 200),
        (UrnSpec(1, 1, 0, 1), -2, 30),
        (UrnSpec(3, 2, 0, 1), 2, 12),  # mpmath nodes
        (UrnSpec(3, 2, 0, 1), Fraction(1, 2), 40),
    ],
)
def test_circle_value_is_real_for_real_x(spec, x, n):
    # for real x the nodes come in conjugate pairs: no rounding imaginary part
    res = contour_coefficient(Integrand(spec, x), ContourSpec(n=n, kind="circle"))
    assert res.value.imag == 0.0
    assert res.segments["circle"] == res.value
    assert res.value.real == pytest.approx(float(lagrange_coefficient(spec, x, n)), rel=1e-12)


def _gaussian_coefficient(spec: UrnSpec, x: complex, n: int) -> complex:
    """c_n = sum_k H(n, k) x^black(n, k) / n! at the complex float x, exactly:
    with x = (a + bi)/d, the sum of H d^(top - e) (a + bi)^e is formed in
    Gaussian integers, stepping e by alpha, and rounded once."""
    re, im = Fraction(x.real), Fraction(x.imag)
    d = math.lcm(re.denominator, im.denominator)
    a, b = int(re * d), int(im * d)

    def mul(p: tuple, q: tuple) -> tuple:
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    def power(e: int) -> tuple:
        p = (1, 0)
        for _ in range(e):
            p = mul(p, (a, b))
        return p

    e, top = spec.black_count(n, 0), spec.black_count(n, n)
    p, step = power(e), power(spec.alpha)
    acc_re = acc_im = 0
    for h in build_history_table(spec, n, keep=()).row(n):
        scale = h * d ** (top - e)
        acc_re, acc_im = acc_re + scale * p[0], acc_im + scale * p[1]
        p, e = mul(p, step), e + spec.alpha
    den = d**top * math.factorial(n)
    return complex(Fraction(acc_re, den), Fraction(acc_im, den))


@pytest.mark.parametrize("n", [5, 30, 80])
@pytest.mark.parametrize("x", [1 + 0.1j, 2 + 1j, 0.5 + 1j, -1.5 + 0.5j, 1 - 1j])
@pytest.mark.parametrize("alpha, beta", [(1, 1), (3, 2), (2, 5)])
def test_values_at_complex_x_are_right(alpha, beta, x, n):
    # auto, the circle and (where not refused) the sector against the exact
    # Gaussian-rational coefficient; none of these c_n is real, so a real-x
    # rounding of the value would show
    spec = UrnSpec(alpha, beta, 0, 1)
    integrand = Integrand(spec, x)
    exact = _gaussian_coefficient(spec, x, n)
    results = [coefficient_auto(integrand, n), contour_coefficient(integrand, ContourSpec(n=n, kind="circle"))]
    try:
        results.append(contour_coefficient(integrand, ContourSpec(n=n, kind="sector")))
    except (ContourCrossesPole, QuadratureNotConverged):
        pass
    for res in results:
        assert res.value.imag != 0, res.kind
        assert abs(res.value - exact) <= 1e-9 * abs(exact), (res.kind, res.value, exact)


def test_gauss_legendre_rule():
    import mpmath
    from mpmath.calculus.quadrature import GaussLegendre

    nodes, weights = saddle._gauss_nodes()
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(saddle._PANEL_POINTS)
    assert np.abs(np.array(nodes) - ref_nodes).max() <= 1e-15
    # numpy's own weights are 1.5e-15 off the 40-digit rule below
    assert np.abs(np.array(weights) - ref_weights).max() <= 2e-15
    with mpmath.workdps(40):
        exact = sorted(GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec))  # 3 * 2^3 = 24 points
    assert len(exact) == len(nodes)
    assert max(abs(x - float(e)) for x, (e, _) in zip(nodes, exact)) <= 1e-15
    assert max(abs(w - float(e)) for w, (_, e) in zip(weights, exact)) <= 1e-15


def test_saddles_a11_x2():
    s = find_saddle_points(Integrand(UrnSpec(1, 1, 0, 1), 2))
    assert s.main == 1.0
    assert s.main_multiplicity == 1
    assert len(s.secondary) == 1
    assert s.secondary[0] == pytest.approx(0.5)  # 1 - gamma, gamma = 1 - 1/2
    assert s.main_multiplicity + len(s.secondary) == 2
    assert max(s.derivative_residuals) < 1e-12


def test_saddles_a32_x1_coalesce():
    spec = UrnSpec(3, 2, 0, 1)
    s = find_saddle_points(Integrand(spec, 1))
    assert s.main_multiplicity == 4  # alpha + beta - 1
    assert all(w == pytest.approx(1.0) for w in s.secondary)
    assert s.main_multiplicity + len(s.secondary) == spec.sigma - 1
    assert max(s.derivative_residuals) < 1e-12


@pytest.mark.parametrize(
    "alpha, beta, x", [(4, 1, 100), (3, 1, 1000), (1, 1, 2), (3, 2, 7)]
)
def test_secondary_saddle_keeps_its_digits_at_large_x(alpha, beta, x):
    # 1 - gamma with gamma = (1 - x^-alpha)^(1/alpha) -> 1: forming gamma
    # first lost 1e-8 of the value at A(4,1), x=100.
    import mpmath

    s = find_saddle_points(Integrand(UrnSpec(alpha, beta, 0, 1), x))
    with mpmath.workdps(40):
        gamma = mpmath.root(1 - mpmath.mpf(x) ** -alpha, alpha)
        want = [1 - gamma * mpmath.expjpi(mpmath.mpf(2 * j) / alpha) for j in range(alpha)]
        for got, ref in zip(s.secondary, want):
            assert abs(got - ref) <= 1e-13 * abs(ref)
    assert s.secondary[0].imag == 0.0 and math.copysign(1, s.secondary[0].imag) == 1


def test_saddles_are_stationary_numerically():
    # central difference of h at each reported saddle
    ig = Integrand(UrnSpec(3, 2, 0, 1), 2)
    s = find_saddle_points(ig)
    eps = 1e-6
    for w in (s.main, *s.secondary):
        h_plus, _ = eval_integrand(ig, w + eps)
        h_minus, _ = eval_integrand(ig, w - eps)
        assert abs(h_plus - h_minus) / (2 * eps) < 1e-4


# -- contour selection --------------------------------------------------------


def test_auto_prefers_sector_near_x1():
    spec = UrnSpec(1, 1, 0, 1)
    assert auto_contour(Integrand(spec, 1), 10)[0].kind == "sector"
    assert auto_contour(Integrand(spec, 2), 10)[0].kind == "sector"


def test_auto_falls_back_to_circle():
    # n=1: arc radius 1 cannot clear the origin pole
    assert auto_contour(Integrand(UrnSpec(1, 1, 0, 1), 1), 1)[0].kind == "circle"
    # pole inside the wedge
    assert auto_contour(Integrand(UrnSpec(3, 2, 0, 1), 2), 10)[0].kind == "circle"
    # pole sitting exactly on the saddle
    assert auto_contour(Integrand(UrnSpec(1, 1, 0, 1), 3), 10)[0].kind == "circle"
    # pole of order alpha+beta at the apex w = 1, where the rays start
    assert auto_contour(Integrand(UrnSpec(2, 4, 0, 1), 2), 25)[0].kind == "circle"


def test_sector_validity_reports_reason():
    for spec, x, n, expected in [
        (UrnSpec(3, 2, 0, 1), 2, 10, "pole"),  # a pole inside the wedge
        (UrnSpec(1, 1, 0, 1), 1, 1, "arc radius"),  # the arc cannot clear w=0
        (UrnSpec(1, 1, 0, 1), 3, 10, "touches a ray"),  # a pole on the saddle
        # x^alpha = sigma/alpha, 1 + S = 0: a pole of order alpha+beta at the
        # apex, which rounding splits into a ring the per-pole checks pass
        (UrnSpec(2, 4, 0, 1), 2, 25, "h_x has a pole of order 6 at w = 1"),
        (UrnSpec(2, 4, 0, 1), Fraction(-2), 198, "h_x has a pole of order 6 at w = 1"),
        (UrnSpec(1, 2, 0, 1), 4, 25, "h_x has a pole of order 3 at w = 1"),
        (UrnSpec(2, 4, 0, 1), 2.0, 25, "h_x has a pole of order 6 at w = 1"),  # float x: within a few ulps
        (UrnSpec(2, 4, 0, 1), complex(-2), 25, "h_x has a pole of order 6 at w = 1"),
    ]:
        ok, reason = sector_validity(Integrand(spec, x), ContourSpec(n=n, kind="sector"))
        assert not ok
        assert expected in reason


def test_explicit_invalid_sector_raises():
    with pytest.raises(ContourCrossesPole):
        contour_coefficient(
            Integrand(UrnSpec(3, 2, 0, 1), 2), ContourSpec(n=10, kind="sector")
        )


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(n=0)
    with pytest.raises(ValueError):
        ContourSpec(n=5, kind="pentagon")


def test_refinement_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(saddle, "_MAX_REFINEMENTS", 0)
    # sigma = 3: the ray grid 0, 1/4, 1/2, 1, 2, 4, 100^(1/3) plus the cuts
    # 10^(1/4) in s and 10^(1/12) in t
    refusal = r"segment quadrature did not stabilize to rel 1e-09 at n=10 after 8 panels$"
    with pytest.raises(QuadratureNotConverged, match=refusal):
        contour_coefficient(Integrand(UrnSpec(1, 1, 0, 1), 1), ContourSpec(n=10, kind="sector"))


def test_circle_refuses_when_its_digits_run_out(monkeypatch):
    # kappa >= 1e15 asks for mpmath, and no raise of the digits is left
    monkeypatch.setattr(saddle, "_MAX_DPS_RAISES", 0)
    refusal = r"ill-conditioned at n=100: condition number κ=\S+ asks for more than dps=15$"
    with pytest.raises(QuadratureNotConverged, match=refusal):
        contour_coefficient(Integrand(UrnSpec(3, 2, 0, 1), Fraction(1, 2)), ContourSpec(n=100, kind="circle"))


def test_circle_refuses_when_its_doublings_run_out(monkeypatch):
    monkeypatch.setattr(saddle, "_MAX_REFINEMENTS", 0)
    with pytest.raises(QuadratureNotConverged, match=r"did not stabilize at 64 nodes"):
        contour_coefficient(Integrand(UrnSpec(3, 2, 0, 1), 2), ContourSpec(n=30, kind="circle"))


def _exact_log(q: Fraction) -> float:
    """ln |q| for a nonzero Fraction of any size."""
    return _exact_log10(q) * math.log(10)


def _assert_right_past_float64(res, exact: Fraction) -> None:
    """A value past float64's normal range: no rounded value, and log_value
    within 1e-9 of the exact log (1e-9 relative in the value), with the
    exact value's sign."""
    assert res.value is None and all(v is None for v in res.segments.values())
    assert res.log_value.imag == (math.pi if exact < 0 else 0.0)
    assert abs(res.log_value.real - _exact_log(exact)) <= 1e-9, (res.log_value, _exact_log(exact))
    assert res.relative_error(exact) <= 1e-9


@pytest.mark.parametrize(
    "spec,x,n",
    [
        # float64 saddle circle: sigma^(n+1) times the mean is past float64
        (UrnSpec(3, 2, 0, 1), 2, 121),
        # sector, assembled in log scale: c_651 = 10^308.3
        (UrnSpec(1, 1, 0, 1), 1, 651),
        # sector refused as ill-conditioned, then the saddle circle: c_318 = 10^308.3
        (UrnSpec(1, 1, 0, 1), 2, 318),
        # the same chain far past float64: c_503 = 10^489.9
        (UrnSpec(1, 1, 0, 1), 2, 503),
        # the circle in mpmath, through the saddle 2.5e-9 inside a pole 5.0e-9 away: c_19 = 10^310.1
        (UrnSpec(4, 1, 0, 1), 100, 19),
    ],
)
def test_values_past_float64_max_are_right_from_their_log(spec, x, n):
    # each n but 503 is the first whose exact coefficient is past float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = coefficient_auto(Integrand(spec, x), n)
    _assert_right_past_float64(res, lagrange_coefficient(spec, x, n))
    if n == 19:
        assert res.diagnostics["dps"] > 15


def test_sector_integrand_overflow_is_refused():
    # with h_x(1)^(n+1) factored out, the A(1,1), x=2 sector integrand first
    # leaves float64 at n=31229 (found by bisection); it is refused on the
    # first panel instead of being integrated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UrnlabError, match=r"^the contour integrand.* at n=31229 overflows float64$"):
            contour_coefficient(Integrand(UrnSpec(1, 1, 0, 1), 2), ContourSpec(n=31229, kind="sector"))


@pytest.mark.parametrize(
    "spec,x,n",
    [
        # each was refused as overflowing float64 when the sector multiplied
        # sigma^(n+1)/(2 pi i) into the loop integral: c_646 = 10^305.9,
        # c_298 = 10^288.9; the last n below each first true overflow
        (UrnSpec(1, 1, 0, 1), 1, 646),
        (UrnSpec(1, 1, 0, 1), 1, 650),
        (UrnSpec(1, 1, 0, 1), 2, 298),
        (UrnSpec(1, 1, 0, 1), 2, 317),
        (UrnSpec(3, 2, 0, 1), 2, 120),
        # the nearest pole is 5.0e-9 away, closer than the node tolerance
        # _POLE_TOL: the circles clear it by a fraction of that distance
        (UrnSpec(4, 1, 0, 1), 100, 5),
        (UrnSpec(4, 1, 0, 1), 100, 12),
        (UrnSpec(4, 1, 0, 1), 100, 18),
    ],
)
def test_values_near_float64_max_are_right(spec, x, n):
    if x == 1:
        exact = closed_form_x1_coefficient(spec, n)
    else:
        exact = series_coefficient(build_history_table(spec, n, keep=()), x, n)
    res = coefficient_auto(Integrand(spec, x), n)
    assert res.value.real == pytest.approx(float(exact), rel=1e-9)


@pytest.mark.parametrize(
    "spec,x,n",
    [(UrnSpec(3, 2, 0, 1), 7, 20), (UrnSpec(3, 2, 0, 1), 16, 20), (UrnSpec(4, 1, 0, 1), 10, 20)],
)
def test_small_saddle_circle_at_large_x_is_accurate(spec, x, n):
    # the saddle circle shrinks like x^-alpha/alpha (r ~ 1e-3 .. 2.5e-5 here),
    # where 1 + S - v^(alpha+beta)(S + v^alpha) loses ~1e-11 of each value to
    # cancellation; the regrouped kernel keeps these within 1e-9
    exact = series_coefficient(build_history_table(spec, n, keep=()), x, n)
    res = coefficient_auto(Integrand(spec, x), n)
    assert res.diagnostics["dps"] == 15
    assert res.value.real == pytest.approx(float(exact), rel=1e-9)


def test_value_below_float64_min_is_right_from_its_log():
    # c_300 = 10^-364.8: the sector's log-scale value is below the smallest
    # normal float, so it is held as its log instead of returned as 0.0
    spec, x = UrnSpec(4, 1, 0, 1), Fraction(1, 3)
    res = coefficient_auto(Integrand(spec, x), 300)
    assert res.kind == "sector"
    _assert_right_past_float64(res, lagrange_coefficient(spec, x, 300))


@pytest.mark.parametrize("x, n", [(-2, 375), (-10, 138), (Fraction(-3, 2), 555)])
def test_negative_values_past_float64_keep_their_sign(x, n):
    # A(1,1) at these x < -1: the first c_n past float64 are negative
    spec = UrnSpec(1, 1, 0, 1)
    exact = lagrange_coefficient(spec, x, n)
    assert exact < 0 and _exact_log(exact) > saddle._LOG_MAX
    _assert_right_past_float64(coefficient_auto(Integrand(spec, x), n), exact)


def test_sector_log_segments_sum_to_the_value_past_float64():
    # A(1,1) x=1 n=700: c_700 = 10^331.7; the segments' shares of the value
    # are O(1), so they sum to it relative to the value's size
    res = coefficient_auto(Integrand(UrnSpec(1, 1, 0, 1), 1), 700)
    assert (res.kind, res.segments) == ("sector", dict.fromkeys(("ray_upper", "arc", "ray_lower")))
    total = sum(cmath.exp(log - res.log_value) for log in res.log_segments.values())
    assert total == pytest.approx(1, rel=1e-12)


def test_relative_error_is_taken_in_float64_inside_its_range_and_from_logs_past_it():
    spec = UrnSpec(1, 1, 0, 1)
    inside = coefficient_auto(Integrand(spec, 1), 400)
    exact = lagrange_coefficient(spec, 1, 400)
    assert inside.relative_error(exact) == abs(inside.value - float(exact)) / float(exact)
    past = coefficient_auto(Integrand(spec, 1), 700)
    exact = lagrange_coefficient(spec, 1, 700)
    assert past.relative_error(exact) <= 1e-12
    assert past.relative_error(exact * (1 + Fraction(1, 10**6))) == pytest.approx(1e-6, rel=1e-5)
    with pytest.raises(ValueError, match="exact 0"):
        past.relative_error(0)


@pytest.mark.parametrize(
    "spec,x,n,kind",
    [
        # the sector through w=1 misses the dominant saddle w=1/2, and its
        # rays cancel to ~1e-15 of their size
        (UrnSpec(1, 1, 0, 1), 2, 200, "sector"),
    ],
)
def test_ill_conditioned_float64_contour_names_kappa(spec, x, n, kind):
    with pytest.raises(QuadratureNotConverged, match=rf"ill-conditioned at n={n}: condition number κ=\S+"):
        contour_coefficient(Integrand(spec, x), ContourSpec(n=n, kind=kind))


def test_ill_conditioned_circle_runs_in_mpmath():
    # the saddle circle |w| = 1 at x < 1: too ill-conditioned for float64,
    # so its kappa picks the mpmath digits that make it right
    spec, x, n = UrnSpec(3, 2, 0, 1), Fraction(1, 2), 100
    res = contour_coefficient(Integrand(spec, x), ContourSpec(n=n, kind="circle"))
    assert res.value.real == pytest.approx(float(lagrange_coefficient(spec, x, n)), rel=1e-9)
    assert res.diagnostics["condition"] >= 1e15
    assert res.diagnostics["dps"] > 15


def test_auto_chain_order():
    ig = Integrand(UrnSpec(1, 1, 0, 1), 2)
    # sector, then the saddle circle, whatever n: its arithmetic follows kappa
    for n in (200, 16):
        assert auto_contour(ig, n) == (ContourSpec(n=n, kind="sector"), ContourSpec(n=n, kind="circle"))
    assert auto_contour(Integrand(UrnSpec(3, 2, 0, 1), 2), 30) == (ContourSpec(n=30, kind="circle"),)


@pytest.mark.parametrize(
    "spec,x,n,kind,dps",
    [
        (UrnSpec(1, 1, 0, 1), 1, 100, "sector", None),
        (UrnSpec(3, 2, 0, 1), 2, 100, "circle", 15),
        (UrnSpec(3, 2, 0, 1), 2, 12, "circle", 15),
    ],
)
def test_every_result_reports_cost_and_conditioning(spec, x, n, kind, dps):
    res = coefficient_auto(Integrand(spec, x), n)
    assert res.kind == kind
    d = res.diagnostics
    assert 1 <= d["condition"] < 1e3
    assert d["refinements"] >= 1
    assert 0 <= d["last_delta"] <= 1e-9
    if dps is not None:
        assert d["dps"] == dps
        assert isinstance(d["nodes"], int) and d["nodes"] >= 64
        assert d["radius"] > 0


def test_float64_circle_runs_through_the_dominant_saddle():
    ig = Integrand(UrnSpec(3, 2, 0, 1), 2)
    res = contour_coefficient(ig, ContourSpec(n=100, kind="circle"))
    gamma = (1 - 2.0**-3) ** (1 / 3)
    assert res.diagnostics["radius"] == pytest.approx(1 - gamma)
    # inside the nearest pole (w ~ 0.095)
    assert res.diagnostics["radius"] < 0.099


def _exact_log10(q: Fraction) -> float:
    """log10 |q| for a Fraction of any size, from the top 60 bits of each part."""

    def log10_int(k: int) -> float:
        shift = max(k.bit_length() - 60, 0)
        return math.log10(k >> shift) + shift * math.log10(2)

    return log10_int(abs(q.numerator)) - log10_int(q.denominator)


GRID_URNS = [(1, 1), (3, 2), (2, 1), (2, 5), (1, 3), (4, 1)]
GRID_XS = [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), 1, Fraction(11, 10), 2, 3, 10**6]
GRID_NS = (30, 100, 300)


@pytest.mark.parametrize("alpha,beta", GRID_URNS)
def test_auto_is_right_on_the_grid(alpha, beta):
    # every (x, n) matches the exact coefficient to 1e-9: as a float inside
    # float64's normal range, through log_value past it
    spec = UrnSpec(alpha, beta, 0, 1)
    table = build_history_table(spec, max(GRID_NS), keep=set(GRID_NS))
    log10_max = math.log10(sys.float_info.max)
    log10_min = math.log10(sys.float_info.min)
    for x in GRID_XS:
        for n in GRID_NS:
            exact = series_coefficient(table, x, n)
            case = f"A({alpha},{beta}) x={x} n={n}"
            res = coefficient_auto(Integrand(spec, x), n)
            if log10_min < _exact_log10(exact) < log10_max:
                assert abs(res.value - float(exact)) <= 1e-9 * float(exact), case
            else:
                _assert_right_past_float64(res, exact)


# -- extraction accuracy ------------------------------------------------------

EXTRACTION_NS = (1, 2, 3, 5, 8, 13, 21, 30)


@pytest.mark.parametrize("x", [Fraction(1, 2), 1, 2, 3])
def test_contour_matches_exact_coefficients(dense11, dense32, x):
    for table in (dense11, dense32):
        series = series_from_table(table, x, 30)
        for n in EXTRACTION_NS:
            res = coefficient_auto(Integrand(table.spec, x), n)
            exact = float(series.coeffs[n])
            assert res.value.real == pytest.approx(exact, rel=1e-6)
            assert abs(res.value.imag) <= 1e-8 * abs(res.value.real)


def test_small_n_circle_runs_in_float64_within_rel_tol(dense32):
    # the circle holds the contour's one target at every n; at small n its
    # kappa is small, so float64 meets it (4e-15 and 2e-14 here)
    series = series_from_table(dense32, 2, 12)
    for n in (5, 12):
        res = coefficient_auto(Integrand(dense32.spec, 2), n)
        assert (res.kind, res.diagnostics["dps"]) == ("circle", 15)
        rel = abs(res.value.real - float(series.coeffs[n])) / float(series.coeffs[n])
        assert rel <= saddle._REL_TOL


def test_circle_is_right_at_n1_next_to_a_pole():
    # at n=1 the sector's arc radius is 1, so the circle runs alone, on
    # |w| = 1 with a pole at |w| = 1.00097; it gives c_1 in float64
    spec, x = UrnSpec(3, 3, 0, 1), Fraction(8, 39)
    res = coefficient_auto(Integrand(spec, x), 1)
    exact = lagrange_coefficient(spec, x, 1)
    assert abs(Fraction(res.value.real) - exact) <= 1e-9 * abs(exact)


def test_circle_at_n1_answers_quickly():
    start = time.perf_counter()
    spec, x = UrnSpec(4, 2, 0, 1), Fraction(1, 3)
    res = coefficient_auto(Integrand(spec, x), 1)
    assert time.perf_counter() - start < 5
    exact = lagrange_coefficient(spec, x, 1)
    assert abs(Fraction(res.value.real) - exact) <= 1e-9 * abs(exact)


@pytest.mark.parametrize("x", [10**6, 10**10, 10**20])
def test_circle_is_exact_at_large_x(x):
    # kappa ~ 3x: past float64, so the circle runs in mpmath at the digits
    # kappa asks for (38 at x = 1e10)
    spec = UrnSpec(1, 1, 0, 1)
    res = coefficient_auto(Integrand(spec, x), 5)
    assert res.value.real == float(lagrange_coefficient(spec, x, 5))


def test_value_past_float64_at_huge_x_is_right_quickly():
    # c_5 ~ 8.75 x^9 = 10^900.9: the mpmath circle's log value
    start = time.perf_counter()
    spec, x = UrnSpec(1, 1, 0, 1), 10**100
    res = coefficient_auto(Integrand(spec, x), 5)
    assert time.perf_counter() - start < 10
    _assert_right_past_float64(res, lagrange_coefficient(spec, x, 5))


def test_contour_refuses_starts_other_than_single_white():
    # the integral is the (0, 1) urn's c_5 (3238.67 at x = 2), not the (2, 3)
    # urn's (748410.67)
    integrand = Integrand(UrnSpec(1, 1, 2, 3), Fraction(2))
    message = r"^the contour formula holds for \(a0, b0\) = \(0, 1\); got \(2, 3\)$"
    with pytest.raises(UnsupportedInitialConfig, match=message):
        coefficient_auto(integrand, 5)
    for kind in ("sector", "circle"):
        with pytest.raises(UnsupportedInitialConfig, match=message):
            contour_coefficient(integrand, ContourSpec(n=5, kind=kind))


def test_circle_outside_float64_runs_in_mpmath():
    # the saddle circle |w| = 1e-160: h_x's denominator there is ~1e-320,
    # past float64, while c_1 = x = 1e160 is not
    start = time.perf_counter()
    res = coefficient_auto(Integrand(UrnSpec(1, 1, 0, 1), 10**160), 1)
    assert (res.kind, res.value) == ("circle", 1e160)
    assert time.perf_counter() - start < 10


def test_circle_arithmetics_agree():
    # one evaluator in two arithmetics: at 256 nodes on the saddle circle the
    # float64 and 30-digit passes give the same mean (their logs agree) and kappa
    ig = Integrand(UrnSpec(3, 2, 0, 1), 2)
    radius = saddle._circle_radius(ig)
    (log64, kappa64), (log30, kappa30) = (saddle._circle_nodes(ig, 30, radius, dps)[0](256) for dps in (None, 30))
    assert abs(complex(log30) - log64) <= 1e-12
    assert kappa64 == pytest.approx(kappa30, rel=1e-6)


def test_mpmath_circle_leaves_the_global_context_alone(monkeypatch):
    # the circle's kappa asks for 34 digits; they live in a private context,
    # so mpmath.mp keeps its 15 digits while and after the circle runs
    import mpmath

    seen = []
    build = saddle._kernel
    monkeypatch.setattr(saddle, "_kernel", lambda spec, x: seen.append(mpmath.mp.dps) or build(spec, x))
    spec, x = UrnSpec(1, 1, 0, 1), 10**6
    res = coefficient_auto(Integrand(spec, x), 5)
    assert (res.diagnostics["dps"], res.value.real) == (34, float(lagrange_coefficient(spec, x, 5)))
    assert len(seen) >= 2 and set(seen) == {15}
    assert mpmath.mp.dps == 15


def test_each_raise_of_the_circle_digits_adds_the_guard(monkeypatch):
    # A(1,1) x=1e100 n=5: kappa grows as the doublings resolve the circle; a
    # raise by a few digits would evaluate the same nodes again for little
    calls = []
    evaluate = saddle._circle_nodes
    monkeypatch.setattr(
        saddle, "_circle_nodes", lambda ig, n, r, dps=None: calls.append(dps or 15) or evaluate(ig, n, r, dps)
    )
    spec, x = UrnSpec(1, 1, 0, 1), 10**100
    _assert_right_past_float64(coefficient_auto(Integrand(spec, x), 5), lagrange_coefficient(spec, x, 5))
    assert len(calls) >= 3
    assert all(b - a >= saddle._GUARD_DIGITS for a, b in zip(calls, calls[1:])), calls


@pytest.mark.parametrize("dps", [None, 30])
def test_circle_node_at_a_pole_is_refused_by_name(monkeypatch, dps):
    # h_x's denominator 0 at a node makes q = den(r)/den(w) infinite: an
    # UrnlabError naming the node, not a bare ZeroDivisionError
    monkeypatch.setattr(saddle, "_kernel", lambda spec, x: lambda w: (1 if w == 0.5 else 0 * w, 1))
    log_mean, _ = saddle._circle_nodes(Integrand(UrnSpec(1, 1, 0, 1), 2), 5, 0.5, dps)
    with pytest.raises(UrnlabError, match=r"^h_x\(w\)/h_x\(r\) at the circle node w=\S+ is not finite at n=5$"):
        log_mean(64)


def test_sector_segments_sum_to_value(dense11):
    res = coefficient_auto(Integrand(dense11.spec, 1), 20)
    assert res.kind == "sector"
    total = sum(res.segments.values())
    assert total == pytest.approx(res.value, rel=1e-12)
    assert set(res.segments) == {"ray_upper", "arc", "ray_lower"}


# The sector's whole result, each float as its repr: the two workload jobs,
# sigma = 8, h_x(1) < 0 (twice: at A(3,2) the arc leans on its floor), and a
# complex x whose lower ray is integrated.  A wrong cut, a lost conjugate or
# an arc without its floor moves one.
SECTOR_PINS = {
    "A11-x1/2-n200": (
        (1, 1, Fraction(1, 2), 200),
        211964010814930.88 + 0j,
        {
            "ray_upper": 105982005407465.44 - 1812731057165.9104j,
            "arc": 0j,
            "ray_lower": 105982005407465.44 + 1812731057165.9104j,
        },
        {
            "arc_rel": 0.0,
            "tail_rel_t_cut": 0.00012546898570378007,
            "tail_rel_s_cut": 3.297266675997435e-21,
            "t_cut": 3.7606030930863934,
            "s_cut": 3.7606030930863934,
            "radius": 5.848035476425731,
            "theta": 2.0943951023931953,
            "condition": 1.3454729743369453,
            "refinements": 1,
            "last_delta": 5.420772086950172e-15,
        },
    ),
    "A11-x1-n400": (
        (1, 1, Fraction(1), 400),
        4.849665934390068e188 + 0j,
        {
            "ray_upper": 2.424832967195034e188 - 1.3999779663499303e188j,
            "arc": 0j,
            "ray_lower": 2.424832967195034e188 + 1.3999779663499303e188j,
        },
        {
            "arc_rel": 0.0,
            "tail_rel_t_cut": 0.00493558869894043,
            "tail_rel_s_cut": 1.4429199467639052e-36,
            "t_cut": 4.47213595499958,
            "s_cut": 4.47213595499958,
            "radius": 7.368062997280773,
            "theta": 2.0943951023931953,
            "condition": 1.1547005383792508,
            "refinements": 1,
            "last_delta": 2.7974357310528744e-14,
        },
    ),
    "A32-x1-n50": (
        (3, 2, Fraction(1), 50),
        6.171662278524898e42 + 0j,
        {
            "ray_upper": 3.085831139262449e42 - 7.449855387600668e42j,
            "arc": 8.896792633849668e-44 - 4.385754356365295e-56j,
            "ray_lower": 3.085831139262449e42 + 7.449855387600668e42j,
        },
        {
            "arc_rel": 1.4415553269671309e-86,
            "tail_rel_t_cut": 0.179786434919066,
            "tail_rel_s_cut": 8.526019254596883e-12,
            "t_cut": 1.5444521049463789,
            "s_cut": 1.5444521049463789,
            "radius": 1.6306894089533097,
            "theta": 2.748893571891069,
            "condition": 2.6131259297527665,
            "refinements": 1,
            "last_delta": 7.197574805544974e-15,
        },
    ),
    "A11-x-1/2-n5": (
        (1, 1, Fraction(-1, 2), 5),
        -0.12931315104166677 + 0j,
        {
            "ray_upper": -0.06463821166343915 - 0.0016210200646024193j,
            "arc": -3.672771478845303e-05 - 8.859261033053901e-18j,
            "ray_lower": -0.06463821166343915 + 0.001621020064602428j,
        },
        {
            "arc_rel": 0.000284021497369736,
            "tail_rel_t_cut": 0.05604590865600844,
            "tail_rel_s_cut": 0.02503106918755018,
            "t_cut": 1.4953487812212205,
            "s_cut": 1.4953487812212205,
            "radius": 1.7099759466766968,
            "theta": 2.0943951023931953,
            "condition": 1.4400461685304171,
            "refinements": 1,
            "last_delta": 3.512124095005663e-16,
        },
    ),
    "A32-x-1/2-n30": (  # without its floor the arc takes 3 doublings
        (3, 2, Fraction(-1, 2), 30),
        2.766887020551389e-09 + 0j,
        {
            "ray_upper": 1.3834435102756946e-09 - 1.899112018204272e-09j,
            "arc": -1.1214485337263315e-37 + 2.4183563526409535e-46j,
            "ray_lower": 1.3834435102756946e-09 + 1.899112018204272e-09j,
        },
        {
            "arc_rel": 4.053105621576293e-29,
            "tail_rel_t_cut": 0.08570033191530445,
            "tail_rel_s_cut": 1.862122490538198e-06,
            "t_cut": 1.4592328029610848,
            "s_cut": 1.4592328029610848,
            "radius": 1.5298193747370035,
            "theta": 2.748893571891069,
            "condition": 3.3936121774360006,
            "refinements": 1,
            "last_delta": 8.558246657293201e-15,
        },
    ),
    "A11-x-exp(0.05i)-n30": (
        (1, 1, cmath.exp(0.05j), 30),
        -4079399093855.374 + 6648112292796.84j,
        {
            "ray_upper": -585573992327.5088 + 5003755753146.264j,
            "arc": 1.039930434980363e-33 + 9.15403455051556e-34j,
            "ray_lower": -3493825101527.865 + 1644356539650.5762j,
        },
        {
            "arc_rel": 1.7762096135674807e-46,
            "tail_rel_t_cut": 0.0549762847635711,
            "tail_rel_s_cut": 9.93052477422017e-06,
            "t_cut": 2.340347319320716,
            "s_cut": 2.340347319320716,
            "radius": 3.1072325059538586,
            "theta": 2.0943951023931953,
            "condition": 1.178877761214295,
            "refinements": 1,
            "last_delta": 3.7587772712505744e-16,
        },
    ),
}


@pytest.mark.parametrize("case", list(SECTOR_PINS))
def test_sector_result_is_pinned(case):
    (alpha, beta, x, n), value, segments, diagnostics = SECTOR_PINS[case]
    res = contour_coefficient(Integrand(UrnSpec(alpha, beta, 0, 1), x), ContourSpec(n=n))

    def close(got, want):  # rel 1e-12, with no absolute floor: a pinned 0 stays 0
        return abs(got - want) <= 1e-12 * abs(want)

    assert (res.n, res.kind) == (n, "sector")
    assert close(res.value, value)
    assert res.segments.keys() == segments.keys()
    assert res.diagnostics.keys() == diagnostics.keys()
    assert res.diagnostics["refinements"] == diagnostics["refinements"]
    for name, want in segments.items():
        assert close(res.segments[name], want), name
    for name, want in diagnostics.items():
        assert close(res.diagnostics[name], want), name


# -- diagnostics: arc, tails, descent ------------------------------------------


@pytest.mark.parametrize("spec", [UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1)])
def test_arc_contribution_negligible(spec):
    res = coefficient_auto(Integrand(spec, 1), 50)
    assert res.kind == "sector"
    assert res.diagnostics["arc_rel"] < 1e-8


@pytest.mark.parametrize("spec", [UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1)])
def test_tail_beyond_s_cut_negligible(spec):
    # cutting the ray at s = n^(1/(sigma+1)) in the regularized variable
    # discards exp(-n^(sigma/(sigma+1)))-sized mass
    res = coefficient_auto(Integrand(spec, 1), 100)
    assert res.diagnostics["tail_rel_s_cut"] < 1e-8


@pytest.mark.parametrize("spec", [UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1)])
@pytest.mark.parametrize("n", [50, 100])
def test_tail_beyond_t_cut_has_exponential_scale(spec, n):
    # in the t parameter the same cut keeps exp(-n^(1/(sigma+1))) of the
    # value: small, but nowhere near quadrature noise.  Pin both sides so a
    # regression in either direction (heavier tail, or a silently different
    # cut) is caught.
    res = coefficient_auto(Integrand(spec, 1), n)
    envelope = math.exp(-float(n) ** (1.0 / (spec.sigma + 1)))
    ratio = res.diagnostics["tail_rel_t_cut"] / envelope
    assert 0.01 < ratio < 3.0


@pytest.mark.parametrize("u", [0.0, 1.0])
@pytest.mark.parametrize("spec", [UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1)])
def test_modulus_descends_along_ray(spec, u):
    n = 100
    ig = Integrand.for_u(spec, u, n)
    t_cut = float(n) ** (1.0 / (spec.sigma + 1))
    ts = np.geomspace(t_cut, float(n) ** 2, 100)
    mods = [abs(eval_integrand(ig, saddle._ray_point(spec, n, t))[0]) ** n for t in ts]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(mods, mods[1:]))
    assert mods[-1] < mods[0]


def test_ray_at_x1_is_one_over_one_plus_t_over_n():
    # x=1 along the upper ray: h = 1/(1 + t/n), purely real
    n = 10
    ig = Integrand(UrnSpec(1, 1, 0, 1), 1)
    for t in (0.5, 1.0, 2.0):
        h, _ = eval_integrand(ig, saddle._ray_point(ig.spec, n, t))
        assert h.real == pytest.approx(1 / (1 + t / n))
        assert abs(h.imag) < 1e-12


# -- the quasi-power residual --------------------------------------------------


def test_power_residual_at_u0_is_explicit():
    # x=1 makes h = 1/(1 + t/n) exactly: residual = t - n log(1 + t/n)
    n, t = 100, 2.0
    ig = Integrand.for_u(UrnSpec(1, 1, 0, 1), 0.0, n)
    r = hx_power_residual(ig, n, t, 0.0)
    assert r.real == pytest.approx(t - n * math.log1p(t / n), abs=1e-12)
    assert abs(r.imag) < 1e-12


def test_power_residual_rejects_mismatched_x():
    ig = Integrand(UrnSpec(1, 1, 0, 1), 2)
    with pytest.raises(ValueError):
        hx_power_residual(ig, 100, 1.0, 0.5)


def test_power_residual_rejects_negative_t():
    ig = Integrand.for_u(UrnSpec(1, 1, 0, 1), 0.5, 100)
    with pytest.raises(ValueError):
        hx_power_residual(ig, 100, -1.0, 0.5)


@pytest.mark.parametrize(
    "spec,bound",
    [(UrnSpec(1, 1, 0, 1), 2.0), (UrnSpec(3, 2, 0, 1), 6.0)],
)
def test_power_residual_scale_bounded_over_ladder(spec, bound):
    # the envelope t^((a+b)/sigma) |u| n^(-b/(2 sigma)) + n^(-1/2)(|u|^3+|u|t)
    # should absorb the residual uniformly in n; the constant is urn-dependent
    # and pinned from measured worst cases (~1.48 and ~4.76, both attained at
    # the large-n, small-t corner and flat in n from 1e5 to 1e6)
    worst = 0.0
    for n in (10**3, 10**4, 10**5):
        for t in (0.5, 2.0, 5.0):
            for u in (0.3, 1.0):
                worst = max(worst, power_residual_scale(spec, n, t, u))
    assert worst <= bound
