"""Contour extraction of series coefficients.

The ground truth throughout is the exact table: sigma^(n+1)/(2 pi i) times
the loop integral of a_x h_x^(n+1) must reproduce series_from_table
coefficients to near machine precision, whichever contour kind is selected.
"""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from urnlab import (
    ContourCrossesPole,
    ContourSpec,
    Integrand,
    PoleHit,
    QuadratureNotConverged,
    UrnSpec,
    UrnlabError,
    auto_contour,
    coefficient_auto,
    contour_coefficient,
    contour_samples,
    eval_integrand,
    find_saddle_points,
    hx_power_residual,
    integrand_poles,
    power_residual_scale,
    sector_validity,
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


def test_a32_x2_has_a_pole_near_origin():
    # this is the pole that invalidates any saddle-anchored wedge
    poles = integrand_poles(Integrand(UrnSpec(3, 2, 0, 1), 2))
    nonzero = sorted(abs(p) for p in poles if abs(p) > 1e-9)
    assert nonzero[0] < 0.15


def test_saddles_a11_x2():
    s = find_saddle_points(Integrand(UrnSpec(1, 1, 0, 1), 2))
    assert s.main == 1.0
    assert s.main_multiplicity == 1
    assert len(s.secondary) == 1
    assert s.secondary[0] == pytest.approx(0.5)  # 1 - gamma, gamma = 1 - 1/2
    assert s.total_multiplicity == 2
    assert max(s.derivative_residuals) < 1e-12


def test_saddles_a32_x1_coalesce():
    spec = UrnSpec(3, 2, 0, 1)
    s = find_saddle_points(Integrand(spec, 1))
    assert s.main_multiplicity == 4  # alpha + beta - 1
    assert all(w == pytest.approx(1.0) for w in s.secondary)
    assert s.total_multiplicity == spec.sigma - 1
    assert max(s.derivative_residuals) < 1e-12


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
    assert auto_contour(Integrand(spec, 1), 10).kind == "sector"
    assert auto_contour(Integrand(spec, 2), 10).kind == "sector"


def test_auto_falls_back_to_circle():
    # n=1: arc radius 1 cannot clear the origin pole
    assert auto_contour(Integrand(UrnSpec(1, 1, 0, 1), 1), 1).kind == "circle"
    # pole inside the wedge
    assert auto_contour(Integrand(UrnSpec(3, 2, 0, 1), 2), 10).kind == "circle"
    # pole sitting exactly on the saddle
    assert auto_contour(Integrand(UrnSpec(1, 1, 0, 1), 3), 10).kind == "circle"


def test_sector_validity_reports_reason():
    for spec, x, n, expected in [
        (UrnSpec(3, 2, 0, 1), 2, 10, "pole"),  # a pole inside the wedge
        (UrnSpec(1, 1, 0, 1), 1, 1, "arc radius"),  # the arc cannot clear w=0
        (UrnSpec(1, 1, 0, 1), 3, 10, "touches a ray"),  # a pole on the saddle
    ]:
        ok, reason = sector_validity(Integrand(spec, x), ContourSpec(n=n, kind="sector"))
        assert not ok
        assert expected in reason


def test_explicit_invalid_sector_raises():
    with pytest.raises(ContourCrossesPole):
        contour_coefficient(
            Integrand(UrnSpec(3, 2, 0, 1), 2), ContourSpec(n=10, kind="sector")
        )


def test_circle_radius_must_separate_poles():
    with pytest.raises(ContourCrossesPole):
        contour_coefficient(
            Integrand(UrnSpec(1, 1, 0, 1), 1),
            ContourSpec(n=5, kind="circle", circle_radius=5.0),
        )


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(n=0)
    with pytest.raises(ValueError):
        ContourSpec(n=5, kind="pentagon")


def test_refinement_budget_exhaustion_raises():
    spec = ContourSpec(n=10, kind="sector", max_refinements=0, rel_tol=1e-15)
    with pytest.raises(QuadratureNotConverged):
        contour_coefficient(Integrand(UrnSpec(1, 1, 0, 1), 1), spec)


@pytest.mark.parametrize(
    "spec,x,n,what",
    [
        # circle: sigma^(n+1) times the mpmath mean overflows
        (UrnSpec(3, 2, 0, 1), 2, 121, "the contour value"),
        # sector: sigma^(n+1) alone is past float64
        (UrnSpec(1, 1, 0, 1), 1, 646, "the contour value"),
        # sector: the prefactor times the loop integral overflows
        (UrnSpec(1, 1, 0, 1), 2, 298, "the contour value"),
        # sector: h_x(1)^(n+1) = 4^(n+1) on the ray overflows
        (UrnSpec(1, 1, 0, 1), 2, 503, "the contour integrand"),
    ],
)
def test_float64_overflow_is_refused(spec, x, n, what):
    # each n is the smallest that reaches its check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UrnlabError, match=rf"^{what}.* at n={n} overflows float64$"):
            coefficient_auto(Integrand(spec, x), n)


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


def test_circle_fallback_is_essentially_exact(dense32):
    series = series_from_table(dense32, 2, 12)
    for n in (5, 12):
        res = coefficient_auto(Integrand(dense32.spec, 2), n)
        assert res.kind == "circle"
        rel = abs(res.value.real - float(series.coeffs[n])) / float(series.coeffs[n])
        assert rel < 1e-20


def test_sector_segments_sum_to_value(dense11):
    res = coefficient_auto(Integrand(dense11.spec, 1), 20)
    assert res.kind == "sector"
    total = sum(res.segments.values())
    assert total == pytest.approx(res.value, rel=1e-12)
    assert set(res.segments) == {"ray_upper", "arc", "ray_lower"}


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
    mods = [row[3] for row in contour_samples(ig, n, ts)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(mods, mods[1:]))
    assert mods[-1] < mods[0]


def test_contour_samples_rows():
    rows = contour_samples(Integrand(UrnSpec(1, 1, 0, 1), 1), 10, [0.5, 1.0, 2.0])
    assert [r[0] for r in rows] == [0.5, 1.0, 2.0]
    # x=1 along this ray: h = 1/(1 + t/n), purely real
    assert rows[1][1] == pytest.approx(1 / 1.1)
    assert abs(rows[1][2]) < 1e-12
    assert rows[1][3] == pytest.approx((1 / 1.1) ** 10)


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
