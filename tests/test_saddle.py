"""Contour extraction of series coefficients.

The ground truth throughout is the exact table: sigma^(n+1)/(2 pi i) times
the loop integral of a_x h_x^(n+1) must reproduce series_from_table
coefficients to near machine precision, whichever contour kind is selected.
"""

import cmath
import math
import sys
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
    build_history_table,
    closed_form_x1_coefficient,
    coefficient_auto,
    contour_coefficient,
    contour_samples,
    eval_integrand,
    find_saddle_points,
    hx_power_residual,
    integrand_poles,
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
        # float64 saddle circle: sigma^(n+1) times the mean overflows
        (UrnSpec(3, 2, 0, 1), 2, 121, "the contour value"),
        # sector, assembled in log scale: c_651 = 10^308.6
        (UrnSpec(1, 1, 0, 1), 1, 651, "the contour value"),
        # sector refused as ill-conditioned, then the saddle circle: c_318 = 10^308.3
        (UrnSpec(1, 1, 0, 1), 2, 318, "the contour value"),
        # the same chain far past float64: c_503 = 10^489.9
        (UrnSpec(1, 1, 0, 1), 2, 503, "the contour value"),
    ],
)
def test_float64_overflow_is_refused(spec, x, n, what):
    # each n but 503 is the first whose exact coefficient is past float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UrnlabError, match=rf"^{what}.* at n={n} overflows float64$"):
            coefficient_auto(Integrand(spec, x), n)


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
    # cancellation; the regrouped kernel keeps these within rel_tol
    exact = series_coefficient(build_history_table(spec, n, keep=()), x, n)
    res = coefficient_auto(Integrand(spec, x), n)
    assert res.diagnostics["dps"] == 15
    assert res.value.real == pytest.approx(float(exact), rel=1e-9)


def test_float64_underflow_is_refused():
    # c_300 = 10^-364.8: the sector's log-scale value is below the smallest
    # normal float, so it is refused instead of returned as 0.0
    with pytest.raises(UrnlabError, match=r"^the contour value at n=300 underflows float64$"):
        coefficient_auto(Integrand(UrnSpec(4, 1, 0, 1), Fraction(1, 3)), 300)


@pytest.mark.parametrize(
    "spec,x,n,kind",
    [
        # the sector through w=1 misses the dominant saddle w=1/2, and its
        # rays cancel to ~1e-15 of their size
        (UrnSpec(1, 1, 0, 1), 2, 200, "sector"),
        # the saddle circle |w| = 1 at x < 1: refused on its first doubling,
        # not after refining noise to the last one
        (UrnSpec(3, 2, 0, 1), Fraction(1, 2), 100, "circle"),
    ],
)
def test_ill_conditioned_float64_contour_names_kappa(spec, x, n, kind):
    with pytest.raises(QuadratureNotConverged, match=rf"ill-conditioned at n={n}: condition number κ=\S+"):
        contour_coefficient(Integrand(spec, x), ContourSpec(n=n, kind=kind))


def test_auto_chain_order():
    def chain(contour):
        out = []
        while contour is not None:
            out.append((contour.kind, contour.circle_radius is not None))
            contour = contour.fallback
        return out

    ig = Integrand(UrnSpec(1, 1, 0, 1), 2)
    # sector, float64 saddle circle, mpmath circle
    assert chain(auto_contour(ig, 200)) == [("sector", False), ("circle", False), ("circle", True)]
    # small n: the mpmath circle is cheap and correctly rounded
    assert chain(auto_contour(ig, 16)) == [("sector", False), ("circle", True)]
    assert chain(auto_contour(Integrand(UrnSpec(3, 2, 0, 1), 2), 30)) == [("circle", False), ("circle", True)]


@pytest.mark.parametrize(
    "spec,x,n,kind,dps",
    [
        (UrnSpec(1, 1, 0, 1), 1, 100, "sector", None),
        (UrnSpec(3, 2, 0, 1), 2, 100, "circle", 15),
        (UrnSpec(3, 2, 0, 1), 2, 12, "circle", 72),
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
    # inside the nearest pole (w ~ 0.099), which the mpmath circle halves
    assert res.diagnostics["radius"] < 0.099


def _exact_log10(q: Fraction) -> float:
    """log10 |q| for a Fraction of any size, from the top 60 bits of each part."""

    def log10_int(k: int) -> float:
        shift = max(k.bit_length() - 60, 0)
        return math.log10(k >> shift) + shift * math.log10(2)

    return log10_int(abs(q.numerator)) - log10_int(q.denominator)


GRID_URNS = [(1, 1), (3, 2), (2, 1), (2, 5), (1, 3), (4, 1)]
GRID_XS = [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), 1, Fraction(11, 10), 2, 3]
GRID_NS = (30, 100, 300)


@pytest.mark.parametrize("alpha,beta", GRID_URNS)
def test_auto_is_right_or_refused_truthfully(alpha, beta):
    # every (x, n) either matches the exact coefficient to 1e-8 or is refused
    # with an overflow / underflow that the exact value confirms
    spec = UrnSpec(alpha, beta, 0, 1)
    table = build_history_table(spec, max(GRID_NS), keep=set(GRID_NS))
    log10_max = math.log10(sys.float_info.max)
    log10_min = math.log10(sys.float_info.min)
    for x in GRID_XS:
        for n in GRID_NS:
            exact = series_coefficient(table, x, n)
            case = f"A({alpha},{beta}) x={x} n={n}"
            try:
                res = coefficient_auto(Integrand(spec, x), n)
            except UrnlabError as exc:
                msg = str(exc)
                if msg.endswith("overflows float64"):
                    assert _exact_log10(exact) > log10_max, f"{case}: false refusal {msg}"
                elif msg.endswith("underflows float64"):
                    assert _exact_log10(exact) < log10_min, f"{case}: false refusal {msg}"
                else:
                    pytest.fail(f"{case}: refused for a reason the value does not show: {msg}")
                continue
            assert abs(res.value - float(exact)) <= 1e-8 * float(exact), case


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
