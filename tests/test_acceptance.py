"""Acceptance gate: one test per shipped guarantee, tolerances pinned inline.

Run with -v to get one PASS/FAIL line per criterion.  Three criteria are
implemented exactly as stated and fail honestly at desk-scale n; their
assertion messages carry the measured values and the measured convergence
trend (see the failure analyses in the assert text rather than a loosened
bound).
"""

import math
import time
from fractions import Fraction

import pytest
from scipy.stats import chi2 as chi2_dist

from urnlab import (
    AlgebraicEquation,
    Integrand,
    UrnSpec,
    algebraic_residual,
    brute_force_histories,
    closed_form_x1_coefficient,
    coefficient_auto,
    empirical_tail_exponent,
    exact_distribution,
    exact_moments,
    gaussian_cdf_error,
    limit_params,
    local_limit_error,
    mean_correction_coefficient,
    quasi_power_modulus,
    rate_function_closed_form,
    rate_function_eval,
    RateFunction,
    series_from_table,
    simulate,
)

URNS = (UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1))

# pinned tolerances
ORACLE_TIME_LIMIT_S = 10.0
RESIDUAL_TIME_LIMIT_S = 30.0
RATIO_SLACK = 5.0  # |ratio - 1| <= RATIO_SLACK / n
CONTOUR_REL_TOL = 1e-6
NEGLIGIBLE_REL = 1e-8  # arc and discarded-tail budget
MEAN_CORR_TOL = 0.01
VAR_BAND = (0.735, 0.765)  # variance/n at n = 1000
CDF_SQRT_N_BOUND = 5.0
LOCAL_SQRT_N_BOUND = 3.8
RATE_MATCH_TOL = 1e-10
EXPONENT_BAND_REL = 0.15
QUASI_DECAY_FACTOR = 1.5  # err(1600)/err(100) <= 1.5 * 16^(-1/6)
CHI2_CONFIDENCE = 0.999


def test_criterion_01_exact_counts_match_independent_enumeration(dense11, dense32):
    started = time.perf_counter()
    for table in (dense11, dense32):
        for n in range(9):
            assert table.row(n) == brute_force_histories(table.spec, n), (
                f"A({table.spec.alpha},{table.spec.beta}) row {n} disagrees"
            )
    elapsed = time.perf_counter() - started
    print(f"criterion 1: PASS — DP equals enumeration for n<=8, both urns, {elapsed:.2f}s")
    assert elapsed < ORACLE_TIME_LIMIT_S


def test_criterion_02_series_satisfies_algebraic_equation_exactly(dense11, dense32):
    started = time.perf_counter()
    for table in (dense11, dense32):
        eq = AlgebraicEquation(table.spec)
        for x in (Fraction(1, 2), 1, 2):
            res = algebraic_residual(series_from_table(table, x, 20), eq)
            assert all(r == 0 for r in res), (
                f"A({table.spec.alpha},{table.spec.beta}) x={x}: nonzero residual"
            )
    elapsed = time.perf_counter() - started
    print(f"criterion 2: PASS — residuals identically zero through order 20, {elapsed:.2f}s")
    assert elapsed < RESIDUAL_TIME_LIMIT_S


def test_criterion_03_x1_closed_form_and_asymptotic_ratio(dense11, dense32):
    from urnlab import x1_asymptotic_ratio

    for table in (dense11, dense32):
        series = series_from_table(table, 1, 20)
        for n in range(21):
            assert series.coeffs[n] == closed_form_x1_coefficient(table.spec, n)
    worst = 0.0
    for spec in URNS:
        for n in (100, 1000, 10000):
            dev = abs(x1_asymptotic_ratio(spec, n) - 1.0) * n
            worst = max(worst, dev)
            assert dev <= RATIO_SLACK, f"A({spec.alpha},{spec.beta}) n={n}: n*|ratio-1|={dev:.3f}"
    print(f"criterion 3: PASS — closed form exact to n=20; worst n*|ratio-1| = {worst:.3f}")


def test_criterion_04_contour_extraction_and_negligibility(dense11, dense32):
    # clause 1: extraction accuracy over the full small-n grid
    worst_rel = 0.0
    for table in (dense11, dense32):
        for x in (1, 2):
            series = series_from_table(table, x, 30)
            for n in range(1, 31):
                got = coefficient_auto(Integrand(table.spec, x), n).value.real
                exact = float(series.coeffs[n])
                rel = abs(got - exact) / abs(exact)
                worst_rel = max(worst_rel, rel)
                assert rel <= CONTOUR_REL_TOL, (
                    f"A({table.spec.alpha},{table.spec.beta}) x={x} n={n}: rel={rel:.3e}"
                )
    # clause 2: arc and discarded ray tail both below 1e-8 of the value
    # for n in {50, 100} at x=1
    measured = {}
    for spec in URNS:
        for n in (50, 100):
            d = coefficient_auto(Integrand(spec, 1), n).diagnostics
            measured[(spec.alpha, spec.beta, n)] = (d["arc_rel"], d["tail_rel_t_cut"])
            assert d["arc_rel"] < NEGLIGIBLE_REL
    print(
        f"criterion 4: FAIL — extraction ok (worst rel {worst_rel:.1e}) and arc ok, "
        f"but tail beyond t = n^(1/(sigma+1)) is exp(-n^(1/(sigma+1)))-sized, "
        f"not <1e-8: " + ", ".join(
            f"A({a},{b}) n={n}: {tail:.2e}" for (a, b, n), (_, tail) in measured.items()
        )
    )
    for key, (_, tail) in measured.items():
        assert tail < NEGLIGIBLE_REL, (
            f"A({key[0]},{key[1]}) n={key[2]}: tail_rel_t_cut={tail:.3e} >= {NEGLIGIBLE_REL} "
            f"(the cut discards Theta(exp(-n^(1/(sigma+1)))) of the value: "
            f"7e-2 at n=50 for sigma=3, so the stated bound first holds near n~1.2e5; "
            f"in the regularized s-variable the same tail is "
            f"{'3.2e-8 at n=50 and 2.7e-13 at n=100' if key[0] == 1 else '8.5e-12 and 2.2e-21'})"
        )


def test_criterion_05_moment_expansions(big11):
    spec = UrnSpec(1, 1, 0, 1)
    params = limit_params(spec)
    coeff = mean_correction_coefficient(spec)
    # mean clause: scaled correction within 0.01 of its Gamma-ratio constant
    for n in (200, 500, 1000):
        mean, _ = exact_moments(big11, n)
        ratio = (float(mean) - 1.5 * n - 0.5) / n ** (1 / 3)
        assert ratio == pytest.approx(-coeff, abs=MEAN_CORR_TOL), f"n={n}: {ratio:.6f}"
    # variance clause: variance/n inside [0.735, 0.765] at n=1000
    _, var = exact_moments(big11, 1000)
    vn = float(var) / 1000
    print(
        f"criterion 5: FAIL — mean correction -0.98918 confirmed at n in (200, 500, 1000), "
        f"but variance/n at n=1000 is {vn:.6f}, outside [{VAR_BAND[0]}, {VAR_BAND[1]}]"
    )
    assert VAR_BAND[0] <= vn <= VAR_BAND[1], (
        f"variance/n = {vn:.6f} at n=1000 vs stated band {VAR_BAND}; the exact "
        f"variance is nu2*n - c*n^(2/3) with c ~ 0.98 (measured var/n: 0.5839 at "
        f"n=200, 0.6272 at n=500, 0.6524 at n=1000, gaps shrinking like n^(-1/3)), "
        f"so the band is first reached near n ~ 2.8e5, beyond exact-DP reach"
    )


def test_criterion_06_gaussian_cdf_convergence(big11, mid32):
    lines = []
    for table in (big11, mid32):
        params = limit_params(table.spec)
        errs = [gaussian_cdf_error(table, params, n) for n in (25, 100, 400)]
        assert errs[0] > errs[1] > errs[2], f"not decreasing: {errs}"
        scaled = [e * math.sqrt(n) for e, n in zip(errs, (25, 100, 400))]
        assert max(scaled) <= CDF_SQRT_N_BOUND, f"err*sqrt(n) up to {max(scaled):.3f}"
        lines.append(
            f"A({table.spec.alpha},{table.spec.beta}): "
            + ", ".join(f"{e:.4f}" for e in errs)
        )
    print(f"criterion 6: PASS — Kolmogorov errors decrease ({'; '.join(lines)}), err*sqrt(n) <= 5.0")


def test_criterion_07_local_law_convergence(big11, mid32):
    plans = ((big11, (100, 400, 900)), (mid32, (25, 100, 400)))
    lines = []
    for table, ns in plans:
        params = limit_params(table.spec)
        errs = [local_limit_error(table, params, n) for n in ns]
        assert errs[0] > errs[1] > errs[2], f"not decreasing: {errs}"
        scaled = [e * math.sqrt(n) for e, n in zip(errs, ns)]
        assert max(scaled) <= LOCAL_SQRT_N_BOUND, f"err*sqrt(n) up to {max(scaled):.3f}"
        lines.append(
            f"A({table.spec.alpha},{table.spec.beta}): "
            + ", ".join(f"{e:.4f}" for e in errs)
        )
    print(f"criterion 7: PASS — local-law errors decrease ({'; '.join(lines)}), err*sqrt(n) <= 3.8")


def test_criterion_08_deviation_rate(log11_2000):
    params = limit_params(UrnSpec(1, 1, 0, 1))
    rf = RateFunction(params, 0.5)
    # clause 1: the minimised objective agrees with the closed form across the interval
    span = rf.t1 - rf.t0
    for i in range(1, 100):
        t = rf.t0 + span * i / 100
        assert abs(rate_function_eval(rf, t) - rate_function_closed_form(rf, t)) <= RATE_MATCH_TOL
    w = rate_function_eval(rf, 1.8)
    # clause 3: the empirical exponent approaches W(1.8) monotonically
    exps = {n: empirical_tail_exponent(log11_2000, params, n, 1.8) for n in (500, 1000, 2000)}
    gaps = {n: abs(e - w) for n, e in exps.items()}
    assert gaps[2000] < gaps[1000] < gaps[500], f"gaps not shrinking: {gaps}"
    # clause 2: within 15% of W(1.8) = 0.06 by n = 2000
    print(
        f"criterion 8: FAIL — W matches its closed form to 1e-10 and the exponent gap "
        f"shrinks ({gaps[500]:.4f} -> {gaps[1000]:.4f} -> {gaps[2000]:.4f}), but the "
        f"n=2000 exponent {exps[2000]:.6f} is outside 0.06 +/- 15%"
    )
    assert abs(exps[2000] - w) <= EXPONENT_BAND_REL * w, (
        f"exponent at n=2000 is {exps[2000]:.6f}, {abs(exps[2000] - w) / w:.0%} from "
        f"W(1.8)={w:.4f}; the measured ladder (0.09895 at n=500, 0.09261 at n=1000, "
        f"0.08902 at n=2000, 0.08699 at n=4000) converges to the pgf-singularity "
        f"rate ln(2^(9/5)*5/16) = 0.084514 (three-point fit: 0.08452), not to the "
        f"quadratic value 0.06, which approximates the rate only to second order "
        f"near t = mu; 0.06 is not reachable at any n"
    )


def test_criterion_09_quasi_power_convergence(log11_1600):
    params = limit_params(UrnSpec(1, 1, 0, 1))
    u = 1.0
    errs = []
    for n in (100, 400, 1600):
        z = complex(math.cos(u / math.sqrt(n)), math.sin(u / math.sqrt(n)))
        errs.append(abs(abs(log11_1600.pgf(n, z)) - quasi_power_modulus(params, u)))
    assert errs[0] > errs[1] > errs[2], f"not decreasing: {errs}"
    bound = QUASI_DECAY_FACTOR * 16.0 ** (-1.0 / 6.0)
    ratio = errs[2] / errs[0]
    assert ratio <= bound, f"err(1600)/err(100) = {ratio:.4f} > {bound:.4f}"
    print(
        f"criterion 9: PASS — modulus errors {errs[0]:.4f} -> {errs[1]:.4f} -> {errs[2]:.4f}, "
        f"16-fold-n ratio {ratio:.3f} <= {bound:.3f}"
    )


def test_criterion_10_simulation_distribution(dense11):
    spec = UrnSpec(1, 1, 0, 1)
    trials = 10**6
    first = simulate(spec, 10, trials, seed=2026)
    again = simulate(spec, 10, trials, seed=2026)
    assert first.counts == again.counts, "same-seed reruns must be bit-identical"
    dist = exact_distribution(dense11, 10, numeric=True)
    expected = {b: m * trials for b, m in dist.masses.items()}
    assert min(expected.values()) >= 5
    stat = sum((first.counts.get(b, 0) - e) ** 2 / e for b, e in expected.items())
    dof = len(expected) - 1
    bound = chi2_dist.ppf(CHI2_CONFIDENCE, dof)
    assert stat < bound, f"chi2 = {stat:.2f} with {dof} dof exceeds q({CHI2_CONFIDENCE}) = {bound:.2f}"
    print(
        f"criterion 10: PASS — chi2 {stat:.2f} on {dof} dof (bound {bound:.2f}), "
        f"reruns bit-identical at {trials} trials"
    )
