"""The truncated counting series and its defining polynomial.

The exact residual check is the load-bearing one: every coefficient of
(z - A - B) y^sigma + B y^alpha + A through the truncation order must vanish
identically in rational arithmetic.
"""

import math
import re
from fractions import Fraction

import mpmath as mp
import pytest

from urnlab import (
    AlgebraicEquation,
    RowMissing,
    TruncatedSeries,
    UnsupportedInitialConfig,
    UrnSpec,
    algebraic_residual,
    build_history_table,
    closed_form_x1_coefficient,
    lagrange_coefficient,
    series_coefficient,
    series_from_table,
    x1_asymptotic_ratio,
)


def test_series_coefficients_x1(dense11):
    s = series_from_table(dense11, 1, 4)
    assert s.coeffs == (1, 1, 2, Fraction(14, 3), Fraction(35, 3))


def test_series_coefficients_x2(dense11):
    # row 2 is (3, 1): 3*2^2 + 1*2^3 = 20, then /2!
    s = series_from_table(dense11, 2, 2)
    assert s.coeffs == (Fraction(1), Fraction(2), Fraction(10))


def test_series_input_validation(dense11):
    with pytest.raises(RowMissing):
        series_from_table(dense11, 1, dense11.n_max + 1)
    with pytest.raises(ValueError):
        series_from_table(dense11, 0, 3)
    with pytest.raises(ValueError):
        series_from_table(dense11, 1, -1)


def test_single_coefficient_from_one_row(urn32, dense32):
    sparse = build_history_table(urn32, 20, keep=())
    assert sparse.kept == (20,)
    for x in (1, Fraction(2), Fraction(1, 3)):
        assert series_coefficient(sparse, x, 20) == series_from_table(dense32, x, 20).coeffs[20]
    with pytest.raises(RowMissing):
        series_coefficient(sparse, 1, 21)
    with pytest.raises(ValueError):
        series_coefficient(sparse, 0, 20)


def test_truncated_series_shape_checked():
    with pytest.raises(ValueError):
        TruncatedSeries(1, 2, (1, 1))  # order 2 needs 3 coefficients


def test_equation_constants():
    eq = AlgebraicEquation(UrnSpec(1, 1, 0, 1))
    assert eq.B(1) == 0
    assert eq.B(2) == Fraction(-1, 4)
    assert eq.B(Fraction(1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("x", [Fraction(1, 2), 1, 2, 3])
def test_residual_vanishes_exactly(dense11, dense32, x):
    for table in (dense11, dense32):
        eq = AlgebraicEquation(table.spec)
        series = series_from_table(table, x, 20)
        res = algebraic_residual(series, eq)
        assert len(res) == 21
        assert all(r == 0 for r in res)


def test_residual_detects_a_wrong_coefficient(dense11):
    # sanity that the check has teeth: perturb one coefficient
    eq = AlgebraicEquation(dense11.spec)
    s = series_from_table(dense11, 2, 8)
    coeffs = list(s.coeffs)
    coeffs[5] += Fraction(1, 10**9)
    bad = TruncatedSeries(s.x_value, s.order, tuple(coeffs))
    assert any(r != 0 for r in algebraic_residual(bad, eq))


def test_residual_requires_single_white_start():
    spec = UrnSpec(1, 1, 1, 1)
    table = build_history_table(spec, 5)
    series = series_from_table(table, 1, 5)
    with pytest.raises(UnsupportedInitialConfig):
        algebraic_residual(series, AlgebraicEquation(spec))


def test_non_rational_x_is_refused_by_value(dense11):
    # the series, its residual and the Lagrange form are exact: a float,
    # complex, mpmath or string x is refused by its value, not converted
    eq = AlgebraicEquation(dense11.spec)
    for x in (2.0, 0.1, complex(2, 0), mp.sqrt(2), "1/10"):
        for call in (
            lambda: series_coefficient(dense11, x, 5),
            lambda: series_from_table(dense11, x, 5),
            lambda: eq.B(x),
            lambda: algebraic_residual(TruncatedSeries(x, 0, (Fraction(1),)), eq),
            lambda: lagrange_coefficient(dense11.spec, x, 5),
        ):
            with pytest.raises(ValueError, match=f"^x must be rational .*; got {re.escape(repr(x))}$"):
                call()


def _fraction_series(table, x, order):
    """Reference c_0..c_order: sum_k count * x^black / n!, one Fraction at a time."""
    black = table.spec.black_count
    return [
        sum(Fraction(c) * x ** black(n, k) for k, c in enumerate(table.row(n))) / math.factorial(n)
        for n in range(order + 1)
    ]


def _fraction_residual(spec, x, y):
    """Reference residual: the polynomial applied to y by Fraction convolution."""
    N = len(y) - 1

    def power(m):
        out = [Fraction(1)] + [Fraction(0)] * N
        for _ in range(m):
            out = [sum(out[i] * y[n - i] for i in range(n + 1)) for n in range(N + 1)]
        return out

    A, B = Fraction(1, spec.sigma), (x**-spec.alpha - 1) / (spec.alpha + spec.beta)
    y_alpha, y_sigma = power(spec.alpha), power(spec.sigma)
    return [
        (y_sigma[n - 1] if n else 0) - (A + B) * y_sigma[n] + B * y_alpha[n] + (A if n == 0 else 0)
        for n in range(N + 1)
    ]


@pytest.mark.parametrize("alpha, beta", [(1, 1), (3, 2), (2, 5)])
def test_integer_paths_equal_fraction_reference(alpha, beta):
    spec = UrnSpec(alpha, beta, 0, 1)
    table = build_history_table(spec, 30)
    eq = AlgebraicEquation(spec)
    for x in (Fraction(1, 2), Fraction(2), Fraction(-2), Fraction(7, 5)):
        series = series_from_table(table, x, 30)
        want = _fraction_series(table, x, 30)
        assert series.coeffs == tuple(want)
        assert all(type(c) is Fraction for c in series.coeffs)
        assert algebraic_residual(series, eq) == tuple(_fraction_residual(spec, x, want))
        # off the root the residual is nonzero, and must still be the same numbers
        bad = list(want)
        bad[3] += Fraction(1, 7)
        bad[17] -= Fraction(5, 3**20)
        got = algebraic_residual(TruncatedSeries(x, 30, tuple(bad)), eq)
        assert got == tuple(_fraction_residual(spec, x, bad))
        assert sum(r != 0 for r in got) > 10


def test_closed_form_x1(dense11, dense32):
    # x = 1 collapses the series to (1 - sigma z)^(-1/sigma)
    for table in (dense11, dense32):
        series = series_from_table(table, 1, 20)
        for n in range(21):
            assert series.coeffs[n] == closed_form_x1_coefficient(table.spec, n)


@pytest.mark.parametrize("a0, b0", [(1, 0), (2, 3), (0, 2), (3, 4)])
def test_x1_coefficients_hold_for_any_start(a0, b0):
    # at x = 1 every history counts: c_n = total_histories/n! from any start
    for alpha, beta in ((1, 1), (3, 2)):
        spec = UrnSpec(alpha, beta, a0, b0)
        table = build_history_table(spec, 30)
        s0, sigma = a0 + b0, spec.sigma
        for n in range(31):
            c = series_coefficient(table, 1, n)
            assert closed_form_x1_coefficient(spec, n) == c
            if n:
                want = float(c) * math.gamma(s0 / sigma) * n ** (1 - s0 / sigma) / sigma**n
                assert x1_asymptotic_ratio(spec, n) == pytest.approx(want, rel=1e-12)


def test_closed_form_small_values():
    spec = UrnSpec(1, 1, 0, 1)
    assert [closed_form_x1_coefficient(spec, n) for n in range(5)] == [
        1,
        1,
        2,
        Fraction(14, 3),
        Fraction(35, 3),
    ]


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_x1_coefficient(UrnSpec(1, 1, 0, 1), -1)


@pytest.mark.parametrize(
    "spec",
    [UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1), UrnSpec(1, 1, 1, 0), UrnSpec(3, 2, 2, 3), UrnSpec(2, 5, 0, 2)],
)
@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_x1_ratio_approaches_one(spec, n):
    # c_n ~ sigma^n n^(s0/sigma - 1) / Gamma(s0/sigma), s0 = a0 + b0, deviation O(1/n)
    ratio = x1_asymptotic_ratio(spec, n)
    assert abs(ratio - 1.0) <= 5.0 / n


def test_x1_ratio_measures_actual_coefficient():
    # independent log of the exact Fraction via mpmath big-int logs
    spec = UrnSpec(1, 1, 0, 1)
    n = 100
    c = closed_form_x1_coefficient(spec, n)
    log_c = float(mp.log(mp.mpf(c.numerator)) - mp.log(mp.mpf(c.denominator)))
    expected = math.exp(
        log_c + math.lgamma(1 / 3) - n * math.log(3) + (2 / 3) * math.log(n)
    )
    assert x1_asymptotic_ratio(spec, n) == pytest.approx(expected, rel=1e-12)


def test_x1_ratio_validation():
    with pytest.raises(ValueError):
        x1_asymptotic_ratio(UrnSpec(1, 1, 0, 1), 0)


GRID_X = (Fraction(2), Fraction(1, 3), Fraction(1), Fraction(-2), Fraction(7, 5))


@pytest.mark.parametrize("alpha, beta", [(1, 1), (3, 2), (2, 5), (1, 3), (4, 1)])
def test_lagrange_equals_the_dp_on_a_grid(alpha, beta):
    spec = UrnSpec(alpha, beta, 0, 1)
    table = build_history_table(spec, 60, keep={1, 2, 5, 20})
    for n in (1, 2, 5, 20, 60):
        for x in GRID_X:
            assert lagrange_coefficient(spec, x, n) == series_coefficient(table, x, n), (x, n)


def test_lagrange_equals_every_dense_row(dense11, dense32):
    for table in (dense11, dense32):
        for x in GRID_X:
            series = series_from_table(table, x, table.n_max)
            assert [lagrange_coefficient(table.spec, x, n) for n in range(table.n_max + 1)] == list(
                series.coeffs
            )


@pytest.mark.parametrize("x", [Fraction(2), Fraction(1, 2), Fraction(-1, 3)])
def test_lagrange_equals_the_dp_at_large_n(big11, mid32, x):
    for table, rows in ((big11, (100, 400, 1000)), (mid32, (100, 400))):
        for n in rows:
            assert lagrange_coefficient(table.spec, x, n) == series_coefficient(table, x, n), n


def test_lagrange_validation():
    spec = UrnSpec(3, 2, 0, 1)
    for x in (2, Fraction(1, 3), -1):
        assert lagrange_coefficient(spec, x, 0) == 1
    assert lagrange_coefficient(spec, 1, 7) == closed_form_x1_coefficient(spec, 7)
    for a0, b0 in ((1, 0), (0, 2), (2, 3)):
        with pytest.raises(UnsupportedInitialConfig):
            lagrange_coefficient(UrnSpec(1, 1, a0, b0), 2, 5)
    with pytest.raises(ValueError, match="nonzero"):
        lagrange_coefficient(spec, 0, 5)
    with pytest.raises(ValueError, match="n must be >= 0"):
        lagrange_coefficient(spec, 2, -1)
