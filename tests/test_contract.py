"""Right or refused, on random cases: a fixed-seed property check in the
manner of QuickCheck (Claessen & Hughes, ICFP 2000).

Each layer's result is either right to the layer's stated tolerance or
refused by an UrnlabError subclass.  A bare ValueError, ZeroDivisionError or
OverflowError fails the case.  The cases are drawn once from SEED, and every
case drawn is kept: none is filtered or drawn again after a failure.

The generators and checks are shared with ``scripts/contract_sweep.py``,
which loads this file by path to run the same properties over many more
cases.
"""
import contextlib
import io
import json
import random
from fractions import Fraction

from urnlab import (
    Integrand,
    UnsupportedInitialConfig,
    UrnlabError,
    UrnSpec,
    build_history_table,
    build_log_table,
    build_mass_table,
    coefficient_auto,
    exact_moments,
    lagrange_coefficient,
    moment_ladder,
    series_coefficient,
    total_histories,
)
from urnlab.cli import run

SEED = 26
CONTOUR_CASES = 150
DP_CASES = 300
CLI_CASES = 20  # the first contour cases, run again through the command line

CONTOUR_REL_TOL = 1e-9  # what the contour promises
MASS_TOL = 1e-13  # float rows against the exact row, relative to its largest mass


def _urn(rng: random.Random, single_white: bool) -> UrnSpec:
    alpha, beta = rng.randint(1, 4), rng.randint(1, 5)
    if single_white:
        return UrnSpec(alpha, beta, 0, 1)
    a0, b0 = 0, 0
    while a0 + b0 == 0:
        a0, b0 = rng.randint(0, 4), rng.randint(0, 4)
    return UrnSpec(alpha, beta, a0, b0)


def _x(rng: random.Random) -> Fraction:
    """x = +-p/q with p, q <= 40, negative one time in four."""
    x = Fraction(rng.randint(1, 40), rng.randint(1, 40))
    return -x if rng.random() < 0.25 else x


def contour_cases(seed: int, count: int) -> list[tuple[UrnSpec, Fraction, int]]:
    """(urn, x, n): A(alpha <= 4, beta <= 5), from (0, 1) seven times in
    eight and from a random start otherwise, and 1 <= n <= 300."""
    rng = random.Random(seed)
    return [(_urn(rng, rng.random() < 7 / 8), _x(rng), rng.randint(1, 300)) for _ in range(count)]


def dp_cases(seed: int, count: int) -> list[tuple[UrnSpec, int, Fraction, float, str]]:
    """(urn, n, x, t, side): a random urn and start, 0 <= n <= 120, and a
    tail threshold t*n with t from just below alpha to just above 2*alpha,
    so that some tails are empty."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        spec = _urn(rng, False)
        n, x = rng.randint(0, 120), _x(rng)
        t = rng.uniform(0.9 * spec.alpha, 2.2 * spec.alpha)
        cases.append((spec, n, x, t, rng.choice(("right", "left"))))
    return cases


def check_contour(spec: UrnSpec, x: Fraction, n: int) -> str:
    """``coefficient_auto`` against ``lagrange_coefficient``: "right", or
    the refusal as "<class>: <message>".  AssertionError on a wrong value;
    any other exception propagates."""
    try:
        result = coefficient_auto(Integrand(spec, x), n)
    except UrnlabError as exc:
        return f"{type(exc).__name__}: {exc}"
    exact = lagrange_coefficient(spec, x, n)  # refuses any start but (0, 1)
    assert result.value.imag == 0, f"complex value {result.value} at a real x"
    error = abs(Fraction(result.value.real) - exact)
    assert error <= CONTOUR_REL_TOL * abs(exact), f"{result.kind}: {result.value!r} against {float(exact)!r}"
    return "right"


def _assert_rows_close(name: str, row, exact_row) -> None:
    worst = max(abs(m - e) for m, e in zip(row, exact_row))
    assert len(row) == len(exact_row) and worst <= MASS_TOL * max(exact_row), f"{name} row off by {worst:.3g}"


def _log_tail(table, n: int, threshold: float, side: str):
    try:
        return table.log_tail(n, threshold, side)
    except UrnlabError as exc:
        return f"{type(exc).__name__}: {exc}"


def check_dp(spec: UrnSpec, n: int, x: Fraction, t: float, side: str) -> str:
    """The DP layers against one exact row: the series coefficient against
    ``lagrange_coefficient`` (or its refusal of a start other than (0, 1)),
    the float mass and log rows within MASS_TOL, ``log_tail`` on a ``tail=``
    table to the bit, and ``moment_ladder`` exactly.  Returns "right";
    AssertionError on a mismatch."""
    table = build_history_table(spec, n, keep=())
    total = total_histories(spec, n)
    exact_row = [c / total for c in table.row(n)]
    _assert_rows_close("mass", build_mass_table(spec, n, keep=()).masses(n), exact_row)
    log_table = build_log_table(spec, n, keep=())
    _assert_rows_close("log", log_table.masses(n), exact_row)
    cone = build_log_table(spec, n, keep=(), tail=(t, side))
    full, cut = _log_tail(log_table, n, t * n, side), _log_tail(cone, n, t * n, side)
    assert full == cut, f"log_tail {cut!r} on the tail's cone against {full!r}"
    assert moment_ladder(spec, [n])[n] == exact_moments(table, n), "moment_ladder"
    coefficient = series_coefficient(table, x, n)
    try:
        assert coefficient == lagrange_coefficient(spec, x, n), "series_coefficient"
    except UnsupportedInitialConfig:
        assert (spec.a0, spec.b0) != (0, 1)
    return "right"


def check_cli(spec: UrnSpec, x: Fraction, n: int) -> None:
    """``urnlab saddle`` on one contour case: exit 0 with relative_error
    within CONTOUR_REL_TOL, or exit 1 with one ``urnlab: error:`` line and
    nothing on stdout."""
    argv = ["saddle", "--alpha", str(spec.alpha), "--beta", str(spec.beta), "--a0", str(spec.a0),
            "--b0", str(spec.b0), f"--x={x}", "--n", str(n)]  # --x=: argparse takes "-p/q" for a flag
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    if rc == 0:
        assert json.loads(out.getvalue())["relative_error"] <= CONTOUR_REL_TOL, out.getvalue()
        return
    lines = err.getvalue().splitlines()
    assert rc == 1 and out.getvalue() == "", (rc, out.getvalue())
    assert len(lines) == 1 and lines[0].startswith("urnlab: error: "), err.getvalue()


def _failures(check, cases) -> list[str]:
    failures = []
    for case in cases:
        try:
            check(*case)
        except AssertionError as exc:
            failures.append(f"{case}: wrong: {exc}")
        except Exception as exc:  # a bare exception: refused without a name
            failures.append(f"{case}: {type(exc).__name__}: {exc}")
    return failures


def test_contour_is_right_or_refused_on_random_cases():
    assert _failures(check_contour, contour_cases(SEED, CONTOUR_CASES)) == []


def test_dp_layers_agree_with_the_exact_row_on_random_cases():
    assert _failures(check_dp, dp_cases(SEED, DP_CASES)) == []


def test_saddle_command_is_right_or_one_error_line_on_random_cases():
    assert _failures(check_cli, contour_cases(SEED, CONTOUR_CASES)[:CLI_CASES]) == []
