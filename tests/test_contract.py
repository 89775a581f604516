"""Right or refused, on random cases: a fixed-seed property check in the
manner of QuickCheck (Claessen & Hughes, ICFP 2000).

Each layer's result is either right to the layer's stated tolerance or
refused by an UrnlabError subclass.  A bare ValueError, ZeroDivisionError or
OverflowError fails the case.  On the command line, every subcommand either
prints a report that strict JSON parses (no NaN or Infinity) or exits 1
with one ``urnlab: error:`` line.  The cases are drawn once from SEED, and
every case drawn is kept: none is filtered or drawn again after a failure.

The generators and checks are shared with ``scripts/contract_sweep.py``,
which loads this file by path to run the same properties over many more
cases.
"""
import cmath
import contextlib
import io
import json
import math
import random
from fractions import Fraction

from urnlab import (
    Integrand,
    RateFunction,
    UnsupportedInitialConfig,
    UrnlabError,
    UrnSpec,
    build_history_table,
    build_log_table,
    build_mass_table,
    coefficient_auto,
    exact_moments,
    lagrange_coefficient,
    limit_params,
    moment_ladder,
    series_coefficient,
    total_histories,
)
from urnlab.cli import run

SEED = 26
CONTOUR_CASES = 150
DP_CASES = 300
CLI_CASES = 20  # the first contour cases, run again through the command line
COMMAND_CASES = 120  # command lines over all eight subcommands
EXTREME = 0.2  # the chance that a command-line value is drawn from its extremes

CONTOUR_REL_TOL = 1e-9  # what the contour promises
PARTS_TOL = 1e-11  # a contour result's parts against its whole, relative to the parts' moduli
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
    the refusal as "<class>: <message>".  A value past float64's normal range
    is read through its log; refusing it for its size ("the contour value
    ... overflows float64") fails the case.  The parts add up to the whole:
    the segments to the value in range, the segments' shares
    exp(log_segment - log_value) to 1 at any size.  AssertionError on a
    wrong value; any other exception propagates."""
    try:
        result = coefficient_auto(Integrand(spec, x), n)
    except UrnlabError as exc:
        assert not str(exc).startswith("the contour value"), f"refused for its size: {exc}"
        return f"{type(exc).__name__}: {exc}"
    shares = [cmath.exp(log - result.log_value) for log in result.log_segments.values()]
    assert abs(sum(shares) - 1) <= PARTS_TOL * sum(map(abs, shares)), f"{result.kind}: shares {shares} miss 1"
    if result.value is not None:
        parts = list(result.segments.values())
        miss = abs(sum(parts) - result.value)
        assert miss <= PARTS_TOL * sum(map(abs, parts)), f"{result.kind}: segments {parts} miss {result.value!r}"
    exact = lagrange_coefficient(spec, x, n)  # refuses any start but (0, 1)
    if result.value is None:  # past float64's normal range: ln |c_n| within the tolerance
        log_exact = complex(math.log(abs(exact.numerator)) - math.log(exact.denominator), math.pi if exact < 0 else 0)
        error = abs(result.log_value - log_exact)
        assert error <= CONTOUR_REL_TOL, f"{result.kind}: log {result.log_value!r} against {log_exact!r}"
        return "right"
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


def _cli_urn(rng: random.Random) -> UrnSpec:
    """_urn's urns, or with EXTREME chance a start of up to 2000 balls."""
    if rng.random() < EXTREME:
        return UrnSpec(rng.randint(1, 4), rng.randint(1, 5), rng.randint(0, 1000), rng.randint(1, 1000))
    return _urn(rng, rng.random() < 7 / 8)


def _cli_x(rng: random.Random) -> str:
    """_x, or with EXTREME chance +-p/q of up to 40 digits each: a large
    height, and a magnitude up to 1e+-40.  "--x=": argparse takes "-p/q"
    for a flag."""
    if rng.random() < EXTREME:
        x = Fraction(rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40)))
        x = -x if rng.random() < 0.25 else x
    else:
        x = _x(rng)
    return f"--x={x}"


def _cli_ns(rng: random.Random, top: int) -> list[str]:
    return [str(rng.randint(0, top)) for _ in range(rng.randint(1, 3))]


def _bound(rng: random.Random) -> float:
    """A surface bound in [-3, 3], or with EXTREME chance +-10^(0..308)."""
    if rng.random() < EXTREME:
        return rng.choice((-1, 1)) * 10 ** rng.uniform(0, 308)
    return rng.uniform(-3, 3)


def _deviations_flags(rng: random.Random, spec: UrnSpec) -> list[str]:
    """--xi and --t: t in [t0, t1] widened by 0.1, or with EXTREME chance t0
    or t1 or a float next to one; some --exponent-n."""
    xi = rng.uniform(0.05, 0.95)
    rf = RateFunction(limit_params(spec), xi)
    if rng.random() < EXTREME:
        edge = rng.choice((rf.t0, rf.t1))
        t = rng.choice((edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)))
    else:
        t = rng.uniform(rf.t0 - 0.1, rf.t1 + 0.1)
    ns = _cli_ns(rng, 60) if rng.random() < 0.5 else []
    return [f"--xi={xi!r}", f"--t={t!r}", "--exponent-n", *ns]


def cli_cases(seed: int, count: int) -> list[tuple[UrnSpec, tuple[str, ...]]]:
    """(urn, argv without the urn's flags): each of the eight subcommands in
    turn, on small sizes, each value drawn with EXTREME chance from its
    extremes (a start of up to 2000 balls, surface bounds up to +-1e308,
    t at or next to t0 and t1, x of large height)."""
    rng = random.Random(seed)
    draw = {
        "dist": lambda spec: ["--n", str(rng.randint(0, 40))],
        "moments": lambda spec: ["--n", *_cli_ns(rng, 200)],
        "gf-check": lambda spec: [_cli_x(rng), "--order", str(rng.randint(0, 12))],
        "saddle": lambda spec: [_cli_x(rng), "--n", str(rng.randint(1, 40)),
                                "--contour", rng.choice(("auto", "auto", "sector", "circle"))],
        "limits": lambda spec: ["--n", *_cli_ns(rng, 60), "--metric", rng.choice(("cdf", "local", "both"))],
        "deviations": lambda spec: _deviations_flags(rng, spec),
        "simulate": lambda spec: ["--n", str(rng.randint(0, 60)), "--trials", str(rng.randint(1, 30)),
                                  "--seed", str(rng.randint(0, 2**31))],
        "surface": lambda spec: [_cli_x(rng), *(f"--{name}={_bound(rng)!r}" for name in
                                                ("re-min", "re-max", "im-min", "im-max")),
                                 "--grid-points", str(rng.randint(2, 4))],
    }
    commands = list(draw)
    cases = []
    for i in range(count):
        command, spec = commands[i % len(commands)], _cli_urn(rng)
        cases.append((spec, (command, *draw[command](spec))))
    return cases


def _not_json(constant: str):
    raise AssertionError(f"{constant} in the report, which is not JSON")


def check_command(spec: UrnSpec, argv: tuple[str, ...]) -> str:
    """``urnlab`` on one command line: "right" on exit 0 with a report that
    strict JSON parses (and, from ``saddle``, relative_error within
    CONTOUR_REL_TOL); "<command>: <message>" on exit 1 with one
    ``urnlab: error:`` line and nothing on stdout.  AssertionError
    otherwise, a usage error (exit 2) included."""
    command, *flags = argv
    urn = ["--alpha", str(spec.alpha), "--beta", str(spec.beta), "--a0", str(spec.a0), "--b0", str(spec.b0)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run([command, *urn, *flags])
        except SystemExit as exc:  # argparse refuses the line
            rc = exc.code
    if rc == 0:
        report = json.loads(out.getvalue(), parse_constant=_not_json)
        if command == "saddle":
            assert report["relative_error"] <= CONTOUR_REL_TOL, out.getvalue()
        return "right"
    lines = err.getvalue().splitlines()
    assert rc == 1 and out.getvalue() == "", (rc, out.getvalue())
    assert len(lines) == 1 and lines[0].startswith("urnlab: error: "), err.getvalue()
    return f"{command}: {lines[0].removeprefix('urnlab: error: ')}"


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
    cases = [(spec, ("saddle", f"--x={x}", "--n", str(n))) for spec, x, n in contour_cases(SEED, CLI_CASES)]
    assert _failures(check_command, cases) == []


def test_every_command_is_right_or_one_error_line_on_random_cases():
    assert _failures(check_command, cli_cases(SEED, COMMAND_CASES)) == []
