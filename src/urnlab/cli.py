"""Command-line front end: every operation behind one reporting binary.

All subcommands print a single machine-readable report to stdout — JSON by
default (with a schema version field), CSV via --format csv — and return
exit status 0.  Domain errors print to stderr and exit 1; malformed usage
exits 2 via argparse.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .asymptotics import (
    RateFunction,
    empirical_tail_exponent,
    gaussian_cdf_error,
    limit_params,
    local_limit_error,
    mean_variance_expansion,
    rate_function_closed_form,
    rate_function_eval,
    tail_side,
)
from .errors import (
    CapacityExceeded,
    ContourCrossesPole,
    InvalidTable,
    PoleHit,
    QuadratureNotConverged,
    UrnlabError,
)
from .histories import (
    MEMORY_BUDGET_DEFAULT,
    HistoryTable,
    build_history_table,
    build_log_table,
    build_mass_table,
    exact_distribution,
    exact_moments,
    moment_ladder,
    total_histories_digits,
)
from .saddle import (
    ContourSpec,
    Integrand,
    auto_contour,
    contour_coefficient,
    eval_integrand,
    find_saddle_points,
)
from .series import (
    AlgebraicEquation,
    algebraic_residual,
    lagrange_coefficient,
    series_from_table,
)
from .montecarlo import simulate
from .urn import UrnSpec, validate_urn

SCHEMA = "urnlab/1"

# `limits` runs the float mass DP up to this n and the log DP past it, so it
# imports numpy only past it.  On 2 vCPUs with Python 3.11 and numpy 2.4, in
# process, min of 5: the mass DP takes 160-190 ns a cell (A(1,1), A(3,2),
# A(9,7): 86 ms at n=1000, 115-125 ms at 1200, 185 ms at 1500), the log DP
# 22-38 ns (18-19, 21-24, 29-31 ms), and importing numpy 90-140 ms.  The
# whole command, medians of 7 fresh runs, is faster on the mass DP up to
# n=1200-1300 (A(1,1) n=1200: 228 vs 277 ms) and slower from n=1400-1600
# (A(1,1) n=1600: 268 vs 192 ms).  Both DPs carry probabilities, so the
# metrics on either side of the cut agree to ~1e-14 (A(1,1), A(3,2); up to
# 2e-13 for A(2,5), A(1,4), A(9,7) at n=1200).
MASS_DP_MAX_N = 1200

# `saddle` prints a value past float64's normal range as a decimal string of
# 17 significant digits, as many as a float's repr can need
_DIGITS = Context(prec=17, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _parse_number(s: str) -> Fraction:
    """--x, exactly: an integer, a ratio ("1/2") or a decimal ("0.25", "1e-3")."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise UrnlabError(f"--x must be a finite rational such as 2, 1/2 or 0.25; got {s!r}") from None


def _decimal_digits(x: int) -> int:
    """Digits of |x| in base 10, without the (limited) int-to-str conversion."""
    x = abs(x)
    d = max(1, int(x.bit_length() * math.log10(2)))
    while x >= 10**d:
        d += 1
    while d > 1 and x < 10 ** (d - 1):
        d -= 1
    return d


def _refuse_unprintable(digits: int, what: str) -> None:
    """Refuse a report holding an integer longer than the interpreter's
    int-to-str limit: it could be neither printed nor parsed back."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise UrnlabError(
            f"{what} has {digits} decimal digits, beyond the interpreter's "
            f"int-to-str limit of {limit} (sys.get_int_max_str_digits())"
        )


def _refuse_unprintable_fractions(n: int, **values: Fraction) -> None:
    for name, q in values.items():
        digits = max(_decimal_digits(q.numerator), _decimal_digits(q.denominator))
        _refuse_unprintable(digits, f"the exact {name} at n={n}")


def _cached_table(spec: UrnSpec, n: int, cache_dir: Optional[str]) -> HistoryTable:
    """Row n of the exact DP, alone (``keep=()``).

    With cache_dir, a saved file is used only if it validates (spec, n, the
    row's length and sum); otherwise the row is rebuilt and the file
    replaced atomically.  Only ``dist`` caches: a dense table, which
    ``gf-check`` needs, loads slower than the DP builds it.
    """
    if cache_dir is None:
        return build_history_table(spec, n, keep=())
    path = Path(cache_dir) / f"table_a{spec.alpha}_b{spec.beta}_s{spec.a0}-{spec.b0}_n{n}.json"
    if path.exists():
        try:
            return HistoryTable.load(path, spec=spec, n_max=n)
        except InvalidTable:
            pass  # rebuilt and replaced below
    table = build_history_table(spec, n, keep=())
    path.parent.mkdir(parents=True, exist_ok=True)
    table.save(path)
    return table


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (json_payload, csv_header, csv_rows)


def _refuse_negative(flag: str, *values: int) -> None:
    for value in values:
        if value < 0:
            raise ValueError(f"{flag} must be >= 0; got {value}")


def _cmd_dist(spec: UrnSpec, args) -> tuple[dict, list, list]:
    _refuse_negative("--n", args.n)
    # the masses print the history total: refuse before the DP, not after
    _refuse_unprintable(total_histories_digits(spec, args.n), f"the history total at n={args.n}")
    table = _cached_table(spec, args.n, args.cache_dir)
    mean, variance = exact_moments(table, args.n)
    _refuse_unprintable_fractions(args.n, mean=mean, variance=variance)
    rows, masses = [], None
    if args.format == "csv":  # reduced masses, one Fraction per cell
        dist = exact_distribution(table, args.n)
        rows = [[black, float(mass), str(mass)] for black, mass in sorted(dist.masses.items())]
    else:  # masses over the common denominator (the history total), unreduced
        over = "/" + str(table.row_total(args.n))
        masses = {
            str(spec.black_count(args.n, k)): str(count) + over
            for k, count in enumerate(table.row(args.n))
            if count
        }
    payload = {
        "n": args.n,
        "masses": masses,
        "mean": str(mean),
        "variance": str(variance),
    }
    return payload, ["black", "mass", "mass_exact"], rows


def _cmd_moments(spec: UrnSpec, args) -> tuple[dict, list, list]:
    _refuse_negative("--n", *args.n)
    columns = ["n", "exact_mean", "exact_variance", "predicted_mean", "predicted_variance"]
    rows = []
    for n, (mean, var) in sorted(moment_ladder(spec, args.n).items()):
        _refuse_unprintable_fractions(n, mean=mean, variance=var)
        rows.append([n, str(mean), str(var), *mean_variance_expansion(spec, n)])
    return {"ladder": [dict(zip(columns, row)) for row in rows]}, columns, rows


def _cmd_gf_check(spec: UrnSpec, args) -> tuple[dict, list, list]:
    x = _parse_number(args.x)
    _refuse_negative("--order", args.order)
    # a start other than (0, 1), then x = 0, is refused before the table is built
    eq = AlgebraicEquation(spec)
    eq.B(x)
    try:
        table = build_history_table(spec, args.order)
    except CapacityExceeded as exc:
        # on the command line only --order moves the estimate, not keep=
        raise CapacityExceeded(f"--order {args.order} keeps rows 0..{args.order}: {exc}; lower --order") from None
    series = series_from_table(table, x, args.order)
    residuals = algebraic_residual(series, eq)
    exact = all(r == 0 for r in residuals)
    as_str = [str(r) for r in residuals]
    payload = {
        "x": args.x,
        "order": args.order,
        "exact_zero": exact,
        "max_abs_residual": str(max(abs(r) for r in residuals)),
        "residuals": as_str,
    }
    rows = [[i, r] for i, r in enumerate(as_str)]
    return payload, ["order", "residual"], rows


def _parts(value: Optional[complex], log: complex) -> list:
    """[re, im, abs] of a contour number: floats while value holds it, else
    (past float64's normal range) decimal strings to _DIGITS from its log.
    A log whose imaginary part is 0 or pi is a real value's (saddle rounds a
    real x's value so), and its im is "0"."""
    if value is not None:
        return [value.real, value.imag, abs(value)]
    modulus = _DIGITS.exp(Decimal(log.real))
    if log.imag in (0, math.pi):
        parts = [_DIGITS.minus(modulus) if log.imag else modulus, Decimal(0)]
    else:
        parts = [_DIGITS.multiply(modulus, Decimal(f(log.imag))) for f in (math.cos, math.sin)]
    return [str(d) for d in (*parts, modulus)]


def _cmd_saddle(spec: UrnSpec, args) -> tuple[dict, list, list]:
    x = _parse_number(args.x)
    integrand = Integrand(spec, x)
    saddles = find_saddle_points(integrand)
    if args.contour == "auto":
        chain = auto_contour(integrand, args.n)
    else:
        chain = (ContourSpec(n=args.n, kind=args.contour),)
    # the exact coefficient before any contour runs: none can meet a relative
    # tolerance on c_n = 0.  The start is refused as the contour refuses it.
    spec.require_single_white("the contour formula")
    exact = lagrange_coefficient(spec, x, args.n)
    if exact == 0:
        raise UrnlabError(f"c_{args.n} = 0 exactly at x={args.x}: a contour cannot meet a relative tolerance on it")
    # coefficient_auto's walk, not a call to it: bench/spans.py times each cli.contour_coefficient call
    *first, last = chain
    for contour in first:
        try:
            result = contour_coefficient(integrand, contour)
            break
        except (ContourCrossesPole, QuadratureNotConverged):
            pass
    else:
        result = contour_coefficient(integrand, last)
    _refuse_unprintable_fractions(args.n, c_n=exact)
    rows = [[name, *_parts(v, result.log_segments[name])] for name, v in result.segments.items()]
    re, im, _ = _parts(result.value, result.log_value)
    payload = {
        "x": args.x,
        "n": args.n,
        "saddle_main": {"re": saddles.main.real, "im": saddles.main.imag,
                        "multiplicity": saddles.main_multiplicity},
        "saddle_secondary": [{"re": w.real, "im": w.imag} for w in saddles.secondary],
        "contour": result.kind,
        "coefficient": {"re": re, "im": im},
        "exact": str(exact),
        "relative_error": result.relative_error(exact),
        "segments": {name: {"re": seg_re, "im": seg_im} for name, seg_re, seg_im, _ in rows},
        "diagnostics": result.diagnostics,
    }
    return payload, ["segment", "re", "im", "abs"], rows


def _limit_law_ns(ns: Sequence[int]) -> list[int]:
    """ns sorted and deduplicated; one below 1 is refused before the DP, as
    the limit-law metrics would refuse it after."""
    ns = sorted(set(ns))
    if ns[0] < 1:
        raise ValueError(f"n must be >= 1 for a limit-law metric; got n={ns[0]}")
    return ns


def _cmd_limits(spec: UrnSpec, args) -> tuple[dict, list, list]:
    _refuse_negative("--n", *args.n)
    ns = _limit_law_ns(args.n)
    build = build_mass_table if ns[-1] <= MASS_DP_MAX_N else build_log_table
    table = build(spec, ns[-1], keep=ns)
    params = limit_params(spec)
    columns = ["n", "metric", "value", "value_sqrt_n"]
    rows = []
    for metric in ["cdf", "local"] if args.metric == "both" else [args.metric]:
        fn = gaussian_cdf_error if metric == "cdf" else local_limit_error
        for n in ns:
            value = fn(table, params, n)
            rows.append([n, metric, value, value * math.sqrt(n)])
    payload = {
        "mu": str(params.mu),
        "nu2": str(params.nu2),
        "ladder": [dict(zip(columns, row)) for row in rows],
    }
    return payload, columns, rows


def _cmd_deviations(spec: UrnSpec, args) -> tuple[dict, list, list]:
    _refuse_negative("--exponent-n", *args.exponent_n)
    params = limit_params(spec)
    rf = RateFunction(params, args.xi)
    w = rate_function_eval(rf, args.t)
    closed = rate_function_closed_form(rf, args.t)
    columns, rows = ["n", "exponent", "W"], []
    if args.exponent_n:
        ns = _limit_law_ns(args.exponent_n)
        # only the cells the tails read: the rows can answer nothing else
        tail = (args.t, tail_side(params, args.t))
        log_table = build_log_table(spec, ns[-1], keep=set(ns), tail=tail)
        rows = [[n, empirical_tail_exponent(log_table, params, n, args.t), w] for n in ns]
    payload = {
        "xi": args.xi,
        "t": args.t,
        "W": w,
        "closed_form": closed,
        "t0": rf.t0,
        "t1": rf.t1,
        "x0": rf.x0,
        "x1": rf.x1,
        "mu": str(params.mu),
        "nu2": str(params.nu2),
        "exponents": [dict(zip(columns[:-1], row)) for row in rows],  # W is the report's own
    }
    if not rows:
        columns, rows = ["t", "W", "closed_form"], [[args.t, w, "" if closed is None else closed]]
    return payload, columns, rows


def _cmd_simulate(spec: UrnSpec, args) -> tuple[dict, list, list]:
    _refuse_negative("--n", args.n)
    run_result = simulate(spec, args.n, args.trials, args.seed)
    payload = run_result.to_json_dict()
    rows = [[black, freq] for black, freq in run_result.histogram_rows()]
    return payload, ["black", "frequency"], rows


def _cmd_surface(spec: UrnSpec, args) -> tuple[dict, list, list]:
    x = _parse_number(args.x)
    integrand = Integrand(spec, x)
    columns, rows = ["re_w", "im_w", "abs_h", "re_h", "im_h"], []
    points = args.grid_points
    if points < 2:
        raise ValueError(f"--grid-points must be >= 2; got {points}")
    est = points**2 * 1700  # peak RSS a sample (row, dict, JSON): 166 MB at a grid of 300, Python 3.11
    if est > MEMORY_BUDGET_DEFAULT:
        raise CapacityExceeded(
            f"--grid-points {points}: {points**2} samples estimated at {est} bytes > budget {MEMORY_BUDGET_DEFAULT}"
        )
    for name in ("re_min", "re_max", "im_min", "im_max"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite; got {value}")
    for axis in ("re", "im"):
        low, high = getattr(args, f"{axis}_min"), getattr(args, f"{axis}_max")
        if not math.isfinite(high - low):
            raise ValueError(f"--{axis}-min {low} to --{axis}-max {high} is wider than float64 can hold")
    for i in range(points):
        re = args.re_min + (args.re_max - args.re_min) * i / (points - 1)
        for j in range(points):
            im = args.im_min + (args.im_max - args.im_min) * j / (points - 1)
            try:
                h, _ = eval_integrand(integrand, complex(re, im))
                rows.append([re, im, abs(h), h.real, h.imag])
            except PoleHit:
                rows.append([re, im, None, None, None])
    payload = {
        "x": args.x,
        "grid_points": points,
        "samples": [dict(zip(columns, row)) for row in rows],
    }
    return payload, columns, rows


# ---------------------------------------------------------------------------


def _add_urn_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--a0", type=int, default=0)
    p.add_argument("--b0", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--cache-dir", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnlab",
        description="Exact and asymptotic distributions of balanced additive two-color urns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="exact distribution of the black-ball count at step n")
    _add_urn_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("moments", help="exact moments vs second-order predictions")
    _add_urn_flags(p)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("gf-check", help="algebraic-equation residual of the exact series")
    _add_urn_flags(p)
    p.add_argument("--x", required=True)
    p.add_argument("--order", type=int, default=20)
    p.set_defaults(handler=_cmd_gf_check)

    p = sub.add_parser("saddle", help="saddle set and contour coefficient vs exact")
    _add_urn_flags(p)
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--contour", choices=["auto", "sector", "circle"], default="auto")
    p.set_defaults(handler=_cmd_saddle)

    p = sub.add_parser("limits", help="Gaussian and local-law error ladders")
    _add_urn_flags(p)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--metric", choices=["cdf", "local", "both"], default="both")
    p.set_defaults(handler=_cmd_limits)

    p = sub.add_parser("deviations", help="rate function and empirical tail exponents")
    _add_urn_flags(p)
    p.add_argument("--xi", type=float, default=0.5)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--exponent-n", type=int, nargs="*", default=[])
    p.set_defaults(handler=_cmd_deviations)

    p = sub.add_parser("simulate", help="seeded Monte Carlo simulation")
    _add_urn_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("surface", help="h_x samples on a w-plane grid")
    _add_urn_flags(p)
    p.add_argument("--x", required=True)
    p.add_argument("--re-min", type=float, default=-0.5)
    p.add_argument("--re-max", type=float, default=2.5)
    p.add_argument("--im-min", type=float, default=-1.5)
    p.add_argument("--im-max", type=float, default=1.5)
    p.add_argument("--grid-points", type=int, default=41)
    p.set_defaults(handler=_cmd_surface)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, dispatch, print one report.  Returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = validate_urn(args.alpha, args.beta, args.a0, args.b0)
        payload, header, rows = args.handler(spec, args)
    except (UrnlabError, ValueError, OverflowError, OSError) as exc:
        print(f"urnlab: error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        report = {"schema": SCHEMA, "command": args.command, "spec": spec.to_json_dict()}
        report.update(payload)  # simulate's run carries the same "spec", which keeps its place
        # one write: json.dump writes each token on its own, a system call
        # apiece when stdout is unbuffered
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
