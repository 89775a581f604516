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
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .asymptotics import (
    RateFunction,
    empirical_tail_exponent,
    gaussian_cdf_error,
    limit_params,
    local_limit_error,
    mean_variance_expansion,
    rate_function_closed_form,
    rate_function_eval,
)
from .errors import InvalidTable, UrnlabError
from .histories import (
    HistoryTable,
    build_history_table,
    build_log_table,
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
    series_coefficient,
    series_from_table,
)
from .montecarlo import simulate
from .urn import UrnSpec, validate_urn
from .errors import PoleHit

SCHEMA = "urnlab/1"


def _parse_number(s: str) -> Union[int, Fraction, float]:
    """CLI numbers: int, then exact rational ("1/2", "0.25"), then float."""
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return Fraction(s)
    except ValueError:
        pass
    return float(s)


def _rat(q: Fraction) -> str:
    return str(q)


def _spec_dict(spec: UrnSpec) -> dict:
    return {"alpha": spec.alpha, "beta": spec.beta, "a0": spec.a0, "b0": spec.b0}


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


def _cached_table(
    spec: UrnSpec, n_max: int, cache_dir: Optional[str], keep: Optional[Sequence[int]] = None
) -> HistoryTable:
    """Table to n_max keeping every row, or only ``keep`` plus row n_max.

    With cache_dir, a saved file is used only if it validates (spec, n_max,
    row lengths and sums, the needed rows kept); otherwise the table is
    rebuilt and the file replaced atomically.
    """
    if cache_dir is None:
        return build_history_table(spec, n_max, keep=keep)
    need = range(n_max + 1) if keep is None else {*keep, n_max}
    path = Path(cache_dir) / (
        f"table_a{spec.alpha}_b{spec.beta}_s{spec.a0}-{spec.b0}_n{n_max}.json"
    )
    if path.exists():
        try:
            return HistoryTable.load(path, spec=spec, n_max=n_max, need=need)
        except InvalidTable:
            pass  # rebuilt and replaced below
    table = build_history_table(spec, n_max, keep=keep)
    path.parent.mkdir(parents=True, exist_ok=True)
    table.save(path)
    return table


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (json_payload, csv_header, csv_rows)


def _cmd_dist(spec: UrnSpec, args) -> tuple[dict, list, list]:
    # the masses print the history total: refuse before the DP, not after
    _refuse_unprintable(total_histories_digits(spec, args.n), f"the history total at n={args.n}")
    table = _cached_table(spec, args.n, args.cache_dir, keep=())
    dist = exact_distribution(table, args.n)
    mean, variance = exact_moments(table, args.n)
    _refuse_unprintable_fractions(args.n, mean=mean, variance=variance)
    # masses over the common denominator (the history total), unreduced
    row = table.row(args.n)
    total = table.row_total(args.n)
    masses = {
        str(spec.black_count(args.n, k)): f"{count}/{total}"
        for k, count in enumerate(row)
        if count
    }
    payload = {
        "spec": _spec_dict(spec),
        "n": args.n,
        "masses": masses,
        "mean": _rat(mean),
        "variance": _rat(variance),
    }
    rows = [
        [black, float(mass), _rat(mass)] for black, mass in sorted(dist.masses.items())
    ]
    return payload, ["black", "mass", "mass_exact"], rows


def _cmd_moments(spec: UrnSpec, args) -> tuple[dict, list, list]:
    ladder = moment_ladder(spec, args.n)
    entries = []
    for n, (mean, var) in sorted(ladder.items()):
        _refuse_unprintable_fractions(n, mean=mean, variance=var)
        pmean, pvar = mean_variance_expansion(spec, n, sign=args.sign)
        entries.append(
            {
                "n": n,
                "exact_mean": _rat(mean),
                "exact_variance": _rat(var),
                "predicted_mean": pmean,
                "predicted_variance": pvar,
            }
        )
    payload = {
        "spec": _spec_dict(spec),
        "sign": args.sign,
        "ladder": entries,
    }
    rows = [
        [e["n"], e["exact_mean"], e["exact_variance"], e["predicted_mean"], e["predicted_variance"]]
        for e in entries
    ]
    header = ["n", "exact_mean", "exact_variance", "predicted_mean", "predicted_variance"]
    return payload, header, rows


def _cmd_gf_check(spec: UrnSpec, args) -> tuple[dict, list, list]:
    x = _parse_number(args.x)
    table = _cached_table(spec, args.order, args.cache_dir)
    series = series_from_table(table, x, args.order)
    residuals = algebraic_residual(series, AlgebraicEquation(spec))
    exact = all(r == 0 for r in residuals)
    as_str = [_rat(r) if isinstance(r, Fraction) else repr(r) for r in residuals]
    max_abs = max(abs(r) for r in residuals)
    payload = {
        "spec": _spec_dict(spec),
        "x": args.x,
        "order": args.order,
        "exact_zero": exact,
        "max_abs_residual": _rat(max_abs) if isinstance(max_abs, Fraction) else repr(max_abs),
        "residuals": as_str,
    }
    rows = [[i, r] for i, r in enumerate(as_str)]
    return payload, ["order", "residual"], rows


def _cmd_saddle(spec: UrnSpec, args) -> tuple[dict, list, list]:
    x = _parse_number(args.x)
    integrand = Integrand(spec, x)
    saddles = find_saddle_points(integrand)
    if args.contour == "auto":
        contour = auto_contour(integrand, args.n)
    else:
        contour = ContourSpec(n=args.n, kind=args.contour)
    result = contour_coefficient(integrand, contour)
    table = _cached_table(spec, args.n, args.cache_dir, keep=())
    exact = series_coefficient(table, x, args.n)
    exact_f = float(exact) if isinstance(exact, (int, Fraction)) else complex(exact)
    rel = abs(result.value - exact_f) / abs(exact_f) if exact_f != 0 else float("inf")
    payload = {
        "spec": _spec_dict(spec),
        "x": args.x,
        "n": args.n,
        "saddle_main": {"re": saddles.main.real, "im": saddles.main.imag,
                        "multiplicity": saddles.main_multiplicity},
        "saddle_secondary": [{"re": w.real, "im": w.imag} for w in saddles.secondary],
        "contour": result.kind,
        "coefficient": {"re": result.value.real, "im": result.value.imag},
        "exact": _rat(exact) if isinstance(exact, Fraction) else repr(exact),
        "relative_error": rel,
        "segments": {
            name: {"re": v.real, "im": v.imag} for name, v in result.segments.items()
        },
        "diagnostics": result.diagnostics,
    }
    rows = [[name, v.real, v.imag, abs(v)] for name, v in result.segments.items()]
    return payload, ["segment", "re", "im", "abs"], rows


def _cmd_limits(spec: UrnSpec, args) -> tuple[dict, list, list]:
    ns = sorted(set(args.n))
    metrics = ["cdf", "local"] if args.metric == "both" else [args.metric]
    table = build_log_table(spec, max(ns), keep=ns)
    params = limit_params(spec)
    entries = []
    for metric in metrics:
        fn = gaussian_cdf_error if metric == "cdf" else local_limit_error
        for n in ns:
            value = fn(table, params, n)
            entries.append(
                {"n": n, "metric": metric, "value": value, "value_sqrt_n": value * math.sqrt(n)}
            )
    payload = {
        "spec": _spec_dict(spec),
        "mu": _rat(params.mu),
        "nu2": _rat(params.nu2),
        "ladder": entries,
    }
    rows = [[e["n"], e["metric"], e["value"], e["value_sqrt_n"]] for e in entries]
    return payload, ["n", "metric", "value", "value_sqrt_n"], rows


def _cmd_deviations(spec: UrnSpec, args) -> tuple[dict, list, list]:
    params = limit_params(spec)
    rf = RateFunction(params, args.xi)
    w = rate_function_eval(rf, args.t)
    closed = rate_function_closed_form(rf, args.t)
    exponents = []
    if args.exponent_n:
        ns = sorted(set(args.exponent_n))
        log_table = build_log_table(spec, max(ns), keep=set(ns))
        for n in ns:
            exponents.append(
                {"n": n, "exponent": empirical_tail_exponent(log_table, params, n, args.t)}
            )
    payload = {
        "spec": _spec_dict(spec),
        "xi": args.xi,
        "t": args.t,
        "W": w,
        "closed_form": closed,
        "t0": rf.t0,
        "t1": rf.t1,
        "x0": rf.x0,
        "x1": rf.x1,
        "mu": _rat(params.mu),
        "nu2": _rat(params.nu2),
        "exponents": exponents,
    }
    if exponents:
        rows = [[e["n"], e["exponent"], w] for e in exponents]
        header = ["n", "exponent", "W"]
    else:
        rows = [[args.t, w, "" if closed is None else closed]]
        header = ["t", "W", "closed_form"]
    return payload, header, rows


def _cmd_simulate(spec: UrnSpec, args) -> tuple[dict, list, list]:
    run_result = simulate(spec, args.n, args.trials, args.seed)
    payload = dict(run_result.to_json_dict())
    rows = [[black, freq] for black, freq in run_result.histogram_rows()]
    return payload, ["black", "frequency"], rows


def _cmd_surface(spec: UrnSpec, args) -> tuple[dict, list, list]:
    x = _parse_number(args.x)
    integrand = Integrand(spec, x)
    rows = []
    points = args.grid_points
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
        "spec": _spec_dict(spec),
        "x": args.x,
        "grid_points": points,
        "samples": [
            {"re_w": r[0], "im_w": r[1], "abs_h": r[2], "re_h": r[3], "im_h": r[4]}
            for r in rows
        ],
    }
    return payload, ["re_w", "im_w", "abs_h", "re_h", "im_h"], rows


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
    p.add_argument("--sign", type=int, choices=[-1, 1], default=-1)
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
    except (UrnlabError, ValueError, OverflowError) as exc:
        print(f"urnlab: error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        report = {"schema": SCHEMA, "command": args.command}
        report.update(payload)
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
