"""Workloads of the urnlab benchmark and the reference checks of every job.

A workload is a fixed list of CLI jobs.  Each job is one ``urnlab`` command
line plus a check that parses the command's stdout and compares it with an
answer the benchmark computes itself, without importing urnlab:

* exact mean and variance from the O(n) one-step recurrence,
* exact history counts from the benchmark's own big-integer DP (series
  coefficients), or the closed form prod(1 + sigma*j)/n! at x = 1,
* limit-law metrics and tail exponents from a normalized log-space DP,
* the rate function from its closed form (t - mu)^2 / (2 nu^2).

A check raises ``CheckFailed``; it never returns a verdict.  Jobs that fail at
the time the benchmark was written carry ``known_failure``: the exception the
program raised for them then, or ``"CheckFailed"`` for a job that exits 0 with
a wrong value.  They stay in so that a fix shows as a higher ``ops_ok_frac``;
if such a job succeeds, its output is checked like any other.  A known
failure may come to be refused with another error, but a job refused at the
time may not come to print a wrong value.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("exact_ladder", "contour", "large_n", "warm_cache")


class CheckFailed(Exception):
    """A job's output disagrees with the benchmark's reference."""


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[str], None]
    known_failure: Optional[str] = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Job, ...]  # untimed by the job clock: counted in setup_s
    jobs: tuple[Job, ...]


# ---------------------------------------------------------------------------
# references (the urn starts with a0 = 0 black, b0 = 1 white ball)

A0, B0 = 0, 1


def _sigma(alpha: int, beta: int) -> int:
    return 2 * alpha + beta


def _size(alpha: int, beta: int, m: int) -> int:
    return A0 + B0 + _sigma(alpha, beta) * m


def _black(alpha: int, n: int, k: int) -> int:
    return A0 + alpha * n + alpha * k


def limit_mu_nu2(alpha: int, beta: int) -> tuple[Fraction, Fraction]:
    """Gaussian limit parameters mu and nu^2 of X_n / n."""
    a, b = alpha, beta
    return Fraction(a * (2 * a + b), a + b), Fraction(a**3 * (2 * a + b), (a + b) ** 2)


@functools.cache
def recurrence_moments(alpha: int, beta: int, n: int) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of X_n by one-step conditioning.

    With s the urn size before a draw, E[X'|X] = X(1 + a/s) + a and
    E[X'^2|X] = X^2(1 + 2a/s) + X(2a + 3a^2/s) + a^2.  Both moments are
    carried as integers over the common denominator prod(s).
    """
    den, m1, m2 = 1, A0, A0 * A0
    for m in range(n):
        s = _size(alpha, beta, m)
        m1, m2 = (
            m1 * (s + alpha) + alpha * den * s,
            m2 * (s + 2 * alpha) + m1 * (2 * alpha * s + 3 * alpha * alpha) + alpha * alpha * den * s,
        )
        den *= s
    mean = Fraction(m1, den)
    return mean, Fraction(m2, den) - mean * mean


def float_moments(alpha: int, beta: int, n: int) -> tuple[float, float]:
    """The recurrence of ``recurrence_moments`` in float64, for large n."""
    m1, m2 = float(A0), float(A0 * A0)
    for m in range(n):
        s = float(_size(alpha, beta, m))
        m1, m2 = (
            m1 * (1 + alpha / s) + alpha,
            m2 * (1 + 2 * alpha / s) + m1 * (2 * alpha + 3 * alpha * alpha / s) + alpha * alpha,
        )
    return m1, m2 - m1 * m1


@functools.cache
def history_counts(alpha: int, beta: int, n: int) -> tuple[int, ...]:
    """Weighted histories of length n ending with k black draws, k = 0..n."""
    row = [1]
    for m in range(n):
        new = [0] * (m + 2)
        for k, c in enumerate(row):
            if c:
                new[k] += c * (B0 + (alpha + beta) * m - alpha * k)
                new[k + 1] += c * _black(alpha, m, k)
        row = new
    return tuple(row)


def series_coefficient(alpha: int, beta: int, x: Fraction, n: int) -> Fraction:
    """[z^n] of the history EGF at x: sum_k counts[n][k] x^black(n,k) / n!."""
    if x == 1:
        sigma = _sigma(alpha, beta)
        return Fraction(math.prod(1 + sigma * j for j in range(n)), math.factorial(n))
    acc = sum(
        c * x ** _black(alpha, n, k) for k, c in enumerate(history_counts(alpha, beta, n)) if c
    )
    return Fraction(acc) / math.factorial(n)


@functools.cache
def log_masses(alpha: int, beta: int, ns: tuple[int, ...]) -> dict:
    """log P(k black draws after n steps) for each n in ns, k = 0..n.

    The DP runs on probabilities in log space (not on counts), so rounding
    grows with log n rather than with the size of the history counts.
    """
    out = {}
    lp = np.zeros(1)
    if 0 in ns:
        out[0] = lp.copy()
    for m in range(max(ns)):
        k = np.arange(m + 1)
        s = _size(alpha, beta, m)
        with np.errstate(divide="ignore"):
            lb = np.log((A0 + alpha * m + alpha * k) / s)
            lw = np.log((B0 + (alpha + beta) * m - alpha * k) / s)
        new = np.full(m + 2, -np.inf)
        new[:-1] = lp + lw
        new[1:] = np.logaddexp(new[1:], lp + lb)
        lp = new
        if m + 1 in ns:
            out[m + 1] = lp.copy()
    return out


def limit_errors(alpha: int, beta: int, ns: tuple[int, ...]) -> dict:
    """{(n, "cdf" | "local"): value} for the Kolmogorov and local-law errors."""
    mu, nu2 = limit_mu_nu2(alpha, beta)
    nu = math.sqrt(nu2)
    rows = log_masses(alpha, beta, tuple(sorted(set(ns))))
    out = {}
    for n in ns:
        p = np.exp(rows[n])
        blacks = [_black(alpha, n, k) for k in range(n + 1)]
        scale = nu * math.sqrt(n)
        ts = [(b - float(mu) * n) / scale for b in blacks]
        cdf, cum = 0.0, 0.0
        for t, pk, lk in zip(ts, p, rows[n]):
            if lk == -np.inf:
                continue
            phi = 0.5 * math.erfc(-t / math.sqrt(2.0))
            cdf = max(cdf, abs(cum - phi))
            cum += pk
            cdf = max(cdf, abs(cum - phi))
        cell = alpha / scale
        local = max(abs(pk / cell - _density(t)) for t, pk in zip(ts, p))
        for b in (blacks[0] - alpha, blacks[-1] + alpha):
            local = max(local, _density((b - float(mu) * n) / scale))
        out[(n, "cdf")] = float(cdf)
        out[(n, "local")] = float(local)
    return out


def _density(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def tail_exponent(alpha: int, beta: int, n: int, t: float) -> float:
    """-(1/n) log P(X_n >= t n), or P(X_n <= t n) when t < mu."""
    lp = log_masses(alpha, beta, (n,))[n]
    blacks = np.array([_black(alpha, n, k) for k in range(n + 1)])
    mu, _ = limit_mu_nu2(alpha, beta)
    sel = blacks >= t * n if t >= float(mu) else blacks <= t * n
    chunk = lp[sel & np.isfinite(lp)]
    top = chunk.max()
    return float(-(top + math.log(np.exp(chunk - top).sum())) / n)


# ---------------------------------------------------------------------------
# output parsing and comparisons


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _csv(out: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out)))
    _expect(bool(rows) and rows[0] == header, f"CSV header {rows[:1]} != {header}")
    return rows[1:]


def _close(got: float, want: float, tol: float, what: str) -> None:
    _expect(abs(got - want) <= tol, f"{what}: {got!r} vs reference {want!r}")


def _urn(alpha: int, beta: int) -> list[str]:
    return ["--alpha", str(alpha), "--beta", str(beta)]


def _fmt(fmt: str) -> list[str]:
    return [] if fmt == "json" else ["--format", fmt]


def _cache(cache_dir: Optional[str]) -> list[str]:
    return [] if cache_dir is None else ["--cache-dir", cache_dir]


# ---------------------------------------------------------------------------
# job constructors: one per CLI subcommand


def moments(alpha, beta, ns, *, fmt="json", cache_dir=None, known_failure=None) -> Job:
    ns = sorted(set(ns))

    def check(out: str) -> None:
        if fmt == "json":
            got = [(e["n"], e["exact_mean"], e["exact_variance"]) for e in _json(out)["ladder"]]
        else:
            header = ["n", "exact_mean", "exact_variance", "predicted_mean", "predicted_variance"]
            got = [(int(r[0]), r[1], r[2]) for r in _csv(out, header)]
        _expect([g[0] for g in got] == ns, f"ladder n {[g[0] for g in got]} != {ns}")
        for n, mean, var in got:
            want = recurrence_moments(alpha, beta, n)
            _expect((Fraction(mean), Fraction(var)) == want, f"moments at n={n} differ from the recurrence")

    argv = ["moments", *_urn(alpha, beta), "--n", *map(str, ns), *_fmt(fmt), *_cache(cache_dir)]
    return Job(tuple(argv), check, known_failure)


def dist(alpha, beta, n, *, fmt="json", cache_dir=None) -> Job:
    def check(out: str) -> None:
        total = math.prod(_size(alpha, beta, m) for m in range(n))
        want_mean, want_var = recurrence_moments(alpha, beta, n)
        if fmt == "json":
            report = _json(out)
            rows = [(int(b), Fraction(q)) for b, q in report["masses"].items()]
        else:
            rows = [(int(r[0]), Fraction(r[2])) for r in _csv(out, ["black", "mass", "mass_exact"])]
        _expect(all(total % q.denominator == 0 for _, q in rows), "mass denominator not a divisor of the total")
        # every mass scaled to the common denominator: exact integer sums
        num = [(b, q.numerator * (total // q.denominator)) for b, q in rows]
        _expect(sum(c for _, c in num) == total, "masses do not sum to 1")
        mean = Fraction(sum(b * c for b, c in num), total)
        moments = {
            "mean of the masses": (mean, want_mean),
            "variance of the masses": (Fraction(sum(b * b * c for b, c in num), total) - mean * mean, want_var),
        }
        if fmt == "json":
            moments["reported mean"] = (Fraction(report["mean"]), want_mean)
            moments["reported variance"] = (Fraction(report["variance"]), want_var)
        for what, (got, want) in moments.items():
            _expect(got == want, f"dist {what} at n={n} differs from the recurrence")

    argv = ["dist", *_urn(alpha, beta), "--n", str(n), *_fmt(fmt), *_cache(cache_dir)]
    return Job(tuple(argv), check)


def limits(alpha, beta, ns, *, fmt="json", cache_dir=None) -> Job:
    ns = sorted(set(ns))

    def check(out: str) -> None:
        if fmt == "json":
            got = [(e["n"], e["metric"], e["value"]) for e in _json(out)["ladder"]]
        else:
            rows = _csv(out, ["n", "metric", "value", "value_sqrt_n"])
            got = [(int(r[0]), r[1], float(r[2])) for r in rows]
        want = limit_errors(alpha, beta, tuple(ns))
        _expect(sorted((n, m) for n, m, _ in got) == sorted(want), "limits ladder entries differ")
        for n, metric, value in got:
            _close(value, want[(n, metric)], 1e-9, f"{metric} error at n={n}")

    argv = ["limits", *_urn(alpha, beta), "--n", *map(str, ns), *_fmt(fmt), *_cache(cache_dir)]
    return Job(tuple(argv), check)


def gf_check(alpha, beta, x: str, order: int) -> Job:
    def check(out: str) -> None:
        report = _json(out)
        _expect(len(report["residuals"]) == order + 1, "residual count != order + 1")
        _expect(report["exact_zero"] is True, "algebraic residual is not exactly zero")

    argv = ["gf-check", *_urn(alpha, beta), "--x", x, "--order", str(order)]
    return Job(tuple(argv), check)


def saddle(alpha, beta, x: str, n: int, *, known_failure=None) -> Job:
    def check(out: str) -> None:
        report = _json(out)
        want = series_coefficient(alpha, beta, Fraction(x), n)
        _expect(Fraction(report["exact"]) == want, f"reported exact c_{n} differs from the reference")
        coef = report["coefficient"]
        # compared in exact arithmetic: c_n can exceed the float range
        err = abs(Fraction(coef["re"]) - want) + abs(Fraction(coef["im"]))
        _expect(err <= Fraction(1, 10**6) * abs(want), f"contour value off by more than 1e-6 relative at n={n}")
        _expect(report["relative_error"] <= 1e-6, f"reported relative_error {report['relative_error']}")

    argv = ["saddle", *_urn(alpha, beta), "--x", x, "--n", str(n)]
    return Job(tuple(argv), check, known_failure)


def surface(alpha, beta, x: str, points: int) -> Job:
    sigma = _sigma(alpha, beta)
    xv = complex(Fraction(x))
    big_s = sigma * (xv ** (-alpha) - 1) / (alpha + beta)

    def check(out: str) -> None:
        samples = _json(out)["samples"]
        _expect(len(samples) == points * points, f"{len(samples)} samples for a {points}x{points} grid")
        for smp in samples:
            v = 1 - complex(smp["re_w"], smp["im_w"])
            den = 1 + big_s - v ** (alpha + beta) * (big_s + v**alpha)
            if smp["re_h"] is None:
                _expect(abs(den) < 1e-9, f"pole reported at w={1 - v} where |den|={abs(den):.3g}")
                continue
            h = 1 / den
            _expect(abs(complex(smp["re_h"], smp["im_h"]) - h) <= 1e-9 * abs(h), f"h_x(w) off at w={1 - v}")

    argv = ["surface", *_urn(alpha, beta), "--x", x, "--grid-points", str(points)]
    return Job(tuple(argv), check)


def simulate(alpha, beta, n: int, trials: int, seed: int) -> Job:
    def check(out: str) -> None:
        report = _json(out)
        _expect((report["n"], report["trials"], report["seed"]) == (n, trials, seed), "run parameters echoed wrongly")
        hist = {int(b): c for b, c in report["histogram"].items()}
        _expect(sum(hist.values()) == trials, "histogram does not sum to the trial count")
        _close(report["mean"], sum(b * c for b, c in hist.items()) / trials, 1e-9 * report["mean"], "mean vs histogram")
        mean, var = float_moments(alpha, beta, n)
        se = math.sqrt(var / trials)
        _expect(abs(report["mean"] - mean) <= 5 * se, f"sample mean {report['mean']} not within 5 SE of {mean}")

    argv = ["simulate", *_urn(alpha, beta), "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
    return Job(tuple(argv), check)


def deviations(alpha, beta, t: float, ns) -> Job:
    ns = sorted(set(ns))

    def check(out: str) -> None:
        report = _json(out)
        mu, nu2 = limit_mu_nu2(alpha, beta)
        _close(report["W"], (t - float(mu)) ** 2 / (2 * float(nu2)), 1e-9, "rate function W")
        got = [(e["n"], e["exponent"]) for e in report["exponents"]]
        _expect([g[0] for g in got] == ns, "exponent ladder differs")
        # the smallest n is cheap to recompute; the others must be sane
        _close(got[0][1], tail_exponent(alpha, beta, ns[0], t), 1e-9, f"tail exponent at n={ns[0]}")
        _expect(all(math.isfinite(e) and e > 0 for _, e in got), "tail exponent not finite and positive")

    argv = ["deviations", *_urn(alpha, beta), "--t", repr(t), "--exponent-n", *map(str, ns)]
    return Job(tuple(argv), check)


# ---------------------------------------------------------------------------
# the workloads


def build(name: str, seed: int, cache_dir: str, toy: bool = False) -> Workload:
    """The job list of one workload.  ``toy`` shrinks every size so that the
    whole list runs in a few seconds (self-test and warm-up)."""

    def sz(n: int) -> int:
        return max(4, n // 25) if toy else n

    if name == "exact_ladder":
        jobs = [
            moments(1, 1, [sz(250), sz(500), sz(1000)]),
            limits(1, 1, [sz(100), sz(400), sz(1000)]),
            limits(3, 2, [sz(25), sz(100), sz(400)]),
            dist(1, 1, sz(400)),
            gf_check(1, 1, "1/2", sz(60)),
            gf_check(3, 2, "2", sz(60)),
        ]
        return Workload(name, (), tuple(jobs))
    if name == "contour":
        jobs = [
            saddle(1, 1, "1/2", sz(200)),
            # exits 0 with relative_error ~3e9: the x=2 sector drifts from n ~ 100
            saddle(1, 1, "2", sz(200), known_failure="CheckFailed"),
            saddle(1, 1, "1", sz(400)),
            saddle(3, 2, "2", sz(30)),
            saddle(3, 2, "2", sz(100)),
            saddle(1, 1, "2", sz(700), known_failure="QuadratureNotConverged"),
            saddle(1, 1, "1", sz(700), known_failure="OverflowError"),
            saddle(3, 2, "2", sz(200), known_failure="OverflowError"),
            surface(1, 1, "2", sz(41)),
        ]
        return Workload(name, (), tuple(jobs))
    if name == "large_n":
        rng = random.Random(seed)
        jobs = [
            simulate(1, 1, sz(10000), sz(50000), rng.getrandbits(63)),
            simulate(3, 2, sz(2000), sz(20000), rng.getrandbits(63)),
            deviations(1, 1, 1.8, [sz(2000), sz(5000), sz(10000)]),
            moments(1, 1, [sz(10000)], known_failure="CapacityExceeded"),
        ]
        return Workload(name, (), tuple(jobs))
    if name == "warm_cache":
        big, small = sz(400), sz(200)
        setup = [
            moments(1, 1, [big], cache_dir=cache_dir),
            moments(3, 2, [small], cache_dir=cache_dir),
        ]
        jobs = [
            dist(1, 1, big, cache_dir=cache_dir),
            moments(1, 1, [big // 4, big // 2, big], fmt="csv", cache_dir=cache_dir),
            limits(1, 1, [big // 4, big], cache_dir=cache_dir),
            dist(3, 2, small, fmt="csv", cache_dir=cache_dir),
            moments(3, 2, [small // 4, small // 2, small], cache_dir=cache_dir),
            limits(3, 2, [small // 4, small], fmt="csv", cache_dir=cache_dir),
        ]
        return Workload(name, tuple(setup), tuple(jobs))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
