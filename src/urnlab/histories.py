"""Exact enumeration of urn histories by dynamic programming.

A history of length ``n`` is a sequence of ``n`` weighted draws; its weight
is the product, over the steps, of the number of balls of the drawn color.
Because the urn is balanced, the configuration after ``n`` steps is a
function of ``(n, k)`` alone, where ``k`` counts the black draws:

    black(n, k) = a0 + alpha*n + alpha*k
    white(n, k) = b0 + (alpha+beta)*n - alpha*k

so the count of histories ending at ``(n, k)`` satisfies

    counts[n+1][k+1] += counts[n][k] * black(n, k)   (black draw)
    counts[n+1][k]   += counts[n][k] * white(n, k)   (white draw)

with ``counts[0][0] = 1``.  All arithmetic is exact big-integer; the row sum
at ``n`` equals the product of successive urn sizes.

>>> from urnlab.urn import validate_urn
>>> t = build_history_table(validate_urn(1, 1, 0, 1), 3)
>>> t.row(3)
(15, 10, 3, 0)
>>> total_histories(t.spec, 3)
28
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    CapacityExceeded,
    EmptyTail,
    InvalidTable,
    OracleTooLarge,
    RowMissing,
    UrnlabError,
)
from .urn import UrnSpec, validate_urn

# Default cap on estimated retained big-integer bytes; dense tables past
# n ~ 1000 for sigma = 3 blow through this, which is the point.
MEMORY_BUDGET_DEFAULT = 512 * 1024 * 1024

BRUTE_FORCE_LIMIT = 8

TABLE_SCHEMA = "urnlab.table/1"


def total_histories(spec: UrnSpec, n: int) -> int:
    """Number of histories of length n: prod_{m<n} (a0 + b0 + sigma*m)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.prod(spec.size_after(m) for m in range(n))


def _log2_totals(spec: UrnSpec, n_max: int) -> list[float]:
    """log2 of total_histories(spec, n) for n = 0..n_max, as a running sum."""
    out = [0.0]
    for m in range(n_max):
        out.append(out[-1] + math.log2(spec.size_after(m)))
    return out


def total_histories_digits(spec: UrnSpec, n: int) -> int:
    """Decimal digits of total_histories(spec, n), from the log-sum of urn
    sizes, without forming the product."""
    return int(_log2_totals(spec, n)[-1] * math.log10(2)) + 1


class HistoryTable:
    """Exact history counts, indexed by step n and black-draw count k.

    Rows may be retained sparsely (``kept``) when built with a ``keep``
    whitelist; ``row(n)`` raises RowMissing for rows that were not retained.
    Instances are immutable once built and safe to share between threads.
    """

    def __init__(self, spec: UrnSpec, n_max: int, rows: Mapping[int, Sequence[int]]):
        self.spec = spec
        self.n_max = n_max
        self._rows = {n: tuple(r) for n, r in rows.items()}

    @property
    def kept(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    @property
    def is_dense(self) -> bool:
        return self.kept == tuple(range(self.n_max + 1))

    def has_row(self, n: int) -> bool:
        return n in self._rows

    def row(self, n: int) -> tuple[int, ...]:
        try:
            return self._rows[n]
        except KeyError:
            raise RowMissing(f"row n={n} not retained (kept: {self.kept[:8]}...)") from None

    def row_total(self, n: int) -> int:
        return sum(self.row(n))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "schema": TABLE_SCHEMA,
            "spec": {
                "alpha": self.spec.alpha,
                "beta": self.spec.beta,
                "a0": self.spec.a0,
                "b0": self.spec.b0,
            },
            "n_max": self.n_max,
        }
        if self.is_dense:
            doc["rows"] = [[str(c) for c in self._rows[n]] for n in range(self.n_max + 1)]
        else:
            doc["kept"] = list(self.kept)
            doc["rows"] = [[str(c) for c in self._rows[n]] for n in self.kept]
        return doc

    @classmethod
    def from_json_dict(
        cls,
        doc: dict,
        *,
        spec: Optional[UrnSpec] = None,
        n_max: Optional[int] = None,
        need: Iterable[int] = (),
    ) -> "HistoryTable":
        """Rebuild a table from ``to_json_dict`` output, trusting nothing.

        Checks the schema, the spec, ``n_max``, the kept row indices, each
        row's length (n+1) and each row's sum (``total_histories``).  When
        ``spec`` or ``n_max`` is given the document must match it, and every
        row in ``need`` must be kept.  Any failure raises InvalidTable.
        """
        try:
            return cls._from_checked_doc(doc, spec, n_max, need)
        except InvalidTable:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, UrnlabError) as exc:
            raise InvalidTable(f"malformed table document: {type(exc).__name__}: {exc}") from None

    @classmethod
    def _from_checked_doc(cls, doc, want_spec, want_n_max, need) -> "HistoryTable":
        if doc.get("schema") != TABLE_SCHEMA:
            raise InvalidTable(f"unsupported table schema: {doc.get('schema')!r}")
        s = doc["spec"]
        spec = validate_urn(s["alpha"], s["beta"], s["a0"], s["b0"])
        if want_spec is not None and spec != want_spec:
            raise InvalidTable(f"table is for {spec}, not {want_spec}")
        n_max = doc["n_max"]
        if type(n_max) is not int or n_max < 0:
            raise InvalidTable(f"bad n_max {n_max!r}")
        if want_n_max is not None and n_max != want_n_max:
            raise InvalidTable(f"table has n_max={n_max}, not {want_n_max}")
        kept = doc.get("kept", list(range(n_max + 1)))
        if (
            any(type(n) is not int for n in kept)
            or kept != sorted(set(kept))
            or (kept and (kept[0] < 0 or kept[-1] > n_max))
        ):
            raise InvalidTable("kept rows must be increasing indices in [0, n_max]")
        missing = sorted(set(need) - set(kept))
        if missing:
            raise InvalidTable(f"rows {missing[:8]} not kept")
        if len(doc["rows"]) != len(kept):
            raise InvalidTable(f"{len(doc['rows'])} rows for {len(kept)} kept indices")
        rows = {}
        total, done = 1, 0  # running total_histories(spec, done)
        for n, raw in zip(kept, doc["rows"]):
            row = tuple(int(c) for c in raw)
            if len(row) != n + 1 or min(row) < 0:
                raise InvalidTable(f"row n={n} has {len(row)} entries (or a negative one), expected {n + 1}")
            total *= math.prod(spec.size_after(m) for m in range(done, n))
            done = n
            if sum(row) != total:
                raise InvalidTable(f"row n={n} does not sum to total_histories")
            rows[n] = row
        return cls(spec, n_max, rows)

    def save(self, path: str | os.PathLike) -> None:
        """Write the JSON form atomically: a temp file in the same directory,
        then os.replace, so a reader never sees a partial file."""
        directory = os.path.dirname(os.fspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".table-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.to_json_dict(), fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(
        cls,
        path: str | os.PathLike,
        *,
        spec: Optional[UrnSpec] = None,
        n_max: Optional[int] = None,
        need: Iterable[int] = (),
    ) -> "HistoryTable":
        """Read and validate a saved table (see ``from_json_dict``).  Text
        that is not JSON raises InvalidTable; a missing file, OSError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InvalidTable(f"{path}: not a JSON table: {exc}") from None
        return cls.from_json_dict(doc, spec=spec, n_max=n_max, need=need)


def _estimate_retained_bytes(spec: UrnSpec, n_max: int, kept: Iterable[int]) -> int:
    # An entry in row n is bounded by total_histories(n); estimate its size
    # from log2 of that product, plus per-object overhead.
    log2_totals = _log2_totals(spec, n_max)
    return sum((n + 1) * (int(log2_totals[n] / 8) + 28) for n in set(kept))


def _kept_rows(n_max: int, keep: Optional[Iterable[int]]) -> set[int]:
    """The rows a builder retains: every row when keep is None, else keep
    plus row n_max, each checked to lie in 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if keep is None:
        return set(range(n_max + 1))
    kept = {int(n) for n in keep}
    bad = [n for n in kept if n < 0 or n > n_max]
    if bad:
        raise ValueError(f"keep rows out of range: {sorted(bad)}")
    kept.add(n_max)
    return kept


def build_history_table(
    spec: UrnSpec,
    n_max: int,
    *,
    keep: Optional[Iterable[int]] = None,
    memory_budget: int = MEMORY_BUDGET_DEFAULT,
) -> HistoryTable:
    """Run the counting recurrence up to n_max with exact integers.

    ``keep`` whitelists the rows to retain (row n_max is always retained);
    by default every row is kept.  Raises CapacityExceeded when the retained
    rows are estimated to exceed ``memory_budget`` bytes.
    """
    kept = _kept_rows(n_max, keep)
    est = _estimate_retained_bytes(spec, n_max, kept)
    if est > memory_budget:
        raise CapacityExceeded(
            f"retained rows estimated at {est} bytes > budget {memory_budget}; "
            f"pass keep= to retain fewer rows or raise memory_budget"
        )

    rows: dict[int, tuple[int, ...]] = {}
    row = [1]
    if 0 in kept:
        rows[0] = (1,)
    for n in range(n_max):
        new = [0] * (n + 2)
        for k, c in enumerate(row):
            if c:
                new[k] += c * spec.white_count(n, k)
                new[k + 1] += c * spec.black_count(n, k)
        row = new
        if n + 1 in kept:
            rows[n + 1] = tuple(row)
    return HistoryTable(spec, n_max, rows)


def brute_force_histories(spec: UrnSpec, n: int) -> tuple[int, ...]:
    """Independent oracle: enumerate every weighted draw sequence of length n.

    Walks the binary tree of color choices, multiplying the running weight by
    the count of balls of the chosen color, and aggregates by the number of
    black draws.  Exponential in n, hence the hard cutoff.
    """
    if n > BRUTE_FORCE_LIMIT:
        raise OracleTooLarge(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}, got {n}")
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = [0] * (n + 1)

    def walk(step: int, k: int, weight: int) -> None:
        if step == n:
            acc[k] += weight
            return
        b = spec.black_count(step, k)
        w = spec.white_count(step, k)
        if b:
            walk(step + 1, k + 1, weight * b)
        if w:
            walk(step + 1, k, weight * w)

    walk(0, 0, 1)
    return tuple(acc)


@dataclass(frozen=True)
class ExactDistribution:
    """Probability mass of the black-ball count after n steps."""

    n: int
    masses: dict  # black count -> Fraction (or float in numeric mode)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.masses))

    def mass_sum(self):
        return sum(self.masses.values())

    def _integer_sums(self) -> Optional[tuple[int, int, int, int]]:
        """(d, sum m*d, sum b*m*d, sum b^2*m*d) over the common denominator d
        of exact masses, or None for float masses."""
        if not all(isinstance(m, Rational) for m in self.masses.values()):
            return None
        d = 1
        for m in self.masses.values():
            if d % m.denominator:
                d = math.lcm(d, m.denominator)
        s0 = s1 = s2 = 0
        for b, m in self.masses.items():
            c = m.numerator * (d // m.denominator)
            s0 += c
            s1 += b * c
            s2 += b * b * c
        return d, s0, s1, s2

    def mean(self):
        sums = self._integer_sums()
        if sums is None:
            return sum(b * m for b, m in self.masses.items())
        d, _, s1, _ = sums
        return Fraction(s1, d)

    def variance(self):
        sums = self._integer_sums()
        if sums is None:
            mu = self.mean()
            return sum((b - mu) ** 2 * m for b, m in self.masses.items())
        d, s0, s1, s2 = sums
        # sum (b-mu)^2 m = s2/d - 2 mu^2 + mu^2 s0/d, with mu = s1/d
        return Fraction(s2 * d * d - s1 * s1 * (2 * d - s0), d**3)

    def pgf(self, x):
        """Probability generating function sum_b P(X=b) * x**b at a point."""
        return sum(m * x**b for b, m in self.masses.items())

    def as_float(self) -> "ExactDistribution":
        return ExactDistribution(self.n, {b: float(m) for b, m in self.masses.items()})


def exact_distribution(table: HistoryTable, n: int, *, numeric: bool = False) -> ExactDistribution:
    """Distribution of the black count at step n from a table row.

    Masses are exact rationals summing to one; ``numeric=True`` converts each
    mass to float.  Only support points with nonzero counts appear.
    """
    counts = table.row(n)  # RowMissing if absent
    total = total_histories(table.spec, n)
    masses = {}
    for k, c in enumerate(counts):
        if c:
            b = table.spec.black_count(n, k)
            masses[b] = float(Fraction(c, total)) if numeric else Fraction(c, total)
    return ExactDistribution(n, masses)


def exact_moments(table: HistoryTable, n: int) -> tuple[Fraction, Fraction]:
    """Exact rational mean and variance of the black count at step n.

    Computed with integer sums over the row (single big denominator), so it
    stays cheap even when entries run to thousands of digits.
    """
    counts = table.row(n)
    total = total_histories(table.spec, n)
    s1 = 0
    s2 = 0
    for k, c in enumerate(counts):
        if c:
            b = table.spec.black_count(n, k)
            s1 += c * b
            s2 += c * b * b
    mean = Fraction(s1, total)
    var = Fraction(s2, total) - mean * mean
    return mean, var


def _moment_steps(spec: UrnSpec, lo: int, hi: int) -> tuple[int, ...]:
    """Product M_{hi-1} ... M_lo of the one-step moment maps, by binary
    splitting.

    M_m maps (den, E[X]*den, E[X^2]*den) after m steps to the same triple
    after m+1 steps; it is lower triangular, stored as its six entries
    (r00, r10, r11, r20, r21, r22).  Splitting keeps the big factors
    balanced, so the cost is a few products of large integers instead of
    hi - lo passes over them.
    """
    if hi - lo == 1:
        a, s = spec.alpha, spec.size_after(lo)
        return (s, a * s, s + a, a * a * s, 2 * a * s + 3 * a * a, s + 2 * a)
    mid = (lo + hi) // 2
    b00, b10, b11, b20, b21, b22 = _moment_steps(spec, lo, mid)
    a00, a10, a11, a20, a21, a22 = _moment_steps(spec, mid, hi)
    return (
        a00 * b00,
        a10 * b00 + a11 * b10,
        a11 * b11,
        a20 * b00 + a21 * b10 + a22 * b20,
        a21 * b11 + a22 * b21,
        a22 * b22,
    )


def moment_ladder(spec: UrnSpec, ns: Iterable[int]) -> dict[int, tuple[Fraction, Fraction]]:
    """Exact rational mean and variance of the black count at each n in ns.

    No table: with s the urn size before a draw, one-step conditioning gives

        E[X'|X]   = X(1 + a/s) + a
        E[X'^2|X] = X^2(1 + 2a/s) + X(2a + 3a^2/s) + a^2

    (a = alpha), carried as integers over the common denominator prod(s) and
    composed from one requested n to the next (``_moment_steps``).  Holds for
    any start (a0, b0); equals ``exact_moments`` on a table row.
    """
    wanted = sorted(set(ns))
    if wanted and wanted[0] < 0:
        raise ValueError("n must be >= 0")
    den, m1, m2 = 1, spec.a0, spec.a0 * spec.a0  # E[X], E[X^2] times den
    done = 0
    out = {}
    for n in wanted:
        if n > done:
            r00, r10, r11, r20, r21, r22 = _moment_steps(spec, done, n)
            den, m1, m2 = r00 * den, r10 * den + r11 * m1, r20 * den + r21 * m1 + r22 * m2
            done = n
        mean = Fraction(m1, den)
        out[n] = (mean, Fraction(m2, den) - mean * mean)
    return out


# -- log-space backend -------------------------------------------------------
#
# Exact counts at n = 2000 run to ~6000 digits and extreme tail masses
# underflow any float; the large-deviation diagnostics therefore work with
# log-counts kept as float64 (values grow like n log n, far inside range).


class LogHistoryTable:
    """Log-space float image of the counting recurrence.

    Rows hold log(counts[n][k]) with -inf marking unreachable k; totals are
    accumulated separately so masses never need the exponentiated counts.
    """

    def __init__(self, spec: UrnSpec, n_max: int, rows: dict, log_totals: dict):
        self.spec = spec
        self.n_max = n_max
        self._rows = rows
        self._log_totals = log_totals

    @property
    def kept(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def has_row(self, n: int) -> bool:
        return n in self._rows

    def log_counts(self, n: int) -> np.ndarray:
        try:
            return self._rows[n]
        except KeyError:
            raise RowMissing(f"log row n={n} not retained") from None

    def log_total(self, n: int) -> float:
        return self._log_totals[n]

    def log_masses(self, n: int) -> np.ndarray:
        return self.log_counts(n) - self.log_total(n)

    def pgf(self, n: int, x: complex) -> complex:
        """p_n(x) = sum_k mass_k * x**black(n,k); stable for |x| = 1."""
        lm = self.log_masses(n)
        b = self.spec.black_count(n, np.arange(n + 1))
        finite = np.isfinite(lm)
        return complex(np.sum(np.exp(lm[finite]) * np.power(complex(x), b[finite])))

    def log_tail(self, n: int, threshold: float, side: str) -> float:
        """log P(X_n >= threshold) for side='right', log P(X_n <= threshold) for 'left'."""
        lm = self.log_masses(n)
        b = self.spec.black_count(n, np.arange(n + 1))
        if side == "right":
            sel = b >= threshold
        elif side == "left":
            sel = b <= threshold
        else:
            raise ValueError("side must be 'right' or 'left'")
        sel &= np.isfinite(lm)
        if not sel.any():
            raise EmptyTail(f"no support point with black {'>=' if side == 'right' else '<='} {threshold} at n={n}")
        chunk = lm[sel]
        m = chunk.max()
        return float(m + np.log(np.exp(chunk - m).sum()))


def build_log_table(
    spec: UrnSpec,
    n_max: int,
    *,
    keep: Optional[Iterable[int]] = None,
) -> LogHistoryTable:
    """Run the counting recurrence in log space (float64).

    Each cell is ``log(exp(stay) + exp(move))`` for its white-stay and
    black-move terms, evaluated as ``max + log1p(exp(min - max))`` with
    whole-row ufuncs into preallocated rows: ``np.logaddexp`` runs as a
    scalar loop, ~20x slower per cell.  Ball counts are positive from the
    first draw on, so ``-inf`` (a colour with no balls at the start) only
    ever marks the first or the last cell of a row; those cells are carried
    outside the finite range and never enter the kernel.

    >>> from urnlab.urn import validate_urn
    >>> t = build_log_table(validate_urn(1, 1, 0, 1), 3)
    >>> tuple(int(c) for c in np.rint(np.exp(t.log_counts(3))))
    (15, 10, 3, 0)
    """
    kept = _kept_rows(n_max, keep)
    a0, b0, alpha = spec.a0, spec.b0, spec.alpha
    top = spec.size_after(n_max)
    log_j = np.empty(top + 1)  # log(j) for every ball count j the DP meets
    log_j[0] = -np.inf
    np.log(np.arange(1, top + 1, dtype=np.float64), out=log_j[1:])

    # Ping-pong rows; cells outside a row's finite range lo..hi stay -inf.
    row, new = np.full(n_max + 2, -np.inf), np.full(n_max + 2, -np.inf)
    stay, move = np.empty(n_max), np.empty(n_max)
    row[0] = 0.0
    lo = hi = 0
    log_total = 0.0
    rows: dict[int, np.ndarray] = {0: row[:1].copy()} if 0 in kept else {}
    log_totals: dict[int, float] = {0: log_total} if 0 in kept else {}
    for n in range(n_max):
        white0 = b0 + (alpha + spec.beta) * n  # white(n, 0); white(n, k) falls by alpha per k
        black0 = a0 + alpha * n  # black(n, 0); black(n, k) rises by alpha per k
        both = new[lo + 1 : hi + 1]  # cells with a stay and a move term
        s, t = stay[: hi - lo], move[: hi - lo]
        np.add(row[lo + 1 : hi + 1], log_j[white0 - alpha * hi : white0 - alpha * lo : alpha][::-1], out=s)
        np.add(row[lo:hi], log_j[black0 + alpha * lo : black0 + alpha * hi : alpha], out=t)
        np.maximum(s, t, out=both)
        np.minimum(s, t, out=s)
        np.subtract(s, both, out=s)
        np.exp(s, out=s)
        np.log1p(s, out=s)
        np.add(both, s, out=both)
        new[lo] = row[lo] + log_j[white0 - alpha * lo]
        new[hi + 1] = row[hi] + log_j[black0 + alpha * hi]
        row, new = new, row
        hi += 1
        # Only the first draw can meet a colour with no balls; trim its end
        # cell, and clear the other row's stale copy of it.
        if row[lo] == -np.inf:
            new[lo] = -np.inf
            lo += 1
        if row[hi] == -np.inf:
            hi -= 1
        log_total += math.log(spec.size_after(n))
        if n + 1 in kept:
            rows[n + 1] = row[: n + 2].copy()
            log_totals[n + 1] = log_total
    return LogHistoryTable(spec, n_max, rows, log_totals)
