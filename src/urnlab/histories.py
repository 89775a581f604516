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

with ``counts[0][0] = 1``; the row sum at ``n`` equals the product of
successive urn sizes.  One walker (``_walk``) runs the recurrence: it owns
the lattice of ball counts and the rows it keeps, and hands each arithmetic
row n with its white(n, k) and black(n, k-1) for k = 0..n+1.  Given a window
per row it hands only the cells k = lo..hi-1 of row n, with the counts for
k = lo..hi, and trims the new row to row n+1's window: that is how the log DP
computes only a tail's dependency cone.  The arithmetic is one step, row n ->
row n+1:

* exact big integers in lists (``build_history_table``);
* float64 probabilities in lists (``build_mass_table``): each row divided by
  its urn size, so the counts never leave float range and a row sums to 1;
* float64 log-probabilities in numpy arrays (``build_log_table``, the only
  code here that imports numpy): each row less the log of its urn size, so
  the tails stay in range however deep they go.

An exact table that keeps row n alone (``keep=()``) saves to one JSON file,
``urnlab.table/3``: the spec, n and row n's counts in hex, checked against
the spec and the history total when loaded.  Other tables are not saved: a
dense file loads slower than the DP builds its rows.

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
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ._record import record
from .errors import (
    CapacityExceeded,
    EmptyTail,
    InvalidTable,
    OracleTooLarge,
    RowMissing,
    UrnlabError,
)
from .urn import UrnSpec, validate_urn

if TYPE_CHECKING:
    import numpy as np

# Cap on the estimated bytes of a table's retained rows: a dense A(1,1)
# table passes it up to n = 1085 exact, 5791 in float masses, 11583 in logs.
MEMORY_BUDGET_DEFAULT = 512 * 1024 * 1024

BRUTE_FORCE_LIMIT = 8

TABLE_SCHEMA = "urnlab.table/3"


def total_histories(spec: UrnSpec, n: int) -> int:
    """Number of histories of length n: prod_{m<n} (a0 + b0 + sigma*m)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.prod(spec.size_after(m) for m in range(n))


def _log_totals(spec: UrnSpec, n_max: int) -> list[float]:
    """log2 of total_histories(spec, n) for n = 0..n_max, as a running sum
    from the left."""
    out = [0.0]
    for m in range(n_max):
        out.append(out[-1] + math.log2(spec.size_after(m)))
    return out


def total_histories_digits(spec: UrnSpec, n: int) -> int:
    """Decimal digits of total_histories(spec, n), from the log-sum of urn
    sizes, without forming the product."""
    return int(_log_totals(spec, n)[-1] * math.log10(2)) + 1


def _tail(spec: UrnSpec, n: int, threshold: float, side: str) -> slice:
    """The cells k of row n in the tail: black >= threshold for side='right',
    black <= threshold for 'left'.  black(n, k) increases with k, so a tail
    is a contiguous range of k."""
    black = range(spec.black_count(n, 0), spec.black_count(n, n) + 1, spec.alpha)
    if side == "right":
        return slice(bisect_left(black, threshold), n + 1)
    if side == "left":
        return slice(0, bisect_right(black, threshold))
    raise ValueError("side must be 'right' or 'left'")


class _RowStore:
    """The rows a history DP retained (``kept``), indexed by step n; any
    other row raises RowMissing.  Immutable once built."""

    def __init__(self, spec: UrnSpec, n_max: int, rows: Mapping[int, Sequence]):
        self.spec = spec
        self.n_max = n_max
        self._rows = dict(rows)

    @property
    def kept(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def _row(self, n: int):
        try:
            return self._rows[n]
        except KeyError:
            raise RowMissing(f"row n={n} not retained (kept: {self.kept[:8]}...)") from None

    def _empty_tail(self, n: int, threshold: float, side: str) -> EmptyTail:
        return EmptyTail(f"no support point with black {'>=' if side == 'right' else '<='} {threshold} at n={n}")


class HistoryTable(_RowStore):
    """Exact history counts, indexed by step n and black-draw count k."""

    def __init__(self, spec: UrnSpec, n_max: int, rows: Mapping[int, Sequence[int]]):
        super().__init__(spec, n_max, {n: tuple(r) for n, r in rows.items()})

    def row(self, n: int) -> tuple[int, ...]:
        return self._row(n)

    def row_total(self, n: int) -> int:
        """The sum of row n, ``total_histories``; RowMissing if it is not kept."""
        self.row(n)
        return total_histories(self.spec, n)

    def log_tail(self, n: int, threshold: float, side: str) -> float:
        """log P(X_n >= threshold) for side='right', log P(X_n <= threshold)
        for 'left'.  The tail is summed as an exact integer before the log is
        taken, so no tail is too deep to measure."""
        tail = sum(self.row(n)[_tail(self.spec, n, threshold, side)])
        if not tail:
            raise self._empty_tail(n, threshold, side)
        return math.log(tail) - math.log(self.row_total(n))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The ``urnlab.table/3`` document; ValueError unless only row n_max is kept."""
        if self.kept != (self.n_max,):
            raise ValueError(
                f"a table file holds row n={self.n_max} alone, but this table keeps rows "
                f"{self.kept[:8]}...; build it with keep=()"
            )
        return {
            "schema": TABLE_SCHEMA,
            "spec": self.spec.to_json_dict(),
            "n": self.n_max,
            # hex, which int-str conversion limits (sys.set_int_max_str_digits) do not cover
            "row": [format(c, "x") for c in self._rows[self.n_max]],
        }

    @classmethod
    def from_json_dict(cls, doc: dict, *, spec: UrnSpec, n_max: int) -> "HistoryTable":
        """Rebuild the one-row table of ``spec`` at row ``n_max`` from
        ``to_json_dict`` output, trusting nothing.

        Checks, in this order, the schema, the spec (it must be ``spec``), n
        (an int >= 0, equal to ``n_max``), the row's length (n+1, before
        anything is sized by n), its hex counts, that none is negative, and
        its sum (``total_histories``).  Any failure raises InvalidTable.
        """
        try:
            if doc.get("schema") != TABLE_SCHEMA:
                raise InvalidTable(f"unsupported table schema: {doc.get('schema')!r}")
            s = doc["spec"]
            found = validate_urn(s["alpha"], s["beta"], s["a0"], s["b0"])
            if found != spec:
                raise InvalidTable(f"table is for {found}, not {spec}")
            n = doc["n"]
            if type(n) is not int or n < 0:
                raise InvalidTable(f"bad n {n!r}")
            if n != n_max:
                raise InvalidTable(f"table has n={n}, not {n_max}")
            raw = doc["row"]
            if len(raw) != n + 1:
                raise InvalidTable(f"row n={n} has {len(raw)} entries, expected {n + 1}")
            row = tuple(int(c, 16) for c in raw)
            if min(row) < 0:
                raise InvalidTable(f"row n={n} has a negative count")
            if sum(row) != total_histories(spec, n):
                raise InvalidTable(f"row n={n} does not sum to total_histories")
            return cls(spec, n, {n: row})
        except InvalidTable:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, UrnlabError) as exc:
            raise InvalidTable(f"malformed table document: {type(exc).__name__}: {exc}") from None

    def save(self, path: str | os.PathLike) -> None:
        """Write the JSON form atomically: a temp file in the same directory,
        then os.replace, so a reader never sees a partial file.  The temp
        file is created with mode 0o666 less the umask, as open(path, "w")
        would create it; O_EXCL keeps it from clobbering another file."""
        doc = self.to_json_dict()
        directory = os.path.dirname(os.fspath(path)) or "."
        tmp = os.path.join(directory, f".table-{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | os.PathLike, *, spec: UrnSpec, n_max: int) -> "HistoryTable":
        """Read and validate the saved table of ``spec`` at row ``n_max``
        (see ``from_json_dict``).  Text that is not JSON raises
        InvalidTable; a missing file, OSError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InvalidTable(f"{path}: not a JSON table: {exc}") from None
        return cls.from_json_dict(doc, spec=spec, n_max=n_max)


def _kept_rows(n_max: int, keep: Optional[Iterable[int]]) -> set[int]:
    """The rows a builder retains: every row when keep is None, else keep
    plus row n_max, each checked to lie in 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if keep is None:
        kept = set(range(n_max + 1))
    else:
        kept = {int(n) for n in keep}
        bad = [n for n in kept if n < 0 or n > n_max]
        if bad:
            raise ValueError(f"keep rows out of range: {sorted(bad)}")
        kept.add(n_max)
    return kept


def _keep_budget(row_bytes: Iterable[int]) -> None:
    """Refuse (CapacityExceeded) retained rows whose estimated bytes sum
    past MEMORY_BUDGET_DEFAULT; a builder calls it before any row is
    computed."""
    est = sum(row_bytes)
    if est > MEMORY_BUDGET_DEFAULT:
        raise CapacityExceeded(f"retained rows estimated at {est} bytes > budget {MEMORY_BUDGET_DEFAULT}")


def _walk(
    spec: UrnSpec,
    n_max: int,
    kept: set[int],
    j: Sequence,
    step,
    window: Optional[Sequence[tuple[int, int]]] = None,
) -> dict[int, Sequence]:
    """Run the counting recurrence to n_max; return the rows in ``kept``.

    ``j[alpha + c]`` is the ball count c, from c = -alpha, in the arithmetic
    of ``step`` (an int, a float or its log), so row n's ball counts are
    strided slices of j.  Row n holds the cells k = lo..hi-1, every cell
    (lo = 0, hi = n+1) unless ``window[n]`` is (lo, hi).
    ``step(row, n, whites, blacks)`` returns the cells k = lo..hi of row n+1
    from those of row n, with whites[i] = white(n, lo+i) and
    blacks[i] = black(n, lo+i-1) for i = 0..hi-lo: a zero padded onto
    either end of the cells meets a count one lattice step past them, which
    can be negative past a row's ends.

    The pad is right at a row's ends and wrong inside a row, so a window
    must drop the new row's cell lo when lo > 0 and its cell hi when
    hi < n+1: ``_tail_cone`` gives such windows.
    """
    alpha = spec.alpha
    row = j[alpha + 1 : alpha + 2].copy()  # one history of length 0: 1, or log 1
    rows = {0: row} if 0 in kept else {}
    lo = 0
    for n in range(n_max):
        hi = lo + len(row)
        w, b = alpha + spec.white_count(n, hi), alpha + spec.black_count(n, lo - 1)
        whites = j[w : w + alpha * (hi - lo) + 1 : alpha][::-1]
        blacks = j[b : b + alpha * (hi - lo) + 1 : alpha]
        row = step(row, n, whites, blacks)
        if window is not None:
            new_lo, new_hi = window[n + 1]
            row, lo = row[new_lo - lo : new_hi - lo], new_lo
        if n + 1 in kept:
            rows[n + 1] = row
    return rows


def build_history_table(
    spec: UrnSpec,
    n_max: int,
    *,
    keep: Optional[Iterable[int]] = None,
) -> HistoryTable:
    """Run the counting recurrence up to n_max with exact integers.

    ``keep`` whitelists the rows to retain (row n_max is always retained);
    by default every row is kept.  Raises CapacityExceeded when the retained
    rows are estimated to exceed MEMORY_BUDGET_DEFAULT bytes: pass ``keep=``
    to retain fewer rows.
    """
    kept = _kept_rows(n_max, keep)
    # an entry of row n is at most total_histories(n): its bytes, plus an int's overhead
    log2_totals = _log_totals(spec, n_max)
    _keep_budget((n + 1) * (int(log2_totals[n] / 8) + 28) for n in kept)

    def step(row, n, whites, blacks):
        return [p * w + q * b for p, w, q, b in zip([*row, 0], whites, [0, *row], blacks)]

    j = list(range(-spec.alpha, spec.size_after(n_max) + 1))
    return HistoryTable(spec, n_max, _walk(spec, n_max, kept, j, step))


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


@record
class ExactDistribution:
    """Probability mass of the black-ball count after n steps."""

    n: int
    masses: dict  # black count -> Fraction (or float in numeric mode)

    def mean(self):
        """sum of b * P(X=b): exact on Fraction masses, float on floats."""
        return sum(b * m for b, m in self.masses.items())

    def variance(self):
        """sum of (b - mean)^2 * P(X=b), in the masses' arithmetic."""
        mu = self.mean()
        return sum((b - mu) ** 2 * m for b, m in self.masses.items())


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


# -- float mass backend -----------------------------------------------------
#
# The law of X_n as Python floats: no numpy to import, and rows of masses
# rather than counts, so nothing overflows and each cell carries a few ulps of
# rounding (the log backend's logs ~1e-12 at n = 1000).  A mass below
# float64's smallest subnormal reads 0, as exp of the log backend's does.


class MassTable(_RowStore):
    """P(k black draws after n steps) for k = 0..n, as float64 masses; 0.0
    marks an unreachable k (or a mass past float64's range)."""

    def __init__(self, spec: UrnSpec, n_max: int, rows: Mapping[int, Sequence[float]]):
        super().__init__(spec, n_max, {n: tuple(r) for n, r in rows.items()})

    def masses(self, n: int) -> tuple[float, ...]:
        return self._row(n)


def build_mass_table(
    spec: UrnSpec,
    n_max: int,
    *,
    keep: Optional[Iterable[int]] = None,
) -> MassTable:
    """Run the recurrence on probabilities in float64 lists: row n+1 is

        P'[k] = (P[k] white(n, k) + P[k-1] black(n, k-1)) / size(n)

    for k = 0..n+1, one list comprehension per row.  ``keep`` is checked and
    completed, and the budget kept, as in ``build_history_table``.

    >>> from urnlab.urn import validate_urn
    >>> t = build_mass_table(validate_urn(1, 1, 0, 1), 3)
    >>> [round(m * 28, 12) for m in t.masses(3)]
    [15.0, 10.0, 3.0, 0.0]
    """
    kept = _kept_rows(n_max, keep)
    _keep_budget((n + 1) * 32 for n in kept)  # a tuple slot and a float object a cell

    def step(row, n, whites, blacks):
        inv = 1.0 / spec.size_after(n)
        return [(p * w + q * b) * inv for p, w, q, b in zip([*row, 0.0], whites, [0.0, *row], blacks)]

    j = [float(c) for c in range(-spec.alpha, spec.size_after(n_max) + 1)]
    return MassTable(spec, n_max, _walk(spec, n_max, kept, j, step))


# -- log-space backend -------------------------------------------------------
#
# Exact counts at n = 2000 run to ~6000 digits and extreme tail masses
# underflow any float; the large-deviation diagnostics therefore work with
# log-probabilities kept as float64.  A row is normalised at every step, so
# its logs stay near the row's own spread rather than growing like n log n,
# and each cell rounds at a few ulps of that.


class LogHistoryTable(_RowStore):
    """Log-space float image of the counting recurrence.

    Rows hold log P(k black draws after n steps), with -inf marking
    unreachable k.  A table built for a tail holds, in a row, only the
    cells k = first(n)..first(n)+len-1 that the tail can reach:
    ``log_tail`` answers a tail inside them, and the whole-row methods
    refuse such a row with RowMissing.
    """

    def __init__(
        self,
        spec: UrnSpec,
        n_max: int,
        rows: Mapping[int, np.ndarray],
        first: Optional[Mapping[int, int]] = None,
    ):
        super().__init__(spec, n_max, rows)
        self._first = {n: (first or {}).get(n, 0) for n in self._rows}

    def _cells(self, n: int) -> str:
        first = self._first[n]
        return f"k={first}..{first + len(self._rows[n]) - 1}"

    def log_masses(self, n: int) -> np.ndarray:
        row = self._row(n)
        if len(row) != n + 1:
            raise RowMissing(f"row n={n} holds only the cells {self._cells(n)} of a tail")
        return row

    def masses(self, n: int) -> list[float]:
        """exp(log_masses) as Python floats; 0.0 where the log is -inf."""
        import numpy as np

        return np.exp(self.log_masses(n)).tolist()

    def pgf(self, n: int, x: complex) -> complex:
        """p_n(x) = sum_k mass_k * x**black(n,k); stable for |x| = 1."""
        import numpy as np

        lm = self.log_masses(n)
        b = self.spec.black_count(n, np.arange(n + 1))
        finite = np.isfinite(lm)
        return complex(np.sum(np.exp(lm[finite]) * np.power(complex(x), b[finite])))

    def log_tail(self, n: int, threshold: float, side: str) -> float:
        """log P(X_n >= threshold) for side='right', log P(X_n <= threshold)
        for 'left'.  A tail that reaches past the row's cells raises
        RowMissing."""
        import numpy as np

        row, first = self._row(n), self._first[n]
        tail = _tail(self.spec, n, threshold, side)
        lo, hi = tail.start - first, tail.stop - first
        if lo < hi and (lo < 0 or hi > len(row)):
            raise RowMissing(
                f"tail k={tail.start}..{tail.stop - 1} of row n={n} reaches past its cells {self._cells(n)}"
            )
        chunk = row[lo:hi]  # empty when the tail is
        chunk = chunk[np.isfinite(chunk)]
        if not chunk.size:
            raise self._empty_tail(n, threshold, side)
        m = chunk.max()
        return float(m + np.log(np.exp(chunk - m).sum()))


def _tail_cone(spec: UrnSpec, n_max: int, kept: set[int], t: float, side: str) -> list[tuple[int, int]]:
    """Window (lo, hi) of each row m = 0..n_max: the cells k = lo..hi-1 that
    can reach the tail at threshold t*n of a kept row n.

    k never decreases and grows by at most one a step, so cell (m, k) reaches
    row n >= m only at k..k+(n-m), and the tail cells a..b-1 of row n need
    the cells a-(n-m)..b-1 of row m.  A window is the hull of these over
    the kept n >= m, kept to at least one cell.  A right tail ends at
    b = n+1, so hi = m+1 and lo, once above 0, grows by at least one a row;
    a left tail starts at a = 0, so lo = 0 and hi, once below m+1, never
    grows: each drops the wrong edge cell that ``_walk`` leaves.
    """
    reach_lo, reach_hi = math.inf, -math.inf  # min of a - n, max of b over kept n >= m
    window = [(0, 1)] * (n_max + 1)
    for m in range(n_max, -1, -1):
        if m in kept:
            tail = _tail(spec, m, t * m, side)
            reach_lo, reach_hi = min(reach_lo, tail.start - m), max(reach_hi, tail.stop)
        window[m] = (max(0, min(m, reach_lo + m)), min(m + 1, max(1, reach_hi)))
    return window


def build_log_table(
    spec: UrnSpec,
    n_max: int,
    *,
    keep: Optional[Iterable[int]] = None,
    tail: Optional[tuple[float, str]] = None,
) -> LogHistoryTable:
    """Run the recurrence on log-probabilities (float64): the walk of
    ``build_history_table`` with log ball counts, + for the product,
    ``log_add`` for the sum, and each new row less log size(n).

    ``tail=(t, side)`` computes only the cells that the tails at threshold
    t*n (``side`` as in ``log_tail``) of the kept rows depend on
    (``_tail_cone``), and the rows hold only those cells: ``log_tail``
    answers those tails, with the same bits as a full table.  ``keep`` and
    the budget are as in ``build_history_table``; the budget counts the
    cells each retained row holds, its tail's cone or the whole row.

    >>> import numpy as np
    >>> from urnlab.urn import validate_urn
    >>> t = build_log_table(validate_urn(1, 1, 0, 1), 3)
    >>> tuple(int(c) for c in np.rint(np.exp(t.log_masses(3)) * 28))
    (15, 10, 3, 0)
    """
    kept = _kept_rows(n_max, keep)
    window = None if tail is None else _tail_cone(spec, n_max, kept, *tail)
    cells = (n + 1 if window is None else window[n][1] - window[n][0] for n in kept)
    _keep_budget(8 * c for c in cells)  # a float64 a cell
    import numpy as np

    def log_add(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = log(exp(a) + exp(b)), as max + log1p(exp(min - max)) with a
        as scratch: np.logaddexp runs as a scalar loop, ~20x slower per cell."""
        np.maximum(a, b, out=out)
        np.minimum(a, b, out=a)
        np.subtract(a, out, out=a)
        np.exp(a, out=a)
        np.log1p(a, out=a)
        return np.add(out, a, out=out)

    def step(row, n, whites, blacks):
        s = row + whites[:-1]  # white draws from the row's cells
        t = row + blacks[1:]  # black draws from the row's cells
        new = np.empty(len(row) + 1)
        # Only the first draw can meet a colour with no balls, so -inf is
        # only ever an end cell, never next to another: the middle cells
        # always have a finite term.  The end cells have one term each; zero
        # pads would meet -inf - -inf in log_add at starts with a0 or b0 = 0.
        new[0], new[-1] = s[0], t[-1]
        log_add(s[1:], t[:-1], new[1:-1])
        new -= math.log(spec.size_after(n))
        return new

    counts = np.arange(-spec.alpha, spec.size_after(n_max) + 1, dtype=np.float64).clip(0)
    with np.errstate(divide="ignore"):  # log 0 = -inf, the zero of log arithmetic
        log_j = np.log(counts)  # -inf at the counts <= 0 past a row's ends
    rows = _walk(spec, n_max, kept, log_j, step, window)
    first = None if window is None else {n: window[n][0] for n in rows}
    return LogHistoryTable(spec, n_max, rows, first)
