"""Seeded simulation of the urn process, for n beyond exact-DP reach.

One step: draw a ball uniformly, put it back, and add balls by color —
a black draw adds (2*alpha black, beta white), a white draw adds
(alpha black, alpha+beta white).  Either way sigma balls enter, so the
total after m steps is a0 + b0 + sigma*m regardless of the trajectory.

A trajectory is therefore a chain on k, the number of black draws so far:
after m steps it holds spec.black_count(m, k) black balls, so the balance
invariant holds by construction.  The trials are i.i.d. copies of that
chain, and the law of the sample depends only on how many trials sit in
each state.  The simulator keeps those counts and, at each step, moves a
Binomial(c_k, black/size) number of trials from state k to k+1, over the
occupied states only.  A step costs O(occupied states), not O(trials),
and memory does not grow with `trials`.

One counter-based (Philox) stream drives every step, so results are
bit-for-bit reproducible from (spec, n, trials, seed) alone.
"""
from __future__ import annotations

from ._record import record
from .errors import CapacityExceeded
from .urn import UrnSpec

STREAM = "binomial-counts/1"  # names the draw sequence behind a given seed

_INT64_HEADROOM = 2**62


@record
class SimulationRun:
    """Empirical distribution of the black-ball count after n steps."""

    spec: UrnSpec
    n: int
    trials: int
    seed: int
    counts: dict  # black-ball count -> number of trials ending there
    mean: float
    variance: float  # sample variance (ddof=1), 0.0 for a single trial
    stream: str = STREAM

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "stream": self.stream,
            "mean": self.mean,
            "variance": self.variance,
            "histogram": {str(black): c for black, c in sorted(self.counts.items())},
        }

    def histogram_rows(self) -> list:
        """(black_count, frequency) rows, ascending — the CSV export shape."""
        return sorted(self.counts.items())


def simulate(spec: UrnSpec, n: int, trials: int, seed: int) -> SimulationRun:
    """Run `trials` independent trajectories for n steps each.

    c[k] counts the trials that have drawn black k times, in one array of
    n+1 states updated in place; only the occupied states k = lo..hi-1 are
    touched.  At step m each of them draws black with probability
    p = black_count(m, k)/size_after(m), so Binomial(c[k], p) of them move
    up one state.  Zero states at either end are trimmed from lo..hi-1; one
    step can empty at most one state at each end.  The mean and the ddof=1
    variance are exact integer sums over the histogram, rounded once to
    float64.
    """
    import numpy as np

    if n < 0:
        raise ValueError("n must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if spec.size_after(n) > _INT64_HEADROOM:
        raise CapacityExceeded(f"ball counts at n={n} exceed the 64-bit budget")
    if trials > _INT64_HEADROOM:
        raise CapacityExceeded(f"trials={trials} exceed the 64-bit budget")

    rng = np.random.Generator(np.random.Philox(seed))
    c = np.zeros(n + 1, dtype=np.int64)
    c[0] = trials
    alpha_k = spec.alpha * np.arange(n + 1, dtype=np.int64)
    lo, hi = 0, 1  # the occupied states k = lo..hi-1; c is 0 outside them
    for m in range(n):
        black = alpha_k[lo:hi] + (spec.a0 + spec.alpha * m)  # black_count(m, k)
        moved = rng.binomial(c[lo:hi], black / spec.size_after(m))
        c[lo:hi] -= moved
        c[lo + 1 : hi + 1] += moved
        hi += 1
        if c[lo] == 0:
            lo += 1
        if c[hi - 1] == 0:
            hi -= 1

    blacks = spec.black_count(n, np.arange(lo, hi))
    counts = {int(b): int(f) for b, f in zip(blacks, c[lo:hi]) if f}
    s1 = sum(b * f for b, f in counts.items())
    s2 = sum(b * b * f for b, f in counts.items())
    mean = s1 / trials
    variance = (trials * s2 - s1 * s1) / (trials * (trials - 1)) if trials > 1 else 0.0
    return SimulationRun(
        spec=spec,
        n=n,
        trials=trials,
        seed=seed,
        counts=counts,
        mean=mean,
        variance=variance,
    )
