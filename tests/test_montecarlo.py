"""Seeded simulation: reproducibility, validation, and statistical agreement
with the exact law.

Every statistical assertion runs on a pinned seed, so outcomes here are
deterministic, not flaky: the z-scores were checked once to sit comfortably
inside their bands and are then frozen by the seed.
"""

import math
import time

import pytest
from scipy.stats import chi2 as chi2_dist

from urnlab import (
    CapacityExceeded,
    UrnSpec,
    exact_distribution,
    exact_moments,
    limit_params,
    simulate,
)
from urnlab.montecarlo import STREAM


def float_moments(spec: UrnSpec, n: int) -> tuple[float, float]:
    """Exact mean/variance recurrences carried in float64.

    The one-step conditioning used in the exact-table tests, but without big
    rationals, so it reaches n = 10^4 instantly.  Cancellation in u - m^2
    costs ~5 digits there, leaving ~1e-11 relative accuracy: far below the
    Monte-Carlo standard errors it calibrates.
    """
    a = spec.alpha
    m, u = float(spec.a0), float(spec.a0) ** 2
    for j in range(n):
        s = spec.size_after(j)
        m, u = m * (1 + a / s) + a, u * (1 + 2 * a / s) + m * (2 * a + 3 * a * a / s) + a * a
    return m, u - m * m


def test_first_step_is_forced_white():
    # a0 = 0: the first draw cannot be black, so every trial holds exactly
    # alpha black balls after one step
    run = simulate(UrnSpec(1, 1, 0, 1), 1, 500, seed=3)
    assert run.counts == {1: 500}
    run32 = simulate(UrnSpec(3, 2, 0, 1), 1, 500, seed=3)
    assert run32.counts == {3: 500}


def test_same_seed_bitwise_identical():
    a = simulate(UrnSpec(1, 1, 0, 1), 50, 2000, seed=99)
    b = simulate(UrnSpec(1, 1, 0, 1), 50, 2000, seed=99)
    assert a.counts == b.counts
    assert (a.mean, a.variance) == (b.mean, b.variance)


def test_different_seeds_differ():
    a = simulate(UrnSpec(1, 1, 0, 1), 50, 2000, seed=99)
    b = simulate(UrnSpec(1, 1, 0, 1), 50, 2000, seed=100)
    assert a.counts != b.counts


def test_masses_and_histogram():
    run = simulate(UrnSpec(1, 1, 0, 1), 10, 3000, seed=5)
    assert sum(run.counts.values()) == 3000
    assert sum(run.masses().values()) == pytest.approx(1.0)
    rows = run.histogram_rows()
    assert rows == sorted(rows)
    doc = run.to_json_dict()
    assert doc["trials"] == 3000 and doc["seed"] == 5
    assert all(isinstance(k, str) for k in doc["histogram"])


def test_single_trial_variance_is_zero():
    run = simulate(UrnSpec(1, 1, 0, 1), 5, 1, seed=1)
    assert run.variance == 0.0
    assert run.trials == 1


def test_histogram_lies_on_the_support():
    # every key is the black count after n draws with k of them black
    for spec in (UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1), UrnSpec(1, 1, 2, 3)):
        n, trials = 40, 5000
        run = simulate(spec, n, trials, seed=1)
        support = {spec.black_count(n, k) for k in range(n + 1)}
        assert set(run.counts) <= support
        assert sum(run.counts.values()) == trials
        assert all(c > 0 for c in run.counts.values())


def test_trial_count_does_not_cost_time():
    # a step moves Binomial(c_k, p_k) trials per occupied state, so 10^9
    # trials cost no more than 10^3
    start = time.perf_counter()
    run = simulate(UrnSpec(1, 1, 0, 1), 300, 10**9, seed=3)
    assert time.perf_counter() - start < 0.5
    assert sum(run.counts.values()) == 10**9


def test_stream_is_reported():
    run = simulate(UrnSpec(1, 1, 0, 1), 5, 10, seed=1)
    assert run.stream == STREAM == "binomial-counts/1"
    assert run.to_json_dict()["stream"] == STREAM


def test_input_validation():
    spec = UrnSpec(1, 1, 0, 1)
    with pytest.raises(ValueError):
        simulate(spec, -1, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(spec, 1, 0, seed=0)
    for bad_seed in (-1, 2**64, True, 1.5, "7"):
        with pytest.raises(ValueError):
            simulate(spec, 1, 10, seed=bad_seed)


def test_counter_capacity_guard():
    with pytest.raises(CapacityExceeded):
        simulate(UrnSpec(1, 1, 0, 1), 2**62, 1, seed=0)
    # the per-state counts are int64 too
    with pytest.raises(CapacityExceeded):
        simulate(UrnSpec(1, 1, 0, 1), 1, 2**62 + 1, seed=0)


def test_mean_within_three_se_of_exact(dense11):
    # n=3: exact mean 25/7, variance 45/98; seed pinned (measured z = +0.36)
    mean, var = exact_moments(dense11, 3)
    run = simulate(UrnSpec(1, 1, 0, 1), 3, 40000, seed=7)
    se = math.sqrt(float(var) / 40000)
    assert abs(run.mean - float(mean)) < 3 * se
    assert set(run.counts) <= {3, 4, 5}


def test_chi_square_against_exact_law(dense11):
    # n=10: all ten support cells have expected count >= 5 at 1e5 trials
    # (smallest ~202); seed pinned, measured statistic 3.88
    trials = 10**5
    run = simulate(UrnSpec(1, 1, 0, 1), 10, trials, seed=11)
    dist = exact_distribution(dense11, 10, numeric=True)
    expected = {b: m * trials for b, m in dist.masses.items()}
    assert min(expected.values()) >= 5
    stat = sum(
        (run.counts.get(b, 0) - e) ** 2 / e for b, e in expected.items()
    )
    dof = len(expected) - 1
    assert stat < chi2_dist.ppf(0.999, dof)


def test_non_default_start_matches_exact_moments_within_4se():
    # a0=2, b0=3: the first draw is black with probability 2/5, not 0;
    # seed pinned (measured z = -0.83 mean, +0.47 variance)
    spec = UrnSpec(1, 1, 2, 3)
    n, trials = 500, 10**5
    run = simulate(spec, n, trials, seed=4)
    em, ev = float_moments(spec, n)
    assert abs(run.mean - em) < 4 * math.sqrt(ev / trials)
    assert abs(run.variance - ev) < 4 * ev * math.sqrt(2.0 / (trials - 1))


MC_N = 10**4
MC_TRIALS = 10**5
MC_SEED = 20260817


@pytest.fixture(scope="module")
def heavy_run():
    return simulate(UrnSpec(1, 1, 0, 1), MC_N, MC_TRIALS, seed=MC_SEED)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "first-order invariant as stated: at n=1e4 the exact mean sits "
        "~21 below mu*n (the n^(1/3) correction, z ~ -79) and the exact "
        "variance ~450 below nu2*n (z ~ -14), so matching mu*n and nu2*n "
        "within 4 standard errors is impossible for any seed"
    ),
)
def test_simulation_matches_first_order_moments_within_4se(heavy_run):
    spec = UrnSpec(1, 1, 0, 1)
    params = limit_params(spec)
    _, ev = float_moments(spec, MC_N)
    se_mean = math.sqrt(ev / MC_TRIALS)
    se_var = ev * math.sqrt(2.0 / (MC_TRIALS - 1))
    assert abs(heavy_run.mean - float(params.mu) * MC_N) < 4 * se_mean
    assert abs(heavy_run.variance - float(params.nu2) * MC_N) < 4 * se_var


def test_simulation_matches_exact_moments_within_4se(heavy_run):
    # same run, compared against the exact finite-n moments instead of their
    # first-order asymptotics: measured z = +1.06 (mean), +0.12 (variance)
    spec = UrnSpec(1, 1, 0, 1)
    em, ev = float_moments(spec, MC_N)
    se_mean = math.sqrt(ev / MC_TRIALS)
    se_var = ev * math.sqrt(2.0 / (MC_TRIALS - 1))
    assert abs(heavy_run.mean - em) < 4 * se_mean
    assert abs(heavy_run.variance - ev) < 4 * se_var
