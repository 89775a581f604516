"""Exact counting: the DP against the brute-force oracle, frozen small cases,
moment recurrences, and the serialized form."""

import json
import math
import os
import stat
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnlab import (
    CapacityExceeded,
    EmptyTail,
    HistoryTable,
    InvalidTable,
    OracleTooLarge,
    RowMissing,
    UrnSpec,
    brute_force_histories,
    build_history_table,
    build_log_table,
    build_mass_table,
    exact_distribution,
    exact_moments,
    limit_params,
    moment_ladder,
    series_coefficient,
    total_histories,
)
from urnlab.cli import MASS_DP_MAX_N
from urnlab.asymptotics import tail_side
from urnlab import histories
from urnlab.histories import BRUTE_FORCE_LIMIT, MEMORY_BUDGET_DEFAULT, TABLE_SCHEMA, _tail, total_histories_digits


# -- the DP against the exponential-tree oracle -------------------------------


@pytest.mark.parametrize("spec", [UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1)])
def test_dp_matches_brute_force(spec, dense11, dense32):
    table = dense11 if spec.alpha == 1 else dense32
    for n in range(BRUTE_FORCE_LIMIT + 1):
        assert table.row(n) == brute_force_histories(spec, n)


@given(
    alpha=st.integers(1, 3),
    beta=st.integers(1, 3),
    a0=st.integers(0, 2),
    b0=st.integers(0, 2),
    n=st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_dp_matches_brute_force_random_urns(alpha, beta, a0, b0, n):
    if a0 + b0 == 0:
        a0 = 1
    spec = UrnSpec(alpha, beta, a0, b0)
    table = build_history_table(spec, n)
    brute = brute_force_histories(spec, n)
    assert table.row(n) == brute
    # the float DPs too, at the starts (a0 or b0 = 0) where their zero pads
    # meet negative ball counts
    total = total_histories(spec, n)
    want = [c / total for c in brute]
    assert build_mass_table(spec, n).masses(n) == pytest.approx(want, rel=1e-13)
    assert build_log_table(spec, n).masses(n) == pytest.approx(want, rel=1e-12)  # exp of log_masses


def test_brute_force_refuses_large_n():
    with pytest.raises(OracleTooLarge):
        brute_force_histories(UrnSpec(1, 1, 0, 1), BRUTE_FORCE_LIMIT + 1)


# -- frozen small cases --------------------------------------------------------


def test_frozen_rows_a11(dense11):
    # worked by hand: 1 ball -> 1*2 -> sizes 1, 4, 7, ...
    assert dense11.row(0) == (1,)
    assert dense11.row(1) == (1, 0)
    assert dense11.row(2) == (3, 1, 0)
    assert dense11.row(3) == (15, 10, 3, 0)
    assert total_histories(dense11.spec, 3) == 28


def test_frozen_totals_a32(dense32):
    assert total_histories(dense32.spec, 2) == 9
    assert sum(dense32.row(2)) == 9


def test_black_sweep_never_reachable_from_white_start(dense11, dense32):
    # first draw must be white when a0 = 0, so k = n has count 0 for n >= 1
    for table in (dense11, dense32):
        for n in range(1, 10):
            assert table.row(n)[n] == 0


@given(n=st.integers(0, 35))
def test_row_sums_equal_total(dense11, n):
    assert sum(dense11.row(n)) == total_histories(dense11.spec, n)


def test_total_histories_rejects_negative():
    with pytest.raises(ValueError):
        total_histories(UrnSpec(1, 1, 0, 1), -1)


# -- distributions and moments -------------------------------------------------


def test_distribution_n3_by_hand(dense11):
    dist = exact_distribution(dense11, 3)
    assert dist.masses == {
        3: Fraction(15, 28),
        4: Fraction(10, 28),
        5: Fraction(3, 28),
    }
    assert sorted(dist.masses) == [3, 4, 5]
    assert sum(dist.masses.values()) == 1


def test_distribution_numeric_mode(dense11):
    dist = exact_distribution(dense11, 3, numeric=True)
    assert dist.masses[3] == pytest.approx(15 / 28)
    assert isinstance(dist.masses[3], float)


def test_float_distribution_moments_match_exact(dense11, dense32):
    for table in (dense11, dense32):
        mean, var = exact_moments(table, 30)
        dist = exact_distribution(table, 30, numeric=True)
        assert dist.mean() == pytest.approx(float(mean), rel=1e-12)
        assert dist.variance() == pytest.approx(float(var), rel=1e-12)


def test_pgf_is_the_series_coefficient_over_the_histories(dense11):
    # c_n = (1/n!) sum_k counts[n][k] x^black(n, k), so E[x^X_n] = c_n n! / total_histories
    x, n = Fraction(1, 2), 20
    want = series_coefficient(dense11, x, n) * math.factorial(n) / total_histories(dense11.spec, n)
    assert sum(m * x**b for b, m in exact_distribution(dense11, n).masses.items()) == want


@pytest.mark.parametrize("n", range(0, 36, 5))
def test_masses_sum_to_one_exactly(dense11, dense32, n):
    for table in (dense11, dense32):
        assert sum(exact_distribution(table, n).masses.values()) == 1


def test_moments_match_hand_values(dense11):
    mean, var = exact_moments(dense11, 3)
    assert mean == Fraction(25, 7)
    assert var == Fraction(45, 98)
    mean2, _ = exact_moments(dense11, 2)
    assert mean2 == Fraction(9, 4)


def test_moments_agree_with_distribution(dense11, dense32):
    for table in (dense11, dense32):
        for n in (0, 1, 7, 20):
            dist = exact_distribution(table, n)
            mean, var = exact_moments(table, n)
            assert dist.mean() == mean
            assert dist.variance() == var


def test_mean_recurrence(dense11, dense32):
    # conditioning on the n-th draw: m_{n+1} = m_n * (1 + alpha/s_n) + alpha
    for table in (dense11, dense32):
        spec = table.spec
        m = Fraction(spec.a0)
        for n in range(30):
            mean, _ = exact_moments(table, n)
            assert mean == m
            m = m * (1 + Fraction(spec.alpha, spec.size_after(n))) + spec.alpha


def test_second_moment_recurrence(dense11, dense32):
    # one-step conditioning with I = indicator of a black draw:
    # u_{n+1} = u_n (1 + 2a/s_n) + m_n (2a + 3a^2/s_n) + a^2
    for table in (dense11, dense32):
        spec = table.spec
        a = spec.alpha
        m, u = Fraction(spec.a0), Fraction(spec.a0) ** 2
        for n in range(30):
            mean, var = exact_moments(table, n)
            assert u == var + mean * mean
            s = spec.size_after(n)
            m, u = (
                m * (1 + Fraction(a, s)) + a,
                u * (1 + Fraction(2 * a, s)) + m * (2 * a + Fraction(3 * a * a, s)) + a * a,
            )


def test_moment_ladder_matches_dp(dense11, dense32, big11):
    for table in (dense11, dense32):
        ladder = moment_ladder(table.spec, range(table.n_max + 1))
        assert ladder == {n: exact_moments(table, n) for n in range(table.n_max + 1)}
    assert moment_ladder(big11.spec, big11.kept) == {n: exact_moments(big11, n) for n in big11.kept}


@pytest.mark.parametrize("spec", [UrnSpec(1, 1, 2, 3), UrnSpec(2, 3, 5, 0), UrnSpec(3, 1, 0, 4)])
def test_moment_ladder_any_start(spec):
    table = build_history_table(spec, 30)
    ladder = moment_ladder(spec, [30, 0, 7, 7])
    assert set(ladder) == {0, 7, 30}
    assert ladder[0] == (Fraction(spec.a0), Fraction(0))
    for n, moments in ladder.items():
        assert moments == exact_moments(table, n)


def test_moment_ladder_rejects_negative_n(urn11):
    with pytest.raises(ValueError):
        moment_ladder(urn11, [3, -1])
    assert moment_ladder(urn11, []) == {}


def test_total_digits_without_the_product(urn11, urn32):
    for spec in (urn11, urn32):
        for n in (0, 1, 2, 9, 10, 100, 700):
            assert total_histories_digits(spec, n) == len(str(total_histories(spec, n)))


def test_distribution_requires_retained_row(urn11):
    sparse = build_history_table(urn11, 12, keep={12})
    with pytest.raises(RowMissing):
        exact_distribution(sparse, 7)


# -- retention and capacity ------------------------------------------------


def test_sparse_table_keeps_requested_rows(urn11):
    t = build_history_table(urn11, 50, keep={10, 30})
    assert t.kept == (10, 30, 50)  # n_max is always retained
    assert 30 in t.kept and 29 not in t.kept
    with pytest.raises(RowMissing):
        t.row(29)


def test_dense_flag(dense11):
    assert dense11.kept == tuple(range(dense11.n_max + 1))
    assert dense11.n_max == 35


def test_keep_out_of_range_rejected(urn11):
    with pytest.raises(ValueError):
        build_history_table(urn11, 10, keep={11})


def test_capacity_budget_enforced(urn11):
    # dense rows 0..2000 are estimated at ~3.4 GiB: refused before the walk
    with pytest.raises(CapacityExceeded, match=f"> budget {MEMORY_BUDGET_DEFAULT}$"):
        build_history_table(urn11, 2000)
    # retaining one small row besides row n_max fits the budget
    t = build_history_table(urn11, 300, keep={0})
    assert 300 in t.kept


def test_default_budget_blocks_huge_dense_builds(urn11):
    with pytest.raises(CapacityExceeded):
        build_history_table(urn11, 100_000)


@pytest.mark.parametrize("build, n", [(build_mass_table, 300), (build_log_table, 600)])
def test_float_tables_keep_the_budget(monkeypatch, urn11, build, n):
    # dense A(1,1) is ~1.45 MB at 32 B a float mass (n=300) and 8 B a log (n=600)
    monkeypatch.setattr(histories, "MEMORY_BUDGET_DEFAULT", 1024 * 1024)
    with monkeypatch.context() as m:
        m.setattr(histories, "_walk", lambda *args, **kwargs: pytest.fail("a row was computed"))
        with pytest.raises(CapacityExceeded, match=r"^retained rows estimated at \d+ bytes > budget 1048576$"):
            build(urn11, n)
    assert build(urn11, n, keep=()).kept == (n,)


def test_tail_table_budget_counts_its_cone(monkeypatch, urn11):
    # dense A(1,1) rows 0..600 are ~1.45 MB of logs; the right tail at 1.8n
    # reaches 65461 of their cells, ~0.52 MB
    monkeypatch.setattr(histories, "MEMORY_BUDGET_DEFAULT", 1024 * 1024)
    cone = build_log_table(urn11, 600, tail=(1.8, "right"))
    assert cone.kept == tuple(range(601))
    assert sum(len(cone._row(n)) for n in cone.kept) == 65461
    with monkeypatch.context() as m:
        m.setattr(histories, "_walk", lambda *args, **kwargs: pytest.fail("a row was computed"))
        with pytest.raises(CapacityExceeded, match=r"^retained rows estimated at 1447208 bytes > budget 1048576$"):
            build_log_table(urn11, 600)


# -- serialization -----------------------------------------------------------


@pytest.fixture(scope="module")
def row11(urn11):
    return build_history_table(urn11, 35, keep=())


def test_json_roundtrip_one_row(urn32):
    t = build_history_table(urn32, 35, keep=())
    doc = json.loads(json.dumps(t.to_json_dict()))  # through actual JSON text
    assert doc == {
        "schema": TABLE_SCHEMA,
        "spec": {"alpha": 3, "beta": 2, "a0": 0, "b0": 1},
        "n": 35,
        "row": [format(c, "x") for c in t.row(35)],
    }
    back = HistoryTable.from_json_dict(doc, spec=urn32, n_max=35)
    assert (back.spec, back.n_max, back.kept, back.row(35)) == (t.spec, 35, (35,), t.row(35))


def test_save_refuses_a_table_that_keeps_other_rows(tmp_path, urn11, dense11):
    for table in (dense11, build_history_table(urn11, 40, keep={5, 20})):
        for write in (table.to_json_dict, lambda: table.save(tmp_path / "table.json")):
            with pytest.raises(ValueError, match=r"keep=\(\)"):
                write()
    assert list(tmp_path.iterdir()) == []


def test_save_load(tmp_path, row11):
    p = tmp_path / "table.json"
    row11.save(p)
    back = HistoryTable.load(p, spec=row11.spec, n_max=35)
    assert back.row(35) == row11.row(35)


def test_save_holds_counts_past_the_int_str_limit(tmp_path, urn11):
    # row 300's counts run past 640 digits: a table file holds them in hex
    table = build_history_table(urn11, 300, keep=())
    assert max(table.row(300)).bit_length() * math.log10(2) > 640
    p = tmp_path / "table.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        table.save(p)
        back = HistoryTable.load(p, spec=urn11, n_max=300)
    finally:
        sys.set_int_max_str_digits(limit)
    assert back.row(300) == table.row(300)


def test_from_json_rejects_unknown_schema(urn11):
    with pytest.raises(ValueError):
        HistoryTable.from_json_dict({"schema": "nope"}, spec=urn11, n_max=9)


# -- log-space backend --------------------------------------------------------


def test_log_table_matches_exact_masses(urn11, dense11):
    import numpy as np

    lt = build_log_table(urn11, 30)
    n = 30
    exact = exact_distribution(dense11, n)
    lm = lt.log_masses(n)
    blacks = urn11.black_count(n, np.arange(n + 1))
    got = {}
    for b, l in zip(blacks, lm):
        if np.isfinite(l):
            got[int(b)] = math.exp(l)
    assert set(got) == set(exact.masses)
    for b, mass in exact.masses.items():
        assert got[b] == pytest.approx(float(mass), rel=1e-12)


def _logaddexp_table(spec, n_max):
    """Reference log-space DP, one np.logaddexp per cell: the rows of log
    probabilities for every n, each step's ball-count logs less log
    size(n)."""
    import numpy as np

    rows = [np.zeros(1)]
    for n in range(n_max):
        row, k, log_size = rows[-1], np.arange(n + 1), math.log(spec.size_after(n))
        with np.errstate(divide="ignore"):
            log_b = np.log(spec.black_count(n, k)) - log_size
            log_w = np.log(spec.white_count(n, k)) - log_size
        new = np.full(n + 2, -np.inf)
        new[:-1] = row + log_w
        new[1:] = np.logaddexp(new[1:], row + log_b)
        rows.append(new)
    return rows


_KERNEL_URNS = [UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1), UrnSpec(2, 5, 3, 4), UrnSpec(1, 3, 2, 0)]


@pytest.mark.parametrize("spec", _KERNEL_URNS, ids=str)
def test_log_table_matches_exact_dp_at_600(spec):
    import numpy as np

    n = 600
    exact = build_history_table(spec, n, keep=()).row(n)
    log_total = math.log(total_histories(spec, n))
    got = build_log_table(spec, n, keep=()).log_masses(n)
    assert np.array_equal(np.isneginf(got), [c == 0 for c in exact])
    want = np.array([math.log(c) - log_total if c else -np.inf for c in exact])
    live = np.isfinite(want)
    assert np.isfinite(got[live]).all()
    assert np.abs(got[live] - want[live]).max() <= 1e-10


@pytest.mark.parametrize("spec", [UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1)], ids=str)
def test_log_table_matches_logaddexp_reference_at_3000(spec):
    import numpy as np

    rows = _logaddexp_table(spec, 3000)
    got = build_log_table(spec, 3000, keep={1000})
    for n in (1000, 3000):
        want = rows[n]
        assert np.array_equal(np.isneginf(got.log_masses(n)), np.isneginf(want))
        live = np.isfinite(want)
        assert np.abs(got.log_masses(n)[live] - want[live]).max() <= 1e-11


@pytest.mark.parametrize(
    "spec",
    [
        UrnSpec(9, 7, 0, 1),  # sigma = 25: the widest spread of urn sizes
        UrnSpec(2, 5, 3, 4),
        UrnSpec(1, 1, 1, 0),  # the first draw is not forced
    ],
    ids=str,
)
def test_log_rows_are_probabilities(spec):
    import numpy as np

    def log_sum(row):
        m = row.max()
        return m + math.log(math.fsum(np.exp(row - m)))

    table = build_log_table(spec, 1500, keep={0, 1})
    rows = [table.log_masses(n) for n in table.kept]
    rows += [build_log_table(spec, n_max).log_masses(n_max) for n_max in (0, 1)]
    for row in rows:
        assert abs(log_sum(row)) <= 1e-13


@pytest.mark.parametrize("spec", _KERNEL_URNS + [UrnSpec(1, 1, 1, 0)], ids=str)
def test_log_table_keeps_rows(spec):
    import numpy as np

    rows = _logaddexp_table(spec, 40)
    dense = build_log_table(spec, 40)
    assert dense.kept == tuple(range(41))
    for n in range(41):
        got = dense.log_masses(n)
        assert got.shape == (n + 1,)
        assert np.array_equal(np.isneginf(got), np.isneginf(rows[n]))
        assert np.allclose(got, rows[n], rtol=0, atol=1e-12)
    sparse = build_log_table(spec, 40, keep={0, 1, 2, 17})
    assert sparse.kept == (0, 1, 2, 17, 40)
    for n in sparse.kept:
        assert np.array_equal(sparse.log_masses(n), dense.log_masses(n))
    for n_max in (0, 1, 2):
        short = build_log_table(spec, n_max)
        for n in range(n_max + 1):
            assert np.array_equal(short.log_masses(n), dense.log_masses(n))


def _per_cell_rows(spec, n_max):
    """Reference exact DP, one big-integer update per cell: every row."""
    rows, row = [(1,)], [1]
    for n in range(n_max):
        new = [0] * (n + 2)
        for k, c in enumerate(row):
            new[k] += c * spec.white_count(n, k)
            new[k + 1] += c * spec.black_count(n, k)
        row = new
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("spec", _KERNEL_URNS + [UrnSpec(1, 1, 1, 0)], ids=str)
def test_exact_dp_matches_per_cell_oracle_at_300(spec):
    import numpy as np

    want = _per_cell_rows(spec, 300)
    got = build_history_table(spec, 300)
    log = build_log_table(spec, 300)
    assert got.kept == tuple(range(301))
    for n in got.kept:
        row = got.row(n)
        assert row == want[n]
        assert all(type(c) is int for c in row)  # no int64 from a numpy scalar
        assert np.array_equal(np.isneginf(log.log_masses(n)), [c == 0 for c in row])
    sparse = build_history_table(spec, 300, keep={0, 1, 2, 150})
    assert sparse.kept == (0, 1, 2, 150, 300)
    assert all(sparse.row(n) == want[n] for n in sparse.kept)


def _log_step_rows(spec, n_max):
    """Reference log DP, the step as written before rows could be windows:
    row n+1 from all n+1 cells of row n, every row."""
    import numpy as np

    alpha = spec.alpha
    counts = np.arange(-alpha, spec.size_after(n_max) + 1, dtype=np.float64).clip(0)
    with np.errstate(divide="ignore"):
        j = np.log(counts)
    row = j[alpha + 1 : alpha + 2].copy()
    rows = [row]
    for n in range(n_max):
        w, b = alpha + spec.white_count(n, n + 1), alpha + spec.black_count(n, -1)
        whites = j[w : w + alpha * (n + 1) + 1 : alpha][::-1]
        blacks = j[b : b + alpha * (n + 1) + 1 : alpha]
        s, t = row + whites[:-1], row + blacks[1:]
        new = np.empty(n + 2)
        new[0], new[n + 1] = s[0], t[n]
        a, b, out = s[1:], t[:n], new[1 : n + 1]
        np.maximum(a, b, out=out)
        np.minimum(a, b, out=a)
        np.subtract(a, out, out=a)
        np.exp(a, out=a)
        np.log1p(a, out=a)
        np.add(out, a, out=out)
        new -= math.log(spec.size_after(n))
        row = new
        rows.append(row)
    return rows


@pytest.mark.parametrize("spec", _KERNEL_URNS + [UrnSpec(1, 1, 1, 0)], ids=str)
def test_log_table_matches_the_reference_step_bit_for_bit(spec):
    import numpy as np

    want = _log_step_rows(spec, 300)
    dense = build_log_table(spec, 300)
    sparse = build_log_table(spec, 300, keep={0, 1, 150})
    for table in (dense, sparse):
        for n in table.kept:
            assert np.array_equal(table.log_masses(n), want[n])


# -- tails from the dependency cone --------------------------------------------


def _tail_answer(table, n, threshold, side):
    try:
        return table.log_tail(n, threshold, side)
    except EmptyTail as exc:
        return str(exc)


def _tail_cases():
    """(spec, t, kept n) with tails of unequal sizes at the kept n; t just
    above or below mu, or at the last support point of row max(ns) on the
    right (the first on the left)."""
    a11, a32, a25, a13 = UrnSpec(1, 1, 0, 1), UrnSpec(3, 2, 0, 1), UrnSpec(2, 5, 3, 4), UrnSpec(1, 3, 2, 0)
    return [
        (a11, 1.8, (400, 1000, 2500)),
        (a11, 1.501, (300, 1200)),
        (a11, 1.3, (500, 2000)),
        (a11, "last", (700, 1500)),
        (a11, "first", (700, 1500)),
        (a32, 4.801, (600, 1800)),
        (a32, 5.3, (500, 1000, 2000)),
        (a32, 4.0, (500, 1000)),
        (a32, "first", (300, 900)),
        (a25, 3.5, (300, 800, 1200)),
        (a25, 2.5, (400, 1000)),
        (a25, "last", (500, 1000)),
        (a13, 1.251, (400, 1300)),
        (a13, 1.1, (200, 700, 900)),
        (a13, "last", (300, 800)),
        (a13, "first", (500, 800)),
    ]


@pytest.mark.parametrize("spec, t, ns", _tail_cases(), ids=str)
def test_tail_table_gives_the_full_tables_tail_cells(spec, t, ns):
    import numpy as np

    n_max = max(ns)
    full = build_log_table(spec, n_max, keep=ns)
    tails_differ = t not in ("last", "first")
    if not tails_differ:
        live = np.flatnonzero(np.isfinite(full.log_masses(n_max)))
        k, nudge = (live[-1], -0.5) if t == "last" else (live[0], 0.5)
        t = (spec.black_count(n_max, int(k)) + nudge) / n_max
    side = tail_side(limit_params(spec), t)
    cone = build_log_table(spec, n_max, keep=ns, tail=(t, side))
    assert cone.kept == full.kept
    tails = [_tail(spec, n, t * n, side) for n in ns]
    if tails_differ:
        assert len({tail.stop - tail.start for tail in tails}) == len(ns)
    for n, tail in zip(ns, tails):
        first = cone._first[n]
        cells = cone._rows[n][tail.start - first : tail.stop - first]
        assert np.array_equal(cells, full.log_masses(n)[tail])
        assert _tail_answer(cone, n, t * n, side) == _tail_answer(full, n, t * n, side)
    if side == "right":  # the cone leaves out the cells left of it
        assert len(cone._rows[n_max]) < n_max + 1


def test_tail_table_refuses_what_it_did_not_compute(urn11):
    cone = build_log_table(urn11, 1000, keep={400}, tail=(1.8, "right"))
    full = build_log_table(urn11, 1000, keep={400})
    assert cone._first[400] == 200  # K = 320 at n=400, 800 at n=1000
    for n in (400, 1000):
        for whole_row in (cone.log_masses, cone.masses, lambda n: cone.pgf(n, 1.0)):
            with pytest.raises(RowMissing, match=f"row n={n} holds only the cells k="):
                whole_row(n)
        for threshold, side in ((1.3 * n, "right"), (1.2 * n, "left")):
            with pytest.raises(RowMissing, match="reaches past its cells"):
                cone.log_tail(n, threshold, side)
        assert cone.log_tail(n, 1.9 * n, "right") == full.log_tail(n, 1.9 * n, "right")
    with pytest.raises(RowMissing):
        cone.log_tail(401, 1.8 * 401, "right")
    left = build_log_table(urn11, 1000, keep={400}, tail=(1.3, "left"))
    with pytest.raises(RowMissing, match="reaches past its cells"):
        left.log_tail(1000, 1.4 * 1000, "left")
    assert left.log_tail(1000, 1.2 * 1000, "left") == full.log_tail(1000, 1.2 * 1000, "left")


# -- float mass backend -------------------------------------------------------


@pytest.mark.parametrize("spec", _KERNEL_URNS + [UrnSpec(1, 1, 1, 0)], ids=str)
def test_mass_table_matches_per_cell_oracle_at_300(spec):
    want = _per_cell_rows(spec, 300)
    got = build_mass_table(spec, 300)
    assert got.kept == tuple(range(301))
    for n in got.kept:
        total = total_histories(spec, n)
        masses = got.masses(n)
        assert len(masses) == n + 1
        assert all(type(m) is float for m in masses)
        assert [m == 0 for m in masses] == [c == 0 for c in want[n]]
        assert max(abs(m / (c / total) - 1) for m, c in zip(masses, want[n]) if c) <= 1e-13
    sparse = build_mass_table(spec, 300, keep={0, 1, 2, 150})
    assert sparse.kept == (0, 1, 2, 150, 300)
    assert all(sparse.masses(n) == got.masses(n) for n in sparse.kept)


@pytest.mark.parametrize(
    "spec, n_max",
    [
        (UrnSpec(9, 7, 0, 1), MASS_DP_MAX_N),  # sigma = 25: the widest spread of urn sizes
        (UrnSpec(2, 5, 2, 3), 500),
        (UrnSpec(1, 1, 0, 1), 0),
        (UrnSpec(3, 2, 0, 1), 1),
    ],
    ids=str,
)
def test_mass_rows_are_finite_and_sum_to_one(spec, n_max):
    table = build_mass_table(spec, n_max, keep={0, n_max // 2})
    for n in table.kept:
        masses = table.masses(n)
        assert all(math.isfinite(m) and m >= 0 for m in masses)
        assert math.fsum(masses) == pytest.approx(1.0, rel=0, abs=1e-12)


def test_mass_table_checks_keep_and_rows(urn11):
    with pytest.raises(ValueError):
        build_mass_table(urn11, 10, keep={11})
    with pytest.raises(ValueError):
        build_mass_table(urn11, -1)
    table = build_mass_table(urn11, 10, keep=())
    assert table.kept == (10,)
    with pytest.raises(RowMissing):
        table.masses(9)


def test_exact_and_log_tails_agree(big11, log11_1600):
    # each tail below is one cell: k=399 on the right (k=400 is unreachable
    # from a white start) and k=0 on the left
    spec = big11.spec
    for threshold, side in ((spec.black_count(400, 399), "right"), (spec.black_count(400, 0), "left")):
        exact = big11.log_tail(400, threshold, side)
        assert log11_1600.log_tail(400, threshold, side) == pytest.approx(exact, rel=1e-12)
    for table in (big11, log11_1600):
        with pytest.raises(ValueError):
            table.log_tail(400, 0, "up")


def test_log_table_pgf_at_one(log11_1600):
    # pgf(1) is the total mass
    assert log11_1600.pgf(1600, 1.0) == pytest.approx(1.0, rel=1e-10)


def test_log_table_sparse_rows(log11_1600):
    assert 400 in log11_1600.kept
    assert 399 not in log11_1600.kept
    with pytest.raises(RowMissing):
        log11_1600.log_masses(399)


def test_save_is_atomic_and_leaves_no_temp_file(tmp_path, row11):
    p = tmp_path / "table.json"
    p.write_text("stale")
    row11.save(p)
    assert [f.name for f in tmp_path.iterdir()] == ["table.json"]
    assert HistoryTable.load(p, spec=row11.spec, n_max=35).row(35) == row11.row(35)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_save_honours_the_umask(tmp_path, row11, umask, mode):
    p = tmp_path / "table.json"
    old = os.umask(umask)
    try:
        row11.save(p)
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(p).st_mode) == mode


def test_failed_save_leaves_no_temp_file(tmp_path, row11, monkeypatch):
    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", fail)
    with pytest.raises(OSError, match="disk full"):
        row11.save(tmp_path / "table.json")
    assert list(tmp_path.iterdir()) == []


def _doc(table):
    return json.loads(json.dumps(table.to_json_dict()))


def test_from_json_checks_schema_n_and_row(urn11):
    t = build_history_table(urn11, 9, keep=())
    altered = _doc(t)
    altered["row"][2] = format(int(altered["row"][2], 16) + 1, "x")
    short = _doc(t)
    short["row"] = short["row"][:-1]
    long = _doc(t)
    long["row"].append("0")
    negative = _doc(t)  # the same sum, with a count below zero
    c0, c1 = (int(c, 16) for c in negative["row"][:2])
    negative["row"][:2] = [format(-1, "x"), format(c1 + c0 + 1, "x")]
    decimal = _doc(t)
    decimal["row"] = [str(int(c, 16)) for c in decimal["row"]]
    float_n, bool_n = _doc(t), _doc(build_history_table(urn11, 1, keep=()))
    float_n["n"], bool_n["n"] = 9.0, True
    old = _doc(t)  # urnlab.table/2, the multi-row form
    old.update(schema="urnlab.table/2", n_max=9, kept=[9], rows=[old.pop("row")])
    del old["n"]
    docs = (altered, short, long, negative, decimal, float_n, old, {"schema": TABLE_SCHEMA}, [1, 2])
    for doc, n in (*((doc, 9) for doc in docs), (bool_n, 1)):
        with pytest.raises(InvalidTable):
            HistoryTable.from_json_dict(doc, spec=urn11, n_max=n)
    assert HistoryTable.from_json_dict(_doc(t), spec=urn11, n_max=9).row(9) == t.row(9)


def test_from_json_refuses_a_huge_n_max_at_once(urn11):
    # the row's length is checked before anything is sized by n
    spec = {"alpha": 1, "beta": 1, "a0": 0, "b0": 1}
    doc = {"schema": TABLE_SCHEMA, "spec": spec, "n": 3 * 10**7, "row": ["1"]}
    start = time.perf_counter()
    with pytest.raises(InvalidTable, match=r"^row n=30000000 has 1 entries, expected 30000001$"):
        HistoryTable.from_json_dict(doc, spec=urn11, n_max=3 * 10**7)
    assert time.perf_counter() - start < 0.1


def test_from_json_checks_expectations(urn11, urn32):
    doc = _doc(build_history_table(urn11, 9, keep=()))
    HistoryTable.from_json_dict(doc, spec=urn11, n_max=9)
    for spec, n in ((urn32, 9), (urn11, 8)):
        with pytest.raises(InvalidTable):
            HistoryTable.from_json_dict(doc, spec=spec, n_max=n)


def test_load_rejects_text_that_is_not_json(tmp_path, urn11):
    p = tmp_path / "table.json"
    p.write_text('{"schema": "urnlab.tab')
    with pytest.raises(InvalidTable):
        HistoryTable.load(p, spec=urn11, n_max=9)
