"""Exact counting: the DP against the brute-force oracle, frozen small cases,
moment recurrences, and the serialized form."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnlab import (
    CapacityExceeded,
    HistoryTable,
    InvalidTable,
    OracleTooLarge,
    RowMissing,
    UrnSpec,
    brute_force_histories,
    build_history_table,
    build_log_table,
    exact_distribution,
    exact_moments,
    moment_ladder,
    total_histories,
)
from urnlab.histories import BRUTE_FORCE_LIMIT, TABLE_SCHEMA, total_histories_digits


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
    assert table.row(n) == brute_force_histories(spec, n)


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
    assert dist.support() == (3, 4, 5)
    assert dist.mass_sum() == 1


def test_distribution_numeric_mode(dense11):
    dist = exact_distribution(dense11, 3, numeric=True)
    assert dist.masses[3] == pytest.approx(15 / 28)
    assert isinstance(dist.masses[3], float)
    as_float = exact_distribution(dense11, 3).as_float()
    assert as_float.masses == dist.masses


@pytest.mark.parametrize("n", range(0, 36, 5))
def test_masses_sum_to_one_exactly(dense11, dense32, n):
    for table in (dense11, dense32):
        assert exact_distribution(table, n).mass_sum() == 1


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
    assert not t.is_dense
    assert t.has_row(30) and not t.has_row(29)
    with pytest.raises(RowMissing):
        t.row(29)


def test_dense_flag(dense11):
    assert dense11.is_dense
    assert dense11.kept == tuple(range(36))


def test_keep_out_of_range_rejected(urn11):
    with pytest.raises(ValueError):
        build_history_table(urn11, 10, keep={11})


def test_capacity_budget_enforced(urn11):
    with pytest.raises(CapacityExceeded):
        build_history_table(urn11, 300, memory_budget=1024)
    # the same build succeeds when only one small row is retained
    t = build_history_table(urn11, 300, keep={0}, memory_budget=10**7)
    assert t.has_row(300)


def test_default_budget_blocks_huge_dense_builds(urn11):
    with pytest.raises(CapacityExceeded):
        build_history_table(urn11, 100_000)


# -- serialization -----------------------------------------------------------


def test_json_roundtrip_dense(dense32):
    doc = dense32.to_json_dict()
    assert doc["schema"] == TABLE_SCHEMA
    assert "kept" not in doc
    back = HistoryTable.from_json_dict(doc)
    assert back.spec == dense32.spec
    assert back.n_max == dense32.n_max
    assert all(back.row(n) == dense32.row(n) for n in range(back.n_max + 1))


def test_json_roundtrip_sparse(urn11):
    t = build_history_table(urn11, 40, keep={5, 20})
    doc = json.loads(json.dumps(t.to_json_dict()))  # through actual JSON text
    assert doc["kept"] == [5, 20, 40]
    assert all(isinstance(c, str) for row in doc["rows"] for c in row)
    back = HistoryTable.from_json_dict(doc)
    assert back.kept == (5, 20, 40)
    assert back.row(20) == t.row(20)


def test_save_load(tmp_path, dense11):
    p = tmp_path / "table.json"
    dense11.save(p)
    back = HistoryTable.load(p)
    assert back.row(35) == dense11.row(35)


def test_from_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        HistoryTable.from_json_dict({"schema": "nope"})


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
    assert set(got) == set(exact.support())
    for b, mass in exact.masses.items():
        assert got[b] == pytest.approx(float(mass), rel=1e-12)


def test_log_total_matches_exact(urn32):
    lt = build_log_table(urn32, 120, keep={120})
    assert lt.log_total(120) == pytest.approx(
        math.log(total_histories(urn32, 120)), rel=1e-13
    )


def _logaddexp_table(spec, n_max):
    """Reference log-space DP, one np.logaddexp per cell: rows and log
    totals for every n."""
    import numpy as np

    rows, totals, row, total = [np.zeros(1)], [0.0], np.zeros(1), 0.0
    for n in range(n_max):
        k = np.arange(n + 1)
        with np.errstate(divide="ignore"):
            log_b, log_w = np.log(spec.black_count(n, k)), np.log(spec.white_count(n, k))
        new = np.full(n + 2, -np.inf)
        new[:-1] = row + log_w
        new[1:] = np.logaddexp(new[1:], row + log_b)
        row, total = new, total + math.log(spec.size_after(n))
        rows.append(row)
        totals.append(total)
    return rows, totals


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

    rows, _ = _logaddexp_table(spec, 3000)
    got = build_log_table(spec, 3000, keep={1000})
    for n in (1000, 3000):
        want = rows[n]
        assert np.array_equal(np.isneginf(got.log_counts(n)), np.isneginf(want))
        live = np.isfinite(want)
        assert np.abs(got.log_counts(n)[live] - want[live]).max() <= 1e-11


@pytest.mark.parametrize("spec", _KERNEL_URNS + [UrnSpec(1, 1, 1, 0)], ids=str)
def test_log_table_keeps_rows_and_totals(spec):
    import numpy as np

    rows, totals = _logaddexp_table(spec, 40)
    dense = build_log_table(spec, 40)
    assert dense.kept == tuple(range(41))
    for n in range(41):
        assert dense.log_total(n) == totals[n]
        got = dense.log_counts(n)
        assert got.shape == (n + 1,)
        assert np.array_equal(np.isneginf(got), np.isneginf(rows[n]))
        assert np.allclose(got, rows[n], rtol=0, atol=1e-12)
    sparse = build_log_table(spec, 40, keep={0, 1, 2, 17})
    assert sparse.kept == (0, 1, 2, 17, 40)
    for n in sparse.kept:
        assert np.array_equal(sparse.log_counts(n), dense.log_counts(n))
        assert sparse.log_total(n) == totals[n]
    for n_max in (0, 1, 2):
        short = build_log_table(spec, n_max)
        for n in range(n_max + 1):
            assert np.array_equal(short.log_counts(n), dense.log_counts(n))


def test_log_table_pgf_at_one(log11_1600):
    # pgf(1) is the total mass
    assert log11_1600.pgf(1600, 1.0) == pytest.approx(1.0, rel=1e-10)


def test_log_table_sparse_rows(log11_1600):
    assert log11_1600.has_row(400)
    assert not log11_1600.has_row(399)
    with pytest.raises(RowMissing):
        log11_1600.log_counts(399)


def test_save_is_atomic_and_leaves_no_temp_file(tmp_path, dense11):
    p = tmp_path / "table.json"
    p.write_text("stale")
    dense11.save(p)
    assert [f.name for f in tmp_path.iterdir()] == ["table.json"]
    assert HistoryTable.load(p).row(35) == dense11.row(35)


def _doc(table):
    return json.loads(json.dumps(table.to_json_dict()))


def test_from_json_checks_counts_shape_and_kept(urn11):
    t = build_history_table(urn11, 9, keep={4})
    altered = _doc(t)
    altered["rows"][0][2] = str(int(altered["rows"][0][2]) + 1)
    short = _doc(t)
    short["rows"][1] = short["rows"][1][:-1]
    unsorted = _doc(t)
    unsorted["kept"] = [9, 4]
    extra = _doc(t)
    extra["rows"].append(["1"])
    for doc in (altered, short, unsorted, extra, {"schema": TABLE_SCHEMA}, [1, 2]):
        with pytest.raises(InvalidTable):
            HistoryTable.from_json_dict(doc)
    assert HistoryTable.from_json_dict(_doc(t)).row(4) == t.row(4)


def test_from_json_checks_expectations(urn11, urn32):
    doc = _doc(build_history_table(urn11, 9, keep={4}))
    HistoryTable.from_json_dict(doc, spec=urn11, n_max=9, need={4, 9})
    for expect in ({"spec": urn32}, {"n_max": 8}, {"need": {3}}):
        with pytest.raises(InvalidTable):
            HistoryTable.from_json_dict(doc, **expect)


def test_load_rejects_text_that_is_not_json(tmp_path):
    p = tmp_path / "table.json"
    p.write_text('{"schema": "urnlab.tab')
    with pytest.raises(InvalidTable):
        HistoryTable.load(p)
