"""Command-line interface: golden outputs, formats, caching, exit codes.

All invocations go through run(argv) in-process; stdout is captured by
pytest, so these tests double as schema checks for the JSON reports.
"""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from urnlab import (
    HistoryTable,
    Integrand,
    UrnSpec,
    build_history_table,
    closed_form_x1_coefficient,
    coefficient_auto,
    gaussian_cdf_error,
    limit_params,
    local_limit_error,
    series_coefficient,
    series_from_table,
)
from urnlab import cli
from urnlab.cli import SCHEMA, run


def invoke(capsys, *argv):
    rc = run(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def invoke_json(capsys, *argv):
    rc, out, err = invoke(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


URN11 = ("--alpha", "1", "--beta", "1")


def test_dist_golden_json(capsys):
    report = invoke_json(capsys, "dist", *URN11, "--n", "3")
    assert report["schema"] == SCHEMA
    assert report["command"] == "dist"
    assert report["spec"] == {"alpha": 1, "beta": 1, "a0": 0, "b0": 1}
    # masses over the common history denominator, unreduced
    assert report["masses"] == {"3": "15/28", "4": "10/28", "5": "3/28"}
    assert report["mean"] == "25/7"
    assert report["variance"] == "45/98"


def test_dist_csv(capsys):
    rc, out, _ = invoke(capsys, "dist", *URN11, "--n", "3", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "black,mass,mass_exact"
    assert lines[1] == "3,0.5357142857142857,15/28"
    assert len(lines) == 4


def test_moments_ladder(capsys):
    report = invoke_json(capsys, "moments", *URN11, "--n", "3", "0", "5")
    ladder = report["ladder"]
    assert [e["n"] for e in ladder] == [0, 3, 5]  # sorted, deduplicated
    assert ladder[0]["exact_mean"] == "0"
    assert ladder[1]["exact_mean"] == "25/7"
    assert isinstance(ladder[1]["predicted_mean"], float)


def test_gf_check_exact_zero(capsys):
    report = invoke_json(capsys, "gf-check", *URN11, "--x", "1/2", "--order", "12")
    assert report["exact_zero"] is True
    assert report["max_abs_residual"] == "0"
    assert report["residuals"] == ["0"] * 13


def test_gf_check_csv(capsys):
    rc, out, _ = invoke(
        capsys, "gf-check", *URN11, "--x", "2", "--order", "6", "--format", "csv"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "order,residual"
    assert all(line.endswith(",0") for line in lines[1:])


def test_saddle_report(capsys):
    report = invoke_json(capsys, "saddle", *URN11, "--x", "2", "--n", "8")
    assert report["contour"] == "sector"
    assert report["relative_error"] < 1e-10
    assert report["exact"] == "14604634/9"
    assert report["saddle_main"] == {"re": 1.0, "im": 0.0, "multiplicity": 1}
    assert report["saddle_secondary"] == [{"re": 0.5, "im": 0.0}]
    assert set(report["segments"]) == {"ray_upper", "arc", "ray_lower"}
    for key in ("arc_rel", "tail_rel_t_cut", "tail_rel_s_cut", "radius", "theta"):
        assert key in report["diagnostics"]


def test_saddle_explicit_circle(capsys):
    report = invoke_json(
        capsys, "saddle", *URN11, "--x", "2", "--n", "8", "--contour", "circle"
    )
    assert report["contour"] == "circle"
    assert report["relative_error"] < 1e-10


def test_saddle_invalid_sector_fails_cleanly(capsys):
    rc, out, err = invoke(
        capsys, "saddle", "--alpha", "3", "--beta", "2", "--x", "2", "--n", "8",
        "--contour", "sector",
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("urnlab: error:")


def test_limits_csv_ladder(capsys):
    rc, out, _ = invoke(
        capsys, "limits", *URN11, "--n", "25", "9", "--metric", "cdf",
        "--format", "csv",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,metric,value,value_sqrt_n"
    assert len(lines) == 3
    assert lines[1].startswith("9,cdf,")


def test_limits_both_metrics(capsys):
    report = invoke_json(capsys, "limits", *URN11, "--n", "16")
    metrics = {e["metric"] for e in report["ladder"]}
    assert metrics == {"cdf", "local"}
    assert report["mu"] == "3/2"
    assert report["nu2"] == "3/4"


def test_deviations_known_point(capsys):
    report = invoke_json(capsys, "deviations", *URN11, "--t", "1.8")
    assert report["W"] == pytest.approx(0.06, abs=1e-10)
    assert report["closed_form"] == pytest.approx(0.06, abs=1e-12)
    assert report["x0"] == 0.5 and report["x1"] == 1.5
    assert report["t0"] == pytest.approx(0.9801396145800411)
    assert report["t1"] == pytest.approx(1.8040988310811232)
    assert report["exponents"] == []


def test_deviations_exponent_ladder(capsys):
    report = invoke_json(
        capsys, "deviations", *URN11, "--t", "1.8", "--exponent-n", "50", "100"
    )
    exps = report["exponents"]
    assert [e["n"] for e in exps] == [50, 100]
    assert all(e["exponent"] > 0 for e in exps)
    assert exps[1]["exponent"] < exps[0]["exponent"]


def test_deviations_out_of_interval_is_an_error(capsys):
    rc, _, err = invoke(capsys, "deviations", *URN11, "--t", "3.0")
    assert rc == 1
    assert "error" in err


def test_simulate_reproducible(capsys):
    argv = ("simulate", *URN11, "--n", "50", "--trials", "2000", "--seed", "42")
    first = invoke_json(capsys, *argv)
    second = invoke_json(capsys, *argv)
    assert first == second
    assert first["command"] == "simulate"
    assert sum(first["histogram"].values()) == 2000
    assert first["stream"] == "binomial-counts/1"


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", *URN11, "--n", "5", "--trials", "10"])
    assert exc.value.code == 2


def test_simulate_csv(capsys):
    rc, out, _ = invoke(
        capsys, "simulate", *URN11, "--n", "5", "--trials", "100", "--seed", "1",
        "--format", "csv",
    )
    assert rc == 0
    assert out.splitlines()[0] == "black,frequency"


@pytest.mark.parametrize(
    "argv, message",
    [
        # the span overflows: the first point would read NaN, the rest Infinity
        (("--alpha", "1", "--beta", "1", "--re-min=-1e308", "--re-max", "1e308", "--im-min=0", "--im-max=0",
          "--grid-points", "3"), "--re-min -1e+308 to --re-max 1e+308 is wider than float64 can hold"),
        # |1 - w|^(alpha+beta) in the pole test's scale overflows
        (("--alpha", "1", "--beta", "1", "--re-min", "1e200", "--re-max", "1e200", "--im-min", "0", "--im-max", "0",
          "--grid-points", "2"), "the terms of h_x at w=(1e+200+0j) overflow float64"),
        # the kernel overflows in complex arithmetic, where |h| is ~1e-480
        (("--alpha", "3", "--beta", "2", "--re-min", "1e60", "--re-max", "1e60", "--im-min", "0", "--im-max", "0",
          "--grid-points", "2"), "the terms of h_x at w=(1e+60+0j) overflow float64"),
    ],
)
def test_surface_past_float64_is_one_error_line(capsys, argv, message):
    assert invoke(capsys, "surface", "--x", "2", *argv) == (1, "", f"urnlab: error: {message}\n")


def test_surface_grid_marks_poles(capsys):
    report = invoke_json(
        capsys, "surface", *URN11, "--x", "1",
        "--re-min", "0", "--re-max", "1", "--im-min", "0", "--im-max", "1",
        "--grid-points", "2",
    )
    samples = {(s["re_w"], s["im_w"]): s for s in report["samples"]}
    assert len(samples) == 4
    assert samples[(0.0, 0.0)]["abs_h"] is None  # w = 0 is a pole
    assert samples[(1.0, 0.0)]["abs_h"] == pytest.approx(1.0)
    # h_x is the same for every start, so the surface answers for any
    other = invoke_json(
        capsys, "surface", *URN11, "--a0", "2", "--b0", "3", "--x", "1",
        "--re-min", "0", "--re-max", "1", "--im-min", "0", "--im-max", "1",
        "--grid-points", "2",
    )
    assert other["samples"] == report["samples"]


URN32 = ("--alpha", "3", "--beta", "2")


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", *URN11, "--n", "0", "3", "7"),
        ("moments", *URN32, "--a0", "2", "--b0", "3", "--n", "5", "40"),
        ("limits", *URN11, "--n", "4", "9"),
        ("limits", "--alpha", "2", "--beta", "5", "--a0", "2", "--b0", "3", "--n", "30", "--metric", "local"),
        ("deviations", *URN11, "--t", "1.6"),
        ("deviations", *URN32, "--t", "2.0"),
        ("deviations", *URN11, "--t", "1.6", "--exponent-n", "20", "40"),
        ("deviations", *URN32, "--t", "5.0", "--exponent-n", "30", "60"),
        ("surface", *URN11, "--x", "2", "--grid-points", "3"),
        ("surface", "--alpha", "2", "--beta", "4", "--x", "2", "--grid-points", "3",
         "--re-min", "1", "--re-max", "1", "--im-min", "0", "--im-max", "0"),
    ],
    ids=" ".join,
)
def test_csv_rows_are_the_json_entries(capsys, argv):
    report = invoke_json(capsys, *argv)
    rc, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert rc == 0
    header, *rows = csv.reader(io.StringIO(out))
    if argv[0] != "deviations":
        entries = report["samples" if argv[0] == "surface" else "ladder"]
    elif "--exponent-n" in argv:  # the CSV repeats the report's W on each row
        entries = [{**e, "W": report["W"]} for e in report["exponents"]]
    else:
        entries = [{key: report[key] for key in ("t", "W", "closed_form")}]
    assert len(rows) == len(entries) > 0
    for entry, row in zip(entries, rows):
        assert header == list(entry)
        assert row == ["" if v is None else str(v) for v in entry.values()]


def test_cache_dir_roundtrip(tmp_path, capsys):
    argv = ("dist", *URN11, "--n", "6", "--cache-dir", str(tmp_path))
    first = invoke_json(capsys, *argv)
    cached = tmp_path / "table_a1_b1_s0-1_n6.json"
    assert cached.exists()
    second = invoke_json(capsys, *argv)  # served from the cache file
    assert first == second


def _altered_count(path):
    doc = json.loads(path.read_text())
    doc["row"][1] = format(int(doc["row"][1], 16) + 1, "x")
    path.write_text(json.dumps(doc))


def _truncated(path):
    path.write_text(path.read_text()[:40])


def _other_spec(path):
    build_history_table(UrnSpec(3, 2, 0, 1), 6, keep=()).save(path)


def _table2_file(path):
    # a valid file of the multi-row format urnlab.table/2
    row = [format(c, "x") for c in build_history_table(UrnSpec(1, 1, 0, 1), 6, keep=()).row(6)]
    spec = {"alpha": 1, "beta": 1, "a0": 0, "b0": 1}
    path.write_text(json.dumps({"schema": "urnlab.table/2", "spec": spec, "n_max": 6, "kept": [6], "rows": [row]}))


@pytest.mark.parametrize("spoil", [_altered_count, _truncated, _other_spec, _table2_file])
def test_cache_rebuilds_invalid_files(tmp_path, capsys, spoil):
    argv = ("dist", *URN11, "--n", "6")
    fresh = invoke_json(capsys, *argv)
    cached = tmp_path / "table_a1_b1_s0-1_n6.json"
    invoke_json(capsys, *argv, "--cache-dir", str(tmp_path))
    spoil(cached)
    spoiled = cached.read_bytes()
    assert invoke_json(capsys, *argv, "--cache-dir", str(tmp_path)) == fresh
    assert cached.read_bytes() != spoiled
    HistoryTable.load(cached, spec=UrnSpec(1, 1, 0, 1), n_max=6)
    assert [f.name for f in tmp_path.iterdir()] == [cached.name]


def _refuse(*args, **kwargs):
    raise AssertionError("this command must not touch a history table or a table file")


@pytest.mark.parametrize("urn, x", [(URN11, "1/2"), (("--alpha", "3", "--beta", "2"), "2")])
def test_gf_check_ignores_the_cache(tmp_path, capsys, monkeypatch, urn, x):
    # a dense table loads slower than the DP builds it: gf-check never caches
    argv = ("gf-check", *urn, "--x", x, "--order", "60")
    fresh = invoke(capsys, *argv)
    monkeypatch.setattr(HistoryTable, "load", _refuse)
    monkeypatch.setattr(HistoryTable, "save", _refuse)
    assert invoke(capsys, *argv, "--cache-dir", str(tmp_path)) == fresh
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["file", "directory"])
def test_cache_that_cannot_be_used_is_one_error_line(tmp_path, capsys, where):
    # a regular file where the cache directory should be, or a directory
    # where the table file should be
    if where == "file":
        cache_dir = culprit = tmp_path / "F"
        cache_dir.write_text("")
    else:
        cache_dir = tmp_path
        culprit = tmp_path / "table_a1_b1_s0-1_n3.json"
        culprit.mkdir()
    rc, out, err = invoke(capsys, "dist", *URN11, "--n", "3", "--cache-dir", str(cache_dir))
    assert (rc, out) == (1, "")
    assert err.startswith("urnlab: error:") and err.count("\n") == 1 and err.endswith("\n")
    assert str(culprit) in err


@pytest.mark.parametrize("x", ["2", "1", "1/3"])
def test_saddle_builds_loads_and_saves_no_table(tmp_path, capsys, monkeypatch, x):
    monkeypatch.setattr(cli, "build_history_table", _refuse)
    monkeypatch.setattr(HistoryTable, "load", _refuse)
    monkeypatch.setattr(HistoryTable, "save", _refuse)
    argv = ("saddle", "--alpha", "3", "--beta", "2", "--x", x, "--n", "20")
    report = invoke_json(capsys, *argv, "--cache-dir", str(tmp_path))
    assert report["relative_error"] < 1e-9
    assert list(tmp_path.iterdir()) == []


def test_limits_agrees_with_exact_tables_to_rounding(capsys, big11, mid32):
    # below the cut the mass DP serves limits: a few ulps off the exact table
    for table in (big11, mid32):
        spec = table.spec
        params = limit_params(spec)
        ns = [n for n in table.kept if n >= 25]
        argv = ("limits", "--alpha", str(spec.alpha), "--beta", str(spec.beta))
        report = invoke_json(capsys, *argv, "--n", *map(str, ns))
        assert len(report["ladder"]) == 2 * len(ns)
        for e in report["ladder"]:
            fn = gaussian_cdf_error if e["metric"] == "cdf" else local_limit_error
            assert e["value"] == pytest.approx(fn(table, params, e["n"]), rel=1e-13, abs=0)


def _refuse_engine(*args, **kwargs):
    raise AssertionError("limits must not run this DP at this n")


@pytest.mark.parametrize("alpha, beta", [(1, 1), (3, 2)])
def test_limits_switches_dp_past_the_cut(capsys, monkeypatch, alpha, beta):
    argv = ("limits", "--alpha", str(alpha), "--beta", str(beta), "--n", "100")
    with monkeypatch.context() as m:
        m.setattr(cli, "build_log_table", _refuse_engine)
        below = invoke_json(capsys, *argv, str(cli.MASS_DP_MAX_N))["ladder"]
    with monkeypatch.context() as m:
        m.setattr(cli, "build_mass_table", _refuse_engine)
        above = invoke_json(capsys, *argv, str(cli.MASS_DP_MAX_N + 1))["ladder"]
    # both sides report n = 100 from their own DP
    shared = [(b, a) for b, a in zip(below, above) if b["n"] == a["n"] == 100]
    assert [b["metric"] for b, _ in shared] == ["cdf", "local"]
    for b, a in shared:
        assert a["value"] == pytest.approx(b["value"], rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "argv", [("limits", "--n", "0", "1000"), ("deviations", "--t", "1.8", "--exponent-n", "0", "2000")]
)
def test_limit_metrics_refuse_n0_before_the_dp(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "build_mass_table", _refuse_engine)
    monkeypatch.setattr(cli, "build_log_table", _refuse_engine)
    rc, out, err = invoke(capsys, argv[0], *URN11, *argv[1:])
    assert (rc, out, err) == (1, "", "urnlab: error: n must be >= 1 for a limit-law metric; got n=0\n")


def test_limits_past_the_cut_is_the_log_dp(capsys, log11_1600):
    params = limit_params(log11_1600.spec)
    report = invoke_json(capsys, "limits", *URN11, "--n", "1600")
    values = {e["metric"]: e["value"] for e in report["ladder"]}
    assert values == {
        "cdf": gaussian_cdf_error(log11_1600, params, 1600),
        "local": local_limit_error(log11_1600, params, 1600),
    }


def test_limits_log_dp_agrees_with_exact_tables(capsys, monkeypatch, big11, mid32):
    # every row past the cut: limits runs the log DP
    monkeypatch.setattr(cli, "MASS_DP_MAX_N", 0)
    monkeypatch.setattr(cli, "build_mass_table", _refuse_engine)
    for table in (big11, mid32):
        spec = table.spec
        params = limit_params(spec)
        ns = [n for n in table.kept if n >= 25]
        argv = ("limits", "--alpha", str(spec.alpha), "--beta", str(spec.beta))
        report = invoke_json(capsys, *argv, "--n", *map(str, ns))
        assert len(report["ladder"]) == 2 * len(ns)
        for e in report["ladder"]:
            fn = gaussian_cdf_error if e["metric"] == "cdf" else local_limit_error
            assert e["value"] == pytest.approx(fn(table, params, e["n"]), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "urn, x, n, kind",
    [
        (URN11, "1/2", 200, "sector"),  # the sector answers
        (URN11, "2", 200, "circle"),  # the sector is refused, the circle answers
        (("--alpha", "3", "--beta", "2"), "2", 30, "circle"),  # only the circle is tried
    ],
)
def test_saddle_walks_the_chain_as_coefficient_auto_does(capsys, urn, x, n, kind):
    report = invoke_json(capsys, "saddle", *urn, "--x", x, "--n", str(n))
    res = coefficient_auto(Integrand(UrnSpec(int(urn[1]), int(urn[3]), 0, 1), Fraction(x)), n)
    assert report["contour"] == res.kind == kind
    assert report["coefficient"] == {"re": res.value.real, "im": res.value.imag}


def test_saddle_exact_is_the_series_coefficient(capsys, dense32):
    for x, n in (("2", 12), ("1/3", 20), ("1", 35)):
        report = invoke_json(capsys, "saddle", "--alpha", "3", "--beta", "2", "--x", x, "--n", str(n))
        assert Fraction(report["exact"]) == series_from_table(dense32, Fraction(x), n).coeffs[n]


@pytest.mark.parametrize(
    "argv, digits",
    [
        (("moments", *URN11, "--n", "5000", "10000"), "the exact variance at n=10000 has 7811 decimal digits"),
        (("dist", *URN11, "--n", "1500"), "the history total at n=1500 has 4828 decimal digits"),
    ],
)
def test_reports_beyond_int_str_limit_are_refused(capsys, argv, digits):
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith(f"urnlab: error: {digits}")
    assert f"int-to-str limit of {sys.get_int_max_str_digits()}" in err


def test_saddle_exact_just_inside_int_str_limit_is_reported(capsys):
    report = invoke_json(capsys, "saddle", *URN11, "--x", "1/2", "--n", "3500")
    assert len(report["exact"].partition("/")[0]) == 4266
    assert report["relative_error"] < 1e-9


# Linux carries a process's peak RSS into the ru_maxrss of a child it forks
# (and through exec), so the measured command is started from a small probe
# process rather than from the test runner, whose tables run to 100+ MB.
RSS_PROBE = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def test_moments_n1000_needs_no_table():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "urnlab.cli", "moments", *URN11, "--n", "1000"]
    proc = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    status, maxrss_kb = map(int, proc.stderr.split())
    assert status == 0
    assert json.loads(proc.stdout)["ladder"][0]["n"] == 1000
    assert maxrss_kb < 100 * 1024  # ru_maxrss is in kilobytes on Linux


def test_invalid_urn_exits_one(capsys):
    rc, out, err = invoke(capsys, "dist", "--alpha", "0", "--beta", "1", "--n", "3")
    assert rc == 1
    assert out == ""
    assert err.startswith("urnlab: error:")


def test_capacity_errors_exit_one(capsys):
    rc, _, err = invoke(capsys, "dist", *URN11, "--n", "100000")
    assert rc == 1
    assert "error" in err


def _strict_json(out: str) -> dict:
    def refuse(constant):
        raise AssertionError(f"{constant} in the report, which is not JSON")

    return json.loads(out, parse_constant=refuse)


def test_saddle_past_float64_prints_the_value_as_a_decimal_string(capsys):
    # c_651 = 10^308.3 is the first x=1 coefficient past float64: its parts
    # are 17-digit decimal strings, as exact is a string
    rc, out, err = invoke(capsys, "saddle", *URN11, "--x", "1", "--n", "651")
    assert (rc, err) == (0, "")
    report = _strict_json(out)
    exact = closed_form_x1_coefficient(UrnSpec(1, 1, 0, 1), 651)
    assert Fraction(report["exact"]) == exact
    coefficient = report["coefficient"]
    assert coefficient["im"] == "0" and coefficient["re"].endswith("E+308")
    assert len(coefficient["re"].split("E")[0].replace(".", "")) == 17
    assert abs(Fraction(coefficient["re"]) - exact) <= Fraction(1, 10**9) * exact
    assert 0 <= report["relative_error"] <= 1e-9
    segments = report["segments"]
    assert set(segments) == {"ray_upper", "arc", "ray_lower"}
    assert all(isinstance(part, str) for seg in segments.values() for part in seg.values())
    total = sum(Fraction(seg["re"]) for seg in segments.values())
    assert abs(total - exact) <= Fraction(1, 10**9) * exact


@pytest.mark.parametrize(
    "urn, x, n, sign, exponent",
    [
        (("--alpha", "4", "--beta", "1"), "1/3", 300, "", "E-365"),  # c_300 = 10^-364.8, below the normal range
        (URN11, "-2", 375, "-", "E+308"),  # c_375 = -10^308.4
    ],
)
def test_saddle_past_float64_keeps_sign_and_underflow(capsys, urn, x, n, sign, exponent):
    report = _strict_json(invoke(capsys, "saddle", *urn, f"--x={x}", "--n", str(n))[1])
    re = report["coefficient"]["re"]
    assert re.startswith(sign) and re[len(sign)].isdigit() and re.endswith(exponent)
    exact = Fraction(report["exact"])
    assert abs(Fraction(re) - exact) <= Fraction(1, 10**9) * abs(exact)
    assert report["relative_error"] <= 1e-9


def test_saddle_csv_past_float64_prints_decimal_strings(capsys):
    rc, out, _ = invoke(capsys, "saddle", *URN11, "--x", "1", "--n", "700", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rc == 0 and rows[0] == ["segment", "re", "im", "abs"]
    assert [row[0] for row in rows[1:]] == ["ray_upper", "arc", "ray_lower"]
    exact = closed_form_x1_coefficient(UrnSpec(1, 1, 0, 1), 700)
    assert abs(sum(Fraction(row[1]) for row in rows[1:]) - exact) <= Fraction(1, 10**9) * exact
    upper, lower = rows[1], rows[3]
    assert upper[2] == "-" + lower[2] and upper[3] == lower[3]


@pytest.mark.parametrize("alpha, x", [("1", "-3"), ("2", "-4"), ("3", "-5")])
def test_saddle_refuses_a_zero_coefficient_before_any_contour(capsys, monkeypatch, alpha, x):
    # c_2 = 0 exactly for A(1, alpha) at x = -(alpha + 2): no relative
    # tolerance can be met on it, so no contour runs
    monkeypatch.setattr(cli, "contour_coefficient", lambda *args: pytest.fail("a contour ran"))
    rc, out, err = invoke(capsys, "saddle", "--alpha", "1", "--beta", alpha, f"--x={x}", "--n", "2")
    assert (rc, out) == (1, "")
    assert err == f"urnlab: error: c_2 = 0 exactly at x={x}: a contour cannot meet a relative tolerance on it\n"


def test_saddle_value_near_float64_max_is_reported(capsys):
    # c_646 = 10^305.9 fits float64; it was once refused as an overflow
    report = invoke_json(capsys, "saddle", *URN11, "--x", "1", "--n", "646")
    exact = closed_form_x1_coefficient(UrnSpec(1, 1, 0, 1), 646)
    assert Fraction(report["exact"]) == exact
    assert abs(Fraction(report["coefficient"]["re"]) - exact) <= Fraction(1, 10**9) * exact
    assert report["relative_error"] <= 1e-9


# x^alpha = sigma/alpha: h_x has a pole of order alpha+beta at w = 1, the sector's apex
APEX_CASES = [("2", "4", "2"), ("2", "4", "-2"), ("1", "2", "4")]


@pytest.mark.parametrize("alpha, beta, x", APEX_CASES)
def test_saddle_at_the_sector_apex_pole_answers_through_the_circle(capsys, alpha, beta, x):
    argv = ("saddle", "--alpha", alpha, "--beta", beta, "--x", x, "--n", "25")
    report = invoke_json(capsys, *argv)
    exact = Fraction(report["exact"])
    assert report["contour"] == "circle"
    assert abs(Fraction(report["coefficient"]["re"]) - exact) <= Fraction(1, 10**9) * abs(exact)


@pytest.mark.parametrize("alpha, beta, x", APEX_CASES)
def test_explicit_sector_at_its_apex_pole_is_one_error_line(capsys, alpha, beta, x):
    argv = ("saddle", "--alpha", alpha, "--beta", beta, "--x", x, "--n", "25", "--contour", "sector")
    rc, out, err = invoke(capsys, *argv)
    assert (rc, out) == (1, "")
    order = int(alpha) + int(beta)
    assert err == (
        f"urnlab: error: sector contour invalid: h_x has a pole of order {order} at w = 1, "
        "where the rays start (1 + S = 0)\n"
    )


def test_saddle_refuses_starts_other_than_single_white(capsys):
    rc, out, err = invoke(
        capsys, "saddle", *URN11, "--a0", "2", "--b0", "3", "--x", "2", "--n", "30"
    )
    assert rc == 1
    assert out == ""
    assert err == (
        "urnlab: error: the contour formula holds for (a0, b0) = (0, 1); got (2, 3)\n"
    )


@pytest.mark.parametrize("alpha, beta", [(1, 1), (3, 2)])
def test_saddle_exact_at_x1_equals_the_table_value(capsys, alpha, beta):
    spec = UrnSpec(alpha, beta, 0, 1)
    for n in (1, 20, 200):
        argv = ("saddle", "--alpha", str(alpha), "--beta", str(beta), "--x", "1", "--n", str(n))
        report = invoke_json(capsys, *argv)
        table_value = series_coefficient(build_history_table(spec, n, keep=()), 1, n)
        assert report["exact"] == str(table_value)


MODULES_PROBE = """
import json, sys
import urnlab
from urnlab.cli import run
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(run(argv))
    except SystemExit as exc:  # --help
        codes.append(exc.code)
modules = ("numpy", "mpmath", "dataclasses", "inspect")
print(json.dumps({"codes": codes, **{m: m in sys.modules for m in modules}}), file=sys.stderr)
"""


def _probe_modules(*argvs, codes=None) -> dict:
    """Run each argv through run() in one fresh interpreter; check the exit
    codes (all 0 unless given) and report whether numpy, mpmath, dataclasses
    and inspect were loaded by the end."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report.pop("codes") == (codes or [0] * len(argvs))
    return report


# a CLI start loads neither numpy nor mpmath, nor dataclasses and the inspect,
# ast, dis and tokenize modules it brings (~13 ms of every start)
NOTHING_HEAVY = {"numpy": False, "mpmath": False, "dataclasses": False, "inspect": False}


@pytest.mark.parametrize(
    "argv",
    [
        ("saddle", "--alpha", "3", "--beta", "2", "--x", "2", "--n", "30"),
        ("dist", *URN11, "--n", "3"),
        # the sector, and a sector refused for its kappa followed by the float64 circle
        ("saddle", *URN11, "--x", "1", "--n", "400"),
        ("saddle", *URN11, "--x", "2", "--n", "200"),
    ],
)
def test_float64_commands_do_not_import_mpmath(argv):
    assert _probe_modules(list(argv))["mpmath"] is False


@pytest.mark.parametrize(
    "argv, code",
    [
        (("saddle", *URN11, "--x", "1", "--n", "400"), 0),  # the sector
        (("saddle", *URN11, "--x", "2", "--n", "200"), 0),  # sector refused for kappa, then the circle
        (("saddle", "--alpha", "3", "--beta", "2", "--x", "2", "--n", "30"), 0),  # the circle only
        (("saddle", *URN11, "--x", "1", "--n", "700"), 0),  # the sector, past float64
        (("surface", *URN11, "--x", "2"), 0),
    ],
)
def test_contour_commands_do_not_import_numpy(argv, code):
    assert _probe_modules(list(argv), codes=[code]) == NOTHING_HEAVY


EXACT_COMMANDS = [
    ("dist", *URN11, "--n", "40"),
    ("moments", *URN11, "--n", "10", "40"),
    ("gf-check", *URN11, "--x", "1/2", "--order", "12"),
    # the float mass DP, up to cli.MASS_DP_MAX_N
    ("limits", *URN11, "--n", "25", "100"),
    ("limits", *URN11, "--n", "25", "100", "--metric", "cdf", "--format", "csv"),
]


@pytest.mark.parametrize(
    "argvs",
    [
        [],  # import urnlab and urnlab.cli only
        [["--help"]],
        *([list(argv)] for argv in EXACT_COMMANDS),
        # with a cache: the first run builds and saves the table, the second loads it
        *([[*argv, "--cache-dir", "CACHE"]] * 2 for argv in EXACT_COMMANDS),
    ],
)
def test_exact_commands_do_not_import_numpy(tmp_path, argvs):
    argvs = [[str(tmp_path) if a == "CACHE" else a for a in argv] for argv in argvs]
    assert _probe_modules(*argvs) == NOTHING_HEAVY


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", *URN11])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "--n", "2"),
        ("moments", "--n", "2"),
        ("gf-check", "--x", "1", "--order", "4"),
        ("saddle", "--x", "1", "--n", "4"),
        ("limits", "--n", "9"),
        ("deviations", "--t", "1.6"),
        ("simulate", "--n", "2", "--trials", "10", "--seed", "0"),
        ("surface", "--x", "1", "--grid-points", "2"),
    ],
)
def test_every_report_carries_schema_and_command(capsys, argv):
    report = invoke_json(capsys, argv[0], *URN11, *argv[1:])
    assert list(report)[:3] == ["schema", "command", "spec"]
    assert report["schema"] == SCHEMA
    assert report["command"] == argv[0]
    assert report["spec"] == {"alpha": 1, "beta": 1, "a0": 0, "b0": 1}


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (("gf-check", "--x", "inf"), "--x"),
        (("gf-check", "--x", "nan"), "--x"),
        (("gf-check", "--x", "1/0"), "--x"),
        (("surface", "--x", "nan"), "--x"),
        (("saddle", "--x", "inf", "--n", "5"), "--x"),
        (("limits", "--n", "0"), "n=0"),
        (("deviations", "--t", "1.8", "--exponent-n", "0"), "n=0"),
        (("surface", "--x", "2", "--grid-points", "1"), "--grid-points"),
        # 10^10 samples would need ~17 TB: refused before the first one
        (("surface", "--x", "2", "--grid-points", "100000"), "--grid-points 100000: 10000000000 samples estimated at"),
        (("saddle", "--x", "2", "--n", "0"), "n must be >= 1"),
        # the contour value, 8.2e282, is fine; the exact numerator is not
        (("saddle", "--x", "1/2", "--n", "3600"), "the exact c_n at n=3600 has 4390 decimal digits, beyond"),
        # float64 cannot hold x (or x^-alpha): refused by name, not by a crash
        (("surface", "--x", "1e-400", "--grid-points", "2"), "--x"),
        (("saddle", "--x", "1e400", "--n", "5"), "--x"),
        (("gf-check", "--x", "2", "--order", "-1"), "--order"),
        # the dense table past the memory budget: the flag, not the API's keep=
        (("gf-check", "--x", "2", "--order", "20000"), "--order 20000 keeps rows 0..20000: retained rows estimated at"),
        # a start or an x the identity cannot take is named before the table is sized or built
        (("gf-check", "--a0", "1", "--x", "2", "--order", "20000"), "holds for (a0, b0) = (0, 1); got (1, 1)"),
        (("gf-check", "--x", "0", "--order", "20000"), "x must be nonzero"),
        # a non-finite bound would print NaN or Infinity, which is not JSON
        (("surface", "--x", "2", "--grid-points", "2", "--re-min", "nan"), "--re-min"),
        (("surface", "--x", "2", "--grid-points", "2", "--re-max", "inf"), "--re-max"),
        (("surface", "--x", "2", "--grid-points", "2", "--im-min=-inf"), "--im-min"),
        (("surface", "--x", "2", "--grid-points", "2", "--im-max", "nan"), "--im-max"),
        (("dist", "--n", "-1"), "--n"),
        (("moments", "--n", "4", "-1"), "--n"),
        (("limits", "--n", "-1"), "--n"),
        (("deviations", "--t", "1.8", "--exponent-n", "-1"), "--exponent-n"),
        (("simulate", "--n", "-1", "--trials", "5", "--seed", "1"), "--n"),
    ],
)
def test_bad_input_is_one_error_line(capsys, argv, culprit):
    rc, out, err = invoke(capsys, argv[0], *URN11, *argv[1:])
    assert rc == 1
    assert out == ""
    assert err.startswith("urnlab: error:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert culprit in err
