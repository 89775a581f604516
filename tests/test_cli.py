"""Command-line interface: golden outputs, formats, caching, exit codes.

All invocations go through run(argv) in-process; stdout is captured by
pytest, so these tests double as schema checks for the JSON reports.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from urnlab import (
    HistoryTable,
    UrnSpec,
    build_history_table,
    gaussian_cdf_error,
    limit_params,
    local_limit_error,
    series_from_table,
)
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
    assert report["sign"] == -1


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


def test_cache_dir_roundtrip(tmp_path, capsys):
    argv = ("dist", *URN11, "--n", "6", "--cache-dir", str(tmp_path))
    first = invoke_json(capsys, *argv)
    cached = tmp_path / "table_a1_b1_s0-1_n6.json"
    assert cached.exists()
    second = invoke_json(capsys, *argv)  # served from the cache file
    assert first == second


def _altered_count(path):
    doc = json.loads(path.read_text())
    doc["rows"][-1][1] = str(int(doc["rows"][-1][1]) + 1)
    path.write_text(json.dumps(doc))


def _truncated(path):
    path.write_text(path.read_text()[:40])


def _other_spec(path):
    build_history_table(UrnSpec(3, 2, 0, 1), 6).save(path)


def _lacking_row(path):
    doc = build_history_table(UrnSpec(1, 1, 0, 1), 6, keep={2}).to_json_dict()
    doc["kept"], doc["rows"] = doc["kept"][:1], doc["rows"][:1]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("spoil", [_altered_count, _truncated, _other_spec, _lacking_row])
@pytest.mark.parametrize(
    "argv",
    [
        ("dist", *URN11, "--n", "6"),
        ("gf-check", *URN11, "--x", "1/2", "--order", "6"),
        ("saddle", *URN11, "--x", "2", "--n", "6"),
    ],
)
def test_cache_rebuilds_invalid_files(tmp_path, capsys, argv, spoil):
    fresh = invoke_json(capsys, *argv)
    cached = tmp_path / "table_a1_b1_s0-1_n6.json"
    invoke_json(capsys, *argv, "--cache-dir", str(tmp_path))
    spoil(cached)
    spoiled = cached.read_bytes()
    assert invoke_json(capsys, *argv, "--cache-dir", str(tmp_path)) == fresh
    assert cached.read_bytes() != spoiled
    need = range(7) if argv[0] == "gf-check" else {6}
    HistoryTable.load(cached, spec=UrnSpec(1, 1, 0, 1), n_max=6, need=need)
    assert [f.name for f in tmp_path.iterdir()] == [cached.name]


def test_limits_log_dp_agrees_with_exact_tables(capsys, big11, mid32):
    for table in (big11, mid32):
        spec = table.spec
        params = limit_params(spec)
        ns = [n for n in table.kept if n >= 25]
        argv = ("limits", "--alpha", str(spec.alpha), "--beta", str(spec.beta))
        report = invoke_json(capsys, *argv, "--n", *map(str, ns))
        assert len(report["ladder"]) == 2 * len(ns)
        for e in report["ladder"]:
            fn = gaussian_cdf_error if e["metric"] == "cdf" else local_limit_error
            assert e["value"] == pytest.approx(fn(table, params, e["n"]), rel=1e-10, abs=0)


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


def test_saddle_overflow_exits_one_naming_it(capsys):
    rc, out, err = invoke(capsys, "saddle", *URN11, "--x", "1", "--n", "646")
    assert rc == 1
    assert out == ""
    assert err == "urnlab: error: the contour value at n=646 overflows float64\n"


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
    assert report["schema"] == SCHEMA
    assert report["command"] == argv[0]
