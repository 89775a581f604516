"""The benchmark's tracer (bench/spans.py) patches urnlab's attributes by name.

It wraps every function imported into ``urnlab.cli``, the ``_cmd_*``
handlers, ``HistoryTable.load``/``save`` and ``ExactDistribution.mean``/
``variance``, and reads ``diagnostics["nodes"]``/``["dps"]`` of a circle.  The
benchmark installs it even in untraced runs, to name the exception of each
refused job, so an attribute it patches that goes missing fails the whole
benchmark with a ``KeyError``.  This runs a refused job under it as the
benchmark does.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import urnlab.cli
from urnlab.histories import ExactDistribution, HistoryTable

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_names_a_refused_job_and_restores_every_attribute(capsys):
    spans = _load_spans()
    owners = (urnlab.cli, ExactDistribution, HistoryTable)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    with tracer.installed(urnlab.cli):
        argv = ["saddle", "--alpha", "3", "--beta", "2", "--x", "2", "--n", "30", "--contour", "sector"]
        root, rc = tracer.run_job(0, lambda: urnlab.cli.run(argv))
    assert (root.error, rc) == (None, 1)  # refused: a pole lies inside the sector
    assert capsys.readouterr().err == (
        "urnlab: error: sector contour invalid: pole at w=0.0949036+0j inside the sector\n"
    )
    assert "ContourCrossesPole" in [s.error for s in tracer.spans]
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys()
        assert all(after[name] is value for name, value in attrs.items()), owner


def test_cli_layer_entry_points_are_pinned():
    # the tracer names a layer span after each urnlab function imported into
    # urnlab.cli, and a CLI span after each _cmd_* handler: adding or
    # dropping one changes the benchmark's per-layer metrics
    imported = sorted(
        name
        for name, obj in vars(urnlab.cli).items()
        if inspect.isfunction(obj)
        and obj.__module__.startswith("urnlab.")
        and obj.__module__ != urnlab.cli.__name__
    )
    assert imported == [
        "algebraic_residual",
        "auto_contour",
        "build_history_table",
        "build_log_table",
        "build_mass_table",
        "contour_coefficient",
        "empirical_tail_exponent",
        "eval_integrand",
        "exact_distribution",
        "exact_moments",
        "find_saddle_points",
        "gaussian_cdf_error",
        "lagrange_coefficient",
        "limit_params",
        "local_limit_error",
        "mean_variance_expansion",
        "moment_ladder",
        "rate_function_closed_form",
        "rate_function_eval",
        "series_from_table",
        "simulate",
        "tail_side",
        "total_histories_digits",
        "validate_urn",
    ]
    handlers = sorted(name for name in vars(urnlab.cli) if name.startswith("_cmd_"))
    assert handlers == [
        "_cmd_deviations",
        "_cmd_dist",
        "_cmd_gf_check",
        "_cmd_limits",
        "_cmd_moments",
        "_cmd_saddle",
        "_cmd_simulate",
        "_cmd_surface",
    ]
