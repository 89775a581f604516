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
        argv = ["saddle", "--alpha", "1", "--beta", "1", "--x", "1", "--n", "700"]
        root, rc = tracer.run_job(0, lambda: urnlab.cli.run(argv))
    assert (root.error, rc) == (None, 1)  # refused: the value overflows float64
    assert "overflows float64" in capsys.readouterr().err
    assert "UrnlabError" in [s.error for s in tracer.spans]
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys()
        assert all(after[name] is value for name, value in attrs.items()), owner
