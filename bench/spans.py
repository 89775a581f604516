"""Spans around urnlab's public functions, recorded from the benchmark's side.

``Tracer.installed(cli)`` wraps, for the duration of a ``with`` block:

* every function imported into ``urnlab.cli`` (the layer entry points the CLI
  calls) and the CLI's own subcommand handlers ``_cmd_*``,
* ``HistoryTable.load`` / ``HistoryTable.save``,
* ``ExactDistribution.mean`` / ``ExactDistribution.variance``.

Nothing in urnlab's source changes; the wrappers are module and class
attributes, restored when the block exits.  Each call records a span (name,
start, end, parent, job id) in memory.  The contour span is named
``saddle.sector`` or ``saddle.circle`` after the contour kind it was given.

A span's self time is its duration minus its children's.  The job span and
the handler spans are the CLI's own work (argparse, number formatting,
JSON/CSV writing) and are reported together as ``cli.self_s``.  Counts
(rows kept, nodes, trial steps, ...) are taken from a call's arguments and
result as the call returns; the time spent counting is taken out of every
enclosing span, so it is charged to no layer but shows in the overhead of the
traced pass.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

MB = 1024 * 1024

# counts aggregated by maximum over a pass; every other count is summed
MAX_COUNTS = ("histories.max_digits", "saddle.circle.dps")
# spans whose number of calls is reported as <name>.calls
COUNTED_CALLS = ("histories.build_history_table", "saddle.sector", "saddle.circle", "saddle.eval_integrand")


@dataclass
class Span:
    name: str
    job: int
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    excluded: float = 0.0  # counting time spent inside this span
    child_time: float = 0.0
    error: Optional[str] = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _table_counts(args, table) -> dict:
    rows = [table.row(n) for n in table.kept]
    largest = max(max(r) for r in rows)
    held = sum(sys.getsizeof(r) + sum(sys.getsizeof(c) for c in r) for r in rows)
    return {
        "histories.rows_kept": len(rows),
        "histories.max_digits": len(str(largest)),
        "histories.retained_mb": held / MB,
    }


def _log_table_counts(args, table) -> dict:
    n_max = args[1]
    return {"histories.log_cells": n_max * (n_max + 3) // 2}  # cells of rows 1..n_max


def _load_counts(args, table) -> dict:
    return {"histories.table_file_mb": os.path.getsize(args[-1]) / MB}


def _contour_counts(args, result) -> dict:
    if args[1].kind != "circle":
        return {}
    return {
        "saddle.circle.nodes": int(result.diagnostics["nodes"]),
        "saddle.circle.dps": int(result.diagnostics["dps"]),
    }


def _simulate_counts(args, run) -> dict:
    return {"montecarlo.trial_steps": args[1] * args[2]}


COUNTERS = {
    "build_history_table": _table_counts,
    "build_log_table": _log_table_counts,
    "contour_coefficient": _contour_counts,
    "simulate": _simulate_counts,
}


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    job: int = -1

    def _wrap(self, fn: Callable, name: Callable[[tuple], str], counter=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name(args), self.job, self._stack[-1] if self._stack else None)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_time += span.duration
            if counter is not None:
                span.counts = counter(args, result)
                spent = time.perf_counter() - span.end
                for i in self._stack:
                    self.spans[i].excluded += spent
            return result

        return wrapper

    @contextmanager
    def installed(self, cli):
        """Wrap urnlab's entry points for the duration of the block."""
        from urnlab.histories import ExactDistribution, HistoryTable

        saved = []

        def patch(owner, attr, name, counter=None):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
            else:
                wrapped = self._wrap(original, name, counter)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

        try:
            for attr, obj in list(vars(cli).items()):
                if not inspect.isfunction(obj):
                    continue
                if attr.startswith("_cmd_"):
                    patch(cli, attr, _const("cli." + attr[5:]))
                elif attr == "contour_coefficient":
                    patch(cli, attr, lambda args: "saddle." + args[1].kind, _contour_counts)
                elif obj.__module__.startswith("urnlab.") and obj.__module__ != cli.__name__:
                    name = obj.__module__.split(".")[-1] + "." + attr
                    patch(cli, attr, _const(name), COUNTERS.get(attr))
            patch(HistoryTable, "load", _const("histories.table_load"), _load_counts)
            patch(HistoryTable, "save", _const("histories.table_save"))
            patch(ExactDistribution, "mean", _const("histories.dist_moments"))
            patch(ExactDistribution, "variance", _const("histories.dist_moments"))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_job(self, job_id: int, fn: Callable[[], Any]) -> tuple[Span, Any]:
        """Run fn under a root span ``cli.run`` of job_id; returns the span
        and fn's return value (None if it raised: see ``span.error``)."""
        self.job = job_id
        value = None
        try:
            value = self._wrap(fn, _const("cli.run"))()
        except (Exception, SystemExit):  # recorded on the span
            pass
        return next(s for s in reversed(self.spans) if s.job == job_id and s.parent is None), value


def _const(name: str) -> Callable[[tuple], str]:
    return lambda args: name


def layer_metrics(spans: list, cache_jobs: set) -> dict:
    """Per-layer metrics of one traced pass: {name: value}.

    ``*.s`` entries are summed self times; the others are counts.
    ``cache_jobs`` are the job ids that ran with a table cache directory: in
    those, a table build is a cache miss and a load not followed by a build
    is a hit.
    """
    out: dict = {}

    def add(name, value):
        out[name] = out.get(name, 0) + value

    builds: dict = {}
    loads: dict = {}
    for span in spans:
        add("cli.self_s" if span.name.startswith("cli.") else span.name + ".s", span.self_time)
        if span.name in COUNTED_CALLS:
            add(span.name + ".calls", 1)
        for key, value in span.counts.items():
            out[key] = max(out.get(key, 0), value) if key in MAX_COUNTS else out.get(key, 0) + value
        if span.name == "histories.build_history_table":
            builds[span.job] = builds.get(span.job, 0) + 1
        elif span.name == "histories.table_load":
            loads[span.job] = loads.get(span.job, 0) + 1
        elif span.name in ("saddle.sector", "saddle.circle"):
            failed = span.error is not None
            add("saddle.failed", int(failed))
            add("saddle.failed_s", span.duration if failed else 0.0)
    for job in cache_jobs:
        add("cli.cache_misses", builds.get(job, 0))
        add("cli.cache_hits", max(loads.get(job, 0) - builds.get(job, 0), 0))
    steps = out.get("montecarlo.trial_steps", 0)
    if steps:
        out["montecarlo.ns_per_trial_step"] = out["montecarlo.simulate.s"] * 1e9 / steps
    return out


def check_accounting(spans: list) -> None:
    """Per job, the self times of all spans must add up to the job span."""
    totals: dict = {}
    roots: dict = {}
    for span in spans:
        totals[span.job] = totals.get(span.job, 0.0) + span.self_time
        if span.parent is None:
            roots[span.job] = span.duration
    for job, root in roots.items():
        if abs(totals[job] - root) > 1e-6 * max(1.0, root):
            raise AssertionError(f"job {job}: span self times sum to {totals[job]} s, job took {root} s")
