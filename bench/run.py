"""Benchmark of the urnlab CLI: end-to-end runs and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

``--trace 0`` runs every job of the workload as its own ``python -m
urnlab.cli`` subprocess, one at a time (a closed loop with one client), in
passes over the job list until ``--seconds`` is used up, with a set-up
before each pass.  Every job's output is checked.  It reports the end-to-end
metrics of BENCHMARK.json:

    wall_s       sum over jobs of the median wall time of the job
    cpu_s        the same for user + system CPU time of the child
    peak_rss_mb  largest median max-RSS of any job
    setup_s      median cost of the set-up before a pass: a bare
                 ``urnlab --help`` start, plus filling the table cache
                 for warm_cache
    ops_ok_frac  share of the jobs that exit 0 and pass their check, each
                 job weighted the same however often it ran

``--trace 1`` runs the same jobs in this process through
``urnlab.cli.run(argv)``, alternating untraced and traced passes, and reports
the per-layer metrics of BENCHMARK.json from the spans of bench/spans.py.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A job counts as failed when its output is wrong, when it crashes
or when it is refused with an error although it is not a known failure
(jobs.py); ``correct`` is true when no job failed.  Known failures are
reported, with their exception class and message, not dropped: they lower
``ops_ok_frac``.  A full record (environment, every job's outcome and
samples) is written to .bench_work/results/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"  # scratch, bytecode and results; nothing else is written
PYCACHE = WORK / "pycache"

# urnlab makes no BLAS calls, but numpy's OpenBLAS starts a worker thread for
# each further core at import, which then spins for ~2**28 cycles (0.13 s) in
# every child.  On a 2-vCPU shared host that spin adds CPU time, and wall time
# that varies with the host's load, not with urnlab.  One thread everywhere:
# in the children and in this process (traced run).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

sys.pycache_prefix = str(PYCACHE)
sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as jobs_mod  # noqa: E402
import spans  # noqa: E402

MB = 1024 * 1024
HASH_SEED = "0"
DEADLINE_S = 170.0  # a run, with its set-up, must end within 180 s


@dataclass(frozen=True)
class Settings:
    seconds: float
    min_passes: int = 2
    setup_reps: int = 3  # bare starts before each pass
    fill_reps: int = 1  # bare start plus cache fill before each pass (warm_cache)
    import_reps: int = 5
    toy: bool = False


@dataclass
class Outcome:
    """One run of one job."""

    label: str
    status: str  # "ok", "known_failure" or "failed"
    exception: Optional[str] = None
    message: Optional[str] = None
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0


@dataclass
class Result:
    metrics: dict
    outcomes: list
    info: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.status == "failed" for o in self.outcomes)


class BenchError(Exception):
    """The benchmark cannot run here (no urnlab source, bad arguments)."""


# ---------------------------------------------------------------------------
# judging one job


def judge(job: jobs_mod.Job, rc: Optional[int], out: str, err: str) -> Outcome:
    """Classify a finished job from its exit status and output."""
    if rc == 0:
        try:
            job.check(out)
        except Exception as exc:  # any check error is a wrong output
            status = "known_failure" if job.known_failure == "CheckFailed" else "failed"
            what = str(exc) if isinstance(exc, jobs_mod.CheckFailed) else f"{type(exc).__name__}: {exc}"
            return Outcome(job.label, status, "CheckFailed", what)
        return Outcome(job.label, "ok")
    lines = err.strip().splitlines()
    last = lines[-1] if lines else ""
    prefix = "urnlab: error: "
    if rc == 1 and last.startswith(prefix):
        # a known failure may come to be refused with a more accurate error
        status = "known_failure" if job.known_failure else "failed"
        return Outcome(job.label, status, None, last[len(prefix):])
    return Outcome(job.label, "failed", "crash", f"exit status {rc}: {last}")


# ---------------------------------------------------------------------------
# subprocess jobs


def child_env() -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("URNLAB_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPYCACHEPREFIX=str(PYCACHE),
        **BLAS_THREADS,
    )
    return env


class Children:
    """Runs CLI subprocesses one at a time and measures each with wait4."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list) -> tuple[Optional[int], str, str, float, float, float]:
        """(exit status, stdout, stderr, wall s, cpu s, max-RSS MB)."""
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=self.scratch,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        rc = proc.returncode if proc.returncode >= 0 else None  # None: killed by a signal
        return (
            rc,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,  # KiB on Linux
        )

    def job(self, job: jobs_mod.Job) -> Outcome:
        rc, out, err, wall, cpu, rss = self.run(["-m", "urnlab.cli", *job.argv])
        outcome = judge(job, rc, out, err)
        outcome.wall, outcome.cpu, outcome.rss_mb = wall, cpu, rss
        outcome.output_bytes = len(out.encode())
        return outcome

    def bare_start(self) -> float:
        rc, out, err, wall, _, _ = self.run(["-m", "urnlab.cli", "--help"])
        if rc != 0 or "usage: urnlab" not in out:
            raise BenchError(f"urnlab --help failed (exit {rc}): {err.strip()[-300:]}")
        return wall


def run_end_to_end(wl, warm, cache_dir: Path, st: Settings, scratch: Path, deadline: float) -> Result:
    """Alternate set-ups and passes over the job list until ``st.seconds`` is
    used up.  The host's speed drifts over a minute or two, so the set-up
    samples are spread over the whole run like the job samples, and the last
    pass may stop part-way: a job starts only if its previous time still fits.
    Each cycle starts from an empty table cache, as the first does."""
    children = Children(scratch, deadline)

    # untimed pass at toy sizes: writes the bytecode cache, warms the OS caches
    for job in warm.setup + warm.jobs:
        children.job(job)

    outcomes: list[Outcome] = []
    setup_times: list[float] = []
    samples: list[list[Outcome]] = [[] for _ in wl.jobs]  # per job, over the passes
    reps = st.fill_reps if wl.setup else st.setup_reps

    def set_up() -> None:
        for _ in range(reps):
            shutil.rmtree(cache_dir, ignore_errors=True)
            spent = children.bare_start()
            for job in wl.setup:
                outcome = children.job(job)
                outcomes.append(outcome)
                spent += outcome.wall
            setup_times.append(spent)

    def fits(cost: float) -> bool:
        return time.perf_counter() - start + cost <= st.seconds and time.monotonic() + cost < deadline

    start = time.perf_counter()
    passes, setup_cost, cut = 0, 0.0, False
    while not cut and (passes < st.min_passes or fits(setup_cost + samples[0][-1].wall)):
        t = time.perf_counter()
        set_up()
        setup_cost = time.perf_counter() - t
        for i, job in enumerate(wl.jobs):
            if passes >= st.min_passes and not fits(samples[i][-1].wall):
                cut = True
                break
            samples[i].append(children.job(job))
        passes += not cut
    outcomes += [o for runs in samples for o in runs]
    # each job (set-up fills included) weighs the same however often it ran,
    # so a pass cut short does not move the share
    by_job: dict = {}
    for o in outcomes:
        by_job.setdefault(o.label, []).append(o.status == "ok")

    metrics = {
        "wall_s": sum(statistics.median(o.wall for o in runs) for runs in samples),
        "cpu_s": sum(statistics.median(o.cpu for o in runs) for runs in samples),
        "peak_rss_mb": max(statistics.median(o.rss_mb for o in runs) for runs in samples),
        "setup_s": statistics.median(setup_times),
        "ops_ok_frac": statistics.fmean(statistics.fmean(ok) for ok in by_job.values()),
    }
    info = {
        "passes": passes,
        "setup_reps": len(setup_times),
        "setup_s_samples": setup_times,
        "jobs": [_job_record(runs) for runs in samples],
    }
    return Result(metrics, outcomes, info)


def _job_record(runs) -> dict:
    first = runs[0]
    return {
        "job": first.label,
        "status": [o.status for o in runs],
        "wall_s": [o.wall for o in runs],
        "cpu_s": [o.cpu for o in runs],
        "rss_mb": [o.rss_mb for o in runs],
        "output_bytes": first.output_bytes,
    }


# ---------------------------------------------------------------------------
# in-process jobs (traced run, and naming the exception of failed jobs)


def import_urnlab():
    """Import urnlab.cli from this checkout's source, not from site-packages."""
    os.environ.pop("URNLAB_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import urnlab.cli as cli

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise BenchError(f"urnlab imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def run_inprocess(cli, tracer: spans.Tracer, job_id: int, job: jobs_mod.Job) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        root, value = tracer.run_job(job_id, lambda: cli.run(list(job.argv)))
    if root.error is None:
        rc = value
    elif root.error == "SystemExit":
        rc = 2
    else:
        rc = None
    text = out.getvalue()
    outcome = judge(job, rc, text, err.getvalue())
    if outcome.status != "ok":
        raised = [s.error for s in tracer.spans if s.job == job_id and s.error is not None]
        outcome.exception = raised[-1] if raised else outcome.exception
    outcome.wall = root.duration
    outcome.output_bytes = len(text.encode())
    return outcome


def name_exceptions(outcomes: list, wl: jobs_mod.Workload) -> None:
    """Replay each refused job once in-process to learn its exception class;
    the CLI prints only the message."""
    refused = [o for o in outcomes if o.status != "ok" and o.exception is None]
    if not refused:
        return
    cli = import_urnlab()
    by_label = {job.label: job for job in wl.setup + wl.jobs}
    seen: dict = {}
    for outcome in refused:
        if outcome.label not in seen:
            tracer = spans.Tracer()
            with tracer.installed(cli):
                seen[outcome.label] = run_inprocess(cli, tracer, 0, by_label[outcome.label]).exception
        outcome.exception = seen[outcome.label]


def median_import_s(st: Settings, scratch: Path, deadline: float) -> float:
    """Import time of urnlab.cli in a fresh interpreter (bytecode already cached)."""
    children = Children(scratch, deadline)
    code = "import time; t = time.perf_counter(); import urnlab.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(st.import_reps + 1):
        rc, out, err, *_ = children.run(["-c", code])
        if rc != 0:
            raise BenchError(f"importing urnlab.cli failed: {err.strip()[-300:]}")
        samples.append(float(out))
    return statistics.median(samples[1:])  # the first may compile bytecode


def run_traced(wl, warm, cache_dir: Path, st: Settings, scratch: Path, deadline: float) -> Result:
    cli = import_urnlab()
    import_s = median_import_s(st, scratch, deadline)
    for i, job in enumerate(warm.setup + warm.jobs):
        run_inprocess(cli, spans.Tracer(), i, job)

    def one_pass(traced: bool):
        shutil.rmtree(cache_dir, ignore_errors=True)
        tracer = spans.Tracer()
        cache_jobs = set()
        outcomes = []
        ctx = tracer.installed(cli) if traced else contextlib.nullcontext()
        start = time.perf_counter()
        with ctx:
            for i, job in enumerate(wl.setup + wl.jobs):
                outcomes.append(run_inprocess(cli, tracer, i, job))
                if "--cache-dir" in job.argv:
                    cache_jobs.add(i)
        total = time.perf_counter() - start
        layers = {}
        if traced:
            spans.check_accounting(tracer.spans)
            layers = spans.layer_metrics(tracer.spans, cache_jobs)
            layers["cli.output_mb"] = sum(o.output_bytes for o in outcomes) / MB
        return total, outcomes, layers

    untraced, traced, outcomes, layer_runs = [], [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        total, _, _ = one_pass(traced=False)
        untraced.append(total)
        total, outs, layers = one_pass(traced=True)
        traced.append(total)
        outcomes += outs
        layer_runs.append(layers)
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > st.seconds or time.monotonic() + last > deadline:
            break

    names = {k for run in layer_runs for k in run}
    metrics = {k: statistics.median(run.get(k, 0) for run in layer_runs) for k in names}
    metrics["cli.import_s"] = import_s
    metrics["ops_failed_frac"] = sum(o.status != "ok" for o in outcomes) / len(outcomes)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    info = {
        "passes": len(traced),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "import_reps": st.import_reps,
    }
    return Result(metrics, outcomes, info)


# ---------------------------------------------------------------------------
# reporting


def load_declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "git_commit": commit,
        "seed": seed,
        "python_hash_seed": HASH_SEED,
        "blas_threads": BLAS_THREADS,
    }


def run(name: str, seed: int, trace: int, st: Settings, extra_jobs=()) -> Result:
    """One benchmark run in a scratch directory of its own, removed after."""
    if name not in jobs_mod.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(jobs_mod.WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    cache_dir = scratch / "cache"
    wl = jobs_mod.build(name, seed, str(cache_dir), st.toy)
    wl = jobs_mod.Workload(wl.name, wl.setup, wl.jobs + tuple(extra_jobs))
    warm = jobs_mod.build(name, seed, str(scratch / "warm-cache"), toy=True)
    try:
        if trace:
            result = run_traced(wl, warm, cache_dir, st, scratch, deadline)
        else:
            result = run_end_to_end(wl, warm, cache_dir, st, scratch, deadline)
            name_exceptions(result.outcomes, wl)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failures = {}
    for o in result.outcomes:
        if o.status != "ok":
            failures.setdefault(o.label, {"status": o.status, "exception": o.exception, "message": o.message, "count": 0})
            failures[o.label]["count"] += 1
    result.info.update(workload=name, trace=trace, seconds=st.seconds, failures=failures)
    return result


def report(result: Result, declared: dict, trace: int, seed: int) -> dict:
    """Print the human-readable report and return the final JSON object."""
    group = declared["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(result.metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in group}
    print(f"urnlab benchmark: workload {result.info['workload']}, trace {trace}, seed {seed}, "
          f"{result.info['passes']} passes, {result.attempted} jobs run, {result.failed} failed")

    def kind(unit: str) -> str:
        return "timed" if unit in ("s", "ns") else "computed" if trace else "measured"

    for m in group:
        print(f"  {m['name']:<40} {metrics[m['name']]['value']:>16.6g} {m['unit']:<6} {kind(m['unit'])}")
    for label, f in result.info["failures"].items():
        print(f"  {f['status']}: {label} -> {f['exception']}: {f['message']} (x{f['count']})")
    env = environment(seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    record = {
        "environment": env,
        "metrics": {k: dict(v, kind=kind(v["unit"])) for k, v in metrics.items()},
        "info": result.info,
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{result.info['workload']}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# self-test


def self_test(declared: dict) -> int:
    """Every job kind at toy sizes, in both modes; metric names must match
    BENCHMARK.json, and forced failures must be counted, not crash the run."""
    st = Settings(seconds=0, min_passes=1, setup_reps=1, fill_reps=1, import_reps=1, toy=True)
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"] for m in declared[group]}
        measured = set()
        for name in jobs_mod.WORKLOADS:
            result = run(name, 1, trace, st)
            got = set(result.metrics)
            measured |= got
            if not got <= want:
                problems.append(f"{name} trace {trace}: undeclared metrics {sorted(got - want)}")
            if trace == 0 and got != want:
                problems.append(f"{name} trace 0: metrics {sorted(got)} != {sorted(want)}")
            if result.failed:
                problems.append(f"{name} trace {trace}: {result.info['failures']}")
            print(f"self-test {name} trace {trace}: {result.attempted} jobs, {result.failed} failed")
        if measured != want:
            problems.append(f"trace {trace}: declared but measured by no workload: {sorted(want - measured)}")

    def wrong(out: str) -> None:
        raise jobs_mod.CheckFailed("forced check failure")

    forced = (
        jobs_mod.Job(("dist", "--alpha", "0", "--beta", "1", "--n", "3"), lambda out: None),
        jobs_mod.Job(("dist", "--alpha", "1", "--beta", "1", "--n", "3"), wrong),
        jobs_mod.Job(("dist", "--alpha", "1", "--beta", "1", "--n", "three"), lambda out: None),
    )
    for trace in (0, 1):
        result = run("exact_ladder", 1, trace, st, extra_jobs=forced)
        key = "ops_failed_frac" if trace else "ops_ok_frac"
        frac = result.failed / result.attempted
        value = result.metrics[key] if trace else 1 - result.metrics[key]
        exceptions = {f["exception"] for f in result.info["failures"].values()}
        if result.failed != 3 or abs(value - frac) > 1e-12:
            problems.append(f"forced failures, trace {trace}: failed={result.failed}, {key}={result.metrics[key]}")
        if exceptions != {"NonPositiveParameter", "CheckFailed", "SystemExit" if trace else "crash"}:
            problems.append(f"forced failures, trace {trace}: exceptions {sorted(map(str, exceptions))}")
        print(f"self-test forced failures trace {trace}: {result.failed} of {result.attempted} counted failed")
    for p in problems:
        print("SELF-TEST PROBLEM: " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "urnlab" / "cli.py").is_file():
            raise BenchError(f"no urnlab source under {ROOT / 'src'}; run from a checkout of the repository")
        declared = load_declared()
        if args.self_test:
            return self_test(declared)
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.trace, Settings(seconds=args.seconds))
        line = report(result, declared, args.trace, args.seed)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
