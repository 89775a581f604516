"""Diff the CLI's output between two checkouts of urnlab, byte for byte.

Usage, from anywhere:

    python3 scripts/compare_outputs.py PARENT CHANGE [WORKLOAD ...]

The command lines are every job of each workload (default: all of them) as
PARENT/bench/jobs.py builds it at seed 0 and full size, set-up included,
followed by the ``urnlab ...`` lines of the "Examples" block in PARENT's
README.md and by EXTRA, lines that neither runs: CSV forms, refusals,
circles that run in mpmath, values past float64's normal range and edge
cases of the reports.  Each line runs
as ``python -m urnlab.cli`` with PYTHONPATH set to the checkout's src/ and
the checkout as working directory; a job's ``@CACHE@`` is a fresh temporary
directory for each side and workload.
Exit status, stdout and stderr must agree; then ``python3 bench/run.py
--self-test`` runs in both checkouts and its output must agree too.  Each
difference is printed, then the count; the exit status is 1 on any.
"""
import difflib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

EXTRA = [
    "moments --alpha 1 --beta 1 --n 0 3 7 --format csv",
    "moments --alpha 3 --beta 2 --a0 2 --b0 3 --n 5 40",
    "limits --alpha 1 --beta 1 --n 4 9 --format csv",
    "limits --alpha 2 --beta 5 --a0 2 --b0 3 --n 30 1300 --metric local",
    "limits --alpha 1 --beta 1 --n 0 5",
    "deviations --alpha 1 --beta 1 --t 1.6",
    "deviations --alpha 1 --beta 1 --t 1.6 --format csv",
    "deviations --alpha 1 --beta 1 --t 1.6 --exponent-n 20 40 --format csv",
    "deviations --alpha 3 --beta 2 --t 2.0 --exponent-n 30 60",
    "deviations --alpha 1 --beta 1 --t 1.6 --exponent-n 0 4",
    "surface --alpha 1 --beta 1 --x 2 --grid-points 3 --format csv",
    "surface --alpha 2 --beta 4 --x 2 --grid-points 3 --re-min 1 --re-max 1 --im-min 0 --im-max 0",
    "surface --alpha 3 --beta 2 --x 1/2 --grid-points 4",
    "saddle --alpha 3 --beta 2 --x 2 --n 12",
    "saddle --alpha 4 --beta 2 --x 1/2 --n 1",
    "surface --alpha 1 --beta 1 --x 2 --re-min=-1e308 --re-max 1e308 --im-min=0 --im-max=0 --grid-points 3",
    "surface --alpha 1 --beta 1 --x 2 --re-min 1e200 --re-max 1e200 --im-min 0 --im-max 0 --grid-points 2",
    "surface --alpha 3 --beta 2 --x 2 --re-min 1e60 --re-max 1e60 --im-min 0 --im-max 0 --grid-points 2",
    "moments --alpha 1 --beta 1 --b0 1000 --n 3",
    "saddle --alpha 1 --beta 1 --x 1000000 --n 5",
    "saddle --alpha 1 --beta 4 --x 7/10 --n 30 --contour circle",
    "saddle --alpha 2 --beta 1 --x 1e100 --n 3",
    "saddle --alpha 4 --beta 1 --x 1/3 --n 300",
    "saddle --alpha 1 --beta 1 --x 1 --n 700 --format csv",
    "saddle --alpha 1 --beta 1 --x 2 --n 700 --contour circle",
    "saddle --alpha 1 --beta 1 --x=-3 --n 2",
    "saddle --alpha 1 --beta 1 --x=-1/2 --n 25",
    "saddle --alpha 3 --beta 2 --x=-2 --n 30",
    "saddle --alpha 1 --beta 1 --x=-2 --n 375 --format csv",
]


def run(checkout: Path, argv: list, cache: str = "") -> tuple:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    argv = [a.replace("@CACHE@", cache) for a in argv]
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=env, capture_output=True, text=True)
    # a cache path in the output is the same path on both sides
    out, err = (text.replace(cache, "@CACHE@") if cache else text for text in (proc.stdout, proc.stderr))
    return proc.returncode, out, err


def show(label: str, parent: tuple, change: tuple) -> None:
    """Print the label, a differing exit status and the first differing lines of each stream."""
    print(f"DIFFERS {label}")
    if parent[0] != change[0]:
        print(f"  exit status: parent {parent[0]}, change {change[0]}")
    for stream, a, b in (("stdout", parent[1], change[1]), ("stderr", parent[2], change[2])):
        diff = difflib.unified_diff(
            a.splitlines(), b.splitlines(), "parent " + stream, "change " + stream, n=0, lineterm=""
        )
        for text in list(diff)[:12]:
            print("  " + text)


def command_lines(parent: Path, workloads: list) -> list:
    """(workload, "README" or "extra", argv after ``urnlab``) for every line to compare."""
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    spec = importlib.util.spec_from_file_location("parent_jobs", parent / "bench" / "jobs.py")
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up there
    spec.loader.exec_module(jobs)
    lines = []
    for name in workloads or jobs.WORKLOADS:
        workload = jobs.build(name, 0, "@CACHE@")
        lines += [(name, list(job.argv)) for job in (*workload.setup, *workload.jobs)]
    examples = re.search(r"Examples:\s*```sh\n(.*?)```", (parent / "README.md").read_text(), re.S).group(1)
    lines += [("README", shlex.split(line)[1:]) for line in examples.splitlines() if line.startswith("urnlab ")]
    return lines + [("extra", shlex.split(line)) for line in EXTRA]


def main(argv: list) -> int:
    if len(argv) < 2:
        print("usage: compare_outputs.py PARENT CHANGE [WORKLOAD ...]", file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    differences = compared = 0
    caches = {}
    with tempfile.TemporaryDirectory() as parent_root, tempfile.TemporaryDirectory() as change_root:
        for name, line in command_lines(parent, argv[2:]):
            if name not in caches:
                caches[name] = tuple(tempfile.mkdtemp(dir=root) for root in (parent_root, change_root))
            sides = [run(checkout, ["-m", "urnlab.cli", *line], cache)
                     for checkout, cache in zip((parent, change), caches[name])]
            compared += 1
            if sides[0] != sides[1]:
                differences += 1
                show(f"[{name}] urnlab {shlex.join(line)}", *sides)
    sides = [run(checkout, ["bench/run.py", "--self-test"]) for checkout in (parent, change)]
    compared += 1
    if sides[0] != sides[1]:
        differences += 1
        show("bench/run.py --self-test", *sides)
    print(f"{differences} of {compared} command lines differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
