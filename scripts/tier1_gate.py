"""Run the tier-1 test suite and accept only its known outcome.

Usage, from anywhere:

    python3 scripts/tier1_gate.py

Runs every test, as ``python -m pytest -q --continue-on-collection-errors``
from the root of the checkout with src/ on PYTHONPATH, and changes none.
The exit status is 0 only if exactly the three acceptance criteria below
fail, exactly the Monte Carlo moment test xfails, and nothing errors or
xpasses.  Those three criteria and the xfail are red on purpose: the model
does not meet those bounds at those n.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = {
    "FAILED": {
        "tests/test_acceptance.py::test_criterion_04_contour_extraction_and_negligibility",
        "tests/test_acceptance.py::test_criterion_05_moment_expansions",
        "tests/test_acceptance.py::test_criterion_08_deviation_rate",
    },
    "XFAIL": {"tests/test_montecarlo.py::test_simulation_matches_first_order_moments_within_4se"},
    "ERROR": set(),
    "XPASS": set(),
}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rfExX", "-p", "no:cacheprovider"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    seen = {outcome: set() for outcome in EXPECTED}
    for outcome, test in re.findall(r"^(FAILED|ERROR|XFAIL|XPASS) (\S+)", proc.stdout, re.M):
        seen[outcome].add(test)
    counts = re.findall(r"^=* ?(\d+ \w+.*) in [\d.]+s", proc.stdout, re.M)
    print(f"pytest exit status {proc.returncode}: {counts[-1] if counts else 'no summary line'}")
    ok = proc.returncode in (0, 1) and bool(counts)
    for outcome, want in EXPECTED.items():
        got = seen[outcome]
        print(f"{outcome}: {len(got)}, expected {len(want)}")
        for test in sorted(got - want):
            print(f"  unexpected: {test}")
        for test in sorted(want - got):
            print(f"  missing: {test}")
        ok = ok and got == want
    if not counts:
        print(proc.stdout[-2000:] + proc.stderr[-2000:])
    print("tier-1 gate " + ("passed" if ok else "failed"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
