"""Run the right-or-refused contract of tests/test_contract.py over many cases.

Usage, from anywhere:

    python3 scripts/contract_sweep.py --cases N [--seed S] [--timeout T]

Draws N contour cases, N DP-layer cases and N command lines over all eight
subcommands from seed S with the test's own generators, and checks each
with the test's own checks (the test file is loaded by path, so there is
no second copy).  Each case runs under ``signal.alarm(T)``.  Every wrong
value, every report that is not strict JSON or not one error line, and
every bare exception (one that is not an UrnlabError) is printed with its
case, and so is every case that runs past T seconds: that is the slow
circle of ROADMAP item 12, reported as open.  The exit status is 1 on a
wrong value or a bare exception, and 0 otherwise, slow cases included.
"""
import argparse
import collections
import importlib.util
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _load_contract():
    spec = importlib.util.spec_from_file_location("test_contract", ROOT / "tests" / "test_contract.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException, so no handler in urnlab takes it."""


def _alarm(signum, frame):
    raise _Timeout


def _describe(case, fields) -> str:
    spec, *rest = case
    return f"A({spec.alpha},{spec.beta}) from ({spec.a0},{spec.b0}) " + " ".join(
        f"{name}={value}" for name, value in zip(fields, rest)
    )


def _bucket(outcome: str) -> str:
    """"right", or "refused <class>" with the overflow or underflow named."""
    if outcome == "right":
        return outcome
    name, _, message = outcome.partition(": ")
    for word in ("overflows", "underflows"):
        if word in message:
            return f"refused {name} ({word} float64)"
    return f"refused {name}"


def sweep(layer: str, check, cases, fields, timeout: int) -> bool:
    """Check every case; print the failures, the open cases and a summary.
    True if no case was wrong or raised a bare exception."""
    counts = collections.Counter()
    slowest = (0.0, None)
    start = time.perf_counter()
    for case in cases:
        t0 = time.perf_counter()
        signal.alarm(timeout)
        try:
            counts[_bucket(check(*case))] += 1
        except _Timeout:
            counts["open"] += 1
            print(f"{layer}: open (past {timeout} s, ROADMAP item 12): {_describe(case, fields)}", flush=True)
        except AssertionError as exc:
            counts["wrong"] += 1
            print(f"{layer}: wrong: {_describe(case, fields)}: {exc}", flush=True)
        except Exception as exc:
            counts["bare exception"] += 1
            print(f"{layer}: bare {type(exc).__name__}: {_describe(case, fields)}: {exc}", flush=True)
        finally:
            signal.alarm(0)
        slowest = max(slowest, (time.perf_counter() - t0, case), key=lambda s: s[0])
    elapsed = time.perf_counter() - start
    summary = ", ".join(f"{count} {bucket}" for bucket, count in sorted(counts.items()))
    print(f"{layer}: {len(cases)} cases in {elapsed:.1f} s: {summary}")
    if slowest[1] is not None:
        print(f"{layer}: slowest {_describe(slowest[1], fields)}, {slowest[0]:.2f} s")
    return counts["wrong"] == counts["bare exception"] == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, required=True, help="cases per layer")
    parser.add_argument("--seed", type=int, default=None, help="default: the test's own seed")
    parser.add_argument("--timeout", type=int, default=20, help="seconds a case may run")
    args = parser.parse_args()
    contract = _load_contract()
    seed = contract.SEED if args.seed is None else args.seed
    signal.signal(signal.SIGALRM, _alarm)
    contour = contract.contour_cases(seed, args.cases)
    ok = sweep("contour", contract.check_contour, contour, ("x", "n"), args.timeout)
    dp = contract.dp_cases(seed, args.cases)
    ok &= sweep("dp", contract.check_dp, dp, ("n", "x", "t", "side"), args.timeout)
    cli = contract.cli_cases(seed, args.cases)
    ok &= sweep("cli", contract.check_command, cli, ("argv",), args.timeout)
    print("contract sweep " + ("passed" if ok else "failed"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
