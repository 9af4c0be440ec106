"""Self-tests of the benchmark's checker and tracer.

    python3 perfbench/selftest.py

1. The tracer counts ChernPoly arithmetic exactly, including the reflected
   operators, and uninstalling it restores nodepoly.
2. For every workload, one seeded block passes its checks, and each
   sub-check fails on a tampered copy of a passing output.
3. Two traced runs with the same seed report identical counts.

Exits 0 when every test passes.
"""

import json
import subprocess
import sys
from fractions import Fraction

import run
import tracing
import tree
import workloads

COUNT_SUFFIXES = ("calls", "calls_per_op", "max_terms", "max_coeff_bits", "output_bytes")


def test_exact_chernpoly_counts(np):
    poly = np.chernpoly.L2 + np.chernpoly.C2
    other = np.chernpoly.LK * 2
    n = 4
    a = np.series.PSeries([poly] * (n + 1))
    b = np.series.PSeries([other] * (n + 1))
    original_mul = np.series.PSeries.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        a * b
        Fraction(1) + poly
        Fraction(3) * poly
    finally:
        tracer.uninstall()
    pairs = (n + 1) * (n + 2) // 2
    # each output slot starts as Fraction(0), so its first sum goes through
    # ChernPoly.__radd__: n + 1 of the additions are reflected
    assert tracer.counts["chernpoly.mul.calls"] == pairs + 1, dict(tracer.counts)
    assert tracer.counts["chernpoly.add.calls"] == pairs + 1, dict(tracer.counts)
    assert tracer.summary()["series.mul.chernpoly"][0] == 1
    assert np.series.PSeries.__mul__ is original_mul
    a * b
    assert tracer.counts["chernpoly.mul.calls"] == pairs + 1, "tracer still installed"


def test_checker_catches_tampering(np, name):
    workload = workloads.WORKLOADS[name]()
    checker = run.Checker(workload)
    for op in next(workloads.blocks(workload, 7)):
        checker.record(op, run.timed(workloads.untraced_call(workload, np, op))[1])
    assert checker.failed == 0, dict(checker.failures)
    missed = checker.selftest()
    assert not missed, f"tampered outputs passed: {missed}"


def traced_counts(name, seed):
    proc = subprocess.run(
        [sys.executable, str(tree.HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=tree.ROOT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


def test_traced_counts_repeat(name):
    first, second = traced_counts(name, 3), traced_counts(name, 3)
    assert first == second, {k: (first[k], second[k]) for k in first if first[k] != second[k]}


def main():
    np = tree.load_nodepoly()
    tests = [("exact ChernPoly counts", lambda: test_exact_chernpoly_counts(np))]
    for name in workloads.WORKLOADS:
        tests.append((f"{name}: checker catches tampering",
                      lambda name=name: test_checker_catches_tampering(np, name)))
        tests.append((f"{name}: traced counts repeat",
                      lambda name=name: test_traced_counts_repeat(name)))
    failed = 0
    for title, test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {title}: {exc}")
        else:
            print(f"PASS {title}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
