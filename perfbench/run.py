"""nodepoly benchmark: one closed-loop workload per run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a nodepoly checkout; it imports nodepoly from
the checkout's src tree (in this process and in every child) and fails
without a result if that tree is missing.  Workloads: cli-delta5,
qseries-deep, inclexcl-lattice (see README.md).

--trace 0 prints the end-to-end metrics; --trace 1 runs each op of one
seeded block untraced and traced, alternately, in whole passes, and prints
the per-layer metrics plus the tracing overhead.  All output checks run
outside the timed intervals.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from time import perf_counter

import calibration
import checks
import tree
import workloads

SETUP_REPS = 9
STARTUP_REPS = 5
TAIL_BEYOND = 10


class Checker:
    """Checks each op's output; counts attempted and failed ops."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()

    def record(self, op, output):
        self.attempted += 1
        failures = self._evaluate(op, output)
        if failures:
            self.failed += 1
            self.failures.update(failures)
        else:
            self.samples.setdefault(op["kind"], (op, output))

    def _evaluate(self, op, output):
        if isinstance(output, Exception):
            return [f"exception: {output!r}"]
        return self.workload.check(op, output)

    def selftest(self):
        """Feed each sub-check a tampered copy of a passing output; return
        the sub-checks that did not fail on it."""
        missed = []
        for name, (kind, tamper) in checks.TAMPERS[self.workload.name].items():
            if kind not in self.samples:
                missed.append(f"{name} (no {kind} sample)")
                continue
            op, output = self.samples[kind]
            if name not in self.workload.check(op, tamper(output)):
                missed.append(name)
        return missed


def timed(call):
    t0 = perf_counter()
    try:
        output = call()
    except Exception as exc:  # a failed op is counted, the loop goes on
        output = exc
    return perf_counter() - t0, output


def measure(workload, np, seed, seconds, checker):
    """The untraced closed loop, in whole blocks, so every run has the same mix.

    Returns (ops, setups, calib, files).  ops holds (latency, calibration
    before, calibration after) per op.  setups holds the set-up times of
    SETUP_REPS fresh interpreters started at even intervals of the run, each
    divided by the mean of calibration.interpreter runs just before and after
    it, and files the nodepoly files they imported.  calib holds every run of
    the workload's calibration kernel.
    """
    calibrate = workload.calibrate
    ops, setups, calib, files = [], [], [calibrate()], set()

    def probe():
        before = calibration.interpreter()
        seconds_taken, nodepoly_file = setup_time(workload)
        after = calibration.interpreter()
        setups.append(seconds_taken * 2 / (before + after))
        files.add(nodepoly_file)
        calib.append(calibrate())

    start = perf_counter()
    for block in workloads.blocks(workload, seed):
        for op in block:
            if len(setups) < SETUP_REPS \
                    and perf_counter() - start >= len(setups) * seconds / SETUP_REPS:
                probe()
            latency, output = timed(workloads.untraced_call(workload, np, op))
            calib.append(calibrate())
            ops.append((latency, calib[-2], calib[-1]))
            checker.record(op, output)
        if perf_counter() - start >= seconds:
            break
    while len(setups) < SETUP_REPS:
        probe()
    return ops, setups, calib, files


def child_time(argv, stdin_text):
    """Wall seconds from starting a child interpreter to the `end` time it
    reports, and the nodepoly file it imported."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable] + argv, input=stdin_text, capture_output=True,
                          text=True, env=tree.child_env(), cwd=tree.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: child {argv} failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    if doc.get("exit_code", 0) != 0:
        raise SystemExit(f"perfbench: warm-up op failed in child {argv}")
    return doc["end"] - t0, doc["nodepoly_file"]


def setup_time(workload):
    return child_time([str(tree.HERE / "child.py"), "setup"],
                      json.dumps(workload.warm_op))


def startup_time():
    code = ("import json, time, nodepoly.cli; "
            "print(json.dumps({'end': time.monotonic(), 'nodepoly_file': nodepoly.__file__}))")
    return child_time(["-c", code], "")


def tail(latencies):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples beyond it, or the maximum for short runs."""
    s = sorted(latencies)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def end_to_end(workload, np, args, checker, report):
    ops, setups, calib, files = measure(workload, np, args.seed, args.seconds, checker)
    report["child_nodepoly_files"] = sorted(files)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = workload.child_peak_kb
    # each op in units of the calibrations run just before and after it
    norm = [lat * 2 / (before + after) for lat, before, after in ops]
    latencies = [lat for lat, _, _ in ops]
    report["notes"] = {
        "n": len(ops),
        "tail": f"p{tail(latencies)[1]:.1f} of the n ops ({TAIL_BEYOND} beyond it)",
        "setup_s": f"median of {SETUP_REPS} fresh interpreters spread over the run "
                   f"(start + import nodepoly + warm op), each divided by the mean of "
                   f"calibration.interpreter just before and after it, times "
                   f"{calibration.INTERPRETER_REFERENCE_S} s",
        "peak_rss_mb": "this process" if workload.in_process else "largest child",
        "host.calib_s": f"median {statistics.median(calib)!r} s of {len(calib)} runs of "
                        f"calibration.{workload.calibrate.__name__}",
    }
    metrics = {
        "latency_p50_norm": (statistics.median(norm), "ratio"),
        "latency_tail_norm": (tail(norm)[0], "ratio"),
        "ops_per_s_norm": (len(norm) / sum(norm), "ops/calib"),
        "setup_s": (statistics.median(setups) * calibration.INTERPRETER_REFERENCE_S, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    as_measured = {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail(latencies)[0], "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "error_rate": (checker.failed / checker.attempted, "ratio"),
    }
    return metrics, as_measured


def traced(workload, np, args, checker, report):
    """Whole passes over one seeded block, each op untraced then traced."""
    import tracing
    block = next(workloads.blocks(workload, args.seed))
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    n = 0
    calib = []
    start = perf_counter()
    while n == 0 or perf_counter() - start < args.seconds:
        for op in block:
            latency, output = timed(workloads.untraced_call(workload, np, op))
            untraced_s += latency
            checker.record(op, output)
            tracer.op = n
            if workload.in_process:
                call = workload.prepare(np, op)
                tracer.install()
                try:
                    latency, output = timed(call)
                finally:
                    tracer.uninstall()
            else:
                latency, proc = timed(workload.prepare_traced_process(op))
                if isinstance(proc, Exception):
                    output = proc
                else:
                    output = (proc.returncode, proc.stdout)
                    if proc.returncode == 0:
                        tracer.absorb(json.loads(proc.stderr.splitlines()[-1]), n)
            traced_s += latency
            checker.record(op, output)
            if isinstance(output, tuple):
                tracer.counts["cli.output_bytes"] += len(output[1].encode())
            n += 1
            calib.append(calibration.fraction_sum())
    summary = tracer.summary()
    metrics = {}

    def per_op(name, column, key, unit):
        metrics[key] = (summary[name][column] / n if name in summary else 0.0, unit)

    per_op("cli.run", 2, "cli.run.self_s", "s/op")
    metrics["cli.output_bytes"] = (tracer.counts["cli.output_bytes"] / n, "bytes/op")
    per_op("nodal.node_polynomials", 0, "nodal.node_polynomials.calls_per_op", "calls/op")
    for fn in ("node_polynomials", "closed_form_symbolic", "factorize_generating_function"):
        per_op(f"nodal.{fn}", 1, f"nodal.{fn}.time_s", "s/op")
    for op in ("mul", "inverse", "log", "exp", "pow", "compose", "reversion"):
        for ring in ("chernpoly", "fraction"):
            per_op(f"series.{op}.{ring}", 0, f"series.{op}.{ring}.calls", "calls/op")
            per_op(f"series.{op}.{ring}", 2, f"series.{op}.{ring}.self_s", "s/op")
    metrics["series.max_coeff_bits"] = (tracer.maxima["series.max_coeff_bits"], "bits")
    for op in ("mul", "add"):
        metrics[f"chernpoly.{op}.calls"] = (tracer.counts[f"chernpoly.{op}.calls"] / n,
                                            "calls/op")
    metrics["chernpoly.max_terms"] = (tracer.maxima["chernpoly.max_terms"], "terms")
    for fn in ("euler_product", "delta_series", "partition_power_series", "dg2_series",
               "d2g2_series"):
        per_op(f"modular.{fn}", 1, f"modular.{fn}.time_s", "s/op")
    for fn in ("modified_cardinalities", "intersection_table"):
        per_op(f"inclexcl.{fn}", 0, f"inclexcl.{fn}.calls_per_op", "calls/op")
        per_op(f"inclexcl.{fn}", 1, f"inclexcl.{fn}.time_s", "s/op")
    per_op("chern.parse_surface", 0, "chern.parse_surface.calls", "calls/op")
    metrics["proc.startup_s"] = (
        statistics.median(startup_time()[0] for _ in range(STARTUP_REPS)), "s")
    metrics["host.calib_s"] = (statistics.median(calib), "s")
    metrics["trace.untraced_ops_per_s"] = (n / untraced_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (n / traced_s, "1/s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    report["notes"] = {"traced_ops": n, "passes": n // len(block),
                       "per_op": "calls/op and s/op are totals over traced ops / traced ops"}
    out = tree.ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    trace_file = out / f"trace-{workload.name}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.export()))
    report["trace_file"] = str(trace_file.relative_to(tree.ROOT))
    return metrics, {}


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=tree.ROOT,
                              env=dict(os.environ,
                                       GIT_CEILING_DIRECTORIES=str(tree.ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    np = tree.load_nodepoly()
    workload = workloads.WORKLOADS[args.workload]()
    checker = Checker(workload)
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client",
        "mix": workload.mix,
        "nodepoly_file": np.__file__, "git_commit": git_commit(),
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
    }
    run = traced if args.trace else end_to_end
    metrics, extra = run(workload, np, args, checker, report)
    missed = checker.selftest()
    child_files = report.get("child_nodepoly_files", [np.__file__])
    correct = (checker.failed == 0 and not missed and child_files == [np.__file__])
    report["checker_selftest_missed"] = missed
    report["failures"] = dict(checker.failures)

    print("perfbench " + json.dumps(report, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
