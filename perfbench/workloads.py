"""Seeded operation streams and executors for the three workloads.

Every workload is a closed loop with one client: an operation starts only
after the previous one has finished.  Operations come in blocks whose cost
mix is fixed; the seed shuffles each block and picks its free parameters
(surfaces, series bases, exponents, set contents), so medians taken with
different seeds describe the same mix.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import calibration
import checks
from tree import HERE, ROOT, child_env, run_cli


def blocks(workload, seed):
    """The endless sequence of op blocks of one workload and seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.block(rng)


def untraced_call(workload, np, op):
    """The callable a measured op times: a child process for cli-delta5,
    an in-process call otherwise."""
    return workload.prepare(np, op) if workload.in_process else workload.prepare_process(op)


class CliDelta5:
    """Each op is a fresh `python -m nodepoly.cli` process at delta 5."""

    name = "cli-delta5"
    in_process = False
    mix = ("blocks of 4, seeded order: node-polys, factorize, yau-zaslow "
           "--max-delta 5, count --surface <K3:2h-2 | T4:2n, h,n in 1..12> --delta 5")
    check = staticmethod(checks.check_cli)
    calibrate = staticmethod(calibration.interpreter)
    COMMANDS = ("node-polys", "factorize", "yau-zaslow", "count")
    SURFACES = tuple(f"K3:{2 * h - 2}" for h in range(1, 13)) \
        + tuple(f"T4:{2 * n}" for n in range(1, 13))

    def __init__(self):
        self.child_peak_kb = 0

    def block(self, rng):
        ops = []
        for kind in rng.sample(self.COMMANDS, len(self.COMMANDS)):
            if kind == "count":
                surface = rng.choice(self.SURFACES)
                ops.append({"kind": kind, "surface": surface,
                            "argv": ["count", "--surface", surface, "--delta", "5"]})
            else:
                ops.append({"kind": kind, "argv": [kind, "--max-delta", "5"]})
        return ops

    # the op that ends set-up, run in a fresh interpreter by child.py
    warm_op = {"argv": ["node-polys", "--max-delta", "5"]}

    def prepare(self, np, op):
        return lambda: run_cli(np, op["argv"])

    def prepare_process(self, op):
        argv = [sys.executable, "-m", "nodepoly.cli"] + op["argv"]
        return lambda: self._run_process(argv)

    def prepare_traced_process(self, op):
        argv = [sys.executable, str(HERE / "child.py"), "traced"] + op["argv"]
        return lambda: subprocess.run(argv, capture_output=True, text=True,
                                      env=child_env(), cwd=ROOT)

    def _run_process(self, argv):
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        with proc.stdout:
            text = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, text


class QseriesDeep:
    """In-process Fraction q-series kernels at orders beyond the delta cap."""

    name = "qseries-deep"
    in_process = True
    ORDERS = (48, 64, 80, 96)
    REVERSION_ORDERS = (16, 20, 24, 28)
    KINDS = ("partition_power", "delta", "log", "exp", "inverse", "pow", "reversion")
    EXPONENTS = (1, 8, 24)
    ALPHAS = ("1/2", "-1/2", "2/3", "-5/4")
    mix = ("blocks of 28, seeded order: each of partition_power(e in 1,8,24), delta, "
           "log, exp, inverse, pow(alpha in 1/2,-1/2,2/3,-5/4) at N = 48,64,80,96 "
           "on a seeded base DG2/q or Delta*D2G2/q^2, and dg2_series(M).reversion() "
           "at M = 16,20,24,28")
    check = staticmethod(checks.check_qseries)
    calibrate = staticmethod(calibration.fraction_sum)

    def __init__(self):
        self._inputs = {}

    def block(self, rng):
        ops = []
        for kind in self.KINDS:
            for n in self.REVERSION_ORDERS if kind == "reversion" else self.ORDERS:
                op = {"kind": kind, "n": n}
                if kind == "partition_power":
                    op["e"] = rng.choice(self.EXPONENTS)
                elif kind not in ("delta", "reversion"):
                    op["base"] = rng.choice(sorted(checks.BASES))
                if kind == "pow":
                    op["alpha"] = rng.choice(self.ALPHAS)
                ops.append(op)
        rng.shuffle(ops)
        return ops

    # small, so that set-up is mostly start-up, import and first use
    warm_op = {"log_dg2_over_q": 32}

    def _series(self, np, what, base, n):
        key = (what, base, n)
        if key not in self._inputs:
            coeffs = checks.BASES[base](n)
            if what == "log":
                coeffs = checks.log_series(coeffs, n)
            self._inputs[key] = np.series.PSeries(coeffs)
        return self._inputs[key]

    def prepare(self, np, op):
        kind, n = op["kind"], op["n"]
        if kind == "partition_power":
            return lambda: np.modular.partition_power_series(op["e"], n)
        if kind == "delta":
            return lambda: np.modular.delta_series(n)
        if kind == "reversion":
            return lambda: np.modular.dg2_series(n).reversion()
        if kind == "exp":
            x = self._series(np, "log", op["base"], n)
            return lambda: x.exp()
        s = self._series(np, "base", op["base"], n)
        if kind == "log":
            return lambda: s.log()
        if kind == "inverse":
            return lambda: s.inverse()
        alpha = Fraction(op["alpha"])
        return lambda: s ** alpha


class InclexclLattice:
    """In-process `inclexcl` runs through nodepoly.cli.run on seeded set systems."""

    name = "inclexcl-lattice"
    in_process = True
    # kind -> (number of sets k, universe size); each element joins each set
    # with probability 1/2, so all 2^k - 1 membership signatures occur.
    SHAPES = {"L8": (8, 4000), "L9": (9, 3000), "L10": (10, 2000), "E6": (6, 20000)}
    # The median falls among L9 and E6, which cost about the same; the two
    # L10, 2/5 of the ops, hold the 11th-largest latency of a run.
    BLOCK = ("L8", "L9", "L10", "L10", "E6")
    mix = ("blocks of 5, seeded order and set contents: k=8 over 4000, k=9 over "
           "3000, 2 x k=10 over 2000 elements (lattice-bound), k=6 over 20000 "
           "elements (element-bound), membership probability 1/2")
    check = staticmethod(checks.check_inclexcl)
    calibrate = staticmethod(calibration.int_sets)

    def block(self, rng):
        return [self._op(kind, rng) for kind in rng.sample(self.BLOCK, len(self.BLOCK))]

    def _op(self, kind, rng):
        k, universe = self.SHAPES[kind]
        sets = [[x for x in range(universe) if rng.random() < 0.5] for _ in range(k)]
        return {"kind": kind, "sets": sets}

    # small, so that set-up is mostly start-up, import and first use
    warm_op = {"argv": ["inclexcl"], "stdin": json.dumps(
        [list(range(i, 1000, i + 1)) for i in range(6)])}

    def prepare(self, np, op):
        text = json.dumps(op["sets"])
        return lambda: run_cli(np, ["inclexcl"], text)


WORKLOADS = {w.name: w for w in (CliDelta5, QseriesDeep, InclexclLattice)}
