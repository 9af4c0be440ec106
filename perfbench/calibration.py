"""Fixed calibration kernels that track the speed of the host.

They use the Python stdlib only, nothing from nodepoly.  Each one returns
its own wall time in seconds.

The host this benchmark was built on (2 vCPUs, shared) switches between a
fast and a slow state, about 1.8x apart, for seconds to minutes at a time.
The slow state slows big-integer Fraction arithmetic more than set and dict
work or interpreter start-up.  So each workload is divided by a kernel that
uses the host the way its ops do.  Measured there, the slow-state/fast-state
ratio of op time to kernel time was within about 6% of 1 for every workload.
Dividing every workload by the Fraction kernel instead left up to a 47% gap.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from time import perf_counter


def fraction_sum():
    """A 1.5k-term Fraction sum, restarted every 100 terms."""
    t0 = perf_counter()
    acc = 0
    for start in range(1, 1501, 100):
        s = Fraction(0)
        for k in range(start, start + 100):
            s += Fraction(k % 7 - 3, k)
        acc ^= s.numerator & 0xFFFF
    return perf_counter() - t0


_rng = random.Random(0)
_SETS_TEXT = json.dumps([[x for x in range(1500) if _rng.random() < 0.5] for _ in range(6)])


def int_sets():
    """Modified cardinalities of 6 fixed int sets over 1500 elements, by
    backward induction over the subset lattice: JSON parsing, frozensets,
    intersections and dict scans, as in an `inclexcl` op."""
    t0 = perf_counter()
    sets = [frozenset(s) for s in json.loads(_SETS_TEXT)]
    inter = {}
    for size in range(1, len(sets) + 1):
        for combo in combinations(range(len(sets)), size):
            acc = set(sets[combo[0]])
            for i in combo[1:]:
                acc &= sets[i]
            inter[frozenset(combo)] = len(acc)
    modified = {}
    for index_set in sorted(inter, key=len, reverse=True):
        modified[index_set] = inter[index_set] - sum(
            modified[j] for j in modified if j > index_set)
    return perf_counter() - t0


# setup_s is reported in seconds of a host on which interpreter() takes this
# long: the set-up time divided by interpreter() runs next to it, times this.
INTERPRETER_REFERENCE_S = 0.1


def interpreter():
    """A fresh interpreter that imports the stdlib modules the nodepoly CLI
    imports, then exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, fractions, json"],
                   check=True, stdin=subprocess.DEVNULL)
    return perf_counter() - t0
