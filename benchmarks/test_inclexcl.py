"""Layer timings for :mod:`nodepoly.inclexcl`.

One op is ``SetSystem(lists)`` -- the pass that checks each element and
records its membership signature -- followed by ``modified_cardinalities``,
on seeded inputs of the two regimes of the ``inclexcl`` command: k = 6 sets
over 20000 elements (element-bound) and k = 10 over 2000 (lattice-bound),
each element joining each set with probability 1/2.  The lists are built
outside the timed call.  Run it with pytest-benchmark installed:

    python -m pytest benchmarks/test_inclexcl.py                  # timings
    python -m pytest benchmarks --benchmark-disable -q            # one pass
"""

import random

import pytest

from nodepoly.inclexcl import SetSystem, modified_cardinalities

SHAPES = {"k=6/20000": (6, 20000), "k=10/2000": (10, 2000)}


def seeded_sets(k, universe, seed=1):
    rng = random.Random(seed)
    return [[x for x in range(universe) if rng.random() < 0.5]
            for _ in range(k)]


def build_and_count(sets):
    return modified_cardinalities(SetSystem(sets))


@pytest.mark.parametrize("shape", SHAPES)
def test_build_and_count(benchmark, shape):
    k, universe = SHAPES[shape]
    sets = seeded_sets(k, universe)
    benchmark.group = f"inclexcl {shape}"
    table = benchmark(build_and_count, sets)
    assert len(table) == 2 ** k - 1
    assert sum(mod for _, mod in table.values()) == \
        len(set().union(*sets))
