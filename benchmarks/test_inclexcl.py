"""Layer timings for :mod:`nodepoly.inclexcl`.

One op is ``SetSystem(lists)`` -- the pass that checks each element and
records its membership signature -- followed by ``modified_cardinalities``,
on seeded inputs of every op shape of the ``inclexcl-lattice`` workload:
k = 6 sets over 20000 elements (element-bound), and k = 8 over 4000, k = 9
over 3000 and k = 10 over 2000 (lattice-bound), each element joining each
set with probability 1/2.  All are dense, so ``SetSystem`` records their
masks in a list indexed by element and keeps that list as its signature
map; a last shape spreads the k = 6 elements by a 10**9 stride, which sends
them down the dict path.  The lists are built outside the timed call.  A
build-only case times ``SetSystem(lists)`` alone, and a lattice-only case
``modified_cardinalities`` alone on a prebuilt ``SetSystem``.  A last case
times the whole command on the same inputs: ``cli.run(["inclexcl"])`` from
the JSON text on stdin to the JSON document on stdout, parsing, counting
and writing included.  Run it with pytest-benchmark installed:

    python -m pytest benchmarks/test_inclexcl.py                  # timings
    PYTHONPATH=tests python -m pytest benchmarks --benchmark-disable -q
"""

import io
import json
import random

import pytest

from nodepoly.cli import run
from nodepoly.inclexcl import SetSystem, modified_cardinalities

# name -> (k, universe size, stride between elements)
SHAPES = {"k=6/20000": (6, 20000, 1), "k=8/4000": (8, 4000, 1),
          "k=9/3000": (9, 3000, 1), "k=10/2000": (10, 2000, 1),
          "k=6/20000 sparse": (6, 20000, 10**9)}


def seeded_sets(k, universe, stride, seed=1):
    rng = random.Random(seed)
    return [[x * stride for x in range(universe) if rng.random() < 0.5]
            for _ in range(k)]


def build_and_count(sets):
    return modified_cardinalities(SetSystem(sets))


@pytest.mark.parametrize("shape", SHAPES)
def test_build_and_count(benchmark, shape):
    k, universe, stride = SHAPES[shape]
    sets = seeded_sets(k, universe, stride)
    benchmark.group = f"inclexcl {shape}"
    plain, modified = benchmark(build_and_count, sets)
    assert len(plain) == len(modified) == 2 ** k - 1
    assert sum(modified) == len(set().union(*sets))


@pytest.mark.parametrize("shape", SHAPES)
def test_build_only(benchmark, shape):
    k, universe, stride = SHAPES[shape]
    sets = seeded_sets(k, universe, stride)
    benchmark.group = f"inclexcl {shape}"
    system = benchmark(SetSystem, sets)
    assert system.k == k
    assert len(system.signatures) == len(set().union(*sets))


@pytest.mark.parametrize("shape", SHAPES)
def test_lattice_only(benchmark, shape):
    k, universe, stride = SHAPES[shape]
    sets = seeded_sets(k, universe, stride)
    system = SetSystem(sets)
    benchmark.group = f"inclexcl {shape}"
    plain, modified = benchmark(modified_cardinalities, system)
    assert plain[:k] == [len(set(s)) for s in sets]
    assert sum(modified) == len(set().union(*sets))


def run_inclexcl(text):
    out = io.StringIO()
    code = run(["inclexcl"], out=out, stdin=io.StringIO(text))
    return code, out.getvalue()


@pytest.mark.parametrize("shape", SHAPES)
def test_cli_inclexcl_json(benchmark, shape):
    k, universe, stride = SHAPES[shape]
    sets = seeded_sets(k, universe, stride)
    benchmark.group = f"inclexcl {shape}"
    code, out = benchmark(run_inclexcl, json.dumps(sets))
    payload = json.loads(out)["payload"]
    assert code == 0 and len(payload["table"]) == 2 ** k - 1
    assert payload["union_size"] == len(set().union(*sets))
