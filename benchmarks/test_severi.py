"""Layer timings for the Severi-degree engine of the tests.

``tests/test_caporaso_harris.py`` holds the one run engine for P2 and
P1 x P1: ``recursion_sum`` memoizes the run N(delta = 0..M) per (class,
alpha, beta), and ``contains_e`` and ``multiplicity_vectors`` memoize the
second term's sum.  These rows time it from cold caches: B1/B2 to q^20 from
the plane pair (11, 12), ``b_series_from_pair(11, 20)``, and the P1 x P1
class (11, 11) to delta 20, ``severi_run((11, 11), 20)``, the depth of the
tier-1 four-row solve.  Each round clears the engine's ``lru_cache``s
first, so it times one whole recursion, not a cache hit.  The engine is
imported from the tests directory, as the CI steps that re-derive B1/B2
import it.  Run it with pytest-benchmark installed:

    PYTHONPATH=tests python -m pytest benchmarks/test_severi.py   # timings
    PYTHONPATH=tests python -m pytest benchmarks --benchmark-disable -q
"""

import pytest

from test_caporaso_harris import (b_series_from_pair, contains_e,
                                  multiplicity_vectors, recursion_sum,
                                  severi_run)


def clear_caches():
    for cached in (recursion_sum, contains_e, multiplicity_vectors):
        cached.cache_clear()


def test_b_series_from_pair(benchmark):
    benchmark.group = "Severi B1/B2 from (11, 12) to q^20"
    b1, b2 = benchmark.pedantic(b_series_from_pair, args=(11, 20),
                                setup=clear_caches, rounds=3)
    assert b1.order == b2.order == 20


def test_severi_run_p1p1(benchmark):
    benchmark.group = "Severi run (11, 11) to delta 20"
    run = benchmark.pedantic(severi_run, args=((11, 11), 20),
                             setup=clear_caches, rounds=3)
    assert len(run) == 21 and run[0] == 1
