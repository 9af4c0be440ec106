"""Layer timings for the modular builders of :mod:`nodepoly.modular`.

``euler_product``, ``delta_series``, ``partition_power_series(24, .)``
(the Yau-Zaslow generating function) and the divisor-sum series
``g2_series``, ``dg2_series`` and ``d2g2_series`` at N = 96, the deepest
order the ``qseries-deep`` benchmark workload asks for, and at N = 500,
the CLI's ``series`` bound.  Run it with pytest-benchmark installed:

    python -m pytest benchmarks/test_modular.py                   # timings
    python -m pytest benchmarks --benchmark-disable -q            # one pass
"""

import pytest

from nodepoly.modular import (d2g2_series, delta_series, dg2_series,
                              euler_product, g2_series,
                              partition_power_series)

ORDERS = (96, 500)
BUILDERS = {
    "euler_product": euler_product,
    "delta_series": delta_series,
    "partition_power_series(24)": lambda n: partition_power_series(24, n),
    "g2_series": g2_series,
    "dg2_series": dg2_series,
    "d2g2_series": d2g2_series,
}


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("builder", BUILDERS)
def test_builder(benchmark, builder, n):
    benchmark.group = f"{builder} N={n}"
    assert benchmark(BUILDERS[builder], n).order == n
