"""Layer timings for the polynomial exp of :mod:`nodepoly.nodal`.

``_exp_linear`` is the one stage that builds ChernPoly coefficients: it
turns the four log rows of ``_log_rows_in_t(n)`` into F(t), whose t^delta
coefficient is T_delta.  It runs at n = 5 (the CLI's default order and the
``cli-delta5`` workload's ``node-polys``), 12 and 20 (``nodal.MAX_DELTA``).
The rows are built outside the timed call.  Run it with pytest-benchmark
installed:

    python -m pytest benchmarks/test_nodal.py                     # timings
    python -m pytest benchmarks --benchmark-disable -q            # one pass
"""

import pytest

from nodepoly.nodal import _exp_linear, _log_rows_in_t


@pytest.mark.parametrize("n", (5, 12, 20))
def test_exp_linear(benchmark, n):
    benchmark.group = f"_exp_linear n={n}"
    rows = _log_rows_in_t(n)
    assert benchmark(_exp_linear, rows).order == n
