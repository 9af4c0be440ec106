"""Layer timings for the log rows and the polynomial exp of
:mod:`nodepoly.nodal`.

``_log_rows_in_t`` builds the four log rows in t, one per Chern number, by
one Lagrange-Buermann pass in integers over the integer log-derivatives of
the four bases; every ``node-polys``, ``count``, ``yau-zaslow`` and
``factorize`` run builds them once.  ``_exp_linear`` is the one stage that
builds ChernPoly coefficients: it turns those rows into F(t), whose t^delta
coefficient is T_delta, with the rows built outside the timed call.  Both
run at n = 5 (the CLI's default order and the ``cli-delta5`` workload's
order), 12 and 20 (``nodal.MAX_DELTA``).  Run it with pytest-benchmark
installed:

    python -m pytest benchmarks/test_nodal.py                     # timings
    PYTHONPATH=tests python -m pytest benchmarks --benchmark-disable -q
"""

import pytest

from nodepoly.nodal import _exp_linear, _log_rows_in_t


@pytest.mark.parametrize("n", (5, 12, 20))
def test_log_rows_in_t(benchmark, n):
    benchmark.group = f"_log_rows_in_t n={n}"
    rows = benchmark(_log_rows_in_t, n)
    assert [row.order for row in rows] == [n] * 4


@pytest.mark.parametrize("n", (5, 12, 20))
def test_exp_linear(benchmark, n):
    benchmark.group = f"_exp_linear n={n}"
    rows = _log_rows_in_t(n)
    assert benchmark(_exp_linear, rows).order == n
