"""Layer timings for the Fraction kernels of :mod:`nodepoly.series`.

Each kernel runs at fixed orders on the two bases whose logs and powers the
closed form takes, DG2/q and Delta*D2G2/q^2: mul (s*s), inverse, log, exp
(of log s) and s**(-5/4) at N = 48, 64 and 96; the reversion of DG2 and
the composition of log(DG2/q) with that reversion (the substitution q =
DG2^{-1}(t) of the node polynomials) at M = 16, 20 and 28.  N = 64 and
M = 20 are where the median op of the ``qseries-deep`` workload sits.
Three more exp rows take inputs whose outputs carry true n! denominators,
exp(q + q^2/3) at N = 48 and 96 and exp(sum q^k/k!) at N = 48: there the
running denominator of the exp grows at every step, the cost side of its
integer-output case.  The powers also run at N = 96 with the other
exponents of the workload, s**(1/2) and s**(2/3), and on three inputs
whose running Miller denominator is raised most often for their size, the
cost side of the power kernel: (1+q)^(1/2), (3+q+q^2)^(-7) and
euler_product(96)^(1/2).
The reversion also runs on DG2 at M = 40 and on three sparse inputs, and
the product and the inverse on two sparse bases each at N = 96, (1+q)^2
and euler_product(96)^2, (1+q)^(-1) and (3+q+q^2)^(-1): the cost side of
the dots these kernels take over dense runs.  A sparse input has a dense
integer log-derivative (that of 1+q is (-1)^(k-1)), so q+q^2 at M = 28,
q-q^2 at M = 40 and 3q-q^2/2+q^3/3 at M = 24 pay for terms a loop
skipping zero coefficients would not, as do the sparse products and
inverses.
Inputs are built outside the timed call.  This directory is outside the
tier-1 test paths; run it with pytest-benchmark installed:

    python -m pytest benchmarks                                # timings
    PYTHONPATH=tests python -m pytest benchmarks --benchmark-disable -q

To compare two versions, run each side from inside its own checkout:
``pyproject.toml`` sets pytest's ``pythonpath = ["src"]``, which wins over
``PYTHONPATH``, so pointing ``PYTHONPATH`` at another checkout's ``src``
still times this checkout's code.
"""

from fractions import Fraction
from math import factorial

import pytest

from nodepoly.modular import dg2_series, euler_product
from nodepoly.nodal import dg2_normalized, discriminant_factor
from nodepoly.series import PSeries

ORDERS = (48, 64, 96)
REVERSION_ORDERS = (16, 20, 28)
BASES = {
    "DG2/q": dg2_normalized,
    "Delta*D2G2/q^2": discriminant_factor,
}
FACTORIAL_EXPS = {
    "q+q^2/3": lambda n: PSeries([0, 1, Fraction(1, 3)], order=n),
    "sum q^k/k!": lambda n: PSeries([0] + [Fraction(1, factorial(k))
                                           for k in range(1, n + 1)]),
}
SLOW_POWERS = {
    "(1+q)^(1/2)": (lambda n: PSeries([1, 1], order=n), Fraction(1, 2)),
    "(3+q+q^2)^(-7)": (lambda n: PSeries([3, 1, 1], order=n), -7),
    "euler_product^(1/2)": (euler_product, Fraction(1, 2)),
}
SLOW_REVERSIONS = {
    "q+q^2": (lambda m: PSeries([0, 1, 1], order=m), 28),
    "q-q^2": (lambda m: PSeries([0, 1, -1], order=m), 40),
    "3q-q^2/2+q^3/3": (lambda m: PSeries([0, 3, Fraction(-1, 2), Fraction(1, 3)],
                                         order=m), 24),
}
SLOW_MULS = {
    "1+q": lambda n: PSeries([1, 1], order=n),
    "euler_product": euler_product,
}
SLOW_INVERSES = {
    "1+q": lambda n: PSeries([1, 1], order=n),
    "3+q+q^2": lambda n: PSeries([3, 1, 1], order=n),
}
KERNELS = {
    "mul": lambda s: s * s,
    "inverse": lambda s: s.inverse(),
    "log": lambda s: s.log(),
    "exp": lambda s: s.exp(),
    "pow": lambda s: s ** Fraction(-5, 4),
}


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel(benchmark, kernel, base, n):
    s = BASES[base](n)
    if kernel == "exp":
        s = s.log()
    benchmark.group = f"{kernel} N={n}"
    assert benchmark(KERNELS[kernel], s).order == n


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(2, 3)])
@pytest.mark.parametrize("base", BASES)
def test_pow_exponents(benchmark, base, alpha):
    s = BASES[base](96)
    benchmark.group = "pow N=96"
    assert benchmark(pow, s, alpha).order == 96


@pytest.mark.parametrize("name", SLOW_POWERS)
def test_pow_slow_side(benchmark, name):
    build, e = SLOW_POWERS[name]
    s = build(96)
    benchmark.group = "pow N=96"
    assert benchmark(pow, s, e).order == 96


@pytest.mark.parametrize("name", SLOW_MULS)
def test_mul_slow_side(benchmark, name):
    s = SLOW_MULS[name](96)
    benchmark.group = "mul N=96"
    assert benchmark(KERNELS["mul"], s).order == 96


@pytest.mark.parametrize("name", SLOW_INVERSES)
def test_inverse_slow_side(benchmark, name):
    s = SLOW_INVERSES[name](96)
    benchmark.group = "inverse N=96"
    assert benchmark(s.inverse).order == 96


@pytest.mark.parametrize("m", REVERSION_ORDERS + (40,))
def test_reversion(benchmark, m):
    s = dg2_series(m)
    benchmark.group = f"reversion M={m}"
    assert benchmark(s.reversion).order == m


@pytest.mark.parametrize("name", SLOW_REVERSIONS)
def test_reversion_slow_side(benchmark, name):
    build, m = SLOW_REVERSIONS[name]
    s = build(m)
    benchmark.group = f"reversion M={m}"
    assert benchmark(s.reversion).order == m


@pytest.mark.parametrize("m", REVERSION_ORDERS)
def test_compose(benchmark, m):
    outer = BASES["DG2/q"](m).log()
    inner = dg2_series(m).reversion()
    benchmark.group = f"compose M={m}"
    assert benchmark(outer.compose, inner).order == m


@pytest.mark.parametrize("name, n", [("q+q^2/3", 48), ("q+q^2/3", 96),
                                     ("sum q^k/k!", 48)])
def test_exp_factorial_denominators(benchmark, name, n):
    s = FACTORIAL_EXPS[name](n)
    benchmark.group = f"exp N={n}"
    assert benchmark(s.exp).order == n
