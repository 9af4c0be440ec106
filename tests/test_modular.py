"""Quasi-modular q-expansions against brute-force oracles.

The product expansions are recomputed here on plain coefficient lists and
the divisor sums by full enumeration, so every value is checked through two
independent routes.
"""

from fractions import Fraction

import pytest

from nodepoly.modular import (d2g2_series, delta_series, dg2_series,
                              euler_product, g2_series, partition_power_series,
                              sigma1)
from nodepoly.series import PSeries
from test_series import poly_mul

F = Fraction


# -- oracles ------------------------------------------------------------------

def sigma1_oracle(k):
    return sum(d for d in range(1, k + 1) if k % d == 0)


def product_oracle(exponent, order):
    """prod_{n=1..order} (1 - q^n)^exponent on plain coefficient lists."""
    out = [1] + [0] * order
    for n in range(1, order + 1):
        factor = [0] * (order + 1)
        factor[0] = 1
        factor[n] = -1
        for _ in range(exponent):
            out = poly_mul(out, factor, order)
    return out


def partition_count(n, largest=None):
    """Number of partitions of n, by direct recursion."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(partition_count(n - part, part)
               for part in range(min(n, largest), 0, -1))


# -- divisor sums --------------------------------------------------------------

def test_sigma1_small_values():
    assert sigma1(1) == 1
    assert sigma1(4) == 1 + 2 + 4
    assert sigma1(6) == 1 + 2 + 3 + 6


def test_sigma1_against_enumeration():
    for k in range(1, 200):
        assert sigma1(k) == sigma1_oracle(k)


def test_sigma1_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma1(0)


# -- Eisenstein-type series ------------------------------------------------------

def test_g2_series_coefficients():
    g2 = g2_series(5)
    assert g2[0] == F(-1, 24)
    assert g2[1] == 1
    assert g2[5] == 6
    assert g2 == PSeries([F(-1, 24), 1, 3, 4, 7, 6])
    assert g2_series(0) == PSeries([F(-1, 24)])


def test_dg2_d2g2_coefficients():
    dg2 = dg2_series(5)
    assert dg2[0] == 0
    assert dg2[2] == 2 * 3
    assert dg2 == PSeries([0, 1, 6, 12, 28, 30])
    d2g2 = d2g2_series(5)
    assert d2g2[3] == 9 * 4
    assert d2g2 == PSeries([0, 1, 12, 36, 112, 150])


def test_derivative_series_are_qderiv_images():
    # two independent routes: divisor sums vs the formal operator
    n = 12
    assert dg2_series(n) == g2_series(n).qderiv()
    assert d2g2_series(n) == dg2_series(n).qderiv()


# -- discriminant form -----------------------------------------------------------

def test_delta_known_coefficients():
    delta = delta_series(6)
    assert delta[0] == 0
    assert delta[1] == 1
    assert delta[2] == -24
    assert delta[5] == 4830
    assert delta == PSeries([0, 1, -24, 252, -1472, 4830, -6048])


def test_delta_against_product_oracle():
    order = 9
    oracle = [0] + product_oracle(24, order - 1)
    assert list(delta_series(order).coeffs) == oracle
    with pytest.raises(ValueError):
        delta_series(0)


# -- partition powers --------------------------------------------------------------

def test_partition_numbers():
    p = partition_power_series(1, 8)
    assert list(p.coeffs) == [partition_count(n) for n in range(9)]
    assert p.coeffs[:6] == (1, 1, 2, 3, 5, 7)


def test_partition_power_24():
    p24 = partition_power_series(24, 5)
    assert p24[0] == 1
    assert list(p24.coeffs) == [1, 24, 324, 3200, 25650, 176256]


def test_partition_power_against_inverse_product_oracle():
    order = 7
    for e in (2, 24):
        got = partition_power_series(e, order)
        assert list((got * PSeries(product_oracle(e, order))).coeffs) \
            == [1] + [0] * order


def test_partition_coefficients_positive_integers():
    for e in (1, 3, 24):
        for c in partition_power_series(e, 10):
            assert c.denominator == 1
            assert c > 0


def test_delta_times_partition_power_is_q():
    n = 8
    product = delta_series(n) * partition_power_series(24, n)
    assert product == PSeries([0, 1], order=n)


def pentagonal_series(order):
    """sum_k (-1)^k q^(k(3k-1)/2) over all integers k, truncated."""
    out = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        for j in {k, -k}:
            if j * (3 * j - 1) // 2 <= order:
                out[j * (3 * j - 1) // 2] = (-1) ** k
        k += 1
    return out


def euler_product_loop(order):
    """prod_{k=1..order} (1 - q^k) by multiplying each factor in place, top
    coefficient first: O(order^2), independent of the pentagonal theorem."""
    out = [1] + [0] * order
    for k in range(1, order + 1):
        for i in range(order, k - 1, -1):
            out[i] -= out[i - k]
    return out


def test_euler_product_is_pentagonal():
    # Euler's pentagonal number theorem gives the sparse expansion
    assert list(euler_product(12).coeffs) == \
        [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    assert list(euler_product(300).coeffs) == pentagonal_series(300)
    # factors past q^n leave the coefficients up to q^n alone, so every
    # truncation order 0..300 is a prefix of the one loop product
    oracle = euler_product_loop(300)
    for order in range(301):
        assert list(euler_product(order).coeffs) == oracle[:order + 1]
    assert list(euler_product(0).coeffs) == [1]
    assert list(euler_product(1).coeffs) == [1, -1]
    with pytest.raises(ValueError):
        euler_product(-1)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        partition_power_series(0, 4)
    for builder in (g2_series, dg2_series, d2g2_series):
        with pytest.raises(ValueError):
            builder(-1)

