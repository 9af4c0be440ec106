"""q-expansions of the quasi-modular ingredients of the closed formula.

Everything here is an exact ``PSeries`` over ``Fraction``:

* ``g2_series``         -1/24 + sum_k sigma_1(k) q^k
* ``dg2_series``        its image under D = q d/dq, i.e. sum k*sigma_1(k) q^k
* ``d2g2_series``       sum k^2*sigma_1(k) q^k
* ``delta_series``      the discriminant cusp form q*prod(1-q^n)^24
* ``partition_power_series``   prod(1-q^k)^(-e)

The three divisor-sum series come from one builder, and the derivative
series are computed directly from divisor sums rather than through
``qderiv`` so the identity dg2 = D(g2) stays a two-route check.
"""

from fractions import Fraction
from math import isqrt

from .series import PSeries

_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


def sigma1(k):
    """Sum of the positive divisors of k."""
    if k < 1:
        raise ValueError("sigma1 needs k >= 1")
    total = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            total += d
            if d != k // d:
                total += k // d
        d += 1
    return total


def _divisor_sums(order, power, constant):
    """constant + sum_k k^power * sigma_1(k) q^k, truncated at the order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return PSeries([constant] + [k ** power * sigma1(k)
                                 for k in range(1, order + 1)])


def g2_series(order):
    return _divisor_sums(order, 0, Fraction(-1, 24))


def dg2_series(order):
    return _divisor_sums(order, 1, 0)


def d2g2_series(order):
    return _divisor_sums(order, 2, 0)


def euler_product(order):
    """prod_{k>=1} (1 - q^k) truncated at the given order: 1 plus (-1)^j at
    q^(j(3j - 1)/2) and q^(j(3j + 1)/2) for j >= 1 (pentagonal theorem)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    out = [_ONE] + [_ZERO] * order
    for j in range(1, isqrt(order) + 1):  # j(3j - 1)/2 >= j^2
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= order:
                out[e] = _MINUS_ONE if j % 2 else _ONE
    return PSeries(out)


def delta_series(order):
    """q * prod_{n>=1} (1 - q^n)^24, the weight-12 discriminant form.

    The leading coefficient sits at q^1, so the order must be >= 1.
    """
    if order < 1:
        raise ValueError("delta needs order >= 1")
    return (euler_product(order - 1) ** 24).shift_up(1)


def partition_power_series(e, order):
    """prod_{k>=1} (1 - q^k)^(-e) for an int e >= 1 (partition numbers at e = 1)."""
    if not isinstance(e, int):
        raise TypeError(f"exponent must be an int, not {type(e).__name__}")
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    return euler_product(order) ** -e

