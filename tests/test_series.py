"""Exact power-series arithmetic: frozen examples and property checks.

The composition and inversion tests are checked against a brute-force
polynomial oracle implemented here on plain coefficient lists, independent
of the PSeries code paths.  The integer kernels that PSeries runs on
all-Fraction series are checked against the coefficient-ring recurrences
they replaced, kept here as oracles; the exp, inverse and log oracles run
over any coefficient ring, so they also serve as the polynomial-coefficient
routes in the node-polynomial tests.  The Miller power kernel is checked
against binary powering and exp(e*log), the routes it replaced, and
against the binomial series of (1 + c*q)^e.  At the orders the benchmark
runs, log, powers and reversion are checked by identities that use none of
their kernels' formulas: D(log s) * s = D(s), exp(log s) = s,
s * D(s^e) = e * s^e * D(s) and composition both ways with the reverted
series.
"""

from decimal import Decimal
from fractions import Fraction
from math import comb, factorial
import random

import pytest

from nodepoly.chernpoly import ChernPoly
from nodepoly.modular import (d2g2_series, delta_series, dg2_series,
                               euler_product, partition_power_series)
from nodepoly.nodal import node_polynomials
from nodepoly.series import PSeries, _integer_run, _lagrange_fractions

F = Fraction


# -- brute-force polynomial oracle (plain lists, no PSeries) -----------------

def poly_mul(a, b, order):
    out = [F(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def poly_compose(outer, inner, order):
    """Substitute inner (constant term 0) into outer, truncated."""
    assert inner[0] == 0
    result = [F(0)] * (order + 1)
    power = [F(1)] + [F(0)] * order
    for c in outer[: order + 1]:
        for k in range(order + 1):
            result[k] += c * power[k]
        power = poly_mul(power, inner, order)
    return result


def assert_fractions(s):
    """Every coefficient is a Fraction: an int would compare equal to one."""
    assert all(type(c) is Fraction for c in s.coeffs)


def random_series(rng, order, lo=-5, hi=5):
    return PSeries([F(rng.randint(lo, hi)) for _ in range(order + 1)])


def random_rational_series(rng, order, first=0, max_den=50):
    """Seeded rationals with denominators up to max_den; coefficients
    below ``first`` are zero."""
    return PSeries([F(0)] * first + [
        F(rng.randint(-max_den, max_den), rng.randint(1, max_den))
        for _ in range(order + 1 - first)])


# -- oracles for the integer kernels -----------------------------------------

def inverse_oracle(s):
    """1/s by the recurrence b_k = -(1/a_0) * sum_(j=1..k) a_j*b_(k-j)."""
    a = s.coeffs
    r0 = 1 / a[0]
    out = [r0]
    for k in range(1, s.order + 1):
        acc = a[1] * out[k - 1]
        for j in range(2, k + 1):
            acc = acc + a[j] * out[k - j]
        out.append(-r0 * acc)
    return PSeries(out)


def exp_oracle(s):
    """exp s by the recurrence n*b_n = sum k*a_k*b_(n-k), over any ring."""
    a = s.coeffs
    assert a[0] == 0
    out = [F(1)]
    for n in range(1, s.order + 1):
        acc = a[n] * out[0]
        for k in range(1, n):
            acc = acc + F(k, n) * (a[k] * out[n - k])
        out.append(acc)
    return PSeries(out)


def log_oracle(s):
    """log s by the recurrence n*l_n = n*a_n - sum k*l_k*a_(n-k), over any
    ring."""
    a = s.coeffs
    assert a[0] == 1
    out = [F(0)]
    for n in range(1, s.order + 1):
        acc = a[n]
        for k in range(1, n):
            acc = acc - F(k, n) * (out[k] * a[n - k])
        out.append(acc)
    return PSeries(out)


def pow_oracle(s, e):
    """s**e by binary powering for an integer e (through the inverse when
    e < 0) and by exp(e*log s) otherwise."""
    if F(e).denominator != 1:
        assert s.coeffs[0] == 1
        return (e * s.log()).exp()
    n = int(e)
    if n < 0:
        s, n = s.inverse(), -n
    result = PSeries.one(s.order)
    while n:
        if n & 1:
            result = result * s
        n >>= 1
        if n:
            s = s * s
    return result


def reversion_oracle(s):
    """Compositional inverse solved one coefficient at a time: the q^n
    coefficient of s(g) is a_1*g_n plus terms in g_1 .. g_(n-1) only."""
    a = s.coeffs
    assert s.order >= 1 and a[0] == 0 and a[1] != 0
    r1 = 1 / a[1]
    g = [F(0), r1]
    for n in range(2, s.order + 1):
        partial = PSeries(g + [F(0)])
        err = s.truncate(n).compose(partial).coeffs[n]
        g.append(-r1 * err)
    return PSeries(g)


def test_inverse_matches_generic_loop():
    rng = random.Random(61)
    for order in range(41):
        s = random_rational_series(rng, order)
        while s.coeffs[0] == 0:
            s = random_rational_series(rng, order)
        got = s.inverse()
        assert got == inverse_oracle(s)
        assert s * got == PSeries.one(order)
        assert_fractions(got)
    # non-unit and negative constant terms, integer and rational
    for c0 in (F(-1), F(3), F(-7, 2), F(5, 49)):
        s = PSeries((c0,) + random_rational_series(rng, 20).coeffs[1:])
        assert s.inverse() == inverse_oracle(s)
    # sparse bases at order 96: the inner dot runs over every scaled A_j,
    # zeros included
    for s in (PSeries([1, 1], order=96), PSeries([3, 1, 1], order=96),
              PSeries([F(-2, 3), 0, 0, F(5, 7)], order=96),
              euler_product(96)):
        got = s.inverse()
        assert got == inverse_oracle(s)
        assert_fractions(got)
    # cleared constant term 1, so every output denominator is 1: a sparse
    # integer base, and one whose constant term is 1/d for the common d
    for s in (euler_product(48), PSeries([F(1, 6), F(1, 2), F(-2, 3), 5, 0])):
        got = s.inverse()
        assert got == inverse_oracle(s)
        assert_fractions(got)


def test_exp_matches_generic_loop():
    rng = random.Random(67)
    for order in range(41):
        s = random_rational_series(rng, order, first=1)
        got = s.exp()
        assert got == exp_oracle(s)
        assert_fractions(got)
    # integer k*a_k, the shape of every log-series exp'd in the package
    s = PSeries([0] + [F(rng.randint(-9, 9), k) for k in range(1, 31)])
    got = s.exp()
    assert got == exp_oracle(s)
    assert_fractions(got)
    # every branch of the running denominator D: integer outputs at N = 96
    # (D stays 1); true n! denominators (D grows at each step); exp(2q),
    # whose D grows by 3 at q^3 and whose q^4 gcd then cancels all of
    # n*dc = 4; negative sums; dc = 42 > 1; and exp(sum q^k/k!), whose dc is
    # lcm((k-1)!) but whose outputs (Bell numbers over n!) need only n!
    cases = [
        dg2_series(97).shift_down(1).log(),
        (delta_series(98) * d2g2_series(98)).shift_down(2).log(),
        PSeries.identity(40),
        PSeries([0, 1, F(1, 3)], order=40),
        PSeries([0, 2], order=12),
        PSeries([0, -2, F(-5, 3)], order=24),
        PSeries([0, F(1, 2), F(-1, 3), F(5, 7)], order=24),
        PSeries([0] + [F(1, factorial(k)) for k in range(1, 49)]),
    ]
    for s in cases:
        got = s.exp()
        assert got == exp_oracle(s)
        assert_fractions(got)


def test_log_matches_oracle():
    rng = random.Random(71)
    for order in range(41):
        s = PSeries((F(1),) + random_rational_series(rng, order).coeffs[1:])
        got = s.log()
        assert got == log_oracle(s)
        assert_fractions(got)


def test_reversion_matches_oracle():
    rng = random.Random(73)
    # the oracle is O(N^4) in ever larger rationals: sample the high orders
    for order in list(range(1, 25)) + [32, 40]:
        s = random_rational_series(rng, order, first=1)
        while s.coeffs[1] == 0:
            s = random_rational_series(rng, order, first=1)
        got = s.reversion()
        assert got == reversion_oracle(s)
        assert_fractions(got)
    # a_1 = 3 and fractional coefficients: each Lagrange power has c = A_0
    # != 1, so its running denominator is raised as it goes
    s = PSeries([0, 3, F(-1, 2), F(2, 3), 0, F(-5, 7), 1], order=20)
    got = s.reversion()
    assert got == reversion_oracle(s)
    assert_fractions(got)


def test_lagrange_substitution_matches_compose_with_reversion():
    # h(g) for g the inverse of s, from the integer derivative run of h over
    # one denominator; U_0 = s_1 != 1 and rational s scale both dots, and a
    # zero h and the identity h = q ride along
    rng = random.Random(89)
    for order in (1, 2, 5, 12, 20):
        s = random_rational_series(rng, order, first=2, max_den=9)
        s = PSeries((F(0), F(rng.choice([1, -3, 5]), rng.choice([1, 2, 7])))
                    + s.coeffs[2:])
        hs = [random_rational_series(rng, order, first=1) for _ in range(3)]
        hs += [PSeries.zero(order), PSeries.identity(order)]
        den, flat = _integer_run([k * c for h in hs
                                  for k, c in enumerate(h.coeffs) if k])
        derivatives = [flat[i * order:(i + 1) * order]
                       for i in range(len(hs))]
        got = _lagrange_fractions(s.coeffs[1:], derivatives, order, den)
        rev = s.reversion()
        assert [PSeries(g) for g in got] == [h.compose(rev) for h in hs]


def test_reversion_round_trip_dense_rational():
    # a_1 = U_0 != 1 and dense rationals: every L_k of the shared
    # log-derivative is nonzero and each g_m carries U_0^(2m-1)
    rng = random.Random(79)
    for order, a1 in ((32, F(-3)), (40, F(2, 5)), (48, F(7, 3))):
        s = random_rational_series(rng, order, first=2, max_den=9)
        s = PSeries((F(0), a1) + s.coeffs[2:])
        rev = s.reversion()
        q = PSeries.identity(order)
        assert s.compose(rev) == q
        assert rev.compose(s) == q
        assert_fractions(rev)


def test_reversion_of_delta_d2g2_at_order_28():
    # s = q * (Delta*D2G2/q^2): U = s/q has U_0 = 1 like DG2/q, with other L_k
    s = (delta_series(29) * d2g2_series(29)).shift_down(1)
    assert s.order == 28 and s[0] == 0 and s[1] == 1
    rev = s.reversion()
    q = PSeries.identity(28)
    assert s.compose(rev) == q
    assert rev.compose(s) == q
    assert_fractions(rev)


def test_reversion_of_dg2_at_order_28():
    s = dg2_series(28)
    rev = s.reversion()
    q = PSeries.identity(28)
    assert s.compose(rev) == q
    assert rev.compose(s) == q


def base_at_order_96(base):
    """One of the two bases whose logs and powers the closed form takes."""
    if base == "DG2/q":
        s = dg2_series(97).shift_down(1)
    else:
        s = (delta_series(98) * d2g2_series(98)).shift_down(2)
    assert s.order == 96 and s[0] == 1
    return s


@pytest.mark.parametrize("base", ["DG2/q", "Delta*D2G2/q^2"])
def test_log_at_order_96(base):
    s = base_at_order_96(base)
    log = s.log()
    assert log.qderiv() * s == s.qderiv()
    assert log.exp() == s


def test_kernels_at_orders_zero_and_one():
    assert PSeries([F(-2, 3)]).inverse() == PSeries([F(-3, 2)])
    assert PSeries([F(-2, 3), F(5, 7)]).inverse() \
        == PSeries([F(-3, 2), F(-45, 28)])
    assert PSeries([0]).exp() == PSeries([1])
    assert PSeries([0, F(5, 7)]).exp() == PSeries([1, F(5, 7)])
    assert PSeries([1]).log() == PSeries([0])
    assert PSeries([1, F(-3, 4)]).log() == PSeries([0, F(-3, 4)])
    assert PSeries([0, F(-4, 9)]).reversion() == PSeries([0, F(-9, 4)])
    assert PSeries([F(1)]).inverse() == inverse_oracle(PSeries([F(1)]))
    assert PSeries([F(0)]).exp() == exp_oracle(PSeries([F(0)]))


def test_kernels_reject_polynomial_coefficients():
    # the integer kernels have no generic-ring fallback
    one = ChernPoly.constant(1)
    x = ChernPoly.variable(0)
    for method, s in (("inverse", PSeries([one, x], order=3)),
                      ("exp", PSeries([0, x], order=3)),
                      ("log", PSeries([one, x], order=3)),
                      ("reversion", PSeries([0, one, x], order=3))):
        with pytest.raises(TypeError):
            getattr(s, method)()
    with pytest.raises(TypeError):
        PSeries([1, 1], order=3) / x
    q = PSeries.identity(3)
    for outer, inner in ((PSeries([one, x], order=3), q),
                         (PSeries([1, 1], order=3), PSeries([0, x], order=3))):
        with pytest.raises(TypeError):
            outer.compose(inner)


# -- construction and truncation ---------------------------------------------

def test_order_and_padding():
    s = PSeries([1, 2], order=3)
    assert s.order == 3
    assert s.coeffs == (F(1), F(2), F(0), F(0))
    assert PSeries([1, 2, 3, 4], order=1).coeffs == (F(1), F(2))
    for coeffs in ([1, 2], [F(1, 2), F(3)], [1, F(1, 2), 0, F(-4)]):
        assert_fractions(PSeries(coeffs))
        assert_fractions(PSeries(coeffs, order=5))
        assert_fractions(PSeries(coeffs, order=0))
    with pytest.raises(ValueError):
        PSeries([])
    with pytest.raises(ValueError, match="truncation order"):
        PSeries([1], order=-1)
    with pytest.raises(ValueError, match="order >= 1"):
        PSeries.identity(0)
    with pytest.raises(ValueError, match="cannot extend order 3"):
        s.truncate(4)
    with pytest.raises(ValueError, match="truncation order"):
        s.truncate(-1)
    for inexact in (1.5, 1j, 0.5j, Decimal("0.1")):
        with pytest.raises(TypeError, match="floating-point"):
            PSeries([inexact])


def test_equality_with_a_float_is_false():
    # a float, complex or Decimal is never a coefficient, so no series
    # equals one; comparing must not raise the TypeError that constructing
    # or multiplying with one does
    s = PSeries([1, 2])
    for inexact in (1.0, 1j, 0.5j, Decimal("0.1")):
        assert not s == inexact
        assert s != inexact
        assert PSeries([1]) != inexact
        assert s in [inexact, s]
        for make in (lambda: PSeries([inexact]), lambda: s * inexact,
                     lambda: inexact * s):
            with pytest.raises(TypeError, match="floating-point"):
                make()
    assert PSeries([1]) == 1 and PSeries([1]) == F(1)


def test_add_truncates_to_min_order():
    a = PSeries([1, 2], order=3)
    b = PSeries([0, 0, 1], order=2)
    s = a + b
    assert s.order == 2
    assert s == PSeries([1, 2, 1])


def test_add_identity_and_cancellation():
    one_plus = PSeries([1, 1], order=4)
    one_minus = PSeries([1, -1], order=4)
    assert one_plus + one_minus == PSeries.constant(2, 4)
    b1ish = PSeries([1, -1, -5, 30], order=3)
    assert PSeries.zero(3) + b1ish == b1ish


def test_mul_difference_of_squares():
    a = PSeries([1, 1], order=4)
    b = PSeries([1, -1], order=4)
    assert a * b == PSeries([1, 0, -1], order=4)
    s = PSeries([3, 1, 4, 1, 5])
    assert PSeries.one(4) * s == s
    # the truncated integer product against the Fraction oracle: the dense
    # bases of the closed form, sparse factors, mixed denominators and
    # factors of unequal order (the product keeps the smaller)
    dg2 = dg2_series(97).shift_down(1)
    disc = (delta_series(98) * d2g2_series(98)).shift_down(2)
    one_plus = PSeries([1, 1], order=96)
    euler = euler_product(96)
    mixed = PSeries([F(1, 2), F(-1, 3), F(5, 6), F(-7, 4), F(2, 9)])
    pairs = [(dg2, dg2), (disc, disc), (dg2, disc), (one_plus, one_plus),
             (euler, euler), (one_plus, euler),
             (mixed, PSeries([F(2, 5), F(-1, 7), F(3, 11), 0, F(1, 13)])),
             (mixed, PSeries([3, F(1, 2), -1, 0, 0, 0, 7, F(1, 5)])),
             (PSeries([F(1, 3)] * 10), mixed)]
    for x, y in pairs:
        n = min(x.order, y.order)
        product = x * y
        assert_fractions(product)
        assert product == PSeries(poly_mul(x.coeffs, y.coeffs, n))
        assert product.order == n


def test_mul_over_polynomial_coefficients():
    # the truncated product serves every coefficient ring: ChernPoly and
    # mixed Fraction/ChernPoly factors, zero coefficients of both kinds and
    # unequal orders, each coefficient against a double sum written here
    x, c2 = ChernPoly.variable(0), ChernPoly.variable(3)
    zero = ChernPoly()
    poly = PSeries([x + 1, zero, x * c2 - F(1, 2), 0, c2])
    cases = [(poly, poly),
             (poly, PSeries([F(2, 3), -1, 0, F(1, 5)])),
             (PSeries([0, x, zero], order=6), poly),
             (PSeries([F(1, 2), 0, c2 * c2]),
              PSeries([zero, 3, x, F(-7, 4), c2, 1, x])),
             (PSeries([zero] * 4), poly),
             (PSeries([x]), PSeries([c2, x]))]
    for a, b in cases:
        n = min(a.order, b.order)
        product = a * b
        assert product.order == n
        for m in range(n + 1):
            expected = ChernPoly()
            for i in range(m + 1):
                expected = expected + a[i] * b[m - i]
            assert product[m] == expected, (a, b, m)
    assert str(PSeries([zero] * 4) * poly) == "0 + O(q^4)"


def test_inverse_geometric_series():
    # oracle: 1/(1-q) is the geometric series with all coefficients 1
    inv = PSeries([1, -1], order=6).inverse()
    assert inv == PSeries([1] * 7)
    assert PSeries([1, -1], order=6) * inv == PSeries.one(6)


def test_inverse_scalar_and_b2_prefix():
    assert PSeries.constant(2, 3).inverse() == PSeries.constant(F(1, 2), 3)
    b2_prefix = PSeries([1, 5, 2], order=5)
    inv = b2_prefix.inverse()
    assert inv.coeffs[:3] == (F(1), F(-5), F(23))
    assert b2_prefix * inv == PSeries.one(5)


def test_inverse_requires_invertible_constant():
    # each error names the coefficient that is zero
    cases = [(lambda: PSeries([0, 1], order=3).inverse(), "constant term"),
             (lambda: PSeries([0, 0, 1]).reversion(), "linear coefficient"),
             (lambda: PSeries([1, 1]) / 0, "divisor")]
    for call, zero in cases:
        with pytest.raises(ValueError, match=f"{zero} is"):
            call()


def test_compose_identities():
    s = PSeries([1, 0, 1], order=4)
    q = PSeries.identity(4)
    assert s.compose(q) == s
    inner = PSeries([0, 2, -1, 3, 0])
    assert q.compose(inner) == inner


def test_compose_against_brute_force():
    # 1/(1-q) composed with q+q^2 is the Fibonacci generating series
    outer = PSeries([1, -1], order=5).inverse()
    inner = PSeries([0, 1, 1], order=5)
    got = outer.compose(inner)
    assert got == PSeries([1, 1, 2, 3, 5, 8])
    oracle = poly_compose(list(outer.coeffs), list(inner.coeffs), 5)
    assert list(got.coeffs) == oracle


def test_compose_random_against_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        outer = random_series(rng, 8)
        inner = random_series(rng, 8)
        inner = PSeries((F(0),) + inner.coeffs[1:])
        got = outer.compose(inner)
        assert list(got.coeffs) == poly_compose(
            list(outer.coeffs), list(inner.coeffs), 8)
        assert_fractions(got)


def test_compose_rational_against_brute_force():
    # the integer Horner kernel clears each side to one denominator; each
    # step multiplies by G/q, whose constant term g_1 is 0 for an inner
    # series that starts at q^2
    rng = random.Random(8)
    for n, m, first in ((0, 4, 1), (4, 0, 1), (6, 9, 1), (9, 6, 1),
                        (10, 10, 1), (0, 0, 1), (1, 1, 1), (2, 2, 1),
                        (16, 16, 1), (24, 24, 1), (1, 1, 2), (2, 2, 2),
                        (16, 16, 2), (24, 24, 2)):
        outer = random_rational_series(rng, n, max_den=12)
        inner = random_rational_series(rng, m, first=first, max_den=12)
        got = outer.compose(inner)
        k = min(n, m)
        assert got.order == k
        assert list(got.coeffs) == poly_compose(
            list(outer.coeffs), list(inner.coeffs), k)
        assert_fractions(got)


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError):
        PSeries([1, 1], order=3).compose(PSeries([1, 1], order=3))


def test_reversion_identity_and_catalan():
    q = PSeries.identity(5)
    assert q.reversion() == q
    rev = PSeries([0, 1, 1], order=5).reversion()
    # signed Catalan numbers, frozen from the order-by-order solve
    assert rev == PSeries([0, 1, -1, 2, -5, 14])
    assert PSeries([0, 1, 1], order=5).compose(rev) == q
    assert rev.compose(PSeries([0, 1, 1], order=5)) == q
    # to order 40: sum (-1)^(n-1) C_(n-1) q^n, C the Catalan numbers
    rev = PSeries([0, 1, 1], order=40).reversion()
    assert rev == PSeries([0] + [(-1) ** (n - 1) * comb(2 * n - 2, n - 1) // n
                                 for n in range(1, 41)])
    assert_fractions(rev)


def test_reversion_round_trip_random():
    rng = random.Random(11)
    q = PSeries.identity(9)
    for _ in range(15):
        a = random_series(rng, 9)
        a = PSeries((F(0), F(1)) + a.coeffs[2:])
        rev = a.reversion()
        assert a.compose(rev) == q
        assert rev.compose(a) == q


def test_reversion_preconditions():
    with pytest.raises(ValueError):
        PSeries([1, 1], order=3).reversion()
    with pytest.raises(ValueError):
        PSeries([0, 0, 1], order=3).reversion()
    with pytest.raises(ValueError):
        PSeries([5], order=0).reversion()


def test_log_mercator():
    assert PSeries.one(4).log() == PSeries.zero(4)
    got = PSeries([1, 1], order=5).log()
    assert got == PSeries([0, 1, F(-1, 2), F(1, 3), F(-1, 4), F(1, 5)])
    with pytest.raises(ValueError):
        PSeries([2, 1], order=3).log()


def test_log_homomorphism():
    rng = random.Random(3)
    for _ in range(10):
        a = PSeries((F(1),) + random_series(rng, 7).coeffs[1:])
        b = PSeries((F(1),) + random_series(rng, 7).coeffs[1:])
        assert (a * b).log() == a.log() + b.log()


def test_exp_basics_and_homomorphism():
    assert PSeries.zero(4).exp() == PSeries.one(4)
    one_plus = PSeries([1, 1], order=6)
    assert one_plus.log().exp() == one_plus
    e = PSeries.identity(6).exp()
    assert e * (-PSeries.identity(6)).exp() == PSeries.one(6)
    with pytest.raises(ValueError):
        PSeries([1, 1], order=3).exp()


def test_exp_log_round_trips_random():
    rng = random.Random(19)
    for _ in range(10):
        a = PSeries((F(1),) + random_series(rng, 8).coeffs[1:])
        assert a.log().exp() == a
        b = PSeries((F(0),) + random_series(rng, 8).coeffs[1:])
        assert b.exp().log() == b


def test_pow_integer_binomial():
    one_plus = PSeries([1, 1], order=4)
    assert one_plus**2 == PSeries([1, 2, 1], order=4)
    assert one_plus**0 == PSeries.one(4)
    assert one_plus**-1 == one_plus.inverse()


def test_pow_matches_repeated_mul():
    rng = random.Random(23)
    for _ in range(10):
        a = random_series(rng, 8)
        n = rng.randint(0, 6)
        expected = PSeries.one(8)
        for _ in range(n):
            expected = expected * a
        assert a**n == expected


def test_pow_half_integer_round_trip():
    s = PSeries([1, -24, 252, -1472, 4830], order=4)
    root = s ** F(1, 2)
    assert root * root == s
    with pytest.raises(ValueError):
        PSeries([2, 1], order=3) ** F(1, 2)


def test_pow_matches_oracle():
    rng = random.Random(79)
    for order in range(41):
        for _ in range(3):  # integer e, nonzero constant of any size or sign
            s = random_rational_series(rng, order)
            while s.coeffs[0] == 0:
                s = random_rational_series(rng, order)
            e = rng.randint(-12, 12)
            got = s ** e
            assert got == pow_oracle(s, e)
            assert_fractions(got)
        s = PSeries((F(1),) + random_rational_series(rng, order).coeffs[1:])
        e = F(rng.randint(-40, 40), rng.randint(2, 12))
        got = s ** e
        assert got == pow_oracle(s, e)
        assert_fractions(got)
    for c0 in (F(-1), F(3), F(-7, 2), F(5, 49)):
        s = PSeries((c0,) + random_rational_series(rng, 20).coeffs[1:])
        for e in (-5, -1, 1, 7):
            assert s ** e == pow_oracle(s, e)
    # integer e and cleared constant term 1, so every output denominator
    # is 1: a sparse integer base (the partition powers and Delta), and a
    # constant term 1/d for the common d under negative e
    for s, exponents in ((euler_product(48), (-24, -8, -1, 1, 24, F(-5, 4))),
                         (PSeries([F(1, 6), F(1, 2), F(-2, 3), 5, 0]), (-3, -1))):
        for e in exponents:
            got = s ** e
            assert got == pow_oracle(s, e)
            assert_fractions(got)
    # the running denominator D = c^t of the Miller kernel, raised at about
    # log2(N) of the N steps: c = 3 with outputs over powers of 3, and c = 4
    # on a sparse unit base whose half power is over powers of 2
    for s, e in ((PSeries([3, 1, 1], order=96), -7),
                 (euler_product(96), F(1, 2))):
        got = s ** e
        assert got == pow_oracle(s, e)
        assert_fractions(got)


def generalized_binomials(e, c, order):
    """binom(e, m) * c^m for m = 0 .. order: the coefficients of
    (1 + c*q)^e, from binom(e, m) = binom(e, m-1) * (e - m + 1) / m."""
    out = [F(1)]
    for m in range(1, order + 1):
        out.append(out[-1] * (e - m + 1) / m * c)
    return out


@pytest.mark.parametrize("r", [2, 3, 4])
def test_pow_of_binomial_matches_closed_form(r):
    # an independent oracle on two-term bases, where the running
    # denominator of the Miller kernel is raised up to five times, between
    # steps whose division is exact
    for p in (-5, -1, 1, 2):
        e = F(p, r)
        for c in (F(1), F(2), F(6), F(-1, 3)):
            got = PSeries([1, c], order=64) ** e
            assert list(got.coeffs) == generalized_binomials(e, c, 64)
            assert_fractions(got)


@pytest.mark.parametrize("alpha", [F(1, 2), F(-1, 2), F(2, 3), F(-5, 4)])
@pytest.mark.parametrize("base", ["DG2/q", "Delta*D2G2/q^2"])
def test_pow_at_order_96(base, alpha):
    s = base_at_order_96(base)
    got = s ** alpha
    # s^alpha is the one series with constant term 1 and
    # s * D(s^alpha) = alpha * s^alpha * D(s)
    assert got[0] == 1
    assert s * got.qderiv() == alpha * got * s.qderiv()
    assert_fractions(got)


def test_pow_zero_constant_term():
    rng = random.Random(83)
    for v in (1, 2, 3):
        for order in (0, 1, 4, 9, 13):
            if order < v:
                continue
            s = random_rational_series(rng, order, first=v)
            while s.coeffs[v] == 0:
                s = random_rational_series(rng, order, first=v)
            for e in range(0, 6):  # v*e passes the order for the larger e
                got = s ** e
                assert got.order == order
                assert got == pow_oracle(s, e)
                if v * e > order:
                    assert got == PSeries.zero(order)
    assert PSeries.zero(5) ** 3 == PSeries.zero(5)
    assert PSeries.zero(5) ** 0 == PSeries.one(5)


def test_pow_large_exponent():
    e = 10**6
    got = PSeries([1, -1], order=30) ** -e
    assert list(got.coeffs) == [comb(e + m - 1, m) for m in range(31)]
    assert partition_power_series(e, 60) \
        == pow_oracle(partition_power_series(1, 60), e)


def test_pow_rejects_bad_exponents_and_bases():
    with pytest.raises(ValueError):
        PSeries([0, 1], order=3) ** -1
    for base in (PSeries([1, 1], order=3), PSeries([2, 1], order=3)):
        with pytest.raises(TypeError):
            base ** 2.5
    with pytest.raises(TypeError):
        PSeries([ChernPoly.variable(0), 1], order=3) ** 2
    with pytest.raises(TypeError):
        partition_power_series(2.5, 5)
    with pytest.raises(TypeError):
        partition_power_series(F(3, 2), 5)


def test_pow_rejects_polynomial_exponent():
    with pytest.raises(TypeError):
        PSeries([1, 1], order=2) ** ChernPoly.variable(3)


def test_qderiv():
    assert PSeries.constant(7, 4).qderiv() == PSeries.zero(4)
    assert PSeries([0, 0, 1], order=3).qderiv() == PSeries([0, 0, 2], order=3)


def test_qderiv_leibniz_random():
    rng = random.Random(31)
    for _ in range(10):
        f = random_series(rng, 8)
        g = random_series(rng, 8)
        assert (f * g).qderiv() == f * g.qderiv() + g * f.qderiv()


def test_ring_axioms_random():
    rng = random.Random(41)
    for _ in range(10):
        a = random_series(rng, 6)
        b = random_series(rng, 6)
        c = random_series(rng, 6)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert_fractions(a * b)


def test_ring_axioms_at_order_32():
    rng = random.Random(53)
    for _ in range(3):
        a = random_series(rng, 32)
        b = random_series(rng, 32)
        c = random_series(rng, 32)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_shift_up_down():
    dg2_like = PSeries([0, 1, 6, 12], order=3)
    assert dg2_like.shift_down(1) == PSeries([1, 6, 12])
    assert PSeries([1, 6, 12]).shift_up(1) == PSeries([0, 1, 6, 12])
    s = PSeries([0, 0, 1, F(1, 2)])
    assert s.shift_up(0) == s
    assert s.shift_down(0) == s
    for m in (0, 1, 2):
        assert_fractions(s.shift_up(m))
        assert_fractions(s.shift_down(m))
    with pytest.raises(ValueError):
        PSeries([1, 1], order=3).shift_down(1)
    for shift in (s.shift_down, s.shift_up):
        with pytest.raises(ValueError, match="shift must be >= 0"):
            shift(-1)
    with pytest.raises(ValueError, match="order too small"):
        s.shift_down(4)


def test_scalar_mixing():
    s = PSeries([1, 2], order=2)
    assert 1 + s == PSeries([2, 2], order=2)
    assert s - 1 == PSeries([0, 2], order=2)
    assert 1 - s == PSeries([0, -2], order=2)
    assert 3 * s == PSeries([3, 6], order=2)
    assert s / 2 == PSeries([F(1, 2), 1], order=2)
    assert 1 / PSeries([1, -1], order=3) == PSeries([1, 1, 1, 1])
    x = ChernPoly.variable(0)
    assert 1 - x == -x + 1 == ChernPoly({(0, 0, 0, 0): 1, (1, 0, 0, 0): -1})
    # a coefficient that is a sum of terms is parenthesized, and only such
    lk = ChernPoly.variable(1)
    assert str(PSeries([0, x - lk * F(1, 2)])) == "(-1/2*LK + L2)*q + O(q^2)"
    assert str(PSeries([-lk, -x, x * lk, F(-1, 2) * lk])) == \
        "-LK - L2*q + L2*LK*q^2 - 1/2*LK*q^3 + O(q^4)"
    # -1 prints as a sign before a monomial, and in full as a constant
    assert str(PSeries([-1, -1])) == "-1 - q + O(q^2)"
    assert str(PSeries.zero(3)) == "0 + O(q^4)"
    assert str(PSeries([F(-1, 2), F(-1, 2)])) == "-1/2 - 1/2*q + O(q^2)"
    minus_one = ChernPoly({(0, 0, 0, 0): -1, (1, 0, 0, 0): -1,
                           (0, 1, 0, 1): -1})
    assert str(minus_one) == "-1 - L2 - LK*c2"
    assert str(PSeries([ChernPoly.constant(-1), minus_one])) == \
        "-1 + (-1 - L2 - LK*c2)*q + O(q^2)"
    assert str(F(-1, 2) * lk) == "-1/2*LK"
    assert str(ChernPoly()) == "0"
    assert str(node_polynomials(2)) == (
        "1 + (c2 + 2*LK + 3*L2)*q + (-7/2*c2 - 3*K2 - 39/2*LK - 21*L2"
        " + 1/2*c2^2 + 2*LK*c2 + 2*LK^2 + 3*L2*c2 + 6*L2*LK + 9/2*L2^2)*q^2"
        " + O(q^3)")
    with pytest.raises(TypeError):
        ChernPoly({(0, 0, 0, 0): 1.5})
