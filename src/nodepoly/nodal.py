"""The universal node polynomials and the identities they satisfy.

The number of delta-node nodal curves in a generic delta-dimensional linear
subsystem of |L| is T_delta(L2, LK, K2, c2), a universal polynomial of total
degree delta.  The generating function F(t) = sum_delta T_delta t^delta is
pinned down by the closed form it takes after the substitution t = DG2(q):

    F(DG2(q)) = (DG2/q)^chi(L) * B1^K2 * B2^LK / (Delta*D2G2/q^2)^(chi(O)/2)

where B1, B2 are the Severi-degree power series known to order q^5.  That
data limit caps everything here at delta <= 5: the cap is a property of the
inputs, not of the algorithms.

The logarithm of the closed form is linear in the four exponents, so
log F(t) = sum_i e_i * (log base_i)(DG2^{-1}(t)) with e_i linear in
(L2, LK, K2, c2).  The four log-series are plain Fraction series; the
polynomial ring appears only in the one exp that turns their linear
combination into F, whose t^delta coefficient is T_delta.  The same four
series are the factorization of log F into per-Chern-number power series;
the Yau-Zaslow count on K3 and the one-point blowup formula are checked too.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import chernpoly
from .chern import SurfaceClass
from .chernpoly import ChernPoly
from .modular import (d2g2_series, delta_series, dg2_series,
                      partition_power_series)
from .series import PSeries

MAX_DELTA = 5

# Goettsche, alg-geom/9711012; B1 = 1 - q - 5q^2 + 39q^3 - 345q^4 + 2961q^5.
B1_COEFFS = (1, -1, -5, 39, -345, 2961)
B2_COEFFS = (1, 5, 2, 35, -140, 986)

IN_RANGE = "in range"
OUT_OF_RANGE = "outside guaranteed range"
RANGE_UNKNOWN = "range unknown"


def _check_order(order):
    """The one check of the delta cap: every entry point calls it first."""
    if not 0 <= order <= MAX_DELTA:
        raise ValueError(
            f"delta {order} is out of range 0..{MAX_DELTA}: the B1/B2 series "
            f"data stop at q^{MAX_DELTA}")


def b1_series(order=MAX_DELTA):
    _check_order(order)
    return PSeries(B1_COEFFS[: order + 1])


def b2_series(order=MAX_DELTA):
    _check_order(order)
    return PSeries(B2_COEFFS[: order + 1])


def chi_L_poly():
    """chi(L) as a linear polynomial in the four Chern numbers."""
    return (chernpoly.K2 + chernpoly.C2) / 12 + (chernpoly.L2 - chernpoly.LK) / 2


def chi_O_poly():
    """chi(O) = (K2 + c2)/12 as a linear polynomial."""
    return (chernpoly.K2 + chernpoly.C2) / 12


def dg2_normalized(order):
    """DG2(q)/q, constant term 1."""
    return dg2_series(order + 1).shift_down(1)


def discriminant_factor(order):
    """Delta(q)*D2G2(q)/q^2, constant term 1."""
    if order < 0:
        raise ValueError("order must be >= 0")
    n = order + 2
    return (delta_series(n) * d2g2_series(n)).shift_down(2)


def closed_form_series(surface, order=MAX_DELTA):
    """The closed-form generating series evaluated on one surface.

    All four base series have constant term 1, so integer, negative and
    half-integer exponents are all exact.
    """
    _check_order(order)
    chi_o_half = -Fraction(surface.K2 + surface.c2, 24)
    h = dg2_normalized(order) ** surface.chi_L()
    h = h * b1_series(order) ** surface.K2
    h = h * b2_series(order) ** surface.LK
    h = h * discriminant_factor(order) ** chi_o_half
    return h


def _log_terms(order):
    """log of the closed form as four (exponent, log-series) pairs.

    The exponents are linear polynomials in (L2, LK, K2, c2); the
    log-series are Fraction series in q with constant term 0.
    """
    _check_order(order)
    return (
        (chi_L_poly(), dg2_normalized(order).log()),
        (chernpoly.K2, b1_series(order).log()),
        (chernpoly.LK, b2_series(order).log()),
        (-chi_O_poly() / 2, discriminant_factor(order).log()),
    )


def _log_terms_in_t(order):
    """The pairs of :func:`_log_terms` with q = DG2^{-1}(t) substituted.

    Truncated at t^0 the inverse of DG2 is the zero series, and reversion
    needs order >= 1, so order 0 substitutes zero directly.
    """
    terms = _log_terms(order)
    inverse = dg2_series(order).reversion() if order else PSeries.zero(0)
    return tuple((e, log.compose(inverse)) for e, log in terms)


def _exp_linear(terms):
    """exp(sum e_i * log_i): the only exp with polynomial coefficients."""
    return sum(e * log for e, log in terms).exp()


def closed_form_symbolic(order=MAX_DELTA):
    """The closed form with coefficients polynomial in (L2, LK, K2, c2).

    One exp of sum e_i * log base_i; specializing the result at any surface
    reproduces :func:`closed_form_series` exactly.
    """
    return _exp_linear(_log_terms(order))


def specialize(series, surface):
    """Evaluate every polynomial coefficient of a series at a surface."""
    l2, lk, k2, c2 = surface.chern_tuple()

    def ev(c):
        if isinstance(c, ChernPoly):
            return c.evaluate(l2, lk, k2, c2)
        return c

    return series.map_coefficients(ev)


@dataclass(frozen=True)
class NodePolynomialTable:
    """T_0 .. T_max_delta keyed by the number of nodes."""
    max_delta: int
    entries: dict

    def __getitem__(self, delta):
        if delta not in self.entries:
            raise KeyError(f"delta must be between 0 and {self.max_delta}")
        return self.entries[delta]

    def evaluate(self, surface, delta):
        return self[delta].evaluate(*surface.chern_tuple())

    def generating_series(self):
        return PSeries([self.entries[d] for d in range(self.max_delta + 1)])


def node_polynomials(max_delta=MAX_DELTA):
    """The universal node polynomials from the log-linear form of F.

    F(t) = exp(sum e_i * (log base_i)(DG2^{-1}(t))); the coefficient of
    t^delta is T_delta.
    """
    f = _exp_linear(_log_terms_in_t(max_delta))
    entries = {}
    for delta, coeff in enumerate(f):
        poly = ChernPoly.promote(coeff)
        if poly.total_degree() > delta:
            raise AssertionError(
                f"T_{delta} has total degree {poly.total_degree()} > {delta}")
        entries[delta] = poly
    if entries[0] != 1:
        raise AssertionError("T_0 must be the constant 1")
    return NodePolynomialTable(max_delta, entries)


def validity_range(surface, delta):
    """How far the universal count is guaranteed to be the geometric count.

    Kool-Shende-Thomas (arXiv:1010.3211) prove the count right for a
    delta-very ample L, and O(d) on P2 is d-very ample, so P2:d is in range
    for d >= delta.  P2:d is recognised from its Chern data
    (d^2, -3d, 9, 3), d >= 0: with L ample, LK < 0 and K2 = 9 force the
    plane, and L2 = d^2 makes L = O(d).  On K3 and abelian surfaces the
    correction terms vanish for every polarization, so those are always in
    range; they stay keyed on the family name, because (l2, 0, 0, 0) also
    fits bielliptic surfaces.  Anything else is unknown.
    """
    l2, lk, k2, c2 = surface.chern_tuple()
    d = -lk // 3
    if (k2, c2) == (9, 3) and lk == -3 * d and d >= 0 and l2 == d * d:
        return IN_RANGE if d >= delta else OUT_OF_RANGE
    if surface.name.partition(":")[0] in ("K3", "T4"):
        return IN_RANGE
    return RANGE_UNKNOWN


@dataclass(frozen=True)
class NodalCount:
    surface: SurfaceClass
    delta: int
    value: Fraction
    validity: str


def count_nodal(surface, delta):
    """T_delta evaluated at the surface, with its validity flag."""
    value = node_polynomials(delta).evaluate(surface, delta)
    return NodalCount(surface, delta, value, validity_range(surface, delta))


# -- identity checks ---------------------------------------------------------

@dataclass(frozen=True)
class YauZaslowRow:
    delta: int
    node_value: Fraction
    partition_value: Fraction

    @property
    def equal(self):
        return self.node_value == self.partition_value


@dataclass(frozen=True)
class YauZaslowReport:
    rows: tuple

    @property
    def all_equal(self):
        return all(row.equal for row in self.rows)


def yau_zaslow_check(max_delta=MAX_DELTA):
    """Rational-curve counts on K3 against the 24th partition power.

    For each delta, T_delta at (2*delta-2, 0, 0, 24) is compared with the
    q^delta coefficient of prod (1-q^k)^(-24).
    """
    _check_order(max_delta)
    table = node_polynomials(max_delta)
    partition24 = partition_power_series(24, max_delta)
    rows = []
    for delta in range(max_delta + 1):
        lhs = table[delta].evaluate(2 * delta - 2, 0, 0, 24)
        rows.append(YauZaslowRow(delta, lhs, partition24[delta]))
    return YauZaslowReport(tuple(rows))


@dataclass(frozen=True)
class BlowupCheck:
    surface: SurfaceClass
    order: int
    lhs: PSeries
    rhs: PSeries

    @property
    def holds(self):
        return self.lhs == self.rhs


def blowup_identity_check(surface, order=MAX_DELTA):
    """Verify H_blowup(S) * B1 * (DG2/q) = H_S * B2 exactly.

    This is the one-point blowup formula in denominator-free form.
    """
    _check_order(order)
    lhs = (closed_form_series(surface.blowup(), order)
           * b1_series(order) * dg2_normalized(order))
    rhs = closed_form_series(surface, order) * b2_series(order)
    return BlowupCheck(surface, order, lhs, rhs)


@dataclass(frozen=True)
class FactorizedForm:
    """log F split into one scalar series per Chern number:
    F(t) = A1(t)^K2 * A2(t)^c2 * A3(t)^L2 * A4(t)^LK."""
    max_delta: int
    log_a1: PSeries
    log_a2: PSeries
    log_a3: PSeries
    log_a4: PSeries

    def generating_function(self):
        """Reassemble F(t) with polynomial coefficients from the four logs."""
        return _exp_linear(((chernpoly.K2, self.log_a1),
                            (chernpoly.C2, self.log_a2),
                            (chernpoly.L2, self.log_a3),
                            (chernpoly.LK, self.log_a4)))


def factorize_generating_function(max_delta=MAX_DELTA):
    """Split log F(t) into the four per-Chern-number series.

    log F = sum e_i * l_i(t) with each exponent e_i linear in
    (L2, LK, K2, c2), so the series of one Chern number is the sum of the
    l_i weighted by that number's coefficient in e_i.
    """
    terms = _log_terms_in_t(max_delta)
    per_number = [PSeries.zero(max_delta)] * 4
    for exponent, log in terms:
        for i, c in enumerate(exponent.linear_coefficients()):
            per_number[i] = per_number[i] + c * log
    l2, lk, k2, c2 = per_number
    return FactorizedForm(max_delta, k2, c2, l2, lk)
