"""The universal node polynomials and the identities they satisfy.

The number of delta-node nodal curves in a generic delta-dimensional linear
subsystem of |L| is T_delta(L2, LK, K2, c2), a universal polynomial of total
degree delta.  The generating function F(t) = sum_delta T_delta t^delta is
pinned down by the closed form it takes after the substitution t = DG2(q):

    F(DG2(q)) = (DG2/q)^chi(L) * B1^K2 * B2^LK / (Delta*D2G2/q^2)^(chi(O)/2)

where B1, B2 are power series derived from Severi degrees of plane curves,
held here to q^20 (:data:`B1_COEFFS`, from the Caporaso-Harris recursion at
the degree pairs (11, 12) and (12, 13)).  That data limit caps everything
here at delta <= 20, :data:`MAX_DELTA`: the cap is a property of the
inputs, not of the algorithms.  The tests re-derive B1 and B2 at both pairs.

The four exponents are linear in (L2, LK, K2, c2) and are stated once, as
the rows of the Fraction matrix :data:`EXPONENTS`, whose chi(L) and
-chi(O)/2 rows are the Riemann-Roch forms of ``chern``.  So log F is
linear in the Chern numbers: log F = L2*l_0 + LK*l_1 + K2*l_2 + c2*l_3,
where each row l_v(q) is the log-series of the bases weighted by column v
of the matrix, with q = DG2^{-1}(t) substituted.  The rows are built in
integers: the bases are integer series with constant term 1, so each has
an integer log-derivative, and the matrix cleared to integers (common
denominator 24) weights those into l_v'(q).  The substitution is one
Lagrange-Buermann pass,

    [t^m] l_v(DG2^{-1}(t)) = [q^(m-1)] l_v'(q) * (q/DG2)^m / m,

whose (q/DG2)^m runs serve all four rows, so building the rows takes no
log, reversion or composition of Fraction series.  Counts are numeric:
the Chern tuple is dotted with the four rows in integers and one Fraction
series is exponentiated.  The polynomial ring appears only in the one
integer exp, :func:`_exp_linear`, that turns the four rows into F with
polynomial coefficients, whose t^delta coefficient is T_delta; that
PSeries is what :func:`node_polynomials` returns.  The same four rows are the
factorization of log F per Chern number, checked by
:meth:`FactorizedForm.reassembles` against the closed form through
composition with DG2; the Yau-Zaslow count on K3 and the one-point blowup
formula are checked too.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul

from .chern import CHI_L, CHI_O, K3, P2, T4
from .chernpoly import ChernPoly
from .modular import (d2g2_series, delta_series, dg2_series,
                      partition_power_series)
from .series import (PSeries, _integer_run, _lagrange_fractions,
                     _log_derivative, _truncated_product)

# B1 and B2 to q^20 (Goettsche, alg-geom/9711012, gives them to q^5).  They
# are derived from Severi degrees of plane curves by the Caporaso-Harris
# recursion, as in tests/test_caporaso_harris.py: the degree pairs (11, 12)
# and (12, 13) give the same series.  Degree ceil(M/2) + 1 reaches q^M at
# Goettsche's threshold d >= delta/2 + 1, a conjecture; Kool-Shende-Thomas
# (arXiv:1010.3211) prove the Severi degrees universal only for d >= delta.
B1_COEFFS = (
    1, -1, -5, 39, -345, 2961, -24866, 207759, -1737670, 14584625,
    -122937305, 1040906771, -8852158628, 75598131215, -648168748072,
    5577807139921, -48163964723088, 417210529188188, -3624610235789053,
    31575290280786530, -275758194822813754)
B2_COEFFS = (
    1, 5, 2, 35, -140, 986, -6643, 48248, -362700, 2802510, -22098991,
    177116726, -1438544962, 11814206036, -97940651274, 818498739637,
    -6888195294592, 58324130994782, -496519067059432, 4247266246317414,
    -36488059346439524)

# The delta cap is where the B1/B2 data stop.
MAX_DELTA = len(B1_COEFFS) - 1

# The closed form is prod_i base_i^(e_i) over the bases DG2/q, B1, B2 and
# Delta*D2G2/q^2, with e_i = EXPONENTS[i] . (L2, LK, K2, c2): chi(L), K2, LK
# and -chi(O)/2, the first and last rows read from chern's Riemann-Roch forms.
EXPONENTS = (
    CHI_L,
    tuple(map(Fraction, (0, 0, 1, 0))),
    tuple(map(Fraction, (0, 1, 0, 0))),
    tuple(-e / 2 for e in CHI_O),
)
# EXPONENTS cleared to integers once: EXPONENTS = _WEIGHTS / _WEIGHT_DEN,
# with _WEIGHT_DEN = 24
_WEIGHT_DEN = lcm(*[e.denominator for row in EXPONENTS for e in row])
_WEIGHTS = tuple(tuple(e.numerator * _WEIGHT_DEN // e.denominator for e in row)
                 for row in EXPONENTS)

# Four independent Chern tuples (L2, LK, K2, c2): FactorizedForm.reassembles
CHECK_SURFACES = (P2(1), P2(2), K3(2), T4(2))

IN_RANGE = "in range"
OUT_OF_RANGE = "outside guaranteed range"
RANGE_UNKNOWN = "range unknown"


def _check_order(order):
    """The one check of the delta cap: every entry point calls it first."""
    if not 0 <= order <= MAX_DELTA:
        raise ValueError(
            f"{order} is out of range 0..{MAX_DELTA}: the B1/B2 series "
            f"data stop at q^{MAX_DELTA}")


def b1_series(order):
    _check_order(order)
    return PSeries(B1_COEFFS[: order + 1])


def b2_series(order):
    _check_order(order)
    return PSeries(B2_COEFFS[: order + 1])


def dg2_normalized(order):
    """DG2(q)/q, constant term 1."""
    return dg2_series(order + 1).shift_down(1)


def discriminant_factor(order):
    """Delta(q)*D2G2(q)/q^2, constant term 1."""
    if order < 0:
        raise ValueError("order must be >= 0")
    n = order + 2
    return (delta_series(n) * d2g2_series(n)).shift_down(2)


def _bases(order):
    """The four bases of the closed form, in the row order of EXPONENTS."""
    _check_order(order)
    return (dg2_normalized(order), b1_series(order), b2_series(order),
            discriminant_factor(order))


def closed_form_series(surface, order):
    """The closed-form generating series evaluated on one surface.

    All four base series have constant term 1, so integer, negative and
    half-integer exponents are all exact.
    """
    return _closed_form(surface.chern_tuple(), _bases(order))


def _closed_form(point, bases):
    """prod_i base_i^(e_i) at the Chern tuple ``point``, over the
    :func:`_bases` of one order."""
    dg2, b1, b2, disc = (base ** sum(e * x for e, x in zip(row, point))
                         for row, base in zip(EXPONENTS, bases))
    return dg2 * b1 * b2 * disc


def _derivative_rows(bases):
    """The derivatives l_v'(q) over the :func:`_bases` of one order, as four
    integer runs R_v with R_v,k = _WEIGHT_DEN * k * [q^k] l_v for k >= 1:
    the integer log-derivatives of the bases weighted by column v of
    :data:`_WEIGHTS`."""
    logs = [_log_derivative([c.numerator for c in base])[1:]
            for base in bases]
    return tuple([sum(map(mul, column, ks)) for ks in zip(*logs)]
                 for column in zip(*_WEIGHTS))


def _log_rows(order):
    """The rows l_v(q) as four Fraction series: :func:`_derivative_rows`
    divided by _WEIGHT_DEN * k."""
    return tuple(PSeries([0] + [Fraction(x, _WEIGHT_DEN * k)
                                for k, x in enumerate(run, 1)])
                 for run in _derivative_rows(_bases(order)))


def _log_rows_in_t(order):
    """The rows l_v(DG2^{-1}(t)) as four Fraction series to t^order, by the
    Lagrange-Buermann pass of the module docstring over the base DG2/q."""
    bases = _bases(order)
    return tuple(map(PSeries, _lagrange_fractions(
        bases[0].coeffs, _derivative_rows(bases), order, _WEIGHT_DEN)))


def _cleared(rows):
    """Four Fraction series with zero constant term, to the order of the
    shortest, as (dc, [R_0, .., R_3]): one integer dc and integer runs R_v
    from t^1 with row v = R_v / dc."""
    order = min(map(len, rows)) - 1
    dc, flat = _integer_run([c for row in rows
                             for c in row.coeffs[1:order + 1]])
    return dc, [flat[v * order:(v + 1) * order] for v in range(4)]


def _exp_linear(rows):
    """exp(L2*l_0 + LK*l_1 + K2*l_2 + c2*l_3) in integers, for four Fraction
    series l_v with zero constant term: the only exp with polynomial
    coefficients.

    Each row carries one variable, so the x^a coefficient of F is the
    product of the l_v^(a_v) / a_v!.  With one integer dc clearing every
    denominator and integer rows R_v = dc * l_v, it is Q_a /
    (dc^|a| * prod_v a_v!), where Q_0 = 1 and Q_a = Q_(a - e_v) * R_v,
    truncated, for v the last index with a_v > 0: each monomial costs one
    :func:`~nodepoly.series._truncated_product` from its parent, with R_v
    reversed once per call.  Q_a starts at t^|a|, so it is held from
    there, and only monomials with |a| <= order are built.
    """
    dc, runs = _cleared(rows)
    order = len(runs[0])
    # R_v reversed, from t^order down to t^1: Q_a * R_v from t^(|a| + 1) is
    # the truncated product of Q_a from t^|a| with R_v / t
    backs = [run[::-1] for run in runs]
    coeffs = [{} for _ in range(order + 1)]
    stack = [((0, 0, 0, 0), 0, [1] + [0] * order, 1)]
    while stack:
        mono, last, q, den = stack.pop()
        size = order + 1 - len(q)
        for n, x in enumerate(q, size):
            if x:
                coeffs[n][mono] = Fraction(x, den)
        if size == order:
            continue
        for v in range(last, 4):
            child = _truncated_product(q, backs[v], len(q) - 1)
            exps = list(mono)
            exps[v] += 1
            stack.append((tuple(exps), v, child, den * dc * exps[v]))
    return PSeries([ChernPoly(c) for c in coeffs])


def _numeric_series(rows, point):
    """F(t) at one point (L2, LK, K2, c2) from the rows of
    :func:`_log_rows_in_t`: the point dotted with the :func:`_cleared` rows
    in integers, zero entries skipped, then one exp of a Fraction series."""
    dc, runs = _cleared(rows)
    terms = [(x, run) for x, run in zip(point, runs) if x]
    return PSeries([0] + [Fraction(sum(x * run[k] for x, run in terms), dc)
                          for k in range(len(runs[0]))]).exp()


def closed_form_symbolic(order):
    """The closed form with coefficients polynomial in (L2, LK, K2, c2).

    One exp of the rows of :func:`_log_rows`; evaluating its coefficients at
    any surface reproduces :func:`closed_form_series` exactly.
    """
    return _exp_linear(_log_rows(order))


def node_polynomials(max_delta):
    """F(t) = sum_delta T_delta t^delta to t^max_delta: the series whose
    t^delta coefficient is the ChernPoly T_delta.

    F = exp(L2*l_0 + LK*l_1 + K2*l_2 + c2*l_3) with the rows l_v of
    :func:`_log_rows_in_t`.  The exp makes T_0 = 1, and T_delta has total
    degree <= delta because every row starts at t^1.
    """
    return _exp_linear(_log_rows_in_t(max_delta))


def validity_range(surface, delta):
    """How far the universal count is guaranteed to be the geometric count.

    Kool-Shende-Thomas (arXiv:1010.3211) prove the count right for a
    delta-very ample L, and O(d) on P2 is d-very ample, so P2:d is in range
    for d >= delta.  P2:d is recognised from its Chern data, those of
    ``P2(d)`` for d = -LK/3 >= 0: with L ample, LK < 0 and K2 = 9 force the
    plane, and L2 = d^2 makes L = O(d).  On K3 and abelian surfaces the
    correction terms vanish for every polarization, so those are always in
    range; they stay keyed on the family name, because (l2, 0, 0, 0) also
    fits bielliptic surfaces.  Anything else is unknown.
    """
    l2, lk, k2, c2 = surface.chern_tuple()
    d = -lk // 3
    if d >= 0 and P2(d).chern_tuple() == (l2, lk, k2, c2):
        return IN_RANGE if d >= delta else OUT_OF_RANGE
    if surface.name.partition(":")[0] in ("K3", "T4"):
        return IN_RANGE
    return RANGE_UNKNOWN


NodalCount = namedtuple("NodalCount", "surface delta value validity")


def count_nodal(surface, delta):
    """T_delta evaluated at the surface, with its validity flag.

    The t^delta coefficient of F at the surface, with no polynomial built.
    """
    f = _numeric_series(_log_rows_in_t(delta), surface.chern_tuple())
    return NodalCount(surface, delta, f[delta], validity_range(surface, delta))


# -- identity checks ---------------------------------------------------------

class YauZaslowRow(namedtuple("YauZaslowRow",
                              "delta node_value partition_value")):
    __slots__ = ()

    @property
    def equal(self):
        return self.node_value == self.partition_value


class YauZaslowReport(namedtuple("YauZaslowReport", "rows")):
    __slots__ = ()

    @property
    def all_equal(self):
        return all(row.equal for row in self.rows)


def yau_zaslow_check(max_delta):
    """Rational-curve counts on K3 against the 24th partition power.

    For each delta, T_delta at (2*delta-2, 0, 0, 24) is compared with the
    q^delta coefficient of prod (1-q^k)^(-24).
    """
    log_rows = _log_rows_in_t(max_delta)
    partition24 = partition_power_series(24, max_delta)
    rows = []
    for delta in range(max_delta + 1):
        lhs = _numeric_series(log_rows, (2 * delta - 2, 0, 0, 24))[delta]
        rows.append(YauZaslowRow(delta, lhs, partition24[delta]))
    return YauZaslowReport(tuple(rows))


class BlowupCheck(namedtuple("BlowupCheck", "surface order lhs rhs")):
    __slots__ = ()

    @property
    def holds(self):
        return self.lhs == self.rhs


def blowup_identity_check(surface, order):
    """Verify H_blowup(S) * B1 * (DG2/q) = H_S * B2 exactly.

    This is the one-point blowup formula in denominator-free form.
    """
    bases = _bases(order)
    dg2, b1, b2, _ = bases
    lhs = _closed_form(surface.blowup().chern_tuple(), bases) * b1 * dg2
    rhs = _closed_form(surface.chern_tuple(), bases) * b2
    return BlowupCheck(surface, order, lhs, rhs)


class FactorizedForm(namedtuple("FactorizedForm",
                                "max_delta log_a1 log_a2 log_a3 log_a4")):
    """log F split into one scalar series per Chern number:
    F(t) = A1(t)^K2 * A2(t)^c2 * A3(t)^L2 * A4(t)^LK."""
    __slots__ = ()

    def reassembles(self):
        """Whether F from the four series, composed with t = DG2(q), equals
        :func:`closed_form_series` (the ``**`` route) on each surface of
        :data:`CHECK_SURFACES`; log F is linear, so that fixes all four."""
        rows = (self.log_a3, self.log_a4, self.log_a1, self.log_a2)
        dg2 = dg2_series(self.max_delta)
        bases = _bases(self.max_delta)
        return all(_numeric_series(rows, s.chern_tuple()).compose(dg2)
                   == _closed_form(s.chern_tuple(), bases)
                   for s in CHECK_SURFACES)


def factorize_generating_function(max_delta):
    """Split log F(t) into the four per-Chern-number series: these are the
    rows of :func:`_log_rows_in_t`."""
    l2, lk, k2, c2 = _log_rows_in_t(max_delta)
    return FactorizedForm(max_delta, k2, c2, l2, lk)
