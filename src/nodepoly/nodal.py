"""The universal node polynomials and the identities they satisfy.

The number of delta-node nodal curves in a generic delta-dimensional linear
subsystem of |L| is T_delta(L2, LK, K2, c2), a universal polynomial of total
degree delta.  The generating function F(t) = sum_delta T_delta t^delta is
pinned down by the closed form it takes after the substitution t = DG2(q):

    F(DG2(q)) = (DG2/q)^chi(L) * B1^K2 * B2^LK / (Delta*D2G2/q^2)^(chi(O)/2)

where B1, B2 are power series derived from Severi degrees of plane curves,
held here to q^20 (:data:`B1_COEFFS`, from the Caporaso-Harris recursion).
That data limit caps everything here at delta <= 20, :data:`MAX_DELTA`: the
cap is a property of the inputs, not of the algorithms.  The tier-1 tests
prove q^0..q^14 from Severi degrees d >= delta and CI proves q^0..q^20 the
same way; the threshold pairs (11, 12) and (12, 13) remain the second check.

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
the Chern tuple is dotted with the four rows in integers, and the exp
kernel of ``series`` takes that run as it stands.  The polynomial ring
appears only in the one integer exp, :func:`_exp_linear`, that turns the
four rows into F with polynomial coefficients, whose t^delta coefficient
is T_delta; that PSeries is what :func:`node_polynomials` returns.  The
same four rows are the factorization of log F per Chern number, checked
by :func:`reassembles` against the closed form through composition with
DG2; the Yau-Zaslow count on K3 and the one-point blowup formula are
checked too.  Every entry point returns plain values: a count is one
Fraction, and a check returns the numbers or series it compares, for the
caller to test with ``==``.
"""

from fractions import Fraction
from operator import mul

from .chern import CHI_L, CHI_O, K3, P2, T4
from .chernpoly import ChernPoly
from .modular import (d2g2_series, delta_series, dg2_series,
                      partition_power_series)
from .series import (PSeries, _exp_fractions, _integer_run,
                     _lagrange_fractions, _log_derivative, _truncated_product)

# B1 and B2 to q^20 (Goettsche, alg-geom/9711012, gives them to q^5).  They
# are derived from Severi degrees of plane curves by the Caporaso-Harris
# recursion, as in tests/test_caporaso_harris.py.  Kool-Shende-Thomas
# (arXiv:1010.3211) prove the Severi degrees universal for d >= delta: in
# that range the tier-1 tests prove q^0..q^14 from the pair (14, 15) and CI
# proves q^0..q^20 from the pair (20, 21).  The threshold pairs (11, 12) and
# (12, 13), which reach q^20 at Goettsche's conjectured threshold
# d >= delta/2 + 1, give the same series and remain the second check.
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
# EXPONENTS flattened by rows and cleared to integers once, with
# _WEIGHT_DEN = 24: EXPONENTS[i][v] = _WEIGHTS[4 * i + v] / _WEIGHT_DEN
_WEIGHT_DEN, _WEIGHTS = _integer_run([e for row in EXPONENTS for e in row],
                                     "EXPONENTS")

# Four surfaces with independent Chern tuples (L2, LK, K2, c2), on which
# reassembles checks the factorization
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
    the integer log-derivatives of the bases weighted by ``_WEIGHTS[v::4]``
    (column v).  Each base is an integer series with constant term 1, so it
    clears to itself (d = 1) and its L_k is k * [q^k] log base."""
    logs = [_log_derivative(_integer_run(base.coeffs, "log")[1])[1:]
            for base in bases]
    return tuple([sum(map(mul, _WEIGHTS[v::4], ks)) for ks in zip(*logs)]
                 for v in range(4))


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
    d, run = _integer_run(bases[0].coeffs, "reversion")
    return tuple(map(PSeries, _lagrange_fractions(
        d, run, _derivative_rows(bases), order, _WEIGHT_DEN)))


def _cleared(rows):
    """Four Fraction series with zero constant term, to the order of the
    shortest, as (dc, [R_0, .., R_3]): one integer dc and integer runs R_v
    from t^1 with row v = R_v / dc."""
    order = min(map(len, rows)) - 1
    dc, flat = _integer_run([c for row in rows
                             for c in row.coeffs[1:order + 1]], "exp")
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
    return PSeries([ChernPoly._from_canonical(c) for c in coeffs])


def _numeric_series(rows, point):
    """F(t) at one integer point (L2, LK, K2, c2) from the rows of
    :func:`_log_rows_in_t`: the point dotted with the :func:`_cleared` rows
    in integers, zero entries skipped, then one integer exp over dc."""
    dc, runs = _cleared(rows)
    terms = [(x, run) for x, run in zip(point, runs) if x]
    dotted = [sum(x * run[k] for x, run in terms) for k in range(len(runs[0]))]
    return PSeries(_exp_fractions(dc, [0] + dotted))


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
    range: both the family name, as (l2, 0, 0, 0) also fits bielliptic
    surfaces, and its data, (l2, 0, 0, 24) on K3 and (l2, 0, 0, 0) on T4,
    are required.  Anything else is unknown; a negative delta is an error.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    l2, lk, k2, c2 = surface.chern_tuple()
    d = -lk // 3
    if d >= 0 and P2(d).chern_tuple() == (l2, lk, k2, c2):
        return IN_RANGE if d >= delta else OUT_OF_RANGE
    family = surface.name.partition(":")[0]
    if (family, lk, k2, c2) in (("K3", 0, 0, 24), ("T4", 0, 0, 0)):
        return IN_RANGE
    return RANGE_UNKNOWN


def count_nodal(surface, delta):
    """T_delta evaluated at the surface, a Fraction: the t^delta coefficient
    of F at the surface, with no polynomial built.  Its validity flag is
    :func:`validity_range`."""
    return _numeric_series(_log_rows_in_t(delta), surface.chern_tuple())[delta]


# -- identity checks ---------------------------------------------------------

def yau_zaslow_check(max_delta):
    """Rational-curve counts on K3 against the 24th partition power.

    For each delta <= max_delta, the triple (delta, T_delta at
    (2*delta-2, 0, 0, 24), the q^delta coefficient of prod (1-q^k)^(-24));
    the counts agree where the last two are equal.
    """
    log_rows = _log_rows_in_t(max_delta)
    partition24 = partition_power_series(24, max_delta)
    return tuple(
        (delta, _numeric_series(log_rows, (2 * delta - 2, 0, 0, 24))[delta],
         partition24[delta])
        for delta in range(max_delta + 1))


def blowup_identity_check(surface, order):
    """The two sides (lhs, rhs) of H_blowup(S) * B1 * (DG2/q) = H_S * B2,
    the one-point blowup formula in denominator-free form: it holds exactly
    when they are equal."""
    bases = _bases(order)
    dg2, b1, b2, _ = bases
    lhs = _closed_form(surface.blowup().chern_tuple(), bases) * b1 * dg2
    rhs = _closed_form(surface.chern_tuple(), bases) * b2
    return lhs, rhs


def factorize_generating_function(max_delta):
    """log F split into one scalar series per Chern number, (log A1,
    log A2, log A3, log A4) with F(t) = A1(t)^K2 * A2(t)^c2 * A3(t)^L2 *
    A4(t)^LK: the rows of :func:`_log_rows_in_t`, reordered."""
    l2, lk, k2, c2 = _log_rows_in_t(max_delta)
    return k2, c2, l2, lk


def reassembles(form):
    """Whether F from the four series of
    :func:`factorize_generating_function`, composed with t = DG2(q), equals
    :func:`closed_form_series` (the ``**`` route) on each surface of
    :data:`CHECK_SURFACES`, to the order of the series; log F is linear,
    so that fixes all four."""
    log_a1, log_a2, log_a3, log_a4 = form
    rows = (log_a3, log_a4, log_a1, log_a2)
    order = min(row.order for row in rows)
    dg2 = dg2_series(order)
    bases = _bases(order)
    return all(_numeric_series(rows, s.chern_tuple()).compose(dg2)
               == _closed_form(s.chern_tuple(), bases)
               for s in CHECK_SURFACES)
