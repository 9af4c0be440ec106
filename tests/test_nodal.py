"""The closed-form generating function, node polynomials and identities."""

import random
from fractions import Fraction
from math import factorial

import pytest

from nodepoly import chernpoly, nodal
from nodepoly.chern import (K3, P2, SurfaceClass, T4, _solve4, parse_surface,
                            rr_example_pairs, solve_rr_coefficients)
from nodepoly.chernpoly import ChernPoly
from nodepoly.modular import dg2_series
from nodepoly.nodal import (CHECK_SURFACES, EXPONENTS, IN_RANGE, MAX_DELTA,
                            OUT_OF_RANGE, RANGE_UNKNOWN, _exp_linear,
                            _log_rows, _log_rows_in_t, b1_series, b2_series,
                            blowup_identity_check, closed_form_series,
                            closed_form_symbolic, count_nodal,
                            dg2_normalized, discriminant_factor,
                            factorize_generating_function, node_polynomials,
                            reassembles, validity_range, yau_zaslow_check)
from nodepoly.series import PSeries
from test_chern import random_surface
from test_series import (exp_oracle, log_oracle, poly_compose,
                         random_rational_series)


# chi(L) and -chi(O)/2 as polynomials, stated here apart from chern's forms
# and nodal.EXPONENTS so that a wrong entry fails the oracles below.
CHI_L = (Fraction(1, 2) * (chernpoly.L2 - chernpoly.LK)
         + Fraction(1, 12) * (chernpoly.K2 + chernpoly.C2))
MINUS_HALF_CHI_O = Fraction(-1, 24) * (chernpoly.K2 + chernpoly.C2)


def linear_coefficients(poly):
    """The (L2, LK, K2, c2) coefficients of a homogeneous linear
    polynomial; fails on any other."""
    terms = ChernPoly.promote(poly).terms
    assert all(sum(e) == 1 for e in terms), poly
    units = [tuple(int(i == v) for i in range(4)) for v in range(4)]
    return tuple(terms.get(u, 0) for u in units)


def t1_hand_oracle():
    """First-order coefficient of the closed form, assembled by hand.

    Reading the q^1 coefficients of the four bases directly (constant terms
    are 1, so these are the first log coefficients): DG2/q gives 6, B1
    gives -1, B2 gives 5, Delta*D2G2/q^2 gives -24 + 12 = -12.  Pairing
    each with its exponent yields the first-order term of log H.
    """
    assert dg2_normalized(1)[1] == 6
    assert b1_series(1)[1] == -1
    assert b2_series(1)[1] == 5
    assert discriminant_factor(1)[1] == -12
    return (6 * CHI_L + (-1) * chernpoly.K2 + 5 * chernpoly.LK
            + MINUS_HALF_CHI_O * (-12))


# -- the exponent matrix against Riemann-Roch ---------------------------------

def exponent_surfaces():
    rng = random.Random(53)
    return ([s for s, _ in rr_example_pairs()]
            + [P2(d) for d in range(13)]
            + [K3(2 * h - 2) for h in range(1, 13)]
            + [T4(2 * n) for n in range(1, 13)]
            + [random_surface(rng) for _ in range(50)])


def dot(row, point):
    return sum(e * x for e, x in zip(row, point))


def test_exponents_match_riemann_roch():
    dg2_row, b1_row, b2_row, delta_row = EXPONENTS
    assert all(type(e) is Fraction for row in EXPONENTS for e in row)
    assert b1_row == (0, 0, 1, 0)  # K2
    assert b2_row == (0, 1, 0, 0)  # LK
    for s in exponent_surfaces():
        point = s.chern_tuple()
        assert dot(dg2_row, point) == s.chi_L(), s.name
        assert dot(delta_row, point) == -s.chi_O() / 2, s.name
    # the solved anticanonical-basis coefficients in the (L2, LK, K2, c2)
    # basis: c1(M).c1(L) = -LK and c1(M)^2 = K2
    a = solve_rr_coefficients(rr_example_pairs())
    assert (a.A4, -a.A3, a.A1, a.A2) == dg2_row
    assert linear_coefficients(CHI_L) == dg2_row
    assert linear_coefficients(MINUS_HALF_CHI_O) == delta_row


# -- B series ------------------------------------------------------------------

def test_b_series_constants():
    assert b1_series(5) == PSeries([1, -1, -5, 39, -345, 2961])
    assert b2_series(5) == PSeries([1, 5, 2, 35, -140, 986])
    assert b1_series(4)[4] == -345
    assert b2_series(0)[0] == 1


def test_b_series_data_limit():
    with pytest.raises(ValueError):
        b1_series(MAX_DELTA + 1)
    with pytest.raises(ValueError):
        b2_series(MAX_DELTA + 2)


def cap_message(delta):
    return (f"{delta} is out of range 0..{MAX_DELTA}: the B1/B2 series "
            f"data stop at q^{MAX_DELTA}")


CAPPED_ENTRY_POINTS = {
    "b1_series": b1_series,
    "b2_series": b2_series,
    "closed_form_series": lambda d: closed_form_series(P2(3), d),
    "node_polynomials": node_polynomials,
    "count_nodal": lambda d: count_nodal(P2(3), d),
    "yau_zaslow_check": yau_zaslow_check,
    "blowup_identity_check": lambda d: blowup_identity_check(P2(3), d),
    "factorize_generating_function": factorize_generating_function,
}


# 6 lies past Goettsche's q^5 data (alg-geom/9711012) but inside the q^20
# table: it must raise nothing
@pytest.mark.parametrize("delta", [-1, 6, MAX_DELTA + 1])
@pytest.mark.parametrize("name", sorted(CAPPED_ENTRY_POINTS))
def test_delta_cap_has_one_message(name, delta):
    if 0 <= delta <= MAX_DELTA:
        CAPPED_ENTRY_POINTS[name](delta)
        return
    with pytest.raises(ValueError) as info:
        CAPPED_ENTRY_POINTS[name](delta)
    assert str(info.value) == cap_message(delta)


def test_b_series_log_homomorphism():
    assert (b1_series(5) * b2_series(5)).log() == \
        b1_series(5).log() + b2_series(5).log()


# -- closed form, numeric --------------------------------------------------------

def test_closed_form_formal_zero_surface_is_one():
    zero = SurfaceClass("zero", 0, 0, 0, 0)
    assert closed_form_series(zero, 5) == PSeries.one(5)


def test_closed_form_k3():
    h = closed_form_series(K3(0), 5)
    assert h[0] == 1
    assert h[1] == 24  # 6*2 - (-24 + 12)


def test_closed_form_blowup_ratio_is_universal():
    # H_blowup / H = (B2/B1) * (DG2/q)^(-1), independent of the surface
    expected = (b2_series(5) / b1_series(5)) * dg2_normalized(5).inverse()
    for s in (P2(3), K3(4)):
        ratio = closed_form_series(s.blowup(), 5) / closed_form_series(s, 5)
        assert ratio == expected


def test_closed_form_order_cap():
    with pytest.raises(ValueError):
        closed_form_series(P2(3), MAX_DELTA + 1)
    with pytest.raises(ValueError):
        discriminant_factor(-1)


# -- closed form, symbolic ---------------------------------------------------------

def test_symbolic_constant_term_is_one():
    h = closed_form_symbolic(3)
    assert h[0] == 1


def test_symbolic_first_coefficient_matches_hand_oracle():
    h = closed_form_symbolic(2)
    expected = 3 * chernpoly.L2 + 2 * chernpoly.LK + chernpoly.C2
    assert t1_hand_oracle() == expected
    assert h[1] == expected


def test_symbolic_specializes_to_numeric():
    h = closed_form_symbolic(5)
    rng = random.Random(29)
    surfaces = [K3(0), P2(3), T4(2)] + [random_surface(rng) for _ in range(5)]
    for s in surfaces:
        values = PSeries([c.evaluate(*s.chern_tuple()) for c in h])
        assert values == closed_form_series(s, 5)


# -- node polynomials ----------------------------------------------------------------

def test_table_basics():
    f = node_polynomials(5)
    assert f[0] == ChernPoly.constant(1)
    assert f[1] == 3 * chernpoly.L2 + 2 * chernpoly.LK + chernpoly.C2
    for delta in range(6):
        assert f[delta].total_degree() <= delta
    assert ChernPoly().total_degree() == -1
    with pytest.raises(IndexError):
        f[6]
    assert node_polynomials(0)[0] == ChernPoly.constant(1)


def test_defining_substitution_round_trip():
    # PSeries.compose takes Fraction coefficients only: compose as lists
    f = node_polynomials(5)
    assert poly_compose(list(f), list(dg2_series(5)), 5) == \
        list(closed_form_symbolic(5))


def test_specialization_commutes_with_extraction():
    # expand-then-evaluate equals evaluate-then-expand, across the catalog
    f = node_polynomials(4)
    surfaces = [P2(d) for d in range(5)] + \
        [K3(l2) for l2 in range(-2, 8, 2)] + \
        [T4(l2) for l2 in range(0, 8, 2)]
    rev = dg2_series(4).reversion()
    for s in surfaces:
        series_first = closed_form_series(s, 4).compose(rev)
        for delta in range(5):
            assert series_first[delta] == f[delta].evaluate(*s.chern_tuple())


def test_t1_on_plane_curves():
    # 3(d-1)^2 nodal curves of degree d in a pencil
    f = node_polynomials(1)
    expected = {3: 12, 4: 27, 5: 48, 6: 75, 7: 108, 8: 147}
    for d, value in expected.items():
        assert f[1].evaluate(*P2(d).chern_tuple()) == value


def test_count_nodal_values_and_flags():
    assert count_nodal(P2(3), 1) == 12
    assert validity_range(P2(3), 1) == IN_RANGE
    assert count_nodal(P2(2), 3) == -32
    assert validity_range(P2(2), 3) == OUT_OF_RANGE
    assert count_nodal(K3(0), 1) == 24
    assert validity_range(K3(0), 1) == IN_RANGE
    assert count_nodal(T4(2), 0) == 1
    rng = random.Random(43)
    assert validity_range(random_surface(rng), 2) == RANGE_UNKNOWN
    with pytest.raises(ValueError):
        count_nodal(P2(3), MAX_DELTA + 1)


def test_validity_range_rule():
    assert validity_range(P2(4), 1) == IN_RANGE
    assert validity_range(P2(3), 1) == IN_RANGE
    assert validity_range(P2(3), 3) == IN_RANGE
    assert validity_range(P2(2), 3) == OUT_OF_RANGE  # 2 < 3
    assert validity_range(P2(9), 2) == IN_RANGE
    assert validity_range(K3(8), 5) == IN_RANGE
    assert validity_range(T4(6), 4) == IN_RANGE
    assert validity_range(P2(3).blowup(), 1) == RANGE_UNKNOWN
    # K3 and T4 need the family's data as well as its name: a name on other
    # Chern data is only a label, and the data under another name fit
    # bielliptic surfaces too
    for name, data in (("K3:4", (5, 1, 0, 24)), ("T4:2", (2, 0, 0, 24)),
                       ("custom(2,0,0,0)", (2, 0, 0, 0))):
        assert validity_range(SurfaceClass(name, *data), 1) == RANGE_UNKNOWN
    for name, data in (("K3:4", (4, 0, 0, 24)), ("T4:2", (2, 0, 0, 0))):
        assert validity_range(SurfaceClass(name, *data), 1) == IN_RANGE
    for surface, delta in ((P2(3), -1), (K3(4), -5), (T4(2), -1)):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            validity_range(surface, delta)


def test_p2_counts_match_severi_degrees():
    # Severi degrees N^{d,delta} of plane curves, independent of the closed
    # form and of B1/B2.
    f = node_polynomials(5)
    for d, delta, severi in ((3, 3, 15), (4, 3, 675), (8, 4, 11225145),
                             (10, 5, 4037126346)):
        assert f[delta].evaluate(*P2(d).chern_tuple()) == severi
        assert count_nodal(P2(d), delta) == severi
        assert validity_range(P2(d), delta) == IN_RANGE


def test_in_range_p2_counts_are_nonnegative():
    # an in-range count is a number of curves; a negative one would show the
    # validity rule too generous
    f = node_polynomials(5)
    in_range = 0
    for d in range(13):
        for delta in range(6):
            if validity_range(P2(d), delta) == IN_RANGE:
                in_range += 1
                value = f[delta].evaluate(*P2(d).chern_tuple())
                assert value >= 0, (d, delta, value)
    assert in_range == sum(min(d, 5) + 1 for d in range(13))


def test_k3_and_abelian_counts_are_nonnegative():
    # counts of curves in a linear system of dimension >= delta
    f = node_polynomials(5)
    for m in range(1, 13):
        for surface in (K3(2 * m - 2), T4(2 * m)):
            for delta in range(min(5, surface.dim_linear_system()) + 1):
                value = f[delta].evaluate(*surface.chern_tuple())
                assert value >= 0, (surface.name, delta, value)


def test_p2_matches_kleiman_piene_polynomials():
    # Kleiman-Piene: T_2 and T_3 on P2 as polynomials of degree 4 and 6 in d;
    # agreement at 12 values of d is agreement as polynomials.
    f = node_polynomials(3)
    for d in range(1, 13):
        t2 = Fraction(3, 2) * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)
        t3 = (Fraction(9, 2) * d**6 - 27 * d**5 + Fraction(9, 2) * d**4
              + Fraction(423, 2) * d**3 - 229 * d**2 - Fraction(829, 2) * d
              + 525)
        assert f[2].evaluate(*P2(d).chern_tuple()) == t2
        assert f[3].evaluate(*P2(d).chern_tuple()) == t3


def test_log_rows_have_kleiman_piene_integrality():
    # Kleiman-Piene (arXiv:math/9903192) write F = exp(sum a_i t^i / i!)
    # with every a_i an integer linear form in (L2, LK, K2, c2); a_1 is the
    # classical T_1 = 3 L2 + 2 LK + c2, and a_2 and a_3 are the next two
    # forms they list.  Nothing past a_3 is pinned: it has not been checked
    # against their list.
    rows = _log_rows_in_t(MAX_DELTA)
    forms = [tuple(factorial(i) * row[i] for row in rows)
             for i in range(MAX_DELTA + 1)]
    assert forms[1] == (3, 2, 0, 1)
    assert forms[2] == (-42, -39, -6, -7)
    assert forms[3] == (1380, 1576, 376, 138)
    for i, form in enumerate(forms):
        assert all(a.denominator == 1 for a in form), (i, form)


def test_counts_are_integers_on_catalog():
    f = node_polynomials(5)
    surfaces = [P2(d) for d in range(6)] + \
        [K3(l2) for l2 in range(-2, 10, 2)] + \
        [T4(l2) for l2 in range(0, 8, 2)]
    for s in surfaces:
        for delta in range(6):
            value = f[delta].evaluate(*s.chern_tuple())
            assert value.denominator == 1


# -- identities -----------------------------------------------------------------------

def test_yau_zaslow_rows():
    deltas, values, partition = zip(*yau_zaslow_check(5))
    assert deltas == tuple(range(6))
    assert values == (1, 24, 324, 3200, 25650, 176256)
    assert partition == values


def test_blowup_identity_catalog_and_random():
    for s in (P2(3), K3(4)):
        lhs, rhs = blowup_identity_check(s, 5)
        assert lhs == rhs
    rng = random.Random(47)
    for _ in range(8):
        lhs, rhs = blowup_identity_check(random_surface(rng), 5)
        assert lhs == rhs


def test_blowup_identity_zero_surface():
    zero = SurfaceClass("zero", 0, 0, 0, 0)
    lhs, rhs = blowup_identity_check(zero, 5)
    assert lhs == rhs
    # H of the blowup is exactly the universal factor (B2/B1)*(DG2/q)^(-1)
    blown = closed_form_series(zero.blowup(), 5)
    assert blown == (b2_series(5) / b1_series(5)) * dg2_normalized(5).inverse()


def test_factorization_linear_parts():
    form = factorize_generating_function(5)
    log_a1, log_a2, log_a3, log_a4 = form
    assert log_a3[1] == 3
    assert log_a4[1] == 2
    assert log_a2[1] == 1
    assert log_a1[1] == 0
    for series in form:
        assert series[0] == 0


def test_factorization_reassembles_exactly():
    log_a1, log_a2, log_a3, log_a4 = form = factorize_generating_function(5)
    assert reassembles(form)
    assert linear_exp_oracle((log_a3, log_a4, log_a1,
                              log_a2)) == node_polynomials(5)


def test_reassembly_surfaces_are_independent():
    # four independent Chern tuples: the 4x4 system is nonsingular
    assert [s.name for s in CHECK_SURFACES] == ["P2:1", "P2:2", "K3:2",
                                                "T4:2"]
    _solve4([s.chern_tuple() for s in CHECK_SURFACES], [1, 2, 3, 4])
    # P2:M, K3:8, T4:6 and 9,-9,9,3 are not: P2:3 is the tuple 9,-9,9,3
    singular = [P2(3), K3(8), T4(6), parse_surface("9,-9,9,3")]
    with pytest.raises(ValueError):
        _solve4([s.chern_tuple() for s in singular], [1, 2, 3, 4])


def swap_two_rows(rows):
    l2, lk, k2, c2 = rows
    return lk, l2, k2, c2


def _zero_c2_row(rows):
    l2, lk, k2, c2 = rows
    return l2, lk, k2, [0] * len(c2)


def _bump_k2_top(rows):
    l2, lk, k2, c2 = rows
    return l2, lk, k2[:-1] + [k2[-1] + 1], c2


@pytest.mark.parametrize("mutate", [swap_two_rows, _zero_c2_row,
                                    _bump_k2_top])
def test_reassembly_catches_wrong_rows(monkeypatch, mutate):
    # node_polynomials reads the same mutated rows, so only a comparison
    # with the closed form sees these; the mutations act on the integer
    # log-derivative rows that the Lagrange-Buermann pass reads
    rows = nodal._derivative_rows
    monkeypatch.setattr(nodal, "_derivative_rows",
                        lambda bases: mutate(rows(bases)))
    assert not reassembles(factorize_generating_function(5))


def test_factorization_log_is_homogeneous_linear():
    logf = log_oracle(node_polynomials(5))
    for n in range(1, 6):
        linear_coefficients(logf[n])


# -- the log-linear core against the symbolic exp/compose/log route ----------
# The symbolic exps and logs run in test_series' coefficient-ring oracles:
# PSeries.exp and PSeries.log take Fraction coefficients only.

def product_of_exps_oracle(order):
    """The closed form as a product of four symbolic exps, one per base."""
    h = PSeries.one(order)
    for exponent, base in ((CHI_L, dg2_normalized(order)),
                           (chernpoly.K2, b1_series(order)),
                           (chernpoly.LK, b2_series(order)),
                           (MINUS_HALF_CHI_O, discriminant_factor(order))):
        h = h * exp_oracle(exponent * base.log())
    return h


def linear_exp_oracle(rows):
    """exp(L2*l_0 + LK*l_1 + K2*l_2 + c2*l_3) by the coefficient-ring
    recurrence."""
    return exp_oracle(sum(ChernPoly.variable(v) * row
                          for v, row in enumerate(rows)))


def test_closed_form_symbolic_matches_product_of_exps():
    for n in range(6):
        assert closed_form_symbolic(n) == product_of_exps_oracle(n)


def test_node_polynomials_match_symbolic_compose():
    assert node_polynomials(0) == PSeries.one(0)
    for n in range(1, 6):
        composed = poly_compose(list(closed_form_symbolic(n)),
                                list(dg2_series(n).reversion()), n)
        assert list(node_polynomials(n)) == composed


def test_factorization_matches_symbolic_log():
    for n in range(6):
        logf = log_oracle(node_polynomials(n))
        per_number = [[Fraction(0)] for _ in range(4)]
        for k in range(1, n + 1):
            coefficients = linear_coefficients(logf[k])
            for series, c in zip(per_number, coefficients):
                series.append(c)
        l2, lk, k2, c2 = (PSeries(s) for s in per_number)
        assert factorize_generating_function(n) == (k2, c2, l2, lk)


def test_integer_exp_matches_oracle_on_package_terms():
    for n in range(6):
        assert node_polynomials(n) == linear_exp_oracle(_log_rows_in_t(n))
        assert closed_form_symbolic(n) == linear_exp_oracle(_log_rows(n))
        log_a1, log_a2, log_a3, log_a4 = form = \
            factorize_generating_function(n)
        assert reassembles(form)
        assert node_polynomials(n) == linear_exp_oracle(
            (log_a3, log_a4, log_a1, log_a2))


# -- the integer log rows against the Fraction log/reversion/compose route ---
# The product path builds the rows by one Lagrange-Buermann pass in
# integers; these oracles are the route it replaced.

def log_rows_oracle(order):
    """PSeries.log of each base, regrouped by the columns of EXPONENTS."""
    logs = [base.log() for base in nodal._bases(order)]
    return tuple(sum(row[v] * log for row, log in zip(EXPONENTS, logs))
                 for v in range(4))


def log_rows_in_t_oracle(order):
    """The oracle rows composed with the reversion of DG2; truncated at t^0
    that reversion is the zero series."""
    inverse = dg2_series(order).reversion() if order else PSeries.zero(0)
    return tuple(row.compose(inverse) for row in log_rows_oracle(order))


def numeric_series_oracle(rows, point):
    """The point dotted with the rows as Fraction series, then one exp."""
    return sum(x * row for x, row in zip(point, rows)).exp()


# zeros in every position, the all-zero point and one huge point
ORACLE_POINTS = ((0, 0, 0, 0), (0, 0, 0, 24), (9, -9, 9, 3), (1, 0, 0, 0),
                 (0, 7, -3, 0), (0, 0, 1, 0),
                 (10**60 + 1, -3 * 10**30, 10**45, -(10**50) + 7))


def test_log_rows_match_log_and_regroup():
    for order in range(MAX_DELTA + 1):
        assert _log_rows(order) == log_rows_oracle(order), order


def test_log_rows_in_t_match_reversion_and_compose():
    for order in range(MAX_DELTA + 1):
        rows = _log_rows_in_t(order)
        assert rows == log_rows_in_t_oracle(order), order
        assert all(len(row) == order + 1 for row in rows)


def test_numeric_series_matches_fraction_sum():
    for order in range(MAX_DELTA + 1):
        rows = _log_rows_in_t(order)
        for point in ORACLE_POINTS:
            got = nodal._numeric_series(rows, point)
            assert got == numeric_series_oracle(rows, point), (order, point)
    assert nodal._numeric_series(_log_rows_in_t(5), (0, 0, 0, 0)) == \
        PSeries.one(5)


def test_product_paths_take_no_log_reversion_or_compose(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product path called a Fraction-route kernel")

    for name in ("log", "reversion", "compose"):
        monkeypatch.setattr(PSeries, name, refuse)
    with pytest.raises(AssertionError):
        dg2_series(3).reversion()
    assert node_polynomials(5)[1] == \
        3 * chernpoly.L2 + 2 * chernpoly.LK + chernpoly.C2
    assert count_nodal(P2(4), 3) == 675
    assert all(node == partition
               for _, node, partition in yau_zaslow_check(5))
    assert factorize_generating_function(5)[0].order == 5
    assert closed_form_symbolic(3)[0] == ChernPoly.constant(1)


def random_row(rng, order, max_den=50):
    """A random rational multiple of a random log-series, zero-padded past a
    random cut; a quarter of the rows are zero."""
    if rng.random() < 0.25:
        return PSeries.zero(order)
    log = random_rational_series(rng, order, first=1)
    cut = rng.randint(0, order + 1)
    c = Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den))
    return c * PSeries(log.coeffs[:cut], order=order)


def test_integer_exp_matches_oracle_on_random_terms():
    rng = random.Random(83)
    for order in range(13):
        rows = [random_row(rng, order) for _ in range(4)]
        assert _exp_linear(rows) == linear_exp_oracle(rows), order
    # rows of unequal length: the exp is truncated to the shortest
    for order in range(13):
        orders = [order, order + 1, order + 2, order + 5]
        rng.shuffle(orders)
        rows = [random_row(rng, n) for n in orders]
        assert _exp_linear(rows) == linear_exp_oracle(rows), orders
    # all-zero rows
    assert _exp_linear([PSeries.zero(4)] * 4) == PSeries.one(4)


# -- the numeric count route against the series F ----------------------------

def numeric_route_surfaces():
    catalog = [P2(d) for d in range(13)] \
        + [K3(2 * h - 2) for h in range(1, 13)] \
        + [T4(2 * n) for n in range(1, 13)] \
        + [parse_surface("9,-9,9,3")]
    return catalog + [s.blowup() for s in catalog]


def test_count_nodal_matches_table():
    f = node_polynomials(5)
    for s in numeric_route_surfaces():
        for delta in range(6):
            value = f[delta].evaluate(*s.chern_tuple())
            assert count_nodal(s, delta) == value, (s.name, delta)


def test_yau_zaslow_rows_match_table():
    f = node_polynomials(5)
    for n in range(6):
        triples = yau_zaslow_check(n)
        assert [delta for delta, _, _ in triples] == list(range(n + 1))
        for delta, node, _ in triples:
            k3 = K3(2 * delta - 2)
            assert node == f[delta].evaluate(*k3.chern_tuple())
