"""The closed-form generating function, node polynomials and identities."""

import random
from fractions import Fraction

import pytest

from nodepoly import chernpoly
from nodepoly.chern import K3, P2, SurfaceClass, T4
from nodepoly.chernpoly import ChernPoly
from nodepoly.modular import dg2_series
from nodepoly.nodal import (IN_RANGE, MAX_DELTA, OUT_OF_RANGE, RANGE_UNKNOWN,
                            b1_series, b2_series, blowup_identity_check,
                            chi_L_poly, chi_O_poly, closed_form_series,
                            closed_form_symbolic, count_nodal,
                            dg2_normalized, discriminant_factor,
                            factorize_generating_function, node_polynomials,
                            specialize, validity_range, yau_zaslow_check)
from nodepoly.series import PSeries


def random_surface(rng, span=6):
    k2 = rng.randint(-span, span)
    c2 = rng.randint(-span // 2, span // 2) * 12 - k2
    lk = rng.randint(-span, span)
    l2 = lk + 2 * rng.randint(-span, span)
    return SurfaceClass(f"rand({l2},{lk},{k2},{c2})", l2, lk, k2, c2)


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
    return (6 * chi_L_poly() + (-1) * chernpoly.K2 + 5 * chernpoly.LK
            + (-chi_O_poly() / 2) * (-12))


# -- B series ------------------------------------------------------------------

def test_b_series_constants():
    assert b1_series() == PSeries([1, -1, -5, 39, -345, 2961])
    assert b2_series() == PSeries([1, 5, 2, 35, -140, 986])
    assert b1_series(4)[4] == -345
    assert b2_series(0)[0] == 1


def test_b_series_data_limit():
    with pytest.raises(ValueError):
        b1_series(6)
    with pytest.raises(ValueError):
        b2_series(7)


def cap_message(delta):
    return (f"delta {delta} is out of range 0..{MAX_DELTA}: the B1/B2 series "
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


@pytest.mark.parametrize("delta", [-1, MAX_DELTA + 1])
@pytest.mark.parametrize("name", sorted(CAPPED_ENTRY_POINTS))
def test_delta_cap_has_one_message(name, delta):
    with pytest.raises(ValueError) as info:
        CAPPED_ENTRY_POINTS[name](delta)
    assert str(info.value) == cap_message(delta)


def test_b_series_log_homomorphism():
    assert (b1_series() * b2_series()).log() == \
        b1_series().log() + b2_series().log()


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
    expected = (b2_series() / b1_series()) * dg2_normalized(5).inverse()
    for s in (P2(3), K3(4)):
        ratio = closed_form_series(s.blowup(), 5) / closed_form_series(s, 5)
        assert ratio == expected


def test_closed_form_order_cap():
    with pytest.raises(ValueError):
        closed_form_series(P2(3), 6)


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
        assert specialize(h, s) == closed_form_series(s, 5)


# -- node polynomials ----------------------------------------------------------------

def test_table_basics():
    table = node_polynomials(5)
    assert table[0] == ChernPoly.constant(1)
    assert table[1] == 3 * chernpoly.L2 + 2 * chernpoly.LK + chernpoly.C2
    for delta in range(6):
        assert table[delta].total_degree() <= delta
    with pytest.raises(KeyError):
        table[6]
    assert node_polynomials(0)[0] == ChernPoly.constant(1)


def test_defining_substitution_round_trip():
    table = node_polynomials(5)
    f = table.generating_series()
    assert f.compose(dg2_series(5)) == closed_form_symbolic(5)


def test_specialization_commutes_with_extraction():
    # expand-then-evaluate equals evaluate-then-expand, across the catalog
    table = node_polynomials(4)
    surfaces = [P2(d) for d in range(5)] + \
        [K3(l2) for l2 in range(-2, 8, 2)] + \
        [T4(l2) for l2 in range(0, 8, 2)]
    rev = dg2_series(4).reversion()
    for s in surfaces:
        series_first = closed_form_series(s, 4).compose(rev)
        for delta in range(5):
            assert series_first[delta] == table.evaluate(s, delta)


def test_t1_on_plane_curves():
    # 3(d-1)^2 nodal curves of degree d in a pencil
    table = node_polynomials(1)
    expected = {3: 12, 4: 27, 5: 48, 6: 75, 7: 108, 8: 147}
    for d, value in expected.items():
        assert table.evaluate(P2(d), 1) == value


def test_count_nodal_values_and_flags():
    assert count_nodal(P2(3), 1).value == 12
    assert count_nodal(P2(3), 1).validity == IN_RANGE
    assert count_nodal(P2(2), 3).value == -32
    assert count_nodal(P2(2), 3).validity == OUT_OF_RANGE
    assert count_nodal(K3(0), 1).value == 24
    assert count_nodal(K3(0), 1).validity == IN_RANGE
    assert count_nodal(T4(2), 0).value == 1
    rng = random.Random(43)
    assert count_nodal(random_surface(rng), 2).validity == RANGE_UNKNOWN
    with pytest.raises(ValueError):
        count_nodal(P2(3), 6)


def test_validity_range_rule():
    assert validity_range(P2(4), 1) == IN_RANGE
    assert validity_range(P2(3), 1) == IN_RANGE
    assert validity_range(P2(3), 3) == IN_RANGE
    assert validity_range(P2(2), 3) == OUT_OF_RANGE  # 2 < 3
    assert validity_range(P2(9), 2) == IN_RANGE
    assert validity_range(K3(8), 5) == IN_RANGE
    assert validity_range(T4(6), 4) == IN_RANGE
    assert validity_range(P2(3).blowup(), 1) == RANGE_UNKNOWN


def test_p2_counts_match_severi_degrees():
    # Severi degrees N^{d,delta} of plane curves, independent of the closed
    # form and of B1/B2.
    table = node_polynomials(5)
    for d, delta, severi in ((3, 3, 15), (4, 3, 675), (8, 4, 11225145),
                             (10, 5, 4037126346)):
        assert table.evaluate(P2(d), delta) == severi
        assert count_nodal(P2(d), delta).value == severi
        assert count_nodal(P2(d), delta).validity == IN_RANGE


def test_in_range_p2_counts_are_nonnegative():
    # an in-range count is a number of curves; a negative one would show the
    # validity rule too generous
    table = node_polynomials(5)
    in_range = 0
    for d in range(13):
        for delta in range(6):
            if validity_range(P2(d), delta) == IN_RANGE:
                in_range += 1
                value = table.evaluate(P2(d), delta)
                assert value >= 0, (d, delta, value)
    assert in_range == sum(min(d, 5) + 1 for d in range(13))


def test_k3_and_abelian_counts_are_nonnegative():
    # counts of curves in a linear system of dimension >= delta
    table = node_polynomials(5)
    for m in range(1, 13):
        for surface in (K3(2 * m - 2), T4(2 * m)):
            for delta in range(min(5, surface.dim_linear_system()) + 1):
                value = table.evaluate(surface, delta)
                assert value >= 0, (surface.name, delta, value)


def test_p2_matches_kleiman_piene_polynomials():
    # Kleiman-Piene: T_2 and T_3 on P2 as polynomials of degree 4 and 6 in d;
    # agreement at 12 values of d is agreement as polynomials.
    table = node_polynomials(3)
    for d in range(1, 13):
        t2 = Fraction(3, 2) * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)
        t3 = (Fraction(9, 2) * d**6 - 27 * d**5 + Fraction(9, 2) * d**4
              + Fraction(423, 2) * d**3 - 229 * d**2 - Fraction(829, 2) * d
              + 525)
        assert table.evaluate(P2(d), 2) == t2
        assert table.evaluate(P2(d), 3) == t3


def test_counts_are_integers_on_catalog():
    table = node_polynomials(5)
    surfaces = [P2(d) for d in range(6)] + \
        [K3(l2) for l2 in range(-2, 10, 2)] + \
        [T4(l2) for l2 in range(0, 8, 2)]
    for s in surfaces:
        for delta in range(6):
            value = table.evaluate(s, delta)
            assert value.denominator == 1


# -- identities -----------------------------------------------------------------------

def test_yau_zaslow_rows():
    report = yau_zaslow_check(5)
    assert report.all_equal
    values = [row.node_value for row in report.rows]
    assert values == [1, 24, 324, 3200, 25650, 176256]
    assert [row.partition_value for row in report.rows] == values


def test_blowup_identity_catalog_and_random():
    for s in (P2(3), K3(4)):
        assert blowup_identity_check(s, 5).holds
    rng = random.Random(47)
    for _ in range(8):
        assert blowup_identity_check(random_surface(rng), 5).holds


def test_blowup_identity_zero_surface():
    zero = SurfaceClass("zero", 0, 0, 0, 0)
    check = blowup_identity_check(zero, 5)
    assert check.holds
    # H of the blowup is exactly the universal factor (B2/B1)*(DG2/q)^(-1)
    blown = closed_form_series(zero.blowup(), 5)
    assert blown == (b2_series() / b1_series()) * dg2_normalized(5).inverse()


def test_factorization_linear_parts():
    form = factorize_generating_function(5)
    assert form.log_a3[1] == 3
    assert form.log_a4[1] == 2
    assert form.log_a2[1] == 1
    assert form.log_a1[1] == 0
    for series in (form.log_a1, form.log_a2, form.log_a3, form.log_a4):
        assert series[0] == 0


def test_factorization_reassembles_exactly():
    form = factorize_generating_function(5)
    assert form.generating_function() == \
        node_polynomials(5).generating_series()


def test_factorization_log_is_homogeneous_linear():
    logf = node_polynomials(5).generating_series().log()
    for n in range(1, 6):
        poly = ChernPoly.promote(logf[n])
        assert poly.is_homogeneous_linear()
        assert poly.constant_part() == 0


# -- the log-linear core against the symbolic exp/compose/log route ----------

def product_of_exps_oracle(order):
    """The closed form as a product of four symbolic exps, one per base."""
    h = PSeries.one(order)
    for exponent, base in ((chi_L_poly(), dg2_normalized(order)),
                           (chernpoly.K2, b1_series(order)),
                           (chernpoly.LK, b2_series(order)),
                           (-chi_O_poly() / 2, discriminant_factor(order))):
        h = h * (exponent * base.log()).exp()
    return h


def test_closed_form_symbolic_matches_product_of_exps():
    for n in range(6):
        assert closed_form_symbolic(n) == product_of_exps_oracle(n)


def test_node_polynomials_match_symbolic_compose():
    assert node_polynomials(0).generating_series() == PSeries.one(0)
    for n in range(1, 6):
        composed = closed_form_symbolic(n).compose(dg2_series(n).reversion())
        assert node_polynomials(n).generating_series() == composed


def test_factorization_matches_symbolic_log():
    for n in range(6):
        logf = node_polynomials(n).generating_series().log()
        per_number = [[Fraction(0)] for _ in range(4)]
        for k in range(1, n + 1):
            coefficients = ChernPoly.promote(logf[k]).linear_coefficients()
            for series, c in zip(per_number, coefficients):
                series.append(c)
        l2, lk, k2, c2 = (PSeries(s) for s in per_number)
        form = factorize_generating_function(n)
        assert form.max_delta == n
        assert (form.log_a1, form.log_a2, form.log_a3, form.log_a4) == \
            (k2, c2, l2, lk)
