"""Surface Chern data, Riemann-Roch identities and the coefficient solver."""

from fractions import Fraction
import random

import pytest

from nodepoly.chern import (K3, P2, SurfaceClass, T4, builtin_catalog,
                            parse_surface, rr_example_pairs,
                            solve_rr_coefficients)

F = Fraction


def random_surface(rng, span=6):
    """Random Chern data satisfying both integrality constraints."""
    k2 = rng.randint(-span, span)
    c2 = rng.randint(-span // 2, span // 2) * 12 - k2
    lk = rng.randint(-span, span)
    l2 = lk + 2 * rng.randint(-span, span)
    return SurfaceClass(f"rand({l2},{lk},{k2},{c2})", l2, lk, k2, c2)


def test_chi_O_classics():
    assert K3(0).chi_O() == 2
    assert P2(0).chi_O() == 1
    assert T4(0).chi_O() == 0


def test_chi_L_classics():
    assert T4(2).chi_L() == 1
    # degree-3 curves on the plane: 10 monomials in 3 variables
    assert P2(3).chi_L() == 10
    assert K3(4).chi_L() == 2 + 4 // 2


def test_dim_linear_system():
    assert P2(3).dim_linear_system() == 9  # the classical d(d+3)/2 at d = 3
    for delta in range(6):
        assert K3(2 * delta - 2).dim_linear_system() == delta
    assert T4(2).dim_linear_system() == 0


def test_invariant_violations_raise():
    with pytest.raises(ValueError):
        SurfaceClass("bad-noether", 0, 0, 1, 0)
    with pytest.raises(ValueError):
        SurfaceClass("bad-parity", 1, 0, 0, 24)


def test_replace_and_make_keep_the_invariant_checks():
    # namedtuple's _make, which _replace calls, builds the tuple without
    # __new__: P2:3 with K2 = 1 would have chi(O) = 1/3
    with pytest.raises(ValueError, match="Noether"):
        P2(3)._replace(K2=1)
    with pytest.raises(ValueError, match="odd"):
        P2(3)._replace(L2=8)
    with pytest.raises(ValueError, match="Noether"):
        SurfaceClass._make(("bad-noether", 0, 0, 1, 0))
    with pytest.raises(TypeError):
        K3(4)._replace(L2=4.0)
    renamed = P2(3)._replace(name="plane")
    assert renamed == SurfaceClass("plane", 9, -9, 9, 3)
    assert renamed.chi_L() == 10


def test_chern_numbers_must_be_ints():
    # the rule ChernPoly applies to its exponents: type int, so neither a
    # float, whose chi(L) int() would truncate, nor a Fraction nor a bool
    for build in (lambda: K3(4.0), lambda: P2(1.0), lambda: K3(True),
                  lambda: P2(F(1)), lambda: P2(True),
                  lambda: SurfaceClass("x", 2, 0, 0, F(24))):
        with pytest.raises(TypeError, match="is not an int"):
            build()


def test_blowup_arithmetic():
    blown = P2(3).blowup()
    assert blown.chern_tuple() == (8, -8, 8, 4)


def test_blowup_preserves_chi_O_and_drops_chi_L():
    rng = random.Random(5)
    for _ in range(20):
        s = random_surface(rng, span=8)
        b = s.blowup()
        assert b.chi_O() == s.chi_O()
        assert b.chi_L() == s.chi_L() - 1


def test_builtin_constructors():
    assert P2(1).chern_tuple() == (1, -3, 9, 3)
    assert K3(0).chern_tuple() == (0, 0, 0, 24)
    assert T4(2).chern_tuple() == (2, 0, 0, 0)
    catalog = builtin_catalog()
    assert catalog["P2"](2).chern_tuple() == (4, -6, 9, 3)
    with pytest.raises(ValueError, match="P2 degree must be >= 0"):
        P2(-1)


def test_rr_example_pairs_chi_consistency():
    for surface, chi in rr_example_pairs():
        assert surface.chi_L() == chi


def test_solver_recovers_riemann_roch():
    coeffs = solve_rr_coefficients(rr_example_pairs())
    assert (coeffs.A1, coeffs.A2, coeffs.A3, coeffs.A4) == \
        (F(1, 12), F(1, 12), F(1, 2), F(1, 2))


def test_solver_linearity():
    doubled = [(s, 2 * chi) for s, chi in rr_example_pairs()]
    coeffs = solve_rr_coefficients(doubled)
    assert (coeffs.A1, coeffs.A2, coeffs.A3, coeffs.A4) == \
        (F(1, 6), F(1, 6), F(1), F(1))


def test_solver_rejects_degenerate_catalog():
    pairs = rr_example_pairs()
    pairs[1] = pairs[0]
    with pytest.raises(ValueError):
        solve_rr_coefficients(pairs)
    with pytest.raises(ValueError):
        solve_rr_coefficients(pairs[:3])


def test_coefficients_cross_validate_on_other_surfaces():
    coeffs = solve_rr_coefficients(rr_example_pairs())
    surfaces = [P2(d) for d in range(7)] + \
        [K3(l2) for l2 in range(-2, 10, 2)] + \
        [T4(l2) for l2 in range(0, 10, 2)]
    rng = random.Random(17)
    surfaces += [random_surface(rng, span=8) for _ in range(20)]
    for s in surfaces:
        assert coeffs.chi(s) == s.chi_L()


def test_parse_surface_forms():
    assert parse_surface("P2:3") == P2(3)
    assert parse_surface("K3:4") == K3(4)
    assert parse_surface("2,0,0,0").chern_tuple() == (2, 0, 0, 0)
    with pytest.raises(ValueError):
        parse_surface("E8:1")
    with pytest.raises(ValueError):
        parse_surface("1,2,3")
    with pytest.raises(ValueError):
        parse_surface("1,0,0,24")  # odd L2 - LK
