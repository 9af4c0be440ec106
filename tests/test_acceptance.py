"""Acceptance suite: one exact-identity criterion per test, with the stated
time bound enforced and a PASS/FAIL line printed per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

from fractions import Fraction
import random
import time

from nodepoly import chernpoly
from nodepoly.chern import K3, P2, T4, rr_example_pairs, solve_rr_coefficients
from nodepoly.chernpoly import ChernPoly
from nodepoly.inclexcl import (SetSystem, modified_cardinalities,
                               nonempty_index_sets, union_via_alternating,
                               union_via_modified)
from nodepoly.modular import dg2_series
from nodepoly.nodal import (b1_series, b2_series, blowup_identity_check,
                            closed_form_symbolic,
                            dg2_normalized, discriminant_factor,
                            factorize_generating_function, node_polynomials,
                            reassembles)
from nodepoly.series import PSeries
from test_chern import random_surface
from test_nodal import linear_exp_oracle
from test_series import log_oracle, poly_compose

F = Fraction


def report(number, ok, elapsed, bound, text):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({elapsed * 1000:.2f} ms / "
          f"limit {bound * 1000:.0f} ms) - {text}")
    assert ok, f"criterion {number} failed: {text}"
    assert elapsed < bound, \
        f"criterion {number} exceeded its time bound: {elapsed:.4f}s >= {bound}s"


CATALOG_SURFACES = ([P2(d) for d in range(5)]
                    + [K3(l2) for l2 in (-2, 0, 2, 4, 8)]
                    + [T4(l2) for l2 in (0, 2, 4)])


def test_criterion_1_riemann_roch_coefficients():
    pairs = rr_example_pairs()
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        coeffs = solve_rr_coefficients(pairs)
        best = min(best, time.perf_counter() - t0)
    ok = (coeffs.A1, coeffs.A2, coeffs.A3, coeffs.A4) == \
        (F(1, 12), F(1, 12), F(1, 2), F(1, 2))
    report(1, ok, best, 0.001,
           "RR coefficient recovery equals (1/12, 1/12, 1/2, 1/2)")


def test_criterion_2_first_node_polynomial():
    t0 = time.perf_counter()
    # independent hand oracle: q^1 coefficients of the four log series,
    # read straight off the normalized bases, paired with their exponents
    # chi(L), K2, LK and -chi(O)/2
    chi_o = F(1, 12) * (chernpoly.K2 + chernpoly.C2)
    first_order = {
        dg2_normalized(1)[1]: chi_o + F(1, 2) * (chernpoly.L2 - chernpoly.LK),
        b1_series(1)[1]: chernpoly.K2,
        b2_series(1)[1]: chernpoly.LK,
        discriminant_factor(1)[1]: F(-1, 2) * chi_o,
    }
    oracle = ChernPoly.constant(0)
    for log_coeff, exponent in first_order.items():
        oracle = oracle + log_coeff * exponent
    t1 = node_polynomials(1)[1]
    ok = (oracle == 3 * chernpoly.L2 + 2 * chernpoly.LK + chernpoly.C2
          and t1 == oracle)
    plane_values = {3: 12, 4: 27, 5: 48, 6: 75, 7: 108, 8: 147}
    for d, expected in plane_values.items():
        ok = ok and t1.evaluate(*P2(d).chern_tuple()) == expected \
            and expected == 3 * (d - 1) ** 2
    elapsed = time.perf_counter() - t0
    report(2, ok, elapsed, 1.0,
           "T_1 = 3*L2 + 2*LK + c2 and equals 3(d-1)^2 on plane curves")


def test_criterion_3_yau_zaslow():
    t0 = time.perf_counter()
    f = node_polynomials(5)
    expected = [1, 24, 324, 3200, 25650, 176256]
    ok = True
    for delta in range(6):
        value = f[delta].evaluate(2 * delta - 2, 0, 0, 24)
        ok = ok and value == expected[delta]
    elapsed = time.perf_counter() - t0
    report(3, ok, elapsed, 5.0,
           "K3 counts match the 24th partition power for delta = 0..5")


def test_criterion_4_blowup_formula():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    surfaces = CATALOG_SURFACES + [random_surface(rng) for _ in range(20)]
    ok = all(lhs == rhs for lhs, rhs in
             (blowup_identity_check(s, 5) for s in surfaces))
    elapsed = time.perf_counter() - t0
    report(4, ok, elapsed, 5.0,
           f"H_blowup*B1*(DG2/q) = H*B2 on {len(surfaces)} surfaces")


def test_criterion_5_factorizability():
    t0 = time.perf_counter()
    f = node_polynomials(5)
    logf = log_oracle(f)
    ok = all(sum(e) == 1
             for n in range(1, 6) for e in ChernPoly.promote(logf[n]).terms)
    log_a1, log_a2, log_a3, log_a4 = form = factorize_generating_function(5)
    ok = ok and reassembles(form) and linear_exp_oracle(
        (log_a3, log_a4, log_a1, log_a2)) == f
    elapsed = time.perf_counter() - t0
    report(5, ok, elapsed, 5.0,
           "log F is homogeneous-linear and exp(sum) reassembles F")


def test_criterion_6_defining_substitution():
    t0 = time.perf_counter()
    f = node_polynomials(5)
    ok = poly_compose(list(f), list(dg2_series(5)), 5) \
        == list(closed_form_symbolic(5))
    elapsed = time.perf_counter() - t0
    report(6, ok, elapsed, 5.0,
           "F composed with DG2 reproduces the closed form to order 5")


def test_criterion_7_inclusion_exclusion():
    t0 = time.perf_counter()
    rng = random.Random(777)
    ok = True
    for _ in range(500):
        k = rng.randint(1, 5)
        system = SetSystem([
            [x for x in range(12) if rng.random() < 0.4] for _ in range(k)])
        plain, modified = modified_cardinalities(system)
        table = dict(zip(nonempty_index_sets(k), zip(plain, modified)))
        signature = {}
        for x in system.union():
            sig = frozenset(i for i, s in enumerate(system.sets) if x in s)
            signature[sig] = signature.get(sig, 0) + 1
        for index_set, (_, modified) in table.items():
            ok = ok and modified == signature.get(index_set, 0)
        union = len(system.union())
        ok = ok and union_via_modified(system) == union
        ok = ok and union_via_alternating(system) == union
    elapsed = time.perf_counter() - t0
    report(7, ok, elapsed, 2.0,
           "500 random systems: recursion = signature oracle, unions agree")


def test_criterion_8_series_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(4096)
    order = 16
    q = PSeries.identity(order)
    ok = True

    def rand_series(c0, c1=None):
        coeffs = [c0] + [F(rng.randint(-4, 4)) for _ in range(order)]
        if c1 is not None:
            coeffs[1] = c1
        return PSeries(coeffs)

    for _ in range(50):  # exp/log round trips
        a = rand_series(F(1))
        b = rand_series(F(0))
        ok = ok and a.log().exp() == a and b.exp().log() == b
    for _ in range(50):  # reversion/compose round trips
        a = rand_series(F(0), c1=F(1))
        rev = a.reversion()
        ok = ok and a.compose(rev) == q and rev.compose(a) == q
    for _ in range(50):  # Leibniz rule for D = q d/dq
        f = rand_series(F(rng.randint(-4, 4)))
        g = rand_series(F(rng.randint(-4, 4)))
        ok = ok and (f * g).qderiv() == f * g.qderiv() + g * f.qderiv()
    for _ in range(50):  # integer powers agree with repeated multiplication
        a = rand_series(F(rng.randint(-4, 4)))
        n = rng.randint(0, 5)
        repeated = PSeries.one(order)
        for _ in range(n):
            repeated = repeated * a
        ok = ok and a**n == repeated
    elapsed = time.perf_counter() - t0
    report(8, ok, elapsed, 5.0,
           "200 randomized series property cases at order 16")


def test_criterion_9_integrality():
    t0 = time.perf_counter()
    f = node_polynomials(5)
    ok = True
    for surface in CATALOG_SURFACES:
        for delta in range(6):
            value = f[delta].evaluate(*surface.chern_tuple())
            ok = ok and value.denominator == 1
    elapsed = time.perf_counter() - t0
    report(9, ok, elapsed, 1.0,
           f"counts are integers on {len(CATALOG_SURFACES)} catalog surfaces "
           "for delta <= 5")
