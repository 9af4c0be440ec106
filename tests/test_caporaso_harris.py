"""B1 and B2 from Severi degrees of plane curves, independent of nodal's table.

The Caporaso-Harris recursion (Counting plane curves of any genus, Invent.
Math. 1998, Thm 1.1), written for possibly reducible curves with delta
nodes, counts the degree-d curves N^{d,delta}(alpha, beta) with tangency
conditions to a fixed line E: alpha_k fixed and beta_k unfixed points of
contact order k.  Vakil's recursion (Counting curves on rational surfaces,
Manuscripta Math. 2000) has the same shape on P1 x P1, for the classes
(a, b) and a ruling E = (1, 0).  Each is carried here as a run: one memo
value per (class, alpha, beta) holds N(delta) for delta = 0..M.  With
Iv = sum k*v_k, |v| = sum v_k, I^v = prod k^(v_k) and x^s the shift of a
run up by s,

    N(alpha, beta)
        = sum_k k * N(alpha + e_k, beta - e_k)
        + sum I^gamma C(alpha, alpha') C(beta + gamma, beta)
              * x^(meet - |gamma|) N_below(alpha', beta + gamma),

the second sum over alpha' <= alpha and gamma with I alpha' + I beta +
I gamma = meet.  Below is the class less E, d - 1 on the plane and
(a - 1, b) on P1 x P1, which meets E in meet = d - 1 or b points.  A run
stops at M and at the genus bound, where the Severi variety's dimension
would be negative.  The Severi degree of a class meeting E in e points
(e = d, or b) is N(delta) at alpha = 0, beta = e*e_1.

With L = dH on P2 the closed form reads F_d(DG2) = (DG2/q)^chi(L) *
B1^9 * B2^(-3d) / (Delta*D2G2/q^2)^(1/2) for F_d(t) = sum N^{d,delta}
t^delta, as far as each N^{d,delta} is the universal count.  So
R_d = F_d(DG2) * (DG2/q)^(-chi(L)) * (Delta*D2G2/q^2)^(1/2) equals
B1^9 * B2^(-3d), and a pair of degrees (d, d+1) gives
B2 = (R_d/R_(d+1))^(1/3) and B1 = (R_d * B2^(3d))^(1/9).

Since log F is linear in (L2, LK, K2, c2), three plane degrees and one
class (a, b) determine all four log rows of the closed form with no
modular form at all.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod
from operator import add

from nodepoly.chern import P2, parse_surface
from nodepoly.modular import dg2_series
from nodepoly.nodal import (B1_COEFFS, B2_COEFFS, MAX_DELTA, _exp_linear,
                            _log_rows_in_t, count_nodal, discriminant_factor,
                            dg2_normalized, node_polynomials)
from nodepoly.series import PSeries


def weight(v):
    """I v = sum k * v_k (v_k at index k - 1)."""
    return sum(k * x for k, x in enumerate(v, 1))


@lru_cache(maxsize=None)
def multiplicity_vectors(m, length):
    """Every gamma with I gamma = m, as (gamma, |gamma|, I^gamma) with
    gamma a tangency vector of the given length, at least m."""
    def parts(m, largest):
        if m == 0:
            yield ()
            return
        for k in range(min(m, largest), 0, -1):
            for rest in parts(m - k, k):
                yield (k,) + rest
    return tuple((tuple(map(p.count, range(1, length + 1))), len(p), prod(p))
                 for p in parts(m, m))


def geometry(cls):
    """(meet, the class less E, the genus bound at beta = 0) of the class
    (d,) on the plane or (a, b) on P1 x P1."""
    if len(cls) == 1:
        d, = cls
        return d - 1, (d - 1,), 2 * d - 1 + (d - 1) * (d - 2) // 2
    a, b = cls
    return b, (a - 1, b), 2 * a + b - 1 + (a - 1) * (b - 1)


@lru_cache(maxsize=None)
def recursion_sum(cls, alpha, beta, m):
    """The run N^{cls,delta}(alpha, beta), delta = 0..m, cut at the genus
    bound: zero from delta = bound + |beta| on.  alpha and beta hold one
    entry per contact order with E, as many as the class meets E in."""
    if not cls[0]:
        # degree 0, or class (0, b): b disjoint rulings (0, 1), one curve
        # with no node if each meets E once
        return () if any(alpha[1:] + beta[1:]) else (1,)
    meet, below, bound = geometry(cls)
    out = [0] * min(m + 1, bound + sum(beta))
    if not out:
        return ()
    for k, b in enumerate(beta):
        if b:
            run = recursion_sum(
                cls, alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:],
                beta[:k] + (b - 1,) + beta[k + 1:], m)
            for i, x in enumerate(run):
                out[i] += (k + 1) * x
    # room before beta is cut below: an entry past meet makes it negative
    room = meet - weight(beta)
    if room >= 0:
        for sub in product(*(range(a + 1) for a in alpha[:meet])):
            if weight(sub) <= room:
                binom_alpha = prod(map(comb, alpha, sub))
                for i, x in zip(range(len(out)),
                                contains_e(below, sub, beta[:meet], m)):
                    out[i] += binom_alpha * x
    return tuple(out)


@lru_cache(maxsize=None)
def contains_e(below, alpha, beta, m):
    """The second sum at alpha' = alpha, summed over gamma: the curves
    E + C with C of class ``below``, which meets E in len(alpha) points
    (with multiplicity) at alpha fixed and beta + gamma unfixed points.
    Neither the alpha above nor its genus bound enters, so every alpha
    above alpha' shares it."""
    meet = len(alpha)
    out = [0] * (m + 1)
    for gamma, size, i_gamma in multiplicity_vectors(
            meet - weight(alpha) - weight(beta), meet):
        sup = tuple(map(add, beta, gamma))
        coeff = i_gamma * prod(map(comb, sup, beta))
        for i, x in zip(range(meet - size, m + 1),
                        recursion_sum(below, alpha, sup, m)):
            out[i] += coeff * x
    return tuple(out)


def severi_run(cls, m):
    """N^{cls,delta}, delta = 0..m: curves of class (d,) on P2 or (a, b) on
    P1 x P1 with delta nodes through the right number of general points.
    The class meets E in e = cls[-1] points."""
    e = cls[-1]
    run = recursion_sum(cls, (0,) * e, (e,) + (0,) * (e - 1) if e else (), m)
    return run + (0,) * (m + 1 - len(run))


def severi_degree(d, delta):
    """N^{d,delta}: degree-d plane curves with delta nodes."""
    return severi_run((d,), delta)[delta]


def severi_degree_p1p1(a, b, delta):
    """N^{(a,b),delta}: curves of class (a, b) on P1 x P1 with delta nodes."""
    return severi_run((a, b), delta)[delta]


def r_series(d, order):
    """R_d = F_d(DG2) * (DG2/q)^(-chi(L)) * (Delta*D2G2/q^2)^(1/2) to q^order,
    with chi(O(d)) = (d+1)(d+2)/2 stated here apart from ``chern``."""
    f = PSeries(severi_run((d,), order))
    chi = (d + 1) * (d + 2) // 2
    return (f.compose(dg2_series(order)) * dg2_normalized(order) ** -chi
            * discriminant_factor(order) ** Fraction(1, 2))


def b_series_from_pair(d, order):
    """(B1, B2) to q^order from the degrees d and d + 1."""
    r = r_series(d, order)
    b2 = (r / r_series(d + 1, order)) ** Fraction(1, 3)
    return (r * b2 ** (3 * d)) ** Fraction(1, 9), b2


def test_severi_degree_anchors():
    anchors = {(3, 1): 12, (4, 2): 225, (4, 3): 675, (4, 6): 105,
               (3, 3): 15, (8, 4): 11225145, (10, 5): 4037126346}
    for (d, delta), n in anchors.items():
        assert severi_degree(d, delta) == n, (d, delta)


def test_b_series_from_severi_degrees():
    # Kool-Shende-Thomas (arXiv:1010.3211) prove N^{d,delta} universal for
    # d >= delta, so the pair (14, 15), whose degrees are both >= delta at
    # every delta <= 14, proves B1 and B2 to q^14.  CI runs the pair
    # (20, 21) to q^20, the whole shipped table.
    b1, b2 = b_series_from_pair(14, 14)
    assert b1 == PSeries(B1_COEFFS[:15])
    assert b2 == PSeries(B2_COEFFS[:15])


def test_b_table_from_severi_degrees_to_max_delta():
    # Degree d0 = ceil(M/2) + 1 meets Goettsche's threshold d >= delta/2 + 1
    # at every delta <= M = MAX_DELTA, so each of the pairs (d0, d0 + 1) and
    # (d0 + 1, d0 + 2) reproduces the whole shipped table, to q^M.  No other
    # source apart from the closed form reaches its top coefficients: B1 and
    # B2 drop out of the K3 and T4 counts.
    m = MAX_DELTA
    assert len(B1_COEFFS) == len(B2_COEFFS) == m + 1
    d0 = -(-m // 2) + 1
    for d in (d0, d0 + 1):
        assert b_series_from_pair(d, m) == (PSeries(B1_COEFFS),
                                            PSeries(B2_COEFFS)), d


def plane_log_rows(m):
    """l_0, l_1 and 9 l_2 + 3 l_3 to t^m from plane Severi degrees alone.

    On P2 with L = dH, log F_d = d^2 l_0 - 3d l_1 + (9 l_2 + 3 l_3) is
    quadratic in d, so three consecutive degrees give l_0 (the second
    difference), l_1 (the first) and 9 l_2 + 3 l_3 (the rest) with no
    modular form and no B1/B2.  Degree d0 = ceil(M/2) + 1 meets
    Goettsche's threshold d >= delta/2 + 1 at every delta <= M; the
    proved range d >= delta (Kool-Shende-Thomas) would cost far more.
    """
    d0 = -(-m // 2) + 1
    g0, g1, g2 = (PSeries(severi_run((d,), m)).log()
                  for d in (d0, d0 + 1, d0 + 2))
    l0 = (g2 - 2 * g1 + g0) * Fraction(1, 2)
    l1 = ((2 * d0 + 1) * l0 - (g1 - g0)) * Fraction(1, 3)
    return l0, l1, g0 - d0 * d0 * l0 + 3 * d0 * l1


def test_log_rows_from_severi_degrees():
    l0, l1, rest = plane_log_rows(12)
    rows = _log_rows_in_t(12)
    assert l0 == rows[0]
    assert l1 == rows[1]
    assert rest == 9 * rows[2] + 3 * rows[3]


def test_p1p1_severi_degree_anchors():
    # a (1, 1) curve with a node is the two rulings through the two points;
    # each Severi degree at delta = 1 is T_1 = 3 L2 + 2 LK + c2
    assert severi_degree_p1p1(1, 1, 1) == 2
    assert severi_degree_p1p1(2, 2, 1) == 12


def test_p1p1_counts_are_severi_degrees():
    # O(a, b) with a <= b, whose (L2, LK, K2, c2) is (2ab, -2(a + b), 8, 4),
    # is a-very ample (Di Rocco), so delta <= a is the range where
    # Kool-Shende-Thomas prove the universal count right
    cases = [(a, b, delta) for a in range(1, 7) for b in range(a, 7)
             for delta in range(a + 1)]
    assert len(cases) == 77
    for a, b, delta in cases:
        surface = parse_surface(f"{2 * a * b},{-2 * (a + b)},8,4")
        assert count_nodal(surface, delta) == \
            severi_degree_p1p1(a, b, delta), (a, b, delta)


def test_all_four_log_rows_from_severi_degrees():
    # On O(a, b), log F = 2ab l_0 - 2(a + b) l_1 + (8 l_2 + 4 l_3).  With
    # l_0 and l_1 from the plane, the class (d0, d0) gives 8 l_2 + 4 l_3,
    # and with the plane's 9 l_2 + 3 l_3 that solves for all four rows (the
    # determinant is 12): the closed form from enumerative data alone, to
    # t^M = MAX_DELTA.  Only delta <= d0 is a theorem on (d0, d0) (d0-very
    # ample, Kool-Shende-Thomas); delta past d0 rests on the Goettsche-type
    # threshold min(a, b) >= delta/2 + 1, as the plane degrees do.
    m = MAX_DELTA
    d0 = -(-m // 2) + 1
    l0, l1, plane = plane_log_rows(m)
    g = PSeries(severi_run((d0, d0), m)).log()
    ruled = g - 2 * d0 * d0 * l0 + 4 * d0 * l1
    l2 = (4 * plane - 3 * ruled) * Fraction(1, 12)
    l3 = (9 * ruled - 8 * plane) * Fraction(1, 12)
    rows = (l0, l1, l2, l3)
    assert rows == _log_rows_in_t(m)
    assert _exp_linear(rows) == node_polynomials(m)


def test_plane_counts_are_severi_degrees():
    # within the Goettsche threshold 2d >= delta + 2
    cases = [(d, delta) for d in range(1, 11) for delta in range(6)
             if 2 * d >= delta + 2]
    assert len(cases) == 51
    for d, delta in cases:
        assert count_nodal(P2(d), delta) == severi_degree(d, delta), \
            (d, delta)
