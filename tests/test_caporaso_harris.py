"""B1 and B2 from Severi degrees of plane curves, independent of nodal's table.

The Caporaso-Harris recursion (Counting plane curves of any genus, Invent.
Math. 1998, Thm 1.1), written for possibly reducible curves with delta
nodes, counts the degree-d curves N^{d,delta}(alpha, beta) with tangency
conditions to a fixed line: alpha_k fixed and beta_k unfixed points of
contact order k.  With Iv = sum k*v_k, |v| = sum v_k and I^v = prod k^(v_k),

    N^{d,delta}(alpha, beta)
        = sum_(k: beta_k > 0) k * N^{d,delta}(alpha + e_k, beta - e_k)
        + sum I^(beta'-beta) C(alpha, alpha') C(beta', beta)
              * N^{d-1,delta'}(alpha', beta'),

the second sum over alpha' <= alpha and beta' >= beta with
I alpha' + I beta' = d - 1 and delta' = delta - (d-1) + |beta'-beta| >= 0.
The Severi degree is N^{d,delta}(0, d*e_1).

With L = dH on P2 the closed form reads F_d(DG2) = (DG2/q)^chi(L) *
B1^9 * B2^(-3d) / (Delta*D2G2/q^2)^(1/2) for F_d(t) = sum N^{d,delta}
t^delta, as far as each N^{d,delta} is the universal count.  So
R_d = F_d(DG2) * (DG2/q)^(-chi(L)) * (Delta*D2G2/q^2)^(1/2) equals
B1^9 * B2^(-3d), and a pair of degrees (d, d+1) gives
B2 = (R_d/R_(d+1))^(1/3) and B1 = (R_d * B2^(3d))^(1/9).

The same recursion at a ruling of P1 x P1 (Vakil) gives the Severi degrees
of the classes (a, b).  Since log F is linear in (L2, LK, K2, c2), three
plane degrees and one class (a, b) determine all four log rows of the
closed form with no modular form at all.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product, zip_longest
from math import comb, prod

from nodepoly.chern import P2, parse_surface
from nodepoly.modular import dg2_series
from nodepoly.nodal import (B1_COEFFS, B2_COEFFS, MAX_DELTA, _exp_linear,
                            _log_rows_in_t, count_nodal, discriminant_factor,
                            dg2_normalized, node_polynomials)
from nodepoly.series import PSeries


def weight(v):
    """I v = sum k * v_k (v_k at index k - 1)."""
    return sum(k * x for k, x in enumerate(v, 1))


def trim(v):
    """v without its trailing zeros, the memo key of a tangency vector."""
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return tuple(v)


def add(u, w):
    return trim(map(sum, zip_longest(u, w, fillvalue=0)))


def unit(k, sign=1):
    return (0,) * (k - 1) + (sign,)


@lru_cache(maxsize=None)
def multiplicity_vectors(m):
    """Every gamma with I gamma = m, as (gamma, |gamma|, I^gamma) with
    gamma a trimmed tangency vector."""
    def parts(m, largest):
        if m == 0:
            yield ()
            return
        for k in range(min(m, largest), 0, -1):
            for rest in parts(m - k, k):
                yield (k,) + rest
    return tuple((trim(p.count(k) for k in range(1, m + 1)), len(p), prod(p))
                 for p in parts(m, m))


def recursion_sum(same, smaller, meet, delta, alpha, beta):
    """The right side of the recursion at a divisor E: ``same(delta,
    alpha, beta)`` counts the class itself, and ``smaller(delta', alpha',
    beta')`` the class less E, whose curves meet E in ``meet`` points:
    I alpha' + I beta' = meet and delta' = delta - meet + |beta' - beta|."""
    total = 0
    for k, b in enumerate(beta, 1):
        if b:
            total += k * same(delta, add(alpha, unit(k)),
                              add(beta, unit(k, -1)))
    room = meet - weight(beta)
    for sub in product(*(range(a + 1) for a in alpha)):
        rest = room - weight(sub)
        if rest < 0:
            continue
        binom_alpha = prod(map(comb, alpha, sub))
        sub = trim(sub)
        for gamma, size, i_gamma in multiplicity_vectors(rest):
            sub_delta = delta - meet + size
            if sub_delta < 0:
                continue
            sup = add(beta, gamma)
            total += (i_gamma * binom_alpha * prod(map(comb, sup, beta))
                      * smaller(sub_delta, sub, sup))
    return total


@lru_cache(maxsize=None)
def severi_ch(d, delta, alpha, beta):
    """N^{d,delta}(alpha, beta) by the Caporaso-Harris recursion."""
    if d == 0:
        return int(delta == 0 and not alpha and not beta)
    genus = (d - 1) * (d - 2) // 2 - delta
    if 2 * d + genus - 1 + sum(beta) <= 0:
        return 0
    return recursion_sum(partial(severi_ch, d), partial(severi_ch, d - 1),
                         d - 1, delta, alpha, beta)


def severi_degree(d, delta):
    """N^{d,delta}: degree-d plane curves with delta nodes through the
    right number of general points."""
    return severi_ch(d, delta, (), unit(1, d) if d else ())


@lru_cache(maxsize=None)
def severi_p1p1(a, b, delta, alpha, beta):
    """N^{(a,b),delta}(alpha, beta) on P1 x P1, with tangency conditions to
    a ruling E = (1, 0), which a curve of class (a, b) meets in b points.

    Vakil's recursion (Counting curves on rational surfaces, Manuscripta
    Math. 2000) has the shape of Caporaso-Harris with the class less E,
    (a - 1, b), in place of degree d - 1.  Curves of class (0, b) are b
    disjoint rulings (0, 1), each meeting E once: there is exactly one
    through the b contact points, and it has no node.
    """
    if a == 0:
        return int(delta == 0 and len(alpha) <= 1 and len(beta) <= 1
                   and weight(alpha) + weight(beta) == b)
    genus = (a - 1) * (b - 1) - delta
    if 2 * a + b + genus - 1 + sum(beta) <= 0:
        return 0
    return recursion_sum(partial(severi_p1p1, a, b),
                         partial(severi_p1p1, a - 1, b), b, delta, alpha,
                         beta)


def severi_degree_p1p1(a, b, delta):
    """N^{(a,b),delta}: curves of class (a, b) on P1 x P1 with delta nodes
    through the right number of general points."""
    return severi_p1p1(a, b, delta, (), unit(1, b) if b else ())


def r_series(d, order):
    """R_d = F_d(DG2) * (DG2/q)^(-chi(L)) * (Delta*D2G2/q^2)^(1/2) to q^order,
    with chi(O(d)) = (d+1)(d+2)/2 stated here apart from ``chern``."""
    f = PSeries([severi_degree(d, delta) for delta in range(order + 1)])
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
    # d >= delta, so the pair (5, 6) gives B1 and B2 to q^5.
    b1, b2 = b_series_from_pair(5, 5)
    assert b1 == PSeries(B1_COEFFS[:6])
    assert b2 == PSeries(B2_COEFFS[:6])


def test_b_table_from_severi_degrees_to_max_delta():
    # Degree d0 = ceil(M/2) + 1 meets Goettsche's threshold d >= delta/2 + 1
    # at every delta <= M = MAX_DELTA, so the pair (d0, d0 + 1) reproduces
    # the whole shipped table, to q^M.  No other source apart from the
    # closed form reaches its top coefficients: B1 and B2 drop out of the K3
    # and T4 counts.
    m = MAX_DELTA
    assert len(B1_COEFFS) == len(B2_COEFFS) == m + 1
    b1, b2 = b_series_from_pair(-(-m // 2) + 1, m)
    assert b1 == PSeries(B1_COEFFS)
    assert b2 == PSeries(B2_COEFFS)


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
    g0, g1, g2 = (PSeries([severi_degree(d, delta)
                           for delta in range(m + 1)]).log()
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
        assert count_nodal(surface, delta).value == \
            severi_degree_p1p1(a, b, delta), (a, b, delta)


def test_all_four_log_rows_from_severi_degrees():
    # On O(a, b), log F = 2ab l_0 - 2(a + b) l_1 + (8 l_2 + 4 l_3).  With
    # l_0 and l_1 from the plane, the class (7, 7) gives 8 l_2 + 4 l_3, and
    # with the plane's 9 l_2 + 3 l_3 that solves for all four rows (the
    # determinant is 12): the closed form from enumerative data alone.
    # Only delta <= 7 is a theorem on (7, 7) (7-very ample, Kool-Shende-
    # Thomas); delta 8..12 rest on the Goettsche-type threshold
    # min(a, b) >= delta/2 + 1, as the plane degrees do.
    m = 12
    l0, l1, plane = plane_log_rows(m)
    g = PSeries([severi_degree_p1p1(7, 7, delta)
                 for delta in range(m + 1)]).log()
    ruled = g - 98 * l0 + 28 * l1
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
        assert count_nodal(P2(d), delta).value == severi_degree(d, delta), \
            (d, delta)
