"""Counts on K3 and abelian surfaces against formulas in q alone.

On both families K2 = LK = 0, so B1 and B2 drop out of the closed form, and
Lagrange inversion of t = DG2(q) reads each T_delta off a product of
modular series in q.  That route takes no log, reversion, composition or
exp, the path ``count_nodal`` takes, so these check that path at every
genus, to delta 20.  Neither can catch a wrong B1/B2 datum.

* K3, L2 = 2h - 2, delta <= h = dim|L|, genus g = h - delta:
  T_delta = [q^delta] (DG2/q)^g / (Delta/q), the number of genus-g curves
  in |L| through g general points (Bryan-Leung, "The enumerative geometry
  of K3 surfaces and modular forms", J. AMS 2000, arXiv:alg-geom/9711031).
* Abelian surface, L2 = 2n, delta <= n - 1 = dim|L|:
  T_delta = [q^delta] (DG2/q)^(n-delta-1) * D2G2/q.
"""

from nodepoly.chern import K3, T4
from nodepoly.modular import d2g2_series, delta_series
from nodepoly.nodal import MAX_DELTA, count_nodal, dg2_normalized

N = MAX_DELTA


def genus_powers():
    """(DG2/q)^g to q^N for g = 0..N."""
    base = dg2_normalized(N)
    powers = [base ** 0]
    for _ in range(N):
        powers.append(powers[-1] * base)
    return powers


def test_k3_counts_are_bryan_leung():
    inverse_delta = delta_series(N + 1).shift_down(1).inverse()
    powers = genus_powers()
    cases = [(h, delta) for h in range(0, N + 1, 2) for delta in range(h + 1)]
    assert len(cases) == (N // 2 + 1) ** 2 and (N, N) in cases
    for h, delta in cases:
        expected = (powers[h - delta] * inverse_delta)[delta]
        assert count_nodal(K3(2 * h - 2), delta) == expected, (h, delta)


def test_abelian_counts_are_the_lagrange_form():
    d2g2 = d2g2_series(N + 1).shift_down(1)
    powers = genus_powers()
    cases = [(n, delta) for n in range(1, N + 2, 2) for delta in range(n)]
    assert len(cases) == (N // 2 + 1) ** 2 and (N + 1, N) in cases
    for n, delta in cases:
        expected = (powers[n - delta - 1] * d2g2)[delta]
        assert count_nodal(T4(2 * n), delta) == expected, (n, delta)
