"""
Universal node polynomials
==========================

The number of delta-node nodal curves in a generic delta-dimensional
linear subsystem is a universal polynomial T_delta in the four Chern
numbers.  The closed-form generating function determines T_delta after the
substitution t = DG2(q) is inverted by exact Lagrange inversion.  The B1/B2
input data reach q^MAX_DELTA (20); this demo stops at delta = 5 only to
keep its output short.
"""

from nodepoly import P2, SurfaceClass, T4, node_polynomials
from nodepoly.nodal import validity_range

# F(t) = sum T_delta t^delta, a series whose t^delta coefficient is T_delta
f = node_polynomials(5)
for delta, t in enumerate(f):
    print(f"T_{delta} =", t)
    print()

# For a pencil of plane curves of degree d the count is 3(d-1)^2.
print("delta = 1 on P2:")
for d in range(3, 9):
    print(f"  degree {d}: {f[1].evaluate(*P2(d).chern_tuple())}"
          f"  [{validity_range(P2(d), 1)}]"
          f"   3(d-1)^2 = {3 * (d - 1) ** 2}")

# O(d) is d-very ample, and delta-very ampleness guarantees the count
# (Kool-Shende-Thomas): d >= delta separates guaranteed counts from formal
# extrapolations such as the negative count on conics.
print()
for delta in (2, 3):
    for d in (1, 2, 3, 4):
        value = f[delta].evaluate(*P2(d).chern_tuple())
        print(f"  P2:{d} delta={delta}: {str(value):>10}"
              f"  [{validity_range(P2(d), delta)}]")

# With every Chern number zero the generating function collapses to 1,
# so all higher counts vanish; an actual abelian-surface polarization
# keeps the L2-dependence alive.
print()
zero = SurfaceClass("zero", 0, 0, 0, 0)
for label, s in (("zero surface:", zero), ("T4:6 counts: ", T4(6))):
    print(label, [int(t.evaluate(*s.chern_tuple())) for t in f])
