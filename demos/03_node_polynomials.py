"""
Universal node polynomials
==========================

The number of delta-node nodal curves in a generic delta-dimensional
linear subsystem is a universal polynomial T_delta in the four Chern
numbers.  The closed-form generating function determines T_delta after the
substitution t = DG2(q) is inverted by exact series reversion; the B1/B2
input data are known to q^5, so delta runs up to 5.
"""

from nodepoly import P2, SurfaceClass, T4, node_polynomials
from nodepoly.nodal import validity_range

table = node_polynomials(5)
for delta in range(6):
    print(f"T_{delta} =", table[delta])
    print()

# For a pencil of plane curves of degree d the count is 3(d-1)^2.
print("delta = 1 on P2:")
for d in range(3, 9):
    print(f"  degree {d}: {table.evaluate(P2(d), 1)}"
          f"  [{validity_range(P2(d), 1)}]"
          f"   3(d-1)^2 = {3 * (d - 1) ** 2}")

# O(d) is d-very ample, and delta-very ampleness guarantees the count
# (Kool-Shende-Thomas): d >= delta separates guaranteed counts from formal
# extrapolations such as the negative count on conics.
print()
for delta in (2, 3):
    for d in (1, 2, 3, 4):
        value = table.evaluate(P2(d), delta)
        print(f"  P2:{d} delta={delta}: {str(value):>10}"
              f"  [{validity_range(P2(d), delta)}]")

# With every Chern number zero the generating function collapses to 1,
# so all higher counts vanish; an actual abelian-surface polarization
# keeps the L2-dependence alive.
print()
zero = SurfaceClass("zero", 0, 0, 0, 0)
print("zero surface:", [int(table.evaluate(zero, d)) for d in range(6)])
print("T4:6 counts: ", [int(table.evaluate(T4(6), d)) for d in range(6)])
