"""
The blowup formula and the factorized generating function
=========================================================

Two structural identities of the closed form.  First: blowing up a single
point multiplies the generating series by the universal factor
(B2/B1) * (DG2/q)^(-1), whatever the surface.  Second: log F(t) is
homogeneous-linear in the four Chern numbers at every order, so F splits
as A1(t)^K2 * A2(t)^c2 * A3(t)^L2 * A4(t)^LK with scalar series A_i.
"""

from nodepoly import (K3, P2, SurfaceClass, blowup_identity_check,
                      closed_form_series, factorize_generating_function)
from nodepoly.nodal import (CHECK_SURFACES, b1_series, b2_series,
                            dg2_normalized, reassembles)

# The universal blowup factor, computed once.
factor = (b2_series(5) / b1_series(5)) * dg2_normalized(5).inverse()
print("(B2/B1)*(DG2/q)^(-1) =", factor)
print()

for s in [P2(3), K3(4), SurfaceClass("general", 7, 1, -3, 15)]:
    lhs, rhs = blowup_identity_check(s, 5)
    ratio = closed_form_series(s.blowup(), 5) / closed_form_series(s, 5)
    print(f"{s.name}: identity holds = {lhs == rhs}, "
          f"ratio == universal factor: {ratio == factor}")

# The four per-Chern-number series of the factorized form.
print()
log_a1, log_a2, log_a3, log_a4 = form = factorize_generating_function(5)
print("log A1 (exponent K2) =", log_a1)
print("log A2 (exponent c2) =", log_a2)
print("log A3 (exponent L2) =", log_a3)
print("log A4 (exponent LK) =", log_a4)

# log F is linear in (L2, LK, K2, c2), so the four series are right exactly
# when F = exp(K2*logA1 + c2*logA2 + L2*logA3 + LK*logA4), composed with
# t = DG2(q), equals the closed form on four surfaces with independent
# Chern tuples.
print()
print("check surfaces:", ", ".join(s.name for s in CHECK_SURFACES))
print("F(DG2(q)) == closed form on each:", reassembles(form))
