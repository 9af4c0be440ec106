"""Chern-number bookkeeping for polarized algebraic surfaces.

A :class:`SurfaceClass` stores the four integers that the universal node
polynomials consume, in the canonical-class basis:

    L2 = c1(L)^2,  LK = c1(L).c1(K),  K2 = c1(K)^2,  c2 = c2(M).

Riemann-Roch is stated once, as the linear forms :data:`CHI_O` and
:data:`CHI_L`.  Two integrality constraints are enforced at construction:
K2 + c2 must be divisible by 12 (Noether) and L2 - LK must be even (so
chi(L) is an integer).  The Riemann-Roch solver works in the anticanonical
basis c1(M) = -c1(K), where chi(L) = A1*c1(M)^2 + A2*c2 + A3*c1(M).c1(L)
+ A4*c1(L)^2; the stored data convert via c1(M).c1(L) = -LK and
c1(M)^2 = K2.

The package's records (here, in ``nodal`` and in ``inclexcl``) are
namedtuple subclasses, not dataclasses: importing ``dataclasses`` pulls in
``inspect`` and ``ast`` and would cost a CLI run more than its computation.
"""

import sys
from collections import namedtuple
from fractions import Fraction

# Riemann-Roch on a surface as linear forms over (L2, LK, K2, c2):
# chi(O) = (K2 + c2)/12 (Noether) and chi(L) = chi(O) + (L2 - LK)/2.
CHI_O = tuple(map(Fraction, (0, 0, "1/12", "1/12")))
CHI_L = tuple(o + Fraction(h) for o, h in zip(CHI_O, ("1/2", "-1/2", 0, 0)))


class SurfaceClass(namedtuple("SurfaceClass", "name L2 LK K2 c2")):
    __slots__ = ()

    def __new__(cls, name, L2, LK, K2, c2):
        if (K2 + c2) % 12 != 0:
            raise ValueError(
                f"{name}: K2 + c2 = {K2 + c2} is not divisible "
                "by 12 (Noether integrality fails)")
        if (L2 - LK) % 2 != 0:
            raise ValueError(
                f"{name}: L2 - LK = {L2 - LK} is odd "
                "(chi(L) would not be an integer)")
        return super().__new__(cls, name, L2, LK, K2, c2)

    def chi_O(self):
        """Holomorphic Euler characteristic of the structure sheaf."""
        return sum(e * x for e, x in zip(CHI_O, self.chern_tuple()))

    def chi_L(self):
        """chi(L), an integer by construction."""
        return int(sum(e * x for e, x in zip(CHI_L, self.chern_tuple())))

    def dim_linear_system(self):
        """Expected projective dimension of |L|, i.e. chi(L) - 1."""
        return self.chi_L() - 1

    def blowup(self):
        """Blow up one point, polarizing by pullback minus the exceptional
        curve: (L2, LK, K2, c2) -> (L2-1, LK+1, K2-1, c2+1).

        chi(O) is preserved and chi(L) drops by exactly 1.
        """
        return SurfaceClass(f"Bl({self.name})",
                            self.L2 - 1, self.LK + 1, self.K2 - 1, self.c2 + 1)

    def chern_tuple(self):
        return (self.L2, self.LK, self.K2, self.c2)


class RRCoefficients(namedtuple("RRCoefficients", "A1 A2 A3 A4")):
    """Coefficients of c1(M)^2, c2(M), c1(M).c1(L), c1(L)^2 in chi(L)."""
    __slots__ = ()

    def chi(self, s):
        """Evaluate the solved linear form on a surface."""
        return (self.A1 * s.K2 + self.A2 * s.c2
                + self.A3 * (-s.LK) + self.A4 * s.L2)


def _solve4(rows, rhs):
    """Exact Gaussian elimination for a 4x4 rational system."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system: the surface catalog does not "
                             "determine the coefficients")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def solve_rr_coefficients(pairs):
    """Identify (A1, A2, A3, A4) from four surface / chi(L) pairs.

    Each pair contributes one linear equation in the anticanonical basis;
    the four surfaces must make the system nonsingular.
    """
    pairs = list(pairs)
    if len(pairs) != 4:
        raise ValueError("exactly four surface/chi pairs are required")
    rows = [(s.K2, s.c2, -s.LK, s.L2) for s, _ in pairs]
    rhs = [chi for _, chi in pairs]
    a1, a2, a3, a4 = _solve4(rows, rhs)
    return RRCoefficients(a1, a2, a3, a4)


# -- built-in surface constructors ------------------------------------------

def P2(d):
    """The projective plane polarized by H^d (K = -3H, so LK = -3d)."""
    if d < 0:
        raise ValueError("P2 degree must be >= 0")
    return SurfaceClass(f"P2:{d}", d * d, -3 * d, 9, 3)


def K3(l2):
    """A K3 surface (trivial K, c2 = 24) with a class of self-intersection l2."""
    return SurfaceClass(f"K3:{l2}", l2, 0, 0, 24)


def T4(l2):
    """An abelian surface (trivial K, c2 = 0) with self-intersection l2."""
    return SurfaceClass(f"T4:{l2}", l2, 0, 0, 0)


def builtin_catalog():
    """Name -> constructor map for the surfaces addressable as NAME:PARAM."""
    return {"P2": P2, "K3": K3, "T4": T4}


def parse_surface(spec):
    """Parse "P2:3" / "K3:4" / "T4:2" or explicit "L2,LK,K2,c2" data."""
    if ":" in spec:
        name, _, arg = spec.partition(":")
        catalog = builtin_catalog()
        if name not in catalog:
            raise ValueError(f"unknown surface family {name!r}; "
                             f"choices: {', '.join(sorted(catalog))}")
        return catalog[name](_spec_integer(spec, arg))
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError("explicit surface needs four integers L2,LK,K2,c2")
    l2, lk, k2, c2 = (_spec_integer(spec, p) for p in parts)
    return SurfaceClass(f"custom({spec})", l2, lk, k2, c2)


def parse_integer(text):
    """The integer ``text`` spells: the one rule for every integer a user
    types.  Only an optional "-" then ASCII digits is read; int() alone
    would also take "1_0", "+2", non-ASCII digits and surrounding space,
    and a name or value echoed from the text would not be the one used.
    Nor are more digits than the int-string digit limit (0 means none).
    Raises ValueError, naming the limit (:func:`past_digit_limit`) or
    quoting ``text`` cut to 80 characters."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isdigit() and digits.isascii()):
        raise ValueError(f"expected an integer, "
                         f"got {_abridge(repr(text), 80)}")
    if 0 < sys.get_int_max_str_digits() < len(digits):
        raise ValueError(past_digit_limit("got"))
    return int(text)


def past_digit_limit(holder):
    """The one wording of an integer past the int-string digit limit:
    ``holder`` ("stdin holds") then the limit, echoing no digit."""
    return (f"{holder} an integer of more than {sys.get_int_max_str_digits()}"
            f" digits, the int-string digit limit")


def _abridge(text, limit=200):
    """``text``, past ``limit`` characters cut to its head and tail around
    "...": the one bound on the user text an error message echoes."""
    if len(text) <= limit:
        return text
    tail = (limit - 3) // 2
    return f"{text[:limit - 3 - tail]}...{text[-tail:]}"


def _spec_integer(spec, field):
    """The integer one field of a surface spec spells; else parse_integer's
    error after the spec, quoted cut to 80 characters."""
    try:
        return parse_integer(field)
    except ValueError as exc:
        raise ValueError(f"surface {_abridge(repr(spec), 80)}: "
                         f"{exc}") from None


def rr_example_pairs():
    """The four classical surface/chi pairs that pin down the coefficients:
    O on K3, O on P2, the hyperplane class on P2, and a (1,1)-type class
    on the abelian surface."""
    return [(K3(0), 2), (P2(0), 1), (P2(1), 3), (T4(2), 1)]
