"""Polynomials in the four Chern numbers of a polarized surface.

The variables, in fixed order, are

    L2 = c1(L)^2,  LK = c1(L).c1(K),  K2 = c1(K)^2,  c2 = c2(M),

with K the canonical class.  A :class:`ChernPoly` maps exponent 4-tuples to
``Fraction`` coefficients; zero coefficients are never stored, so equality
is plain dict equality.  The class implements enough ring structure (and
reciprocals of nonzero constants) to serve as a coefficient ring for
:class:`nodepoly.series.PSeries`.
"""

from fractions import Fraction

VAR_NAMES = ("L2", "LK", "K2", "c2")
NVARS = 4
_ZERO_EXP = (0, 0, 0, 0)


def _as_fraction(c):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"scalar expected, got {type(c).__name__}")


class ChernPoly:
    """Exact polynomial in (L2, LK, K2, c2) over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canonical = {}
        for exps, c in (terms or {}).items():
            c = _as_fraction(c)
            if c != 0:
                canonical[tuple(exps)] = c
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("ChernPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c):
        return cls({_ZERO_EXP: c})

    @classmethod
    def variable(cls, i):
        exps = [0] * NVARS
        exps[i] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def promote(cls, x):
        if isinstance(x, ChernPoly):
            return x
        return cls.constant(_as_fraction(x))

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ChernPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {_ZERO_EXP: other}
        return NotImplemented

    __hash__ = None

    def total_degree(self):
        """Largest total degree of a monomial; the zero polynomial has -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_part(self):
        return self.terms.get(_ZERO_EXP, Fraction(0))

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def is_homogeneous_linear(self):
        """True when every monomial is a single variable to the first power."""
        return all(sum(e) == 1 for e in self.terms)

    def linear_coefficients(self):
        """The 4-tuple of coefficients of (L2, LK, K2, c2)."""
        out = []
        for i in range(NVARS):
            exps = [0] * NVARS
            exps[i] = 1
            out.append(self.terms.get(tuple(exps), Fraction(0)))
        return tuple(out)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (ChernPoly, int, Fraction)):
            return NotImplemented
        other = ChernPoly.promote(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return ChernPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return ChernPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (ChernPoly, int, Fraction)):
            return NotImplemented
        return self + (-ChernPoly.promote(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (ChernPoly, int, Fraction)):
            return NotImplemented
        other = ChernPoly.promote(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                c = c1 * c2
                if e in terms:
                    terms[e] += c
                else:
                    terms[e] = c
        return ChernPoly(terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _as_fraction(scalar)
        if c == 0:
            raise ZeroDivisionError("division of ChernPoly by zero")
        return ChernPoly({e: v / c for e, v in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("ChernPoly powers must be nonnegative integers")
        result = ChernPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def reciprocal(self):
        """Inverse of a nonzero constant polynomial (needed by PSeries)."""
        if set(self.terms) != {_ZERO_EXP}:
            raise ValueError("only nonzero constants are invertible")
        return ChernPoly.constant(1 / self.terms[_ZERO_EXP])

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, l2, lk, k2, c2):
        """Exact value at integer (or rational) Chern data."""
        point = (_as_fraction(l2), _as_fraction(lk), _as_fraction(k2), _as_fraction(c2))
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = v * x**e
            total += v
        return total

    # -- display -------------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order: by total degree, then lexicographic."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, e in zip(VAR_NAMES, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"ChernPoly({self.terms!r})"


L2 = ChernPoly.variable(0)
LK = ChernPoly.variable(1)
K2 = ChernPoly.variable(2)
C2 = ChernPoly.variable(3)
