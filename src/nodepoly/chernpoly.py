"""Polynomials in the four Chern numbers of a polarized surface.

The variables, in fixed order, are

    L2 = c1(L)^2,  LK = c1(L).c1(K),  K2 = c1(K)^2,  c2 = c2(M),

with K the canonical class.  A :class:`ChernPoly` maps exponent 4-tuples to
``Fraction`` coefficients; zero coefficients are never stored, so equality
is plain dict equality.

ChernPoly is the output ring: the node polynomials T_delta and the
coefficients of the symbolic closed form are ChernPolys, built once at the
end of ``nodal._exp_linear``.  It is not an exponent type: the exponents of
the closed form are the Fraction matrix ``nodal.EXPONENTS``.  The class
implements enough ring structure, reflected operators with int and
Fraction included, to serve as a coefficient ring for the sums and
products of :class:`nodepoly.series.PSeries`: the product runs the same
truncated product on ChernPoly coefficients as on integers, each sum
starting from the int 0.  That is how the tests' polynomial-coefficient
oracles use it.  It prints its sorted terms through
``series._signed_sum``, the rule ``PSeries`` prints by.
"""

from fractions import Fraction
from operator import add

from .series import _signed_sum

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

    def __reduce__(self):
        # copy and pickle through the constructor, not __setattr__
        return (type(self), (self.terms,))

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
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return ChernPoly(terms)

    __rmul__ = __mul__

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
        return _signed_sum(
            (str(c), "*".join(name if e == 1 else f"{name}^{e}"
                              for name, e in zip(VAR_NAMES, exps) if e))
            for exps, c in self.sorted_terms())

    def __repr__(self):
        return f"ChernPoly({self.terms!r})"


L2 = ChernPoly.variable(0)
LK = ChernPoly.variable(1)
K2 = ChernPoly.variable(2)
C2 = ChernPoly.variable(3)
