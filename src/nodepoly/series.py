"""Truncated formal power series with exact coefficients.

A :class:`PSeries` of order ``N`` stores the coefficients ``c0 .. cN`` and
represents a power series known exactly modulo ``q^(N+1)``.  The truncation
order travels with the value: binary operations on series of different
orders truncate to the smaller order, so precision loss is always explicit.

Coefficients may live in any commutative ring containing the rationals that
supports ``+``, ``-``, ``*``, division by nonzero integers and comparison
with the scalars 0 and 1.  ``fractions.Fraction`` and
:class:`nodepoly.chernpoly.ChernPoly` both qualify; the two can be mixed
freely inside one series.  Plain ``int`` coefficients are promoted to
``Fraction`` on construction so division never silently produces floats.
"""

from fractions import Fraction
from math import lcm


def _promote(c):
    """Coerce a coefficient into the exact ring (ints become Fractions)."""
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        raise TypeError("floating-point coefficients are not allowed")
    return c


def _reciprocal(c):
    """Multiplicative inverse of a coefficient, or ValueError."""
    if isinstance(c, Fraction):
        if c == 0:
            raise ValueError("constant term is not invertible (zero)")
        return 1 / c
    try:
        return c.reciprocal()
    except (AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"constant term {c!r} is not invertible") from exc


def _convolve_fractions(a, b, n):
    """Cauchy product of all-Fraction coefficient runs.

    Clearing each factor to a common denominator turns the inner loop into
    pure big-integer work; the result is renormalized once per output
    coefficient, so this is exact and several times faster than convolving
    Fraction objects directly.
    """
    da = lcm(*(c.denominator for c in a))
    db = lcm(*(c.denominator for c in b))
    na = [c.numerator * (da // c.denominator) for c in a]
    nb = [c.numerator * (db // c.denominator) for c in b]
    out = [0] * (n + 1)
    for i in range(n + 1):
        x = na[i]
        if x:
            for j in range(n + 1 - i):
                y = nb[j]
                if y:
                    out[i + j] += x * y
    den = da * db
    return [Fraction(c, den) for c in out]


class PSeries:
    """An exact power series truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        cs = [_promote(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        elif not cs:
            raise ValueError("series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c, order):
        return cls([c], order=order)

    @classmethod
    def zero(cls, order):
        return cls.constant(0, order)

    @classmethod
    def one(cls, order):
        return cls.constant(1, order)

    @classmethod
    def identity(cls, order):
        """The series q itself."""
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        return cls([0, 1], order=order)

    # -- basic structure ---------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, PSeries):
            return self.coeffs == other.coeffs
        # scalar comparison: constant series of matching value
        o = _promote(other)
        return self.coeffs[0] == o and all(c == 0 for c in self.coeffs[1:])

    __hash__ = None

    def truncate(self, order):
        """Drop coefficients beyond ``order`` (cannot extend: that would
        invent unknown precision)."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} series to {order}")
        return PSeries(self.coeffs[: order + 1])

    def map_coefficients(self, fn):
        return PSeries([fn(c) for c in self.coeffs])

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PSeries):
            n = min(self.order, other.order)
            return PSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])
        o = _promote(other)
        return PSeries((self.coeffs[0] + o,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return PSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PSeries):
            n = min(self.order, other.order)
            a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
            if all(type(c) is Fraction for c in a) \
                    and all(type(c) is Fraction for c in b):
                return PSeries(_convolve_fractions(a, b, n))
            out = [Fraction(0)] * (n + 1)
            for i in range(n + 1):
                x = a[i]
                if x == 0:
                    continue
                for j in range(n + 1 - i):
                    y = b[j]
                    if y != 0:
                        out[i + j] = out[i + j] + x * y
            return PSeries(out)
        o = _promote(other)
        return PSeries([c * o for c in self.coeffs])

    def __rmul__(self, other):
        o = _promote(other)
        return PSeries([o * c for c in self.coeffs])

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        r0 = _reciprocal(self.coeffs[0])
        a = self.coeffs
        out = [r0]
        for k in range(1, self.order + 1):
            acc = a[1] * out[k - 1]
            for j in range(2, k + 1):
                acc = acc + a[j] * out[k - j]
            out.append(-r0 * acc)
        return PSeries(out)

    def __truediv__(self, other):
        if isinstance(other, PSeries):
            return self * other.inverse()
        return self * _reciprocal(_promote(other))

    def __rtruediv__(self, other):
        return self.inverse() * _promote(other)

    def __pow__(self, e):
        """Formal power.

        Integer exponents use binary powering (negative ones go through the
        inverse).  Fractional or polynomial exponents use exp(e*log) and
        require constant term 1.
        """
        if isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1):
            n = int(e)
            if n < 0:
                return self.inverse() ** (-n)
            result = PSeries.one(self.order)
            base = self
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result.truncate(self.order)
        if self.coeffs[0] != 1:
            raise ValueError("non-integer exponent needs constant term 1")
        return (e * self.log()).exp()

    # -- transcendental operations ----------------------------------------

    def log(self):
        """Formal logarithm; requires constant term 1."""
        a = self.coeffs
        if a[0] != 1:
            raise ValueError("log needs constant term 1")
        out = [Fraction(0)]
        for n in range(1, self.order + 1):
            acc = a[n]
            for k in range(1, n):
                acc = acc - Fraction(k, n) * (out[k] * a[n - k])
            out.append(acc)
        return PSeries(out)

    def exp(self):
        """Formal exponential; requires constant term 0."""
        a = self.coeffs
        if a[0] != 0:
            raise ValueError("exp needs constant term 0")
        out = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = a[n] * out[0]
            for k in range(1, n):
                acc = acc + Fraction(k, n) * (a[k] * out[n - k])
            out.append(acc)
        return PSeries(out)

    # -- composition and reversion ----------------------------------------

    def compose(self, inner):
        """Formal substitution self(inner); inner must kill the constant."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        g = inner.truncate(n)
        result = PSeries.constant(self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            result = result * g + self.coeffs[k]
        return result

    def reversion(self):
        """Compositional inverse: the series g with self(g) = g(self) = q.

        Requires constant term 0 and an invertible linear coefficient.
        Solved coefficient by coefficient: the q^n coefficient of self(g)
        is c1*g_n plus terms involving only g_1 .. g_{n-1}, so each new
        coefficient comes from one triangular step.
        """
        if self.order < 1:
            raise ValueError("reversion needs order >= 1")
        a = self.coeffs
        if a[0] != 0:
            raise ValueError("reversion needs constant term 0")
        r1 = _reciprocal(a[1])
        g = [Fraction(0), r1]
        for n in range(2, self.order + 1):
            partial = PSeries(g + [Fraction(0)])
            err = self.truncate(n).compose(partial).coeffs[n]
            g.append(-r1 * err)
        return PSeries(g)

    # -- q-calculus --------------------------------------------------------

    def qderiv(self):
        """The operator q*d/dq: coefficient c_k goes to k*c_k."""
        return PSeries([k * c for k, c in enumerate(self.coeffs)])

    def shift_down(self, m):
        """Exact division by q^m; the m lowest coefficients must vanish.

        The order drops by m: nothing is known about the new top
        coefficients beyond what the input carried.
        """
        if m < 0:
            raise ValueError("shift must be >= 0")
        if m == 0:
            return self
        if self.order < m:
            raise ValueError("series order too small for the shift")
        if any(c != 0 for c in self.coeffs[:m]):
            raise ValueError(f"cannot divide by q^{m}: low-order coefficients nonzero")
        return PSeries(self.coeffs[m:])

    def shift_up(self, m):
        """Exact multiplication by q^m; the order grows by m."""
        if m < 0:
            raise ValueError("shift must be >= 0")
        return PSeries((Fraction(0),) * m + self.coeffs)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"PSeries({list(self.coeffs)!r})"

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = str(c)
            if any(ch in cs for ch in "+-") and not cs.lstrip("-").isdigit() \
                    and "/" not in cs:
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            else:
                q = "q" if k == 1 else f"q^{k}"
                if cs == "1":
                    parts.append(q)
                elif cs == "-1":
                    parts.append(f"-{q}")
                else:
                    parts.append(f"{cs}*{q}")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"{body} + O(q^{self.order + 1})"
