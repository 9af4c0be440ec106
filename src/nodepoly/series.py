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

When every coefficient is a ``Fraction``, the product, the inverse and exp
clear denominators once, run their O(N^2) recurrences in Python ints and
build one Fraction per output coefficient; other coefficient rings take the
generic loops.  log (the integral of D(s)/s) and reversion (Lagrange
inversion, N products) are written once over those kernels, for every ring.
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


def _invert_fractions(a):
    """Reciprocal of an all-Fraction coefficient run, in integers.

    With a = A/d for integers A_j, 1/a = d * sum O_k q^k / A_0^(k+1) where
    O_0 = 1 and O_k = -sum_{j=1..k} A_j * A_0^(j-1) * O_(k-j).
    """
    d = lcm(*(c.denominator for c in a))
    num = [c.numerator * (d // c.denominator) for c in a]
    a0 = num[0]
    scaled = [0] * len(num)
    p = 1
    for j in range(1, len(num)):
        scaled[j] = num[j] * p
        p *= a0
    o = [1]
    for k in range(1, len(num)):
        acc = 0
        for j in range(1, k + 1):
            x = scaled[j]
            if x:
                acc += x * o[k - j]
        o.append(-acc)
    out = []
    p = a0
    for x in o:
        out.append(Fraction(d * x, p))
        p *= a0
    return out


def _exp_fractions(a):
    """Exponential of an all-Fraction run with a_0 = 0, in integers.

    With k*a_k = C_k/dc for integers C_k and b_m = B_m / (m! * dc^m),
    B_0 = 1 and B_n = sum_k C_k * dc^(k-1) * B_(n-k) * (n-1)!/(n-k)!.
    The falling factorial is applied by Horner's rule over n-k.
    """
    ka = [k * c for k, c in enumerate(a)]
    dc = lcm(*(c.denominator for c in ka))
    scaled = [0] * len(a)
    p = 1
    for k in range(1, len(a)):
        c = ka[k]
        scaled[k] = c.numerator * (dc // c.denominator) * p
        p *= dc
    b = [1]
    for n in range(1, len(a)):
        acc = 0
        for j in range(n):
            acc = acc * j + scaled[n - j] * b[j]
        b.append(acc)
    out = []
    den = 1
    for n, x in enumerate(b):
        if n:
            den *= n * dc
        out.append(Fraction(x, den))
    return out


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
        if all(type(c) is Fraction for c in a):
            return PSeries(_invert_fractions(a))
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
                n >>= 1
                if n:
                    base = base * base
            return result.truncate(self.order)
        if self.coeffs[0] != 1:
            raise ValueError("non-integer exponent needs constant term 1")
        return (e * self.log()).exp()

    # -- transcendental operations ----------------------------------------

    def log(self):
        """Formal logarithm; requires constant term 1.

        log s is the integral of D(s)/s with D = q*d/dq, so coefficient k
        of D(s) * s^-1 divided by k; the inverse and the product take the
        integer paths when the coefficients are Fractions.
        """
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        d = (self.qderiv() * self.inverse()).coeffs
        return PSeries([Fraction(0)] + [d[k] / k for k in range(1, len(d))])

    def exp(self):
        """Formal exponential; requires constant term 0."""
        a = self.coeffs
        if a[0] != 0:
            raise ValueError("exp needs constant term 0")
        if all(type(c) is Fraction for c in a):
            return PSeries(_exp_fractions(a))
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
        Lagrange inversion: with h = (self/q)^-1, the q^m coefficient of g
        is [q^(m-1)] h^m / m, so N coefficients cost N series products.
        """
        if self.order < 1:
            raise ValueError("reversion needs order >= 1")
        a = self.coeffs
        if a[0] != 0:
            raise ValueError("reversion needs constant term 0")
        h = PSeries(a[1:]).inverse()
        power = h
        g = [Fraction(0), h.coeffs[0]]
        for m in range(2, self.order + 1):
            power = power * h
            g.append(power.coeffs[m - 1] / m)
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
