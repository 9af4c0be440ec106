"""Truncated formal power series with exact coefficients.

A :class:`PSeries` of order ``N`` stores the coefficients ``c0 .. cN`` and
represents a power series known exactly modulo ``q^(N+1)``.  The truncation
order travels with the value: binary operations on series of different
orders truncate to the smaller order, so precision loss is always explicit.

Sums and products accept coefficients in any commutative ring containing
the rationals that supports ``+``, ``-``, ``*`` and comparison with the
scalars 0 and 1, such as :class:`nodepoly.chernpoly.ChernPoly`, mixed
freely with ``Fraction``.  Plain ``int`` coefficients are promoted to
``Fraction`` on construction so division never silently produces floats;
numbers that are not rational (float, complex, Decimal) are rejected.

On all-``Fraction`` series the seven kernels -- product, composition
(Horner's rule), inverse, log, exp, powers s**e (for an int or Fraction e,
one Miller recurrence) and reversion -- clear denominators once, run in
Python ints and build one Fraction per output coefficient.  Reversion is
the identity case h = q of one Lagrange-Buermann kernel,
:func:`_lagrange_fractions`, which gives h(g) for the compositional
inverse g of s and any h given by its integer derivative run, every power
(s/q)^(-m) from one shared integer log-derivative; ``nodal`` runs it with
four h at once.  The product runs one truncated product,
:func:`_truncated_product`, on every coefficient ring: on the integer runs
of two all-Fraction factors, on the coefficients themselves otherwise
(ChernPoly, alone or mixed with Fraction); the other six raise TypeError
on other rings.  The product (whose integer form the polynomial exp of
``nodal`` and every Horner step of composition also run), inverse, exp
and reversion take each inner sum as one C-level ``sum(map(mul, ...))``,
zeros included: at N = 96 the product takes x0.68-0.85 the time of a
zero-skipping loop on the dense bases of the closed form, and x1.9-2.4
on sparse input such as (1+q)^2, which no caller multiplies.  The exp
and Miller's recurrence hold their coefficients over one running
denominator that grows only when a step needs it (so an exp with integer
outputs, such as the counts of ``nodal``, works at the size of its
output), for Miller as c^t with c = A_0 r^2 and e = p/r, t raised to 2m
at an inexact step m > t: about log2(N) rescales.  Composition, which
only ``factorize``'s check runs (four times, at n = max_delta), takes
each Horner step as one truncated product with G/q (G_0 = 0): x1.1-1.3
the time of an in-place triple loop at M = 5-40.  The log and Miller
keep plain accumulating loops, the only hand-written inner loops: a dot
was no faster for the log and 1.3-2x slower for Miller, whose weights
((p+r)k - rm) change with every step m.

A series prints its terms c*q^k through ``_signed_sum``, as ``ChernPoly`` does.
"""

from fractions import Fraction
from math import gcd, lcm
from numbers import Number, Rational
from operator import mul


def _inexact(c):
    """True for a number that is not rational: a float, complex or Decimal."""
    return isinstance(c, Number) and not isinstance(c, Rational)


def _promote(c):
    """Coerce a coefficient into the exact ring (ints become Fractions)."""
    if isinstance(c, int):
        return Fraction(c)
    if _inexact(c):
        raise TypeError("floating-point coefficients are not allowed")
    return c


def _require_fractions(coeffs, what):
    if any(type(c) is not Fraction for c in coeffs):
        raise TypeError(f"{what} needs Fraction coefficients")


def _integer_run(a):
    """Clear an all-Fraction run to integers: (d, [a_k * d]) with d the
    least common denominator, so that a = A/d."""
    return _clear_pairs(list(map(Fraction.as_integer_ratio, a)))


def _clear_pairs(pairs):
    """:func:`_integer_run` for a run given as reduced (numerator,
    denominator) pairs."""
    d = lcm(*[q for _, q in pairs])
    if d == 1:
        return 1, [n for n, _ in pairs]
    return d, [n * (d // q) for n, q in pairs]


def _scale_up(num, base):
    """The run num_k * base^(k-1) for k >= 1, with 0 in place of num_0."""
    out, p = [0], 1
    for x in num[1:]:
        out.append(x * p)
        p *= base
    return out


def _truncated_product(a, back, n):
    """c_0 .. c_(n-1) of the product of the runs a and b, with b given
    reversed: back ends at b_0.  Each c_m = sum_i a_i * b_(m-i) is one
    C-level ``sum(map(mul, ...))`` over a and the last m + 1 entries of
    back, zeros included.  The entries may lie in any ring; the kernels
    pass integers."""
    return [sum(map(mul, a, back[-1 - m:])) for m in range(n)]


def _convolve_fractions(a, b, n):
    """Cauchy product of all-Fraction coefficient runs to q^n.

    Clearing each factor to a common denominator turns the inner loop into
    pure big-integer work (:func:`_truncated_product`); the result is
    renormalized once per output coefficient.
    """
    da, na = _integer_run(a)
    db, nb = _integer_run(b)
    den = da * db
    return [Fraction(c, den) for c in _truncated_product(na, nb[::-1], n + 1)]


def _invert_fractions(a):
    """Reciprocal of an all-Fraction coefficient run, in integers.

    With a = A/d for integers A_j, 1/a = d * sum O_k q^k / A_0^(k+1) where
    O_0 = 1 and O_k = -sum_{j=1..k} A_j * A_0^(j-1) * O_(k-j), one C-level
    dot per coefficient.
    """
    d, num = _integer_run(a)
    a0 = num[0]
    scaled = _scale_up(num, a0)[1:]
    o = [1]
    for _ in range(1, len(num)):
        o.append(-sum(map(mul, scaled, reversed(o))))
    if a0 == 1:
        return [Fraction(d * x) for x in o]
    out = []
    p = a0
    for x in o:
        out.append(Fraction(d * x, p))
        p *= a0
    return out


def _log_derivative(num):
    """L_0 .. L_(n-1) with L_k = k * l_k * A_0^k, for integers A_k with A_0
    != 0 and log(A/A_0) = sum l_k q^k.

    With S_k = A_k * A_0^(k-1), the recurrence n*l_n = n*a_n -
    sum_k k*l_k*a_(n-k) for a = A/A_0 reads L_0 = 0 and
    L_n = n*S_n - sum_(k=1..n-1) L_k * S_(n-k), all in integers: q -> A_0 q
    takes A/A_0 into 1 + qZ[[q]].
    """
    scaled = _scale_up(num, num[0])
    kl = [0]
    for n in range(1, len(num)):
        x = n * scaled[n]
        for k in range(1, n):
            x -= kl[k] * scaled[n - k]
        kl.append(x)
    return kl


def _log_fractions(a):
    """Logarithm of an all-Fraction run with a_0 = 1, in integers.

    With a = A/d (so A_0 = d), l_n = L_n / (n * d^n) for the L_n of
    :func:`_log_derivative`.
    """
    d, num = _integer_run(a)
    out = [Fraction(0)]
    den = 1
    for n, x in enumerate(_log_derivative(num)[1:], 1):
        den *= d
        out.append(Fraction(x, n * den))
    return out


def _exp_fractions(a):
    """Exponential of an all-Fraction run with a_0 = 0, in integers.

    With k*a_k = C_k/dc for integers C_k, every b_j computed so far is
    B_j / D over one running denominator D, starting at B_0 = D = 1.  The
    recurrence n*b_n = sum_k k*a_k*b_(n-k) gives b_n = S / (n*dc*D) with
    S = sum_k C_k * B_(n-k).  With g = gcd(S, n*dc), D grows only by
    f = n*dc/g (the earlier B_j are scaled by f) and B_n = S/g.  So an exp
    whose outputs are integers keeps D = 1 and works at the size of its
    output.
    """
    pairs = []
    for k, c in enumerate(a):  # k*a_k in lowest terms, without Fractions
        n, q = c.as_integer_ratio()
        g = gcd(k, q)
        pairs.append((k // g * n, q // g))
    dc, num = _clear_pairs(pairs)
    num = num[1:]
    b, den = [1], 1
    for n in range(1, len(a)):
        s = sum(map(mul, num, reversed(b)))
        m = n * dc
        g = gcd(s, m)
        if g != m:
            f = m // g
            den *= f
            b = [x * f for x in b]
        b.append(s // g)
    if den == 1:
        return [Fraction(x) for x in b]
    return [Fraction(x, den) for x in b]


def _power_fractions(a, e):
    """a^e for an all-Fraction run with a_0 != 0 and e = p/r, in integers:
    a^e = a_0^p * b for a = A/d and b = (A/A_0)^(p/r) (a_0 = 1 unless e is
    an integer), with b_m = B_m / D.

    Miller's recurrence m*a_0*b_m = sum_k ((e+1)k - m) a_k b_(m-k) for
    b = a^e reads, for b = (A/A_0)^(p/r) with integers A_k, B_0 = D and
    B_m = S / (m r A_0) with S = sum_k ((p+r)k - r*m) A_k B_(m-k).  Zero A_k
    are skipped.  With c = A_0 r^2 every b_m * c^m is an integer (q -> A_0 q
    turns b into f^(p/r) for an f in 1 + qZ[[q]], whose q^m coefficient
    has a denominator dividing r^(2m)), so D = c^t makes step m exact once
    t >= m.  D starts at 1 and grows only at a step m > t whose division
    leaves a remainder: t is raised to 2m (at most n - 1), which makes the
    next m steps exact too, and the stored B_j are scaled to match.  So D
    follows the denominators the output needs, with at most 1 + log2(n)
    rescales, where a fixed scale c^m would carry every one of them.  For
    c = 1 (A_0 = 1 and an integer exponent) D = 1 and B_m = S/m.
    """
    p, r, n = e.numerator, e.denominator, len(a)
    num = _integer_run(a)[1]
    c, q0 = num[0] * r * r, num[0] * r
    terms = [(k, (p + r) * k, num[k]) for k in range(1, n) if num[k]]
    b, i, t = [1], 0, 0
    for m in range(1, n):
        if i < len(terms) and terms[i][0] == m:
            i += 1  # terms is sorted by k: sum over those with k <= m
        rm, acc = r * m, 0
        for k, pk, x in terms[:i]:
            acc += (pk - rm) * x * b[m - k]
        if c == 1:
            b.append(acc // m)
            continue
        q = m * q0
        if m > t:
            quo, rem = divmod(acc, q)
            if not rem:
                b.append(quo)
                continue
            raised = min(2 * m, n - 1)
            f = c ** (raised - t)
            t = raised
            b = [x * f for x in b]
            acc *= f
        b.append(acc // q)
    top, den = (a[0] ** p).as_integer_ratio()
    den *= c ** t
    if den == 1:
        return [Fraction(top * x) for x in b]
    return [Fraction(top * x, den) for x in b]


def _compose_fractions(c, g):
    """c(g) for all-Fraction runs of one length with g_0 = 0, in integers.

    With c = C/dc and g = G/dg, Horner's rule scaled by dg^(n-k) reads
    R_n = C_n and R_k = R_(k+1) * G + C_k * dg^(n-k), so c(g) = R_0 /
    (dc * dg^n).  As G_0 = 0, R_k is needed only to q^(n-k), and
    R_(k+1) * G is q times the truncated product of R_(k+1) with G/q: one
    :func:`_truncated_product` per step.  On log(DG2/q) composed with the
    reversion of DG2 this takes x1.1-1.3 the time of an in-place triple
    loop (M = 5-40), and no benchmark workload composes past n = 5.
    """
    n = len(c) - 1
    dc, num = _integer_run(c)
    dg, inner = _integer_run(g)
    back = inner[:0:-1]  # G/q, reversed
    r = [num[n]]
    p = 1
    for k in range(n - 1, -1, -1):
        p *= dg
        r = [num[k] * p] + _truncated_product(r, back, n - k)
    den = dc * p
    return [Fraction(x, den) for x in r]


def _lagrange_fractions(u, derivatives, n, den=1):
    """Lagrange-Buermann: t^0 .. t^n of h(g(t)) for each h with h(0) = 0,
    where g is the compositional inverse of s = q*u for an all-Fraction run
    u with u_0 != 0, and h' = D/den for an integer run D of ``derivatives``.

    [t^m] h(g) = [q^(m-1)] h'(q) * (s/q)^(-m) / m.  With u = A/d and
    U_0 = A_0, (s/q)^(-m) = (d/U_0)^m * exp(-m * log(A/U_0)), so
    E_j = [q^j] (A/U_0)^(-m) * U_0^j solves j*E_j = -m * sum_k L_k E_(j-k)
    from E_0 = 1, with the L_k of :func:`_log_derivative` shared by every m
    and every h.  Each E_j is an integer (q -> U_0 q takes A/U_0 into
    1 + qZ[[q]]), so each costs one dot and one exact division, and
    [t^m] h(g) = d^m * sum_j D_j U_0^j E_(m-1-j) / (den * m * U_0^(2m-1)),
    one more dot per h.  The E run is held reversed, newest first, so both
    dots read it as it stands.  Reversion is the case h = q: D = [1],
    den = 1.  u needs n coefficients and each D n entries (a shorter D
    reads as padded with zeros).
    """
    d, num = _integer_run(u)
    kl = [-x for x in _log_derivative(num)[1:]]
    u0 = num[0]
    derivatives = [[x * u0 ** j for j, x in enumerate(dv)]
                   for dv in derivatives]
    outs = [[Fraction(0)] for _ in derivatives]
    top, bottom = 1, den * u0  # d^m and den * U_0^(2m-1)
    square = u0 * u0
    for m in range(1, n + 1):
        e = [1]  # E_(j-1), ..., E_0
        for j in range(1, m):
            e.insert(0, m * sum(map(mul, kl, e)) // j)
        top *= d
        q = m * bottom
        for out, dv in zip(outs, derivatives):
            out.append(Fraction(top * sum(map(mul, dv, e)), q))
        bottom *= square
    return outs


def _signed_sum(terms):
    """The printed sum of (coefficient text, monomial text) terms, the
    monomial "" for a constant: a coefficient 1 or -1 before a monomial
    prints as its sign, "+ -" reads "- " and the empty sum is "0"."""
    parts = [cs if not mono else
             {"1": mono, "-1": f"-{mono}"}.get(cs, f"{cs}*{mono}")
             for cs, mono in terms]
    return " + ".join(parts).replace("+ -", "- ") or "0"


class PSeries:
    """An exact power series truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        cs = [c if type(c) is Fraction else _promote(c) for c in coeffs]
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

    def __reduce__(self):
        # copy and pickle through the constructor, not __setattr__
        return (type(self), (self.coeffs,))

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
        if _inexact(other):
            return NotImplemented  # never a coefficient, so never equal
        # scalar comparison: constant series of matching value
        o = _promote(other)
        return self.coeffs[0] == o and all(c == 0 for c in self.coeffs[1:])

    __hash__ = None

    def truncate(self, order):
        """Drop coefficients beyond ``order`` (cannot extend: that would
        invent unknown precision)."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} series to {order}")
        return PSeries(self.coeffs, order)

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
            return PSeries(_truncated_product(a, b[::-1], n + 1))
        o = _promote(other)
        return PSeries([c * o for c in self.coeffs])

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self.coeffs
        _require_fractions(a, "inverse")
        if a[0] == 0:
            raise ValueError("constant term is not invertible (zero)")
        return PSeries(_invert_fractions(a))

    def __truediv__(self, other):
        if isinstance(other, PSeries):
            return self * other.inverse()
        o = _promote(other)
        _require_fractions((o,), "division")
        if o == 0:
            raise ValueError("the divisor is zero")
        return self * (1 / o)

    def __rtruediv__(self, other):
        return self.inverse() * _promote(other)

    def __pow__(self, e):
        """Formal power by one Miller recurrence, for an int or Fraction e.

        A non-integer e needs constant term 1.  For q^v*u with u_0 != 0 and
        an integer e >= 1 the result is q^(v*e) * u^e; e = 0 gives one.
        """
        a = self.coeffs
        if not isinstance(e, (int, Fraction)) or any(type(c) is not Fraction for c in a):
            raise TypeError("powers need an int or Fraction exponent and Fraction coefficients")
        e = Fraction(e)
        if e == 0:
            return PSeries.one(self.order)
        if e.denominator != 1 and a[0] != 1:
            raise ValueError("non-integer exponent needs constant term 1")
        v = next((k for k, c in enumerate(a) if c), len(a))
        if v and e < 0:
            raise ValueError("constant term is not invertible (zero)")
        shift = v * int(e)
        if shift > self.order:
            return PSeries.zero(self.order)
        return PSeries(_power_fractions(a[v:v + self.order + 1 - shift], e)).shift_up(shift)

    # -- transcendental operations ----------------------------------------

    def log(self):
        """Formal logarithm; requires constant term 1.

        One integer recurrence, n*l_n = n*s_n - sum k*l_k*s_(n-k) with the
        denominators cleared once (so log s integrates D(s)/s).  Reversion
        runs the same recurrence once and shares it across its Lagrange
        powers.
        """
        a = self.coeffs
        _require_fractions(a, "log")
        if a[0] != 1:
            raise ValueError("log needs constant term 1")
        return PSeries(_log_fractions(a))

    def exp(self):
        """Formal exponential; requires constant term 0."""
        a = self.coeffs
        _require_fractions(a, "exp")
        if a[0] != 0:
            raise ValueError("exp needs constant term 0")
        return PSeries(_exp_fractions(a))

    # -- composition and reversion ----------------------------------------

    def compose(self, inner):
        """Formal substitution self(inner); inner must kill the constant."""
        n = min(self.order, inner.order)
        c, g = self.coeffs[:n + 1], inner.coeffs[:n + 1]
        _require_fractions(c + g, "compose")
        if g[0] != 0:
            raise ValueError("composition needs inner constant term 0")
        return PSeries(_compose_fractions(c, g))

    def reversion(self):
        """Compositional inverse: the series g with self(g) = g(self) = q.

        Requires constant term 0 and an invertible linear coefficient.
        Lagrange inversion, the case h = q of :func:`_lagrange_fractions`:
        the q^m coefficient of g is [q^(m-1)] of (self/q)^-m, over m.  Every
        power is exp(-m * log(self/q)) up to a constant, so one integer
        log-derivative of self/q serves every m, and each power's
        coefficients to q^(m-1) cost one dot each.
        """
        if self.order < 1:
            raise ValueError("reversion needs order >= 1")
        a = self.coeffs
        _require_fractions(a, "reversion")
        if a[0] != 0:
            raise ValueError("reversion needs constant term 0")
        if a[1] == 0:
            raise ValueError("linear coefficient is not invertible (zero)")
        return PSeries(_lagrange_fractions(a[1:], [[1]], self.order)[0])

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
        if m == 0:
            return self
        return PSeries((Fraction(0),) * m + self.coeffs)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"PSeries({list(self.coeffs)!r})"

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c != 0:
                cs = str(c)
                terms.append((f"({cs})" if " " in cs else cs,  # a sum of terms
                              "" if k == 0 else "q" if k == 1 else f"q^{k}"))
        return f"{_signed_sum(terms)} + O(q^{self.order + 1})"
