"""Exact complex-rational scalars and their sparse sums.

All structure constants and symbolic oscillator-algebra coefficients in this
package are elements of Q(i).  Floating point enters only when a symbolic
object is evaluated on a concrete Hilbert space or at a concrete point of the
sphere.

A CRat is a Gaussian-integer numerator over one positive denominator,
(a + b i) / d, held as three Python ints in lowest terms: d > 0 and
gcd(a, b, d) = 1, so zero is 0/1 and equality is structural.  Every
operation does int arithmetic and normalizes once.  The real and imaginary
parts are read as fractions.Fraction, also exported as Q.

Combination, a finitely supported map from keys to nonzero CRat, is the one
container of the exact layer: slot polynomials and the polynomials in the
number operators are its subclasses, and add_into is the one zero-dropping
accumulate step.
"""

from fractions import Fraction
from math import gcd, lcm

Q = Fraction


def _frac(x):
    if isinstance(x, (int, Fraction, str)):
        return Q(x)
    if isinstance(x, float):
        if x != int(x):
            raise TypeError(f"refusing inexact float {x!r} as an exact rational")
        return Q(int(x))
    raise TypeError(f"cannot build an exact rational from {x!r}")


class CRat:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        # over the lcm of two reduced denominators the pair stays reduced
        re, im = _frac(re), _frac(im)
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is not CRat:
            if isinstance(other, int):
                # gcd(a + k d, b, d) = gcd(a, b, d) = 1
                return _new(self._a + other * self._d, self._b, self._d)
            other = crat(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _normal(self._a + other._a, self._b + other._b, d1)
        return _normal(self._a * d2 + other._a * d1,
                       self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -crat(other)

    def __rsub__(self, other):
        return crat(other) - self

    def __mul__(self, other):
        if type(other) is CRat:
            a, b, c, e = self._a, self._b, other._a, other._b
            return _normal(a * c - b * e, a * e + b * c, self._d * other._d)
        if isinstance(other, int):
            return _normal(self._a * other, self._b * other, self._d)
        return self * crat(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = crat(other)
        c, e = other._a, other._b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero complex rational")
        # (a + b i) / d  *  f / (c + e i)  =  (a + b i)(c - e i) f / (d n)
        a, b, f = self._a, self._b, other._d
        return _normal((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        return crat(other) / self

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def conj(self):
        return _new(self._a, -self._b, self._d)

    def __eq__(self, other):
        if type(other) is not CRat:
            try:
                other = crat(other)
            except TypeError:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __abs__(self):
        # rational upper bound, good enough for "is it zero / how big" checks
        return Fraction(abs(self._a) + abs(self._b), self._d)

    def to_complex(self):
        return self._a / self._d + 1j * (self._b / self._d)

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


_alloc = object.__new__


def _new(a, b, d):
    """A CRat from a numerator pair and denominator already in lowest terms."""
    z = _alloc(CRat)
    z._a = a
    z._b = b
    z._d = d
    return z


def _normal(a, b, d):
    """A CRat from any numerator pair over a positive denominator."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _alloc(CRat)
    z._a = a
    z._b = b
    z._d = d
    return z


# gaussian(a, b, d) is the CRat (a + b i) / d, for ints a, b and d > 0
gaussian = _normal


def numerators(cs):
    """The CRats cs as Gaussian numerators (a, b) over one denominator, the
    lcm of theirs: the list of pairs and the denominator."""
    den = lcm(*(c._d for c in cs))
    return [(c._a * (den // c._d), c._b * (den // c._d)) for c in cs], den


def crat(x):
    """Coerce ints, Fractions, 2-tuples and CRats to CRat."""
    if type(x) is CRat:
        return x
    if isinstance(x, tuple):
        return CRat(*x)
    return CRat(x)


I = CRat(0, 1)


def add_into(out, items):
    """Add the (key, coefficient) pairs into the dict out, dropping every
    key whose sum is zero; returns out."""
    for k, c in items:
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class Combination:
    """Exact linear combination: a map from keys to nonzero CRat.

    Subclasses add their products and keep any extra slots in `_wrap`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = crat(c)
                if c:
                    self.terms[k] = c

    def _wrap(self, terms):
        res = type(self).__new__(type(self))
        res.terms = terms
        return res

    def __add__(self, other):
        return self._wrap(add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = crat(c)
        if not c:
            return self._wrap({})
        return self._wrap({k: v * c for k, v in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.terms == other.terms


def monomial_product(x, y):
    """Product of two commutative combinations keyed by exponent tuples."""
    return x._wrap(add_into({}, (
        (tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
        for k1, c1 in x.terms.items() for k2, c2 in y.terms.items())))
