"""Exact complex-rational scalars, their sparse sums and small exact linear
algebra.

All structure constants and symbolic oscillator-algebra coefficients in this
package are elements of Q(i).  Floating point enters only when a symbolic
object is evaluated on a concrete Hilbert space or at a concrete point of the
sphere.  Rationals are fractions.Fraction, also exported as Q.

Combination, a finitely supported map from keys to nonzero CRat, is the one
container of the exact layer: Lie algebra elements, slot polynomials and the
polynomials in the number operators are its subclasses, and add_into is the
one zero-dropping accumulate step.
"""

from fractions import Fraction

Q = Fraction
_Q0 = Q(0)


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

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @staticmethod
    def _raw(re, im):
        out = CRat.__new__(CRat)
        out.re = re
        out.im = im
        return out

    def __add__(self, other):
        if type(other) is not CRat:
            other = crat(other)
        return CRat._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not CRat:
            other = crat(other)
        return CRat._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return crat(other) - self

    def __mul__(self, other):
        if type(other) is CRat:
            a, b, c, d = self.re, self.im, other.re, other.im
            if b:
                if d:
                    return CRat._raw(a * c - b * d, a * d + b * c)
                return CRat._raw(a * c, b * c)
            if d:
                return CRat._raw(a * c, a * d)
            return CRat._raw(a * c, _Q0)
        if isinstance(other, int):
            return CRat._raw(self.re * other, self.im * other)
        return self * crat(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = crat(other)
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero complex rational")
        return CRat._raw(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return CRat._raw(-self.re, -self.im)

    def conj(self):
        return CRat._raw(self.re, -self.im)

    def __eq__(self, other):
        try:
            other = crat(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __abs__(self):
        # rational upper bound, good enough for "is it zero / how big" checks
        return Fraction(abs(self.re) + abs(self.im))

    def to_complex(self):
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


def crat(x):
    """Coerce ints, Fractions, 2-tuples and CRats to CRat."""
    if type(x) is CRat:
        return x
    if isinstance(x, tuple):
        return CRat(*x)
    return CRat(x)


ZERO = CRat(0)
ONE = CRat(1)
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

    def conj(self):
        """Conjugate every coefficient."""
        return self._wrap({k: c.conj() for k, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.terms == other.terms


def monomial_product(x, y):
    """Product of two commutative combinations keyed by exponent tuples."""
    return x._wrap(add_into({}, (
        (tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
        for k1, c1 in x.terms.items() for k2, c2 in y.terms.items())))


def frac_mat_inverse(rows):
    """Invert a square matrix of Fractions by Gauss-Jordan elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]
