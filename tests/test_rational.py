"""Property tests of the exact layer's scalars and its one container.

CRat is checked against the same arithmetic written out on pairs of
Fractions, and its (a + b i) / d storage against its normal form; the
Combination laws are checked on each of its element types, and the
oracles' Gauss-Jordan inverse on CRat matrices.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LieElement, frac_mat_inverse
from sphere7.rational import CRat, Combination
from sphere7.u2h import SPINOR_GENERATORS
from sphere7.weyl import WeylElement

SETTINGS = settings(deadline=None, max_examples=60)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
pairs = st.tuples(fractions, fractions)
nonzero_pairs = pairs.filter(lambda p: p != (0, 0))


def _pair(z):
    return (z.re, z.im)


@SETTINGS
@given(pairs, pairs)
def test_crat_ops_match_fraction_pairs(p, q):
    (a, b), (c, d) = p, q
    x, y = CRat(a, b), CRat(c, d)
    assert _pair(x + y) == (a + c, b + d)
    assert _pair(x - y) == (a - c, b - d)
    assert _pair(x * y) == (a * c - b * d, a * d + b * c)
    assert _pair(-x) == (-a, -b)
    assert _pair(x.conj()) == (a, -b)
    assert (x == y) == (p == q)
    assert bool(x) == (p != (0, 0))
    if q != (0, 0):
        n = c * c + d * d
        assert _pair(x / y) == ((a * c + b * d) / n, (b * c - a * d) / n)


@SETTINGS
@given(pairs, nonzero_pairs, st.integers(-6, 6))
def test_crat_normal_form(p, q, k):
    x, y = CRat(*p), CRat(*q)
    for z in (x, y, x + y, x - y, x * y, x / y, -x, x.conj(), x + k, k - x,
              x * k, x * Fraction(1, 6), x - x):
        a, b, d = z._a, z._b, z._d
        assert all(type(v) is int for v in (a, b, d))
        assert d > 0 and gcd(a, b, d) == 1, (a, b, d)
        assert (z.re, z.im) == (Fraction(a, d), Fraction(b, d))
        if not z:
            assert (a, b, d) == (0, 0, 1)


def _render(re, im):
    """How a Fraction pair prints as a complex rational."""
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


@SETTINGS
@given(pairs)
def test_crat_readouts_match_fraction_pair(p):
    a, b = p
    x = CRat(a, b)
    assert repr(x) == _render(a, b)
    assert abs(x) == abs(a) + abs(b)
    assert x.to_complex() == float(a) + 1j * float(b)


def test_crat_repr_examples():
    assert repr(CRat(Fraction(1, 2))) == "1/2"
    assert repr(CRat(0, -3)) == "-3*i"
    assert repr(CRat(Fraction(1, 2), Fraction(-3, 4))) == "(1/2-3/4*i)"
    assert repr(CRat(Fraction(2, 4), Fraction(6, 4))) == "(1/2+3/2*i)"
    assert repr(CRat()) == "0" and repr(CRat(0, 1)) == "1*i"


@SETTINGS
@given(pairs, pairs, pairs)
def test_crat_field_laws(p, q, r):
    x, y, z = CRat(*p), CRat(*q), CRat(*r)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + CRat() == x and x * CRat(1) == x
    assert not x - x and x + (-x) == CRat()
    assert (x * y).conj() == x.conj() * y.conj()


@SETTINGS
@given(nonzero_pairs, pairs)
def test_crat_inverse(p, q):
    x, y = CRat(*p), CRat(*q)
    assert x * (CRat(1) / x) == CRat(1)
    assert (y / x) * x == y


@SETTINGS
@given(pairs, st.integers(-5, 5))
def test_crat_coercion(p, k):
    x = CRat(*p)
    assert x + k == x + CRat(k) and k + x == x + CRat(k)
    assert x * k == x * CRat(k) == k * x
    assert x * Fraction(1, 3) == x * CRat(Fraction(1, 3))


# ---------------------------------------------------------------------------
# Combination laws on the two element types
# ---------------------------------------------------------------------------

small = st.integers(-3, 3)
coefficients = st.tuples(small, small).map(lambda t: CRat(*t))


def _elements(keys, build):
    # zero coefficients are allowed in the input: the constructor drops them
    return st.dictionaries(keys, coefficients, max_size=5).map(build)


weyl = _elements(st.tuples(*[st.integers(0, 2)] * 6), WeylElement)
lie = _elements(st.sampled_from(SPINOR_GENERATORS), LieElement)
KINDS = (weyl, lie)
ELEMENTS = st.one_of(*KINDS)
TRIPLES = st.one_of(*(st.tuples(kind, kind, kind) for kind in KINDS))


def _clean(x, like):
    assert type(x) is type(like)
    assert all(x.terms.values()), f"stored zero coefficient in {x!r}"
    if isinstance(like, LieElement):
        assert x.basis == like.basis
    return x


@SETTINGS
@given(TRIPLES)
def test_combination_addition(xyz):
    x, y, z = xyz
    assert isinstance(x, Combination)
    assert _clean(x + y, x) == y + x
    assert _clean((x + y) + z, x) == x + (y + z)


@SETTINGS
@given(TRIPLES, coefficients, coefficients)
def test_combination_scale_distributes(xyz, a, b):
    x, y, _ = xyz
    assert _clean((x + y).scale(a), x) == x.scale(a) + y.scale(a)
    assert _clean(x.scale(a + b), x) == x.scale(a) + x.scale(b)
    assert x.scale(a).scale(b) == x.scale(a * b)
    assert -x == x.scale(-1)
    # conjugating a LieElement's coefficients, the dagger of the rings
    twice = (x.conj().conj() if isinstance(x, LieElement)
             else x.dagger().dagger())
    assert twice == x


@SETTINGS
@given(ELEMENTS)
def test_combination_self_difference_is_empty(x):
    d = _clean(x - x, x)
    assert d.is_zero() and d.terms == {}
    assert (x + (-x)).terms == {} and x.scale(0).terms == {}


@SETTINGS
@given(pairs, pairs, pairs, pairs)
def test_frac_mat_inverse_keeps_crat_entries(w, x, z, y):
    a = [[CRat(*w), CRat(*x)], [CRat(*z), CRat(*y)]]
    try:
        inv = frac_mat_inverse(a)
    except ValueError:
        return
    assert all(type(x) is CRat for row in inv for x in row)
    for i in range(2):
        for j in range(2):
            assert a[i][0] * inv[0][j] + a[i][1] * inv[1][j] == int(i == j)
    assert 1 / CRat(0, 2) == CRat(0, Fraction(-1, 2))
