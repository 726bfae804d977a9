"""Normal-ordered oscillator algebra on six generators and formal square roots.

Generators are indexed by slots

    creators:      0 = ad   (a^dagger)   1 = amm  (a^-_-.)   2 = apm  (a^+_-.)
    annihilators:  3 = a                 4 = app  (a^+_+.)   5 = amp  (a^-_+.)

with the only nonvanishing commutators

    [a, ad] = 1        [app, amm] = -1       [amp, apm] = +1.

A monomial is an exponent 6-tuple (creators then annihilators); elements are
rational.Combination maps from monomials to exact complex rationals, kept in
canonical normal order (creators to the left).  Formal Laurent series in the
square root of the deformation parameter are maps from integer grades to such
elements, where the grade of hbar^(k/2) is k.

The dagger is the conjugate-linear antiautomorphism fixed by

    (a)^dagger = ad,  (app)^dagger = -amm,  (apm)^dagger = amp.

The coefficient ring is a parameter of the Laurent layer, the generator
recipe GENERATOR_TERMS and the bracket report: WeylElement here, the
commutative PoissonElement of the classical module for the classical mirror.
The number operators n = 2 ad a and N = apm amp - app amm are products in
the ring, so N has the ordering constant +1 here and none classically.

Products are dict walks.  Brackets go through one kernel, _brackets: each
term of each Laurent element is a row of an integer table (element, grade,
exponents packed into one int64 code, Gaussian numerators over one common
denominator), every term pair of every requested pair is expanded by the
ring's bracket rule, Wick contractions x y - y x here and the biderivation
of the six fundamental brackets classically, and equal (pair, grade,
monomial) rows are summed with one sort.  comm and verify_embedding are
calls of it with one pair and with all 45.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import comb, factorial, prod

import numpy as np

from .rational import (Combination, add_into, crat, gaussian,
                       monomial_product, numerators)
from .u2h import GENERATOR_PAIRS, SPINOR_GENERATORS, pair_brackets

SLOT_NAMES = ("ad", "amm", "apm", "a", "app", "amp")

_ZERO_KEY = (0, 0, 0, 0, 0, 0)


class SlotPolynomial(Combination):
    """Polynomial in the six slot variables with exact complex coefficients.

    The container shared by the two coefficient rings of the Laurent layer.
    A ring subclass supplies its product, BRACKET_NORM, the factor that
    turns a structure constant of the Lie algebra into the coefficient of
    that ring's bracket relation, and the rule of its bracket for the
    kernel: _bracket_rows(x, y) gives the rows (term pair r, packed code,
    integer weight) whose sum, times BRACKET_UNIT (1 or i), is the bracket
    of the monomials x[r] and y[r], and _bracket_size(x, y) counts them.
    """

    __slots__ = ()
    NAMES = SLOT_NAMES

    @classmethod
    def unit(cls, c=1):
        return cls({_ZERO_KEY: c})

    @classmethod
    def gen(cls, slot):
        key = [0] * 6
        key[slot] = 1
        return cls({tuple(key): 1})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def number_op(cls):
        """n = 2 ad a."""
        return (cls.gen(0) * cls.gen(3)).scale(2)

    @classmethod
    def total_number_op(cls):
        """N = apm amp - app amm; the ring's product orders app amm, so the
        oscillator ring gains the constant +1 and the Poisson ring none."""
        g = cls.gen
        return g(2) * g(5) - g(4) * g(1)

    def comm(self, other):
        """The ring's bracket: a one-pair call of the bracket kernel."""
        lau = LaurentElement({0: self}).comm(LaurentElement({0: other}))
        return lau.grades.get(0, self.zero())

    def dagger(self):
        """Swap the creator and annihilator blocks, sign the dotted pair and
        conjugate coefficients: the dagger of the oscillator ring, complex
        conjugation of the Poisson ring."""
        out = {}
        for (d1, d2, d3, e1, e2, e3), c in self.terms.items():
            cc = c.conj()
            if (d2 + e2) % 2:
                cc = -cc
            out[(e1, e2, e3, d1, d2, d3)] = cc
        return self._wrap(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            word = "".join(f"{self.NAMES[i]}^{e} " if e > 1 else
                           (f"{self.NAMES[i]} " if e == 1 else "")
                           for i, e in enumerate(key))
            bits.append(f"({self.terms[key]})*{word.strip() or '1'}")
        return " + ".join(bits)


class WeylElement(SlotPolynomial):
    """Normal-ordered polynomial in the six oscillator generators."""

    __slots__ = ()
    BRACKET_NORM = 1
    BRACKET_UNIT = 1

    def __mul__(self, other):
        """Product, re-normal-ordered through the three oscillator pairs."""
        return self._wrap(_normal_order(self, other))

    @staticmethod
    def _bracket_size(x, y):
        return _wick_top(x, y).prod(axis=1) + _wick_top(y, x).prod(axis=1) - 2

    @staticmethod
    def _bracket_rows(x, y):
        """x y - y x from the terms with a contraction: the uncontracted
        terms of the two products are equal and cancel."""
        (s1, c1, w1), (s2, c2, w2) = _wick(x, y), _wick(y, x)
        return np.r_[s1, s2], np.r_[c1, c2], np.r_[w1, -w2]


@lru_cache(maxsize=None)
def _contractions(e, f):
    """Weights j! C(e, j) C(f, j), j = 0..min(e, f): the ways to contract j
    of e annihilators with j of f creators of one oscillator pair."""
    return tuple(factorial(j) * comb(e, j) * comb(f, j)
                 for j in range(min(e, f) + 1))


def _normal_order(x, y):
    """The product x y as a dict, normal ordered.

    Moving the annihilator block of each monomial of x past the creator
    block of each monomial of y contracts j1, j2, j3 pairs of the three
    oscillators; the dotted pair's commutator is -1, so odd j2 flips the
    sign.
    """
    out = {}
    for k1, c1 in x.terms.items():
        d1, d2, d3, e1, e2, e3 = k1
        for k2, c2 in y.terms.items():
            f1, f2, f3, g1, g2, g3 = k2
            w1s, w2s, w3s = (_contractions(e1, f1), _contractions(e2, f2),
                             _contractions(e3, f3))
            c12 = c1 * c2
            for j1, w1 in enumerate(w1s):
                for j2, w2 in enumerate(w2s):
                    w2 = w1 * (-w2 if j2 % 2 else w2)
                    for j3, w3 in enumerate(w3s):
                        w = c12 * (w2 * w3)
                        key = (d1 + f1 - j1, d2 + f2 - j2, d3 + f3 - j3,
                               e1 - j1 + g1, e2 - j2 + g2, e3 - j3 + g3)
                        s = out.get(key)
                        s = w if s is None else s + w
                        if s:
                            out[key] = s
                        else:
                            del out[key]
    return out


# ---------------------------------------------------------------------------
# the bracket kernel: every term pair of many brackets at once, in integers
# ---------------------------------------------------------------------------

# A code packs the exponent of slot i into bits 8i..8i+7, so the code of a
# product of monomials is the sum of their codes; _SLOT_CODE[i] is slot i's.
_SHIFTS = 8 * np.arange(6)
_SLOT_CODE = 1 << _SHIFTS
# Expanded rows per chunk: bounds the kernel's memory at every ell.
CHUNK_ROWS = 1 << 18


def _exponents(code, slots):
    """Exponents of the given slots in packed codes, one column per slot."""
    return code[:, None] >> _SHIFTS[list(slots)] & 255


def _runs(count, start):
    """Run r of count[r] consecutive positions from start[r], run after run:
    the run and the position of each element."""
    run = np.repeat(np.arange(len(count)), count)
    first = np.repeat(np.cumsum(count) - count, count)
    return run, np.arange(len(run)) - first + start[run]


@lru_cache(maxsize=None)
def _weight_table(n):
    """_contractions(e, f)[j] at [e, f, j] for e, f, j < n, 0 for j > min(e,
    f); int64 while a product of three entries fits in it."""
    w = np.zeros((n, n, n), dtype=object)
    for e, f in product(range(n), repeat=2):
        w[e, f, :min(e, f) + 1] = _contractions(e, f)
    w = w.astype(np.int64) if w.max() ** 3 < 2 ** 63 else w
    w.flags.writeable = False  # shared by every caller through the cache
    return w


def _wick_top(x, y):
    """1 + the most contractions of each oscillator between the annihilators
    of x and the creators of y, for packed codes."""
    return np.minimum(_exponents(x, (3, 4, 5)), _exponents(y, (0, 1, 2))) + 1


def _wick(x, y):
    """Wick's theorem: the terms of x[r] y[r] with j_i contractions of
    oscillator i, j != 0, as (r, code, weight); the weight is
    prod_i j_i! C(e_i, j_i) C(f_i, j_i), signed (-1)^j2 by the dotted pair."""
    top = _wick_top(x, y)
    src, t = _runs(top.prod(axis=1) - 1, np.ones(len(x), np.int64))
    top, j = top[src], np.empty((len(src), 3), np.int64)
    for i in (2, 1, 0):  # t = 1, 2, ... in the mixed radix top
        t, j[:, i] = np.divmod(t, top[:, i])
    e, f = _exponents(x[src], (3, 4, 5)), _exponents(y[src], (0, 1, 2))
    w = _weight_table(int(np.maximum(e, f).max(initial=0)) + 1)[e, f, j]
    # j_i contractions lower creator slot i and annihilator slot i + 3
    code = x[src] + y[src] - (j * (_SLOT_CODE[:3] + _SLOT_CODE[3:])).sum(1)
    return src, code, w.prod(axis=1) * (1 - 2 * (j[:, 1] % 2))


def _chunks(count):
    """Consecutive slices of the runs of the given lengths, each at most
    CHUNK_ROWS long in total unless it is a single longer run."""
    end, start = np.cumsum(count), 0
    while start < len(end):
        stop = max(start + 1, int(np.searchsorted(
            end, CHUNK_ROWS + (end[start - 1] if start else 0), "right")))
        yield start, stop
        start = stop


def _maxabs(*arrays):
    return max(int(np.abs(a).max(initial=0)) for a in arrays)


def _summed(key, x, y, src, w, scale):
    """The sums of x[src] y[src] w scale over equal keys: the sorted keys
    and the real and imaginary sums.

    x and y are Gaussian integers, (re, im) pairs of arrays, and w and
    scale nonzero integers.  No number formed, partial sums included,
    exceeds 2 max|x| max|y| max|w| scale times the most rows on one key,
    nor the sum over the rows of one key of max(2 |x| |y|, 1) |w| scale,
    |x| the larger of |re x| and |im x|.  int64 holds them all when the
    first bound, checked before any product, is below 2**63, or else the
    second, summed in float64, is below 2**62: the factor 2 covers its
    rounding, relatively under n 2**-50 for n rows on a key.  Python ints
    otherwise.
    """
    order = np.argsort(key)
    key, src, w = key[order], src[order], w[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    most = int(np.diff(first, append=len(key)).max(initial=0))
    bound = 2 * _maxabs(*x) * _maxabs(*y) * _maxabs(w) * scale * most
    fits = bound < 2 ** 63
    if not fits and bound < 2 ** 1000:  # each factor converts to a float
        size = [np.maximum(*np.abs(v)).astype(float)[src] for v in (x, y)]
        fits = np.add.reduceat(
            np.maximum(2 * size[0] * size[1], 1) * np.abs(w).astype(float)
            * float(scale), first).max() < 2 ** 62
    dtype = np.int64 if fits else object
    (xr, xi), (yr, yi) = ([a.astype(dtype) for a in v] for v in (x, y))
    w = w.astype(dtype) * scale
    return (key[first], np.add.reduceat((xr * yr - xi * yi)[src] * w, first),
            np.add.reduceat((xr * yi + xi * yr)[src] * w, first))


def _brackets(ring, elements, pairs, cap=None, targets=()):
    """The brackets [x, y] of pairs of Laurent elements over the ring,
    minus targets: the term pairs of all pairs are expanded together, at
    most about CHUNK_ROWS term pairs and CHUNK_ROWS rows at a time.

    pairs are (x, y) indices into elements; a target (pair, element, c)
    subtracts the element times the CRat c from that pair.  A grade pair
    above cap is discarded and marks its pair dropped, as does a dropped
    element or target.  Returns the nonzero sums (pair, grade, code, re,
    im), sorted by pair, grade and code, over den; the dropped marks; den.
    """
    # the term table: one row per term, Gaussian numerators over den
    terms = [(k, g, key, c) for k, lau in enumerate(elements)
             for g, w in lau.grades.items() for key, c in w.terms.items()]
    elem, grade, keys, coef = zip(*terms) if terms else ((),) * 4
    keys = np.array(keys, np.int64).reshape(-1, 6)
    grade = np.array(grade, np.int64)
    if keys.max(initial=0) > 127:
        raise ValueError("exponents above 127 do not fit a packed code")
    code = (keys << _SHIFTS).sum(axis=1)
    num, den = numerators(coef)
    re, im = np.array(num, np.int64).reshape(-1, 2).T
    num, tden = numerators([-c for *_, c in targets])
    tp, tk, tre, tim = np.array([t[:2] + z for t, z in zip(targets, num)],
                                np.int64).reshape(-1, 4).T
    ends = np.searchsorted(elem, np.arange(len(elements) + 1))
    a, b = np.array(pairs, np.int64).reshape(-1, 2).T
    dropped = np.array([lau.dropped for lau in elements], bool)
    flag = dropped[a] | dropped[b]
    np.logical_or.at(flag, tp, dropped[tk])
    # a key holds its pair and grade above the 48 bits of its code
    gmin, gmax = int(grade.min(initial=0)), int(grade.max(initial=0))
    glo = min(gmin, 2 * gmin)
    span = max(gmax, 2 * gmax) - glo + 1
    if len(a) * span >= 1 << 15:
        raise ValueError("too many pairs and grades for one kernel call")
    # the targets, negated rows of their elements over den^2 tden
    row, term = _runs(ends[tk + 1] - ends[tk], ends[tk])
    sums = [_summed((tp[row] * span + grade[term] - glo) << 48 | code[term],
                    (tre[row], tim[row]), (re[term], im[term]),
                    np.arange(len(row)), np.ones_like(row), den)]
    # the term pairs (left, right) of a run of element pairs, then their
    # rows, each in chunks
    na, nb = ends[a + 1] - ends[a], ends[b + 1] - ends[b]
    for first, last in _chunks(na * nb):
        pair, t = _runs(na[first:last] * nb[first:last], 0 * na[first:last])
        pair += first
        left = ends[a][pair] + t // nb[pair]
        right = ends[b][pair] + t % nb[pair]
        g = grade[left] + grade[right]
        if cap is not None:
            flag[pair[g > cap]] = True
            keep = g <= cap
            pair, left, right, g = pair[keep], left[keep], right[keep], g[keep]
        for lo, hi in _chunks(ring._bracket_size(code[left], code[right])):
            lt, rt = left[lo:hi], right[lo:hi]
            src, rows, w = ring._bracket_rows(code[lt], code[rt])
            y = ((re[rt], im[rt]) if ring.BRACKET_UNIT == 1
                 else (-im[rt], re[rt]))
            key = (pair[lo:hi] * span + g[lo:hi] - glo)[src] << 48 | rows
            sums.append(_summed(key, (re[lt], im[lt]), y, src, w, tden))
    key, sre, sim = (np.concatenate(v) for v in zip(*sums))
    one = np.ones_like(key)
    key, sre, sim = _summed(key, (sre, sim), (one, 0 * one),
                            np.arange(len(key)), one, 1)
    live = (sre != 0) | (sim != 0)
    pg, code = key[live] >> 48, key[live] & (1 << 48) - 1
    return ((pg // span, pg % span + glo, code, sre[live], sim[live]), flag,
            den * den * tden)


# ---------------------------------------------------------------------------
# formal Laurent series in sqrt(hbar)
# ---------------------------------------------------------------------------

class LaurentElement:
    """Map from sqrt(hbar)-grade to coefficient element, truncated above cap.

    cap is the exactness bound: grades <= cap are exact, higher grades are
    discarded; `dropped` records whether any discard actually happened, so a
    zero residual can honestly be reported as exact.
    """

    __slots__ = ("grades", "cap", "dropped")

    def __init__(self, grades=None, cap=None, dropped=False):
        self.cap = cap
        self.dropped = dropped
        self.grades = {}
        if grades:
            for g, w in grades.items():
                if not w.is_zero():
                    if cap is not None and g > cap:
                        self.dropped = True
                        continue
                    self.grades[g] = w

    def __add__(self, other):
        out = add_into(dict(self.grades), other.grades.items())
        return type(self)(out, cap=_min_cap(self.cap, other.cap),
                          dropped=self.dropped or other.dropped)

    def __sub__(self, other):
        return self + other.scale(-1)

    def _map(self, grades):
        return type(self)(grades, cap=self.cap, dropped=self.dropped)

    def scale(self, c):
        return self._map({g: w.scale(c) for g, w in self.grades.items()})

    def __mul__(self, other):
        cap = _min_cap(self.cap, other.cap)
        out = {}
        dropped = self.dropped or other.dropped
        for g1, w1 in self.grades.items():
            for g2, w2 in other.grades.items():
                g = g1 + g2
                if cap is not None and g > cap:
                    dropped = True
                    continue
                p = w1 * w2
                s = out.get(g)
                s = p if s is None else s + p
                out[g] = s
        out = {g: w for g, w in out.items() if not w.is_zero()}
        return type(self)(out, cap=cap, dropped=dropped)

    def comm(self, other):
        """Bracket grade by grade: a one-pair call of the bracket kernel
        with the coefficient ring's rule."""
        ring = type(next(chain(self.grades.values(), other.grades.values()),
                         WeylElement()))
        cap = _min_cap(self.cap, other.cap)
        (_, grade, code, re, im), dropped, den = _brackets(
            ring, [self, other], [(0, 1)], cap)
        grades = {}
        for g, key, a, b in zip(grade.tolist(),
                                _exponents(code, range(6)).tolist(),
                                re.tolist(), im.tolist()):
            grades.setdefault(g, {})[tuple(key)] = gaussian(a, b, den)
        return type(self)({g: ring(t) for g, t in grades.items()}, cap=cap,
                          dropped=bool(dropped[0]))

    def dagger(self):
        # sqrt(hbar) is dagger-fixed
        return self._map({g: w.dagger() for g, w in self.grades.items()})

    def is_zero(self):
        return not self.grades

    def min_grade(self):
        return min(self.grades) if self.grades else None

    def coefficient(self, grade):
        """The grade's coefficient; an absent grade gives the zero of the
        grades' ring (WeylElement when there are none)."""
        if grade in self.grades:
            return self.grades[grade]
        return type(next(iter(self.grades.values()), WeylElement()))()

    def __eq__(self, other):
        return self.grades == other.grades

    def __repr__(self):
        if not self.grades:
            return "0"
        return " + ".join(f"h^({g}/2)*[{w!r}]"
                          for g, w in sorted(self.grades.items()))


def _min_cap(c1, c2):
    if c1 is None:
        return c2
    if c2 is None:
        return c1
    return min(c1, c2)


# ---------------------------------------------------------------------------
# polymeromorphic elements: Laurent series with polynomial coefficients in n, N
# ---------------------------------------------------------------------------

class PolyNM(Combination):
    """Polynomial in the two commuting number operators, exponents (n, N)."""

    __slots__ = ()
    __mul__ = monomial_product

    def dagger(self):
        # n and N are self-adjoint, so the dagger only conjugates coefficients
        return self._wrap({k: c.conj() for k, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*n^{i}*N^{j}"
                          for (i, j), c in sorted(self.terms.items()))


def _power_cache(base):
    cache = {0: type(base).unit()}

    def power(k):
        if k not in cache:
            cache[k] = power(k - 1) * base
        return cache[k]

    return power


class Polymeromorphic(LaurentElement):
    """Laurent series in sqrt(hbar) whose coefficients are PolyNM polynomials."""

    __slots__ = ()

    def expand(self, cap=None, ring=WeylElement):
        """Substitute the number operators of the ring for (n, N)."""
        power_n = _power_cache(ring.number_op())
        power_N = _power_cache(ring.total_number_op())
        return LaurentElement(
            {g: sum(((power_n(i) * power_N(j)).scale(c)
                     for (i, j), c in p.terms.items()), ring.zero())
             for g, p in self.grades.items()}, cap=cap)


def sqrt_coefficient(k):
    """Taylor coefficient b_k(x) = b_k * x^k of sqrt(1 - hx)/sqrt(h): the number."""
    num = 1
    for l in range(k):
        num *= 1 - 2 * l
    sign = -1 if k % 2 else 1
    return Fraction(sign * num, (2 ** k) * factorial(k))


def sqrt_coefficient_poly(k):
    """b_k(N + n/2) as a polynomial in (n, N)."""
    c = sqrt_coefficient(k)
    half = Fraction(1, 2)
    out = {}
    for r in range(k + 1):
        out[(r, k - r)] = crat(c * comb(k, r) * half ** r)
    return PolyNM(out)


def sqrt_partial_sum(ell):
    """Partial sum S_ell = h^(-1/2) * sum_{k<=ell} b_k(N + n/2) h^k.

    Its square equals 1/h - (N + n/2) up to terms of sqrt(h)-grade >= 2*ell.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return Polymeromorphic({2 * k - 1: sqrt_coefficient_poly(k)
                            for k in range(ell + 1)})


# ---------------------------------------------------------------------------
# the ten formal generators at truncation ell
# ---------------------------------------------------------------------------

# The ten generators, keyed by their u2h spinor names, as sums of terms
# (coefficient (re, im), sqrt(hbar) grade, slot word, side of S).  A word is
# a product of slots, acting right to left on a state; S = sqrt(1/hbar - N -
# n/2) multiplies it on the left or the right, or not at all (None).
GENERATOR_TERMS = {
    name: tuple((crat(c), grade, tuple(map(SLOT_NAMES.index, word.split())),
                 side) for c, grade, word, side in terms)
    for name, terms in {
        "J++": [((0, -2), 0, "apm app", None)],
        "J+-": [((0, -1), 0, "app amm", None), ((0, -1), 0, "amp apm", None)],
        "J--": [((0, -2), 0, "amp amm", None)],
        "K++": [((0, -2), 0, "a", "left")],
        # i/hbar - i(n + N)
        "K+-": [((0, 1), -2, "", None), ((0, -2), 0, "ad a", None),
                ((0, -1), 0, "apm amp", None), ((0, 1), 0, "app amm", None)],
        "K--": [((0, 2), 0, "ad", "right")],
        "P++": [(-1, 0, "apm a", None), (1, 0, "app", "left")],
        "P--": [(1, 0, "ad amp", None), (1, 0, "amm", "right")],
        "P+-": [(1, 0, "ad app", None), (1, 0, "apm", "right")],
        "P-+": [(-1, 0, "amm a", None), (1, 0, "amp", "left")],
    }.items()}


def embedded_generators(ell, cap=None, ring=WeylElement):
    """Images of the ten Lie algebra generators in the formal oscillator ring.

    GENERATOR_TERMS with S replaced by the partial sum S_ell; the compact
    bilinears and K+- are ell-independent.  On the Poisson ring the same
    recipe gives the phase-free member of the classical solution family.
    """
    s = sqrt_partial_sum(ell).expand(cap, ring)
    gens = {}
    for name, terms in GENERATOR_TERMS.items():
        parts = []
        for c, grade, word, side in terms:
            w = (prod(map(ring.gen, word[1:]), start=ring.gen(word[0]))
                 if word else ring.unit())
            lau = LaurentElement({grade: w.scale(c)}, cap=cap)
            parts.append(s * lau if side == "left" else
                         lau * s if side == "right" else lau)
        gens[name] = sum(parts[1:], parts[0])
    return gens


def verify_embedding(ell, gradecap=None, ring=WeylElement):
    """Bracket report for the 45 unordered generator pairs at truncation ell.

    For each pair the bracket of the truncated images minus the image of
    the structure-constant target (scaled by the ring's BRACKET_NORM) is
    reduced to its minimal sqrt(h)-grade; the kernel forms all 45 at once.
    Entries: {"pair", "residual_min_grade" (None if no residual below the
    cap), "exact" (residual identically zero, nothing discarded), "cap"}.
    """
    if gradecap is None:
        gradecap = 2 * ell + 4
    gens = embedded_generators(ell, cap=gradecap, ring=ring)
    index = {name: k for k, name in enumerate(gens)}
    rows, den = pair_brackets()
    targets = [(p, index[SPINOR_GENERATORS[g]],
                ring.BRACKET_NORM * gaussian(*rows[p, g].tolist(), den))
               for p, g in zip(*np.nonzero(rows.any(axis=-1)))]
    (pair, grade, *_), dropped, _ = _brackets(
        ring, list(gens.values()),
        [(index[x], index[y]) for x, y in GENERATOR_PAIRS], gradecap, targets)
    hit, first = np.unique(pair, return_index=True)
    lowest = dict(zip(hit.tolist(), grade[first].tolist()))
    return {f"{x}|{y}": {"pair": [x, y], "residual_min_grade": lowest.get(p),
                         "exact": p not in lowest and not dropped[p],
                         "cap": gradecap}
            for p, (x, y) in enumerate(GENERATOR_PAIRS)}
