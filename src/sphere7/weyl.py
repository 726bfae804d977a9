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
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .rational import Combination, add_into, crat, monomial_product
from .u2h import GENERATOR_PAIRS, bracket_table

SLOT_NAMES = ("ad", "amm", "apm", "a", "app", "amp")

_ZERO_KEY = (0, 0, 0, 0, 0, 0)


class SlotPolynomial(Combination):
    """Polynomial in the six slot variables with exact complex coefficients.

    The container shared by the two coefficient rings of the Laurent layer.
    A ring subclass supplies its product, its bracket `comm` and
    BRACKET_NORM, the factor that turns a structure constant of the Lie
    algebra into the coefficient of that ring's bracket relation.
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

    def __mul__(self, other):
        """Product, re-normal-ordered through the three oscillator pairs."""
        return self._wrap(_normal_order({}, self, other, 1, False))

    def comm(self, other):
        """x y - y x from the terms with at least one contraction: the
        uncontracted terms of the two products are equal and cancel."""
        out = _normal_order({}, self, other, 1, True)
        return self._wrap(_normal_order(out, other, self, -1, True))


@lru_cache(maxsize=None)
def _contractions(e, f):
    """Weights j! C(e, j) C(f, j), j = 0..min(e, f): the ways to contract j
    of e annihilators with j of f creators of one oscillator pair."""
    return tuple(factorial(j) * comb(e, j) * comb(f, j)
                 for j in range(min(e, f) + 1))


def _normal_order(out, x, y, sign, contracted_only):
    """Add sign * x y, normal ordered, into the dict out and return it.

    Moving the annihilator block of each monomial of x past the creator
    block of each monomial of y contracts j1, j2, j3 pairs of the three
    oscillators; the dotted pair's commutator is -1, so odd j2 flips the
    sign.  With contracted_only the j = (0, 0, 0) term is left out.
    """
    for k1, c1 in x.terms.items():
        d1, d2, d3, e1, e2, e3 = k1
        for k2, c2 in y.terms.items():
            f1, f2, f3, g1, g2, g3 = k2
            skip = contracted_only
            if skip and not (e1 and f1 or e2 and f2 or e3 and f3):
                continue
            w1s, w2s, w3s = (_contractions(e1, f1), _contractions(e2, f2),
                             _contractions(e3, f3))
            c12 = c1 * c2
            for j1, w1 in enumerate(w1s):
                w1 *= sign
                for j2, w2 in enumerate(w2s):
                    w2 = w1 * (-w2 if j2 % 2 else w2)
                    for j3, w3 in enumerate(w3s):
                        if skip:  # the first term is the uncontracted one
                            skip = False
                            continue
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

    def _gradewise(self, other, op):
        cap = _min_cap(self.cap, other.cap)
        out = {}
        dropped = self.dropped or other.dropped
        for g1, w1 in self.grades.items():
            for g2, w2 in other.grades.items():
                g = g1 + g2
                if cap is not None and g > cap:
                    dropped = True
                    continue
                p = op(w1, w2)
                s = out.get(g)
                s = p if s is None else s + p
                out[g] = s
        out = {g: w for g, w in out.items() if not w.is_zero()}
        return type(self)(out, cap=cap, dropped=dropped)

    def __mul__(self, other):
        return self._gradewise(other, lambda w1, w2: w1 * w2)

    def comm(self, other):
        """Bracket grade by grade with the coefficient ring's own comm."""
        return self._gradewise(other, lambda w1, w2: w1.comm(w2))

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
    # n and N are self-adjoint, so the dagger only conjugates coefficients
    dagger = Combination.conj

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
    reduced to its minimal sqrt(h)-grade.  Entries: {"pair",
    "residual_min_grade" (None if no residual below the cap), "exact"
    (residual identically zero, nothing discarded), "cap"}.
    """
    if gradecap is None:
        gradecap = 2 * ell + 4
    gens = embedded_generators(ell, cap=gradecap, ring=ring)
    table = bracket_table("spinor")
    report = {}
    for x, y in GENERATOR_PAIRS:
        comm = gens[x].comm(gens[y])
        target = LaurentElement(cap=gradecap)
        for g, c in table[(x, y)].items():
            target = target + gens[g].scale(ring.BRACKET_NORM * c)
        res = comm - target
        report[f"{x}|{y}"] = {
            "pair": [x, y],
            "residual_min_grade": res.min_grade(),
            "exact": res.is_zero() and not res.dropped,
            "cap": gradecap,
        }
    return report
