"""Commutative oracle: the Poisson ring under the formal embedding.

Variables are complex coordinates mirroring the oscillator slots,

    0 = zbar   1 = z^-_-.   2 = z^+_-.   3 = z   4 = z^+_+.   5 = z^-_+.

with fundamental brackets {z, zbar} = -i, {z^+_+., z^-_-.} = i,
{z^+_-., z^-_+.} = i and all other pairs vanishing.  Because the slot layout
matches the quantum module, the naive replacement map classical -> quantum
is the identity on exponent tuples.

Only the product and the bracket rule are classical: the generator recipe,
the number functions n = 2 zbar z and N = z^+_-. z^-_+. - z^+_+. z^-_-., the
bracket kernel and the 45-pair report are those of the weyl module, run on
this ring.  The rule is the biderivation of _FUNDAMENTAL: a term pair gives
one row per fundamental bracket, weighted by the two exponents it lowers.
The commutative product orders nothing, so N carries no ordering constant.
"""

import numpy as np

from .rational import I, monomial_product
from .weyl import _SLOT_CODE, SlotPolynomial, _exponents, verify_embedding

# (slot_i, slot_j, s) for all ordered pairs with {x_i, x_j} = s i nonzero
_FUNDAMENTAL = (
    (3, 0, -1), (0, 3, 1),
    (4, 1, 1), (1, 4, -1),
    (2, 5, 1), (5, 2, -1),
)


class PoissonElement(SlotPolynomial):
    """Polynomial in the six commuting coordinates."""

    __slots__ = ()
    NAMES = ("zb", "zmm", "zpm", "z", "zpp", "zmp")
    # Poisson relations carry no explicit i: the classical targets are the
    # quantum structure constants divided by i
    BRACKET_NORM = -I
    BRACKET_UNIT = I
    __mul__ = monomial_product

    @staticmethod
    def _bracket_size(x, y):
        return np.full(len(x), len(_FUNDAMENTAL))

    @staticmethod
    def _bracket_rows(x, y):
        """The biderivation extending _FUNDAMENTAL: for each (i, j, s), the
        weight s x_i y_j on the monomial x y / (x_i y_j)."""
        i, j, s = np.array(_FUNDAMENTAL).T
        w = s * _exponents(x, i) * _exponents(y, j)
        src, k = np.nonzero(w)
        lowered = _SLOT_CODE[i[k]] + _SLOT_CODE[j[k]]
        return src, x[src] + y[src] - lowered, w[src, k]


def verify_classical(ell, gradecap=None):
    """Residual-grade report for the classical bracket relations.

    The quantum verify_embedding run on the Poisson ring: same report shape,
    so the two tables can be compared directly.
    """
    return verify_embedding(ell, gradecap, ring=PoissonElement)
