"""Commutative oracle: the Poisson ring under the formal embedding.

Variables are complex coordinates mirroring the oscillator slots,

    0 = zbar   1 = z^-_-.   2 = z^+_-.   3 = z   4 = z^+_+.   5 = z^-_+.

with fundamental brackets {z, zbar} = -i, {z^+_+., z^-_-.} = i,
{z^+_-., z^-_+.} = i and all other pairs vanishing.  Because the slot layout
matches the quantum module, the naive replacement map classical -> quantum
is the identity on exponent tuples.

Only the product and the bracket are classical: the generator recipe, the
number functions n = 2 zbar z and N = z^+_-. z^-_+. - z^+_+. z^-_-. and the
45-pair report are those of the weyl module, run on this ring.  The
commutative product orders nothing, so N carries no ordering constant.
"""

from .rational import I, add_into, monomial_product
from .weyl import SlotPolynomial, verify_embedding

# (slot_i, slot_j, {x_i, x_j}) for all ordered pairs with nonzero bracket
_FUNDAMENTAL = (
    (3, 0, -I), (0, 3, I),
    (4, 1, I), (1, 4, -I),
    (2, 5, I), (5, 2, -I),
)


class PoissonElement(SlotPolynomial):
    """Polynomial in the six commuting coordinates."""

    __slots__ = ()
    NAMES = ("zb", "zmm", "zpm", "z", "zpp", "zmp")
    # Poisson relations carry no explicit i: the classical targets are the
    # quantum structure constants divided by i
    BRACKET_NORM = -I
    __mul__ = monomial_product

    def deriv(self, slot):
        # lowering one exponent is injective on the monomials it keeps
        return self._wrap({k[:slot] + (k[slot] - 1,) + k[slot + 1:]: c * k[slot]
                           for k, c in self.terms.items() if k[slot]})

    def comm(self, other):
        """Poisson bracket: the biderivation extending _FUNDAMENTAL."""
        out = {}
        for i, j, c in _FUNDAMENTAL:
            df = self.deriv(i)
            if df.is_zero():
                continue
            dg = other.deriv(j)
            if dg.is_zero():
                continue
            add_into(out, ((k, v * c) for k, v in (df * dg).terms.items()))
        return self._wrap(out)


def verify_classical(ell, gradecap=None):
    """Residual-grade report for the classical bracket relations.

    The quantum verify_embedding run on the Poisson ring: same report shape,
    so the two tables can be compared directly.
    """
    return verify_embedding(ell, gradecap, ring=PoissonElement)
