"""Dict-walk brackets of the two coefficient rings, the oracles of the
bracket kernel in sphere7.weyl.

These are the bracket bodies the kernel replaced: the contraction-only
normal ordering of the oscillator ring, the biderivation of the Poisson
ring, the grade-by-grade Laurent bracket and the 45-pair report built from
them one pair and one term pair at a time.
"""

from sphere7.classical import PoissonElement
from sphere7.rational import I, add_into
from sphere7.u2h import GENERATOR_PAIRS, bracket_table
from sphere7.weyl import (LaurentElement, WeylElement, _contractions,
                          _min_cap, embedded_generators)


def _contracted(out, x, y, sign):
    """Add sign * x y, normal ordered, into the dict out, leaving out the
    uncontracted j = (0, 0, 0) term of each term pair."""
    for k1, c1 in x.terms.items():
        d1, d2, d3, e1, e2, e3 = k1
        for k2, c2 in y.terms.items():
            f1, f2, f3, g1, g2, g3 = k2
            if not (e1 and f1 or e2 and f2 or e3 and f3):
                continue
            skip = True
            for j1, w1 in enumerate(_contractions(e1, f1)):
                for j2, w2 in enumerate(_contractions(e2, f2)):
                    w2 = sign * w1 * (-w2 if j2 % 2 else w2)
                    for j3, w3 in enumerate(_contractions(e3, f3)):
                        if skip:  # the first term is the uncontracted one
                            skip = False
                            continue
                        key = (d1 + f1 - j1, d2 + f2 - j2, d3 + f3 - j3,
                               e1 - j1 + g1, e2 - j2 + g2, e3 - j3 + g3)
                        add_into(out, ((key, c1 * c2 * (w2 * w3)),))
    return out


def weyl_comm(x, y):
    """x y - y x from the terms with at least one contraction."""
    return x._wrap(_contracted(_contracted({}, x, y, 1), y, x, -1))


# {z_i, z_j} for the ordered slot pairs with a nonzero bracket
FUNDAMENTAL = ((3, 0, -I), (0, 3, I), (4, 1, I), (1, 4, -I),
               (2, 5, I), (5, 2, -I))


def deriv(x, slot):
    # lowering one exponent is injective on the monomials it keeps
    return x._wrap({k[:slot] + (k[slot] - 1,) + k[slot + 1:]: c * k[slot]
                    for k, c in x.terms.items() if k[slot]})


def poisson_comm(x, y):
    """Poisson bracket: the biderivation extending FUNDAMENTAL."""
    out = {}
    for i, j, c in FUNDAMENTAL:
        df, dg = deriv(x, i), deriv(y, j)
        if df and dg:
            add_into(out, ((k, v * c) for k, v in (df * dg).terms.items()))
    return x._wrap(out)


RING_COMM = {WeylElement: weyl_comm, PoissonElement: poisson_comm}


def laurent_comm(x, y):
    """Bracket grade by grade with the ring's dict bracket; a grade pair
    above the cap is skipped and marks the result dropped."""
    cap = _min_cap(x.cap, y.cap)
    out = {}
    dropped = x.dropped or y.dropped
    for g1, w1 in x.grades.items():
        for g2, w2 in y.grades.items():
            g = g1 + g2
            if cap is not None and g > cap:
                dropped = True
                continue
            p = RING_COMM[type(w1)](w1, w2)
            out[g] = p if g not in out else out[g] + p
    out = {g: w for g, w in out.items() if not w.is_zero()}
    return LaurentElement(out, cap=cap, dropped=dropped)


def verify_oracle(ell, gradecap=None, ring=WeylElement):
    """weyl.verify_embedding, one pair at a time with the dict brackets."""
    if gradecap is None:
        gradecap = 2 * ell + 4
    gens = embedded_generators(ell, cap=gradecap, ring=ring)
    table = bracket_table("spinor")
    report = {}
    for x, y in GENERATOR_PAIRS:
        target = LaurentElement(cap=gradecap)
        for g, c in table[(x, y)].items():
            target = target + gens[g].scale(ring.BRACKET_NORM * c)
        res = laurent_comm(gens[x], gens[y]) - target
        report[f"{x}|{y}"] = {
            "pair": [x, y],
            "residual_min_grade": res.min_grade(),
            "exact": res.is_zero() and not res.dropped,
            "cap": gradecap,
        }
    return report
