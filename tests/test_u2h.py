import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sphere7 import u2h
from sphere7.rational import CRat
from sphere7.u2h import (GRADING_ELEMENT, REALITY_SPINOR, VECTOR_IN_SPINOR,
                         LieElement, SPINOR_GENERATORS,
                         VECTOR_GENERATORS, basis_change, bracket,
                         bracket_table, casimir_pairs,
                         contraction_constants, contraction_limit,
                         cross_basis_residual, grading_decomposition,
                         killing_form, reality, reality_bracket_residual,
                         verify_jacobi)

I = CRat(0, 1)


def test_bracket_examples():
    # expanding the epsilon contraction in the J-J bracket
    res = bracket(LieElement.gen("J+-"), LieElement.gen("J++"))
    assert res == LieElement({"J++": -2 * I})
    # K-K with eps_{-.+.} = +1
    res = bracket(LieElement.gen("K+-"), LieElement.gen("K++"))
    assert res == LieElement({"K++": 2 * I})
    # antisymmetry
    for g in SPINOR_GENERATORS:
        x = LieElement.gen(g)
        assert bracket(x, x).is_zero()


def test_pp_bracket_mixed():
    # [P^+_+., P^-_-.] = i(eps_{+.-.} J^{+-} + eps^{+-} K_{+.-.})
    res = bracket(LieElement.gen("P++"), LieElement.gen("P--"))
    assert res == LieElement({"J+-": -I, "K+-": I})


def test_jacobi_exact():
    worst, _ = verify_jacobi("spinor")
    assert worst == 0
    worst, _ = verify_jacobi("vector")
    assert worst == 0


def test_jacobi_single_triple():
    a, b, c = (LieElement.gen(g) for g in ("J++", "J--", "J+-"))
    res = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
           + bracket(c, bracket(a, b)))
    assert res.is_zero()


def test_jacobi_mutated_nonzero():
    worst, triple = verify_jacobi("spinor", mutate="k-bracket")
    assert worst > 0
    assert triple is not None


def test_reality_table():
    assert reality("P++") == LieElement({"P--": -1})
    assert reality("K+-") == LieElement({"K+-": -1})
    for g in SPINOR_GENERATORS:
        assert reality(reality(g)) == LieElement.gen(g)
    # conjugate linearity
    x = LieElement({"J++": CRat(1, 2)})
    assert reality(x) == LieElement({"J--": CRat(1, -2)})


def test_reality_is_bracket_antiautomorphism():
    assert reality_bracket_residual() == 0


def test_basis_change_j3():
    # the (+,-) entry of the matrix display is -2 j3, so j3 = -J^{+-}/2
    j3 = basis_change(LieElement.gen("j3", "vector"), "spinor")
    assert j3 == LieElement({"J+-": CRat(Fraction(-1, 2))})
    back = basis_change(LieElement({"J+-": -4}), "vector")
    assert back == LieElement({"j3": 8}, "vector")


def test_basis_change_roundtrip():
    for g in SPINOR_GENERATORS:
        x = LieElement.gen(g)
        assert basis_change(basis_change(x, "vector"), "spinor") == x
    for g in VECTOR_GENERATORS:
        x = LieElement.gen(g, "vector")
        assert basis_change(basis_change(x, "spinor"), "vector") == x


def test_cross_basis_bracket_p1p2():
    # [p1, p2] = j3 + k3 in the vector list; must agree through the map
    p1 = LieElement.gen("p1", "vector")
    p2 = LieElement.gen("p2", "vector")
    direct = bracket(p1, p2)
    assert direct == LieElement({"j3": 1, "k3": 1}, "vector")
    mapped = basis_change(
        bracket(basis_change(p1, "spinor"), basis_change(p2, "spinor")),
        "vector")
    assert mapped == direct


def test_cross_basis_exact():
    assert cross_basis_residual() == 0


def test_real_form_constants_are_real():
    table = bracket_table("vector")
    for res in table.values():
        for c in res.values():
            assert c.im == 0


def test_contraction_limit():
    lim = contraction_limit()
    assert lim[("pi++", "pi--")] == {"I": I}
    for g in ("J++", "pi+-", "Z++", "Z--"):
        assert lim[("I", g)] == {}
    # the compact pair survives with the central coefficient
    assert lim[("Z++", "Z--")] == {"I": -4 * I}


def test_contraction_residual_scaling():
    lim = contraction_limit()

    def residual(lam, keys=None):
        worst = Fraction(0)
        table = contraction_constants(lam)
        for key, res in table.items():
            if keys is not None and key not in keys:
                continue
            tgt = lim[key]
            gens = set(res) | set(tgt)
            for g in gens:
                d = res.get(g, CRat()) - tgt.get(g, CRat())
                worst = max(worst, abs(d))
        return worst

    # every entry converges at least like 1/lambda
    r10, r20 = residual(10), residual(20)
    assert r10 > 0
    assert Fraction(r10, r20) == 2
    # the momentum-momentum corrections are a grade lower: 1/lambda^2
    pi_pair = (("pi++", "pi--"),)
    p10, p20 = residual(10, pi_pair), residual(20, pi_pair)
    assert p10 > 0
    assert Fraction(p10, p20) == 4


def test_grading_decomposition():
    grades = grading_decomposition(GRADING_ELEMENT)
    by_int = {int(k[0]): v for k, v in grades.items()}
    assert by_int == {
        -2: {"K--"}, -1: {"P+-", "P--"},
        0: {"J++", "J+-", "J--", "K+-"},
        1: {"P++", "P-+"}, 2: {"K++"},
    }


def test_grading_trivial_and_invalid():
    grades = grading_decomposition(LieElement({}))
    assert set(grades) == {(Fraction(0), Fraction(0))}
    with pytest.raises(ValueError):
        grading_decomposition("P++")


def test_killing_form_invertible_symmetric():
    b = killing_form()
    n = len(b)
    for i in range(n):
        for j in range(n):
            assert b[i][j] == b[j][i]
    pairs = casimir_pairs()
    assert pairs  # nondegenerate


def _structure_constants_json(basis="spinor"):
    """Exportable structure-constant records."""
    gens = SPINOR_GENERATORS if basis == "spinor" else VECTOR_GENERATORS
    table = bracket_table(basis)
    records = []
    for g1 in gens:
        for g2 in gens:
            res = table[(g1, g2)]
            if res:
                records.append({
                    "X": g1, "Y": g2,
                    "result": [{"gen": g, "re": str(c.re), "im": str(c.im)}
                               for g, c in sorted(res.items())],
                })
    return records


def test_structure_constants_json():
    recs = _structure_constants_json()
    assert all({"X", "Y", "result"} <= set(r) for r in recs)
    some = next(r for r in recs if r["X"] == "K+-" and r["Y"] == "K++")
    assert some["result"] == [{"gen": "K++", "re": "0", "im": "2"}]


def _recorded(table):
    return {k: {g: CRat(Fraction(re), Fraction(im)) for g, (re, im)
                in v.items()} for k, v in table.items()}


def test_derived_tables_match_recorded_values():
    # the vector brackets, the inverse basis change, the reality table and
    # the Casimir pairs as the hand-entered tables gave them
    rec = json.loads(Path(__file__).with_name("u2h_tables.json").read_text())
    table = bracket_table("vector")
    assert {f"{a}|{b}": table[a, b] for a in VECTOR_GENERATORS
            for b in VECTOR_GENERATORS if table[a, b]} == _recorded(
                rec["vector_brackets"])
    assert len(table) == 100
    assert VECTOR_IN_SPINOR == _recorded(rec["vector_in_spinor"])
    assert REALITY_SPINOR == _recorded(rec["reality_spinor"])
    pairs = casimir_pairs()
    assert all(type(c) is Fraction for _, _, c in pairs)
    assert [[a, b, str(c)] for a, b, c in pairs] == rec["casimir_pairs"]


def test_vector_matrices_are_antihermitean_units():
    mats = u2h._vector_matrices()
    conj = np.array([1, -1, -1, -1])
    dagger = mats.swapaxes(1, 2) * conj
    assert np.array_equal(dagger, -mats)
    # one unit component, mirrored into the lower left for nu
    assert np.array_equal(np.abs(mats).sum(axis=(1, 2, 3)),
                          [1, 1, 1, 2, 2, 2, 2, 1, 1, 1])


def test_corrupted_basis_matrix_is_caught(monkeypatch):
    # p0's lower-left entry with the wrong sign: the matrices no longer
    # close into the paper's algebra and both exact checks see it
    mats = u2h._vector_matrices()
    mats[3, 1, 0] *= -1
    monkeypatch.setattr(u2h, "_VECTOR_TABLE", u2h._vector_table(mats))
    assert cross_basis_residual() == 2
    assert verify_jacobi("vector")[0] == Fraction(1, 2)
