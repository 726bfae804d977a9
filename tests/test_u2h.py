import json
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from sphere7 import coframe, fock, u2h
from sphere7.rational import CRat, add_into
from sphere7.u2h import (ENTRY_MAX, GENERATOR_PAIRS, GRADING_ELEMENT,
                         REALITY_SPINOR, SPINOR_IN_VECTOR, VECTOR_IN_SPINOR,
                         LieElement, SPINOR_GENERATORS,
                         VECTOR_GENERATORS, basis_change, bracket,
                         bracket_table, casimir_pairs,
                         contraction_constants, contraction_limit,
                         cross_basis_residual, exact_array,
                         grading_decomposition, killing_form, reality,
                         reality_bracket_residual, verify_jacobi)

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
    got = reality_bracket_residual()
    assert got == 0 == _reality_bracket_residual()
    assert type(got) is Fraction


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
    got = cross_basis_residual()
    assert got == 0 == _cross_basis_residual()
    assert type(got) is Fraction


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


def _patch_vector_constants(monkeypatch, f):
    """Make f the vector structure constants of the checks and of the
    dict tables the oracles read."""
    monkeypatch.setattr(u2h, "_VECTOR_F", f)
    monkeypatch.setattr(u2h, "_VECTOR_TABLE", u2h._vector_table(f))


def test_corrupted_basis_matrix_is_caught(monkeypatch):
    # p0's lower-left entry with the wrong sign: the matrices no longer
    # close into the paper's algebra and both exact checks see it
    mats = u2h._vector_matrices()
    mats[3, 1, 0] *= -1
    _patch_vector_constants(monkeypatch, u2h._vector_constants(mats))
    assert cross_basis_residual() == 2 == _cross_basis_residual()
    assert verify_jacobi("vector")[0] == Fraction(1, 2)
    assert verify_jacobi("vector") == _verify_jacobi("vector")


# The dict-walk forms of the three exact checks: the references the
# einsum contractions of u2h must reproduce value for value.

def _verify_jacobi(basis="spinor", mutate=None):
    """Max residual of [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]] over generator triples.

    Returns (max_residual, worst_triple); the residual is exactly zero for the
    genuine tables.
    """
    gens = SPINOR_GENERATORS if basis == "spinor" else VECTOR_GENERATORS
    table = bracket_table(basis, mutate)
    worst = Fraction(0)
    worst_triple = None
    for a, b, c in combinations(gens, 3):
        ea, eb, ec = (LieElement.gen(g, basis) for g in (a, b, c))
        res = (bracket(ea, bracket(eb, ec, table), table)
               + bracket(eb, bracket(ec, ea, table), table)
               + bracket(ec, bracket(ea, eb, table), table))
        r = res.max_abs()
        if r > worst:
            worst, worst_triple = r, (a, b, c)
    return worst, worst_triple


def _cross_basis_residual():
    """Exact max deviation between brackets computed in either basis.

    For every spinor generator pair, [X, Y] computed from the spinor table
    is mapped to the vector basis and compared against the bracket of the
    mapped arguments computed with the vector table, and vice versa.
    """
    worst = Fraction(0)
    for g1 in SPINOR_GENERATORS:
        for g2 in SPINOR_GENERATORS:
            e1, e2 = LieElement.gen(g1), LieElement.gen(g2)
            spin = basis_change(bracket(e1, e2), "vector")
            vect = bracket(basis_change(e1, "vector"), basis_change(e2, "vector"))
            worst = max(worst, (spin - vect).max_abs())
    for g1 in VECTOR_GENERATORS:
        for g2 in VECTOR_GENERATORS:
            e1 = LieElement.gen(g1, "vector")
            e2 = LieElement.gen(g2, "vector")
            vect = basis_change(bracket(e1, e2), "spinor")
            spin = bracket(basis_change(e1, "spinor"), basis_change(e2, "spinor"))
            worst = max(worst, (vect - spin).max_abs())
    return worst


def _reality_bracket_residual():
    """Exact check that the involution antiautomorphizes the bracket."""
    worst = Fraction(0)
    table = bracket_table("spinor")
    for g1 in SPINOR_GENERATORS:
        for g2 in SPINOR_GENERATORS:
            lhs = reality(LieElement(table[(g1, g2)]))
            rhs = bracket(reality(g1), reality(g2)).scale(-1)
            worst = max(worst, (lhs - rhs).max_abs())
    return worst


@pytest.mark.parametrize("basis, mutate, want", [
    ("spinor", None, (0, None)),
    ("vector", None, (0, None)),
    ("spinor", "k-bracket", (4, ("K++", "K+-", "K--"))),
    ("vector", "k-bracket", (1, ("p0", "p1", "k2"))),
])
def test_jacobi_matches_dict_walk(basis, mutate, want):
    got = verify_jacobi(basis, mutate)
    assert got == want == _verify_jacobi(basis, mutate)
    assert type(got[0]) is Fraction


def _patch_map(monkeypatch, name, row, col, delta):
    """Add delta to one entry of the basis map u2h.<name> and rebuild the
    exact maps the checks read from the corrupted tables."""
    bad = {g: dict(images) for g, images in getattr(u2h, name).items()}
    bad[row][col] = bad[row].get(col, CRat(0)) + delta
    monkeypatch.setattr(u2h, name, bad)
    maps = u2h.basis_maps.__wrapped__()
    monkeypatch.setattr(u2h, "basis_maps", lambda: maps)


def test_corrupted_reality_entry_is_caught(monkeypatch):
    _patch_map(monkeypatch, "REALITY_SPINOR", "P++", "P--", CRat(0, 1))
    got = reality_bracket_residual()
    assert got > 0
    assert got == _reality_bracket_residual()


def test_corrupted_basis_change_entry_is_caught(monkeypatch):
    _patch_map(monkeypatch, "SPINOR_IN_VECTOR", "P+-", "p1", 1)
    got = cross_basis_residual()
    assert got > 0
    assert got == _cross_basis_residual()


def test_corrupted_vector_constant_is_caught(monkeypatch):
    # [p0, p1] gains 1/2 k3, and [p1, p0] loses it
    num, den = u2h.structure_constants("vector")
    num = num.copy()
    num[3, 4, 9, 0] += 1
    num[4, 3, 9, 0] -= 1
    _patch_vector_constants(monkeypatch, u2h._checked(num, den))
    got = verify_jacobi("vector")
    assert got[0] > 0
    assert got == _verify_jacobi("vector")
    assert cross_basis_residual() > 0
    assert cross_basis_residual() == _cross_basis_residual()


def test_table_entries_are_bounded_for_int64():
    # a contraction of entries near 2**40 would wrap int64 silently
    assert exact_array({"a": {"b": CRat(ENTRY_MAX)}}, ["a"], ["b"])[1] == 1
    for big in (CRat(2 ** 40 - 1), CRat(0, -2 ** 40),
                CRat(Fraction(1, 2 ** 40))):
        with pytest.raises(OverflowError):
            exact_array({"a": {"b": big}}, ["a"], ["b"])


def _complex_array(table, rows, cols):
    """The exact table {row: {col: CRat}} on the given rows and columns as
    a complex array; an absent entry is zero."""
    at = {c: k for k, c in enumerate(cols)}
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for r, row in enumerate(rows):
        for c, v in table[row].items():
            out[r, at[c]] = v.to_complex()
    return out


def test_float_images_are_bitwise_the_exact_tables():
    # each float the correctly rounded quotient of the same rational, so
    # equal bit for bit to the entry-by-entry conversion
    names = fock.GENERATOR_NAMES
    w = {x: {} for x in names}
    for ga, gb, coeff in casimir_pairs():
        for x, cx in VECTOR_IN_SPINOR[ga].items():
            add_into(w[x], ((y, cx * cy * coeff)
                            for y, cy in VECTOR_IN_SPINOR[gb].items()))
    pairs = list(product(VECTOR_GENERATORS, repeat=2))
    for got, want in [
            (fock._bracket_coefficients(),
             _complex_array(bracket_table("spinor"), GENERATOR_PAIRS, names)),
            (fock._bracket_coefficients("k-bracket"),
             _complex_array(bracket_table("spinor", "k-bracket"),
                            GENERATOR_PAIRS, names)),
            (fock._reality_coefficients(),
             _complex_array(REALITY_SPINOR, names, names)),
            (fock._casimir_weights(), _complex_array(w, names, names)),
            (coframe._SPINOR, _complex_array(
                VECTOR_IN_SPINOR, VECTOR_GENERATORS, SPINOR_GENERATORS)),
            (coframe._BRACKET, _complex_array(
                bracket_table("vector"), pairs,
                VECTOR_GENERATORS).real.T.reshape(10, 10, 10)),
            (u2h.float_image(u2h.basis_maps()[0]), _complex_array(
                SPINOR_IN_VECTOR, SPINOR_GENERATORS, VECTOR_GENERATORS))]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
