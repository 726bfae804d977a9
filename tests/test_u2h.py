from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from oracles import (CASIMIR_PAIRS, GRADING_ELEMENT, REALITY_SPINOR,
                     SPINOR_IN_VECTOR, SPINOR_TABLE, VECTOR_IN_SPINOR,
                     VECTOR_TABLE, LieElement, basis_change, bracket,
                     bracket_dicts, casimir_weights, contraction_constants,
                     contraction_limit, grading_decomposition,
                     inverse_map, reality, recorded, table_view)
from sphere7 import coframe, fock, u2h
from sphere7.rational import CRat, I
from sphere7.u2h import (ENTRY_MAX, GENERATOR_PAIRS, PAIR_INDEX,
                         SPINOR_GENERATORS, VECTOR_GENERATORS, bracket_table,
                         cross_basis_residual, killing_form, pair_brackets,
                         reality_bracket_residual, verify_jacobi)


def test_bracket_examples():
    table = SPINOR_TABLE
    # expanding the epsilon contraction in the J-J bracket
    assert table["J+-", "J++"] == {"J++": -2 * I}
    # K-K with eps_{-.+.} = +1
    assert table["K+-", "K++"] == {"K++": 2 * I}
    # antisymmetry
    for g in SPINOR_GENERATORS:
        assert table[g, g] == {}


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


@pytest.mark.parametrize("basis, gens, entry", [
    ("spinor", SPINOR_GENERATORS, ("K++", "K+-", "K++")),
    ("vector", VECTOR_GENERATORS, ("k1", "k2", "k3")),
])
def test_k_bracket_mutation_moves_one_antisymmetric_pair(basis, gens, entry):
    (good, den), (bad, bad_den) = (bracket_table(basis),
                                   bracket_table(basis, "k-bracket"))
    a, b, c = map(gens.index, entry)
    assert bad_den == den
    assert np.argwhere(bad != good).tolist() == sorted([[a, b, c, 0],
                                                        [b, a, c, 0]])
    assert bad[a, b, c, 0] - good[a, b, c, 0] == den
    assert bad[b, a, c, 0] - good[b, a, c, 0] == -den


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
    num, _ = bracket_table("vector")
    assert not num[..., 1].any()


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
    b, den = killing_form()
    assert den == 1
    assert np.array_equal(b, np.diag([-3] * 3 + [-6] * 4 + [-3] * 3))
    # the recorded pairs are the dual basis: one per generator, 1 / B(g, g)
    assert [(ga, gb) for ga, gb, _ in CASIMIR_PAIRS] == [
        (g, g) for g in VECTOR_GENERATORS]
    assert [c for *_, c in CASIMIR_PAIRS] == [Fraction(1, x) for x in
                                             np.diag(b).tolist()]


def test_casimir_weights_are_the_recorded_ones():
    # W from the recorded Casimir pairs and inverse change of basis alone
    assert table_view(u2h.casimir_weights(), SPINOR_GENERATORS,
                      SPINOR_GENERATORS) == casimir_weights()


def test_derived_tables_match_recorded_values():
    # the vector brackets, the inverse basis change and the reality table,
    # derived in u2h and by the dict walks, as the hand-entered tables gave
    # them
    assert bracket_dicts("vector") == VECTOR_TABLE
    assert len(VECTOR_TABLE) == 100
    _, s_inv, r = u2h.basis_maps()
    names = SPINOR_GENERATORS, VECTOR_GENERATORS
    assert (table_view(s_inv, *names[::-1]) == VECTOR_IN_SPINOR
            == recorded("vector_in_spinor"))
    assert (table_view(r, names[0], names[0]) == REALITY_SPINOR
            == recorded("reality_spinor"))


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
    monkeypatch.setattr(u2h, "_VECTOR_F", u2h._vector_constants(mats))
    view = bracket_dicts("vector")
    assert cross_basis_residual() == 2 == _cross_basis_residual(vector=view)
    assert verify_jacobi("vector")[0] == Fraction(1, 2)
    assert verify_jacobi("vector") == _verify_jacobi("vector", view)


# The dict-walk forms of the three exact checks: the references the
# einsum contractions of u2h must reproduce value for value.

def _verify_jacobi(basis="spinor", table=None):
    """Max residual of [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]] over generator triples.

    Returns (max_residual, worst_triple); the residual is exactly zero for the
    genuine tables.
    """
    gens = SPINOR_GENERATORS if basis == "spinor" else VECTOR_GENERATORS
    table = table or (SPINOR_TABLE if basis == "spinor" else VECTOR_TABLE)
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


def _cross_basis_residual(spinor=SPINOR_TABLE, vector=VECTOR_TABLE,
                          s_in_v=SPINOR_IN_VECTOR):
    """Exact max deviation between brackets computed in either basis.

    For every spinor generator pair, [X, Y] computed from the spinor table
    is mapped to the vector basis and compared against the bracket of the
    mapped arguments computed with the vector table, and vice versa.
    """
    maps = s_in_v, inverse_map(s_in_v)
    worst = Fraction(0)
    for basis, other, table, other_table in (
            ("spinor", "vector", spinor, vector),
            ("vector", "spinor", vector, spinor)):
        gens = SPINOR_GENERATORS if basis == "spinor" else VECTOR_GENERATORS
        for g1 in gens:
            for g2 in gens:
                e1, e2 = LieElement.gen(g1, basis), LieElement.gen(g2, basis)
                here = basis_change(bracket(e1, e2, table), other, maps)
                there = bracket(basis_change(e1, other, maps),
                                basis_change(e2, other, maps), other_table)
                worst = max(worst, (here - there).max_abs())
    return worst


def _reality_bracket_residual(table=None):
    """Exact check that the involution antiautomorphizes the bracket."""
    worst = Fraction(0)
    for g1 in SPINOR_GENERATORS:
        for g2 in SPINOR_GENERATORS:
            lhs = reality(LieElement(SPINOR_TABLE[(g1, g2)]), table)
            rhs = bracket(reality(g1, table), reality(g2, table)).scale(-1)
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
    assert got == want == _verify_jacobi(basis, bracket_dicts(basis, mutate))
    assert type(got[0]) is Fraction


def test_corrupted_reality_entry_is_caught(monkeypatch):
    s, s_inv, (r, den) = u2h.basis_maps()
    r = r.copy()
    r[3, 6, 1] += den                             # R(P++) gains i P--
    monkeypatch.setattr(u2h, "basis_maps",
                        lambda: (s, s_inv, u2h._checked(r, den)))
    bad = {g: dict(images) for g, images in REALITY_SPINOR.items()}
    bad["P++"]["P--"] = bad["P++"].get("P--", CRat(0)) + I
    got = reality_bracket_residual()
    assert got > 0
    assert got == _reality_bracket_residual(bad)


def _patch_change_of_basis(monkeypatch, s):
    monkeypatch.setattr(u2h, "_S", s)
    maps = u2h.basis_maps.__wrapped__()
    monkeypatch.setattr(u2h, "basis_maps", lambda: maps)


def test_corrupted_basis_change_entry_is_caught(monkeypatch):
    # P+- sent to p1 - i p2: S S^H stays diagonal, but S no longer maps the
    # paper's brackets to the matrix ones
    s = u2h._S.copy()
    s[4] *= -1
    _patch_change_of_basis(monkeypatch, s)
    bad = dict(SPINOR_IN_VECTOR)
    bad["P+-"] = {v: -c for v, c in bad["P+-"].items()}
    got = cross_basis_residual()
    assert got > 0
    assert got == _cross_basis_residual(s_in_v=bad)


def test_change_of_basis_with_rows_not_orthogonal_is_refused(monkeypatch):
    # P+- = i p2 has a nonzero inner product with P-+ = p1 + i p2
    s = u2h._S.copy()
    s[4, 4] += 1
    with pytest.raises(ValueError, match="not diagonal"):
        _patch_change_of_basis(monkeypatch, s)


def test_corrupted_vector_constant_is_caught(monkeypatch):
    # [p0, p1] gains 1/2 k3, and [p1, p0] loses it
    num, den = bracket_table("vector")
    num = num.copy()
    num[3, 4, 9, 0] += 1
    num[4, 3, 9, 0] -= 1
    monkeypatch.setattr(u2h, "_VECTOR_F", u2h._checked(num, den))
    got = verify_jacobi("vector")
    assert got[0] > 0
    assert got == _verify_jacobi("vector", bracket_dicts("vector"))
    assert cross_basis_residual() > 0
    assert cross_basis_residual() == _cross_basis_residual(
        vector=bracket_dicts("vector"))


def test_corrupted_spinor_constant_is_caught(monkeypatch):
    # [J++, P-+] = 2i P++, the sum of two epsilon contractions; one unit off
    num, den = bracket_table("spinor")
    num = num.copy()
    num[0, 5, 3, 1] -= 1
    monkeypatch.setattr(u2h, "_SPINOR_F", u2h._checked(num, den))
    got = cross_basis_residual()
    assert got > 0
    assert got == _cross_basis_residual(spinor=bracket_dicts("spinor"))


def test_table_entries_are_bounded_for_int64():
    # a contraction of entries near 2**40 would wrap int64 silently
    assert u2h._checked(np.array([[ENTRY_MAX, 0]]), 1)[1] == 1
    for num, den in (([2 ** 40 - 1, 0], 1), ([0, -2 ** 40], 1),
                     ([1, 0], 2 ** 40)):
        with pytest.raises(OverflowError):
            u2h._checked(np.array([num]), den)
    num, den = u2h._checked(np.array([[2, -4]]), 6)
    assert num.tolist() == [[1, -2]] and den == 3


def _complex_array(table, rows, cols):
    """The exact table {row: {col: CRat}} on the given rows and columns as
    a complex array; an absent entry is zero."""
    at = {c: k for k, c in enumerate(cols)}
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for r, row in enumerate(rows):
        for c, v in table[row].items():
            out[r, at[c]] = v.to_complex()
    return out


@pytest.mark.parametrize("mutate", [None, "k-bracket"])
def test_pair_rows_follow_generator_pairs(mutate):
    # row p of pair_brackets and PAIR_INDEX both name the p-th pair, in
    # either order, of GENERATOR_PAIRS
    num, den = bracket_table("spinor", mutate)
    rows, rden = pair_brackets(mutate)
    assert rows.shape == (len(GENERATOR_PAIRS), 10, 2) and rden == den
    at = {g: k for k, g in enumerate(SPINOR_GENERATORS)}
    for p, (x, y) in enumerate(GENERATOR_PAIRS):
        assert PAIR_INDEX[at[x], at[y]] == PAIR_INDEX[at[y], at[x]] == p
        assert np.array_equal(rows[p], num[at[x], at[y]])


def test_float_images_are_bitwise_the_exact_tables():
    # each float the correctly rounded quotient of the same rational, so
    # equal bit for bit to the entry-by-entry conversion
    names = fock.GENERATOR_NAMES
    for got, want in [
            (fock._bracket_coefficients(),
             _complex_array(SPINOR_TABLE, GENERATOR_PAIRS, names)),
            (fock._bracket_coefficients("k-bracket"),
             _complex_array(bracket_dicts("spinor", "k-bracket"),
                            GENERATOR_PAIRS, names)),
            (fock._reality_coefficients(),
             _complex_array(REALITY_SPINOR, names, names)),
            (fock._casimir_weights(),
             _complex_array(casimir_weights(), names, names)),
            (coframe._SPINOR, _complex_array(
                VECTOR_IN_SPINOR, VECTOR_GENERATORS, SPINOR_GENERATORS)),
            (coframe._BRACKET, _complex_array(
                VECTOR_TABLE, list(product(VECTOR_GENERATORS, repeat=2)),
                VECTOR_GENERATORS).real.T.reshape(10, 10, 10)),
            (u2h.float_image(u2h.basis_maps()[0]), _complex_array(
                SPINOR_IN_VECTOR, SPINOR_GENERATORS, VECTOR_GENERATORS))]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
