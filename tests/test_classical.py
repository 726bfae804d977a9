from oracles import SPINOR_TABLE
from sphere7.classical import PoissonElement, verify_classical
from sphere7.rational import CRat
from sphere7.weyl import embedded_generators, verify_embedding

I = CRat(0, 1)
Z_BAR, Z_MM, Z_PM, Z, Z_PP, Z_MP = range(6)


def test_fundamental_brackets():
    z, zb = PoissonElement.gen(Z), PoissonElement.gen(Z_BAR)
    assert z.comm(zb) == PoissonElement.unit(-I)
    assert PoissonElement.gen(Z_PP).comm(
        PoissonElement.gen(Z_MM)) == PoissonElement.unit(I)
    assert PoissonElement.gen(Z_PM).comm(
        PoissonElement.gen(Z_MP)) == PoissonElement.unit(I)
    assert z.comm(PoissonElement.gen(Z_PP)).is_zero()


def test_biderivation():
    z, zb = PoissonElement.gen(Z), PoissonElement.gen(Z_BAR)
    # {z^2, zbar} = 2 z {z, zbar}
    lhs = (z * z).comm(zb)
    assert lhs == (z * PoissonElement.unit(-2 * I))


def test_absent_grade_is_a_poisson_zero():
    k = embedded_generators(0, ring=PoissonElement)["K+-"]
    assert 5 not in k.grades
    zero = k.coefficient(5)
    assert type(zero) is PoissonElement and zero.is_zero()


def test_jj_bracket_matches_classical_target():
    gens = embedded_generators(0, ring=PoissonElement)
    table = SPINOR_TABLE
    pb = gens["J++"].comm(gens["J--"])
    target_coeffs = table[("J++", "J--")]
    target = None
    for g, c in target_coeffs.items():
        piece = gens[g].scale(CRat(0, -1) * c)
        target = piece if target is None else target + piece
    assert (pb - target).is_zero()


def test_classical_quantum_grade_tables_agree():
    for ell in (0, 1, 2):
        cl = verify_classical(ell)
        qu = verify_embedding(ell)
        tc = {k: v["residual_min_grade"] for k, v in cl.items()}
        tq = {k: v["residual_min_grade"] for k, v in qu.items()}
        assert tc == tq


def test_classical_pp_residual_grows():
    grades = []
    for ell in (0, 1, 2, 3):
        rep = verify_classical(ell)
        grades.append(rep["P++|P--"]["residual_min_grade"])
    assert grades == [0, 2, 4, 6]
