import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import REALITY_SPINOR, RING_COMM, laurent_comm, verify_oracle
from sphere7 import weyl
from sphere7.classical import PoissonElement
from sphere7.rational import CRat
from sphere7.weyl import (LaurentElement, PolyNM, WeylElement,
                          embedded_generators, sqrt_coefficient,
                          sqrt_partial_sum, verify_embedding)

I = CRat(0, 1)
G = WeylElement.gen
A_DAG, A_MM, A_PM, A_AN, A_PP, A_MP = range(6)


def test_defining_relations():
    # a a^dagger = a^dagger a + 1
    assert G(A_AN) * G(A_DAG) == (
        WeylElement({(1, 0, 0, 1, 0, 0): 1}) + WeylElement.unit())
    assert G(A_PP).comm(G(A_MM)) == WeylElement.unit(-1)
    assert G(A_MP).comm(G(A_PM)) == WeylElement.unit(1)
    x = G(A_DAG) * G(A_AN)
    assert x * WeylElement.unit() == x


def _random_element(rng, deg=2, nterms=3):
    w = WeylElement.zero()
    for _ in range(nterms):
        key = tuple(int(rng.integers(0, deg + 1)) for _ in range(6))
        w = w + WeylElement({key: CRat(int(rng.integers(-3, 4)),
                                       int(rng.integers(-3, 4)))})
    return w


def test_associativity_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x, y, z = (_random_element(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_weyl = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 6),
    st.tuples(_fractions, _fractions).map(lambda t: CRat(*t)),
    max_size=6).map(WeylElement)


@settings(deadline=None, max_examples=200)
@given(_weyl, _weyl)
def test_comm_matches_full_products(x, y):
    # the kernel keeps only the contraction terms; the full products of the
    # dict ring are the oracle
    c = x.comm(y)
    assert c == x * y - y * x
    assert all(c.terms.values())


_RINGS = [WeylElement, PoissonElement]


@pytest.mark.parametrize("ring", _RINGS, ids=lambda r: r.__name__)
@settings(deadline=None, max_examples=100)
@given(x=_weyl, y=_weyl)
def test_comm_matches_the_dict_bracket(ring, x, y):
    # the Poisson ring's oracle is the biderivation of its six fundamental
    # brackets, the oscillator ring's the contraction-only normal ordering
    x, y = ring(x.terms), ring(y.terms)
    c = x.comm(y)
    assert type(c) is ring
    assert c == RING_COMM[ring](x, y)


# caps 0 and 2 drop grade pairs of every ell, so `dropped` decides `exact`
@pytest.mark.parametrize("cap", [None, 16, 0, 2], ids=str)
@pytest.mark.parametrize("ell", range(5))
@pytest.mark.parametrize("ring", _RINGS, ids=lambda r: r.__name__)
def test_kernel_report_matches_the_dict_walk(ring, ell, cap):
    assert verify_embedding(ell, cap, ring) == verify_oracle(ell, cap, ring)


@pytest.mark.parametrize("ring", _RINGS, ids=lambda r: r.__name__)
def test_chunks_of_a_few_rows_give_the_same_report(monkeypatch, ring):
    monkeypatch.setattr(weyl, "CHUNK_ROWS", 5)
    assert verify_embedding(2, ring=ring) == verify_oracle(2, ring=ring)


@pytest.mark.parametrize("ring", _RINGS, ids=lambda r: r.__name__)
def test_coefficients_past_the_int64_bound_take_python_ints(ring):
    # 2**40 times both factors puts every product past 2**63
    names = ("P++", "P--", "K++", "K--")
    gens = embedded_generators(2, 8, ring)
    big = [gens[g].scale(2 ** 40) for g in names]
    (_, _, _, re, im), _, _ = weyl._brackets(ring, big, [(0, 1), (2, 3)], 8)
    assert re.dtype == im.dtype == object
    for x, y in ((0, 1), (2, 3)):
        want = laurent_comm(gens[names[x]], gens[names[y]])
        assert big[x].comm(big[y]) == want.scale(2 ** 80)


def test_sums_under_the_per_key_bound_stay_int64():
    # 4000 small rows on key 0 and one row of 2**60-sized products on key
    # 1: the global bound, 2 * 2**30 * 2**30 * 4000, is past 2**63, while
    # each key's bound is below 2**62
    n = 4001
    key = np.zeros(n, np.int64)
    key[-1] = 1
    xr, xi = np.ones(n, np.int64), np.zeros(n, np.int64)
    xr[-1], xi[-1] = 2 ** 30, -(2 ** 29)
    yr, yi = xr.copy(), -xi
    w = np.ones(n, np.int64)
    w[0] = 3
    got_key, re, im = weyl._summed(key, (xr, xi), (yr, yi), np.arange(n), w,
                                   1)
    assert re.dtype == im.dtype == np.int64
    want = {}
    for k, a, b, c, d, e in zip(*(v.tolist() for v in (key, xr, xi, yr, yi,
                                                        w))):
        s = want.setdefault(k, [0, 0])
        s[0] += (a * c - b * d) * e
        s[1] += (a * d + b * c) * e
    assert got_key.tolist() == [0, 1]
    assert [re.tolist(), im.tolist()] == [list(v) for v in zip(*want.values())]
    assert want[1] == [2 ** 60 + 2 ** 58, 0]
    # eight such rows on key 1 sum past 2**62: Python ints, the same sums
    key, src = np.append(key, [1] * 7), np.append(np.arange(n), [n - 1] * 7)
    w = np.append(w, [1] * 7)
    _, re, im = weyl._summed(key, (xr, xi), (yr, yi), src, w, 1)
    assert re.dtype == im.dtype == object
    assert re.tolist() == [want[0][0], 8 * want[1][0]]
    assert im.tolist() == [0, 0]


# the 45-pair (residual_min_grade, exact) tables of both rings at cap 16,
# recorded before the integer-backed CRat and the contraction-only comm
RECORDED = json.loads(
    Path(__file__).with_name("embedding_cap16.json").read_text())


@pytest.mark.parametrize("ell", range(4))
@pytest.mark.parametrize("ring", [WeylElement, PoissonElement],
                         ids=lambda r: r.__name__)
def test_embedding_tables_match_recorded(ring, ell):
    want = RECORDED[ring.__name__][str(ell)]
    got = {k: [v["residual_min_grade"], v["exact"]]
           for k, v in verify_embedding(ell, 16, ring=ring).items()}
    assert got.keys() == want.keys()
    wrong = {k: (got[k], w) for k, w in want.items() if got[k] != w}
    assert not wrong, f"{ring.__name__} ell={ell}, (got, recorded): {wrong}"


def test_dagger_rules():
    assert G(A_PM).dagger() == G(A_MP)
    assert G(A_PP).dagger() == G(A_MM).scale(-1)
    nd = G(A_DAG) * G(A_AN)
    assert nd.dagger() == nd
    # antiautomorphism: (xy)^dagger = y^dagger x^dagger
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y = _random_element(rng), _random_element(rng)
        assert (x * y).dagger() == y.dagger() * x.dagger()


def test_dagger_involution_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x = _random_element(rng)
        assert x.dagger().dagger() == x


def test_number_operators_commute():
    assert WeylElement.number_op().comm(
        WeylElement.total_number_op()).is_zero()


def _number_op_literals(ring):
    """n = 2 ad a and N = apm amp - app amm as literals: normal ordered,
    the oscillator ring's N carries the ordering constant +1."""
    total = {(0, 0, 1, 0, 0, 1): 1, (0, 1, 0, 0, 1, 0): -1}
    if ring is WeylElement:
        total[(0, 0, 0, 0, 0, 0)] = 1
    return ring({(1, 0, 0, 1, 0, 0): 2}), ring(total)


@pytest.mark.parametrize("ring", [WeylElement, PoissonElement],
                         ids=lambda r: r.__name__)
def test_number_operators_match_literals(ring):
    n, total = _number_op_literals(ring)
    assert type(ring.number_op()) is ring
    assert ring.number_op() == n
    assert ring.total_number_op() == total


def _recipe_generators(ell, cap, ring):
    """The ten generators written out by hand, one expression each."""
    s = sqrt_partial_sum(ell).expand(cap, ring)
    g = ring.gen
    i = CRat(0, 1)
    n, total = _number_op_literals(ring)

    def lw(w, grade=0):
        return LaurentElement({grade: w}, cap=cap)

    return {
        "J++": lw((g(2) * g(4)).scale(-2 * i)),
        "J+-": lw((g(4) * g(1) + g(5) * g(2)).scale(-i)),
        "J--": lw((g(5) * g(1)).scale(-2 * i)),
        "K++": (s * lw(g(3))).scale(-2 * i),
        "K+-": lw(ring.unit(i), -2) + lw((n + total).scale(-i)),
        "K--": (lw(g(0)) * s).scale(2 * i),
        "P++": lw((g(2) * g(3)).scale(-1)) + s * lw(g(4)),
        "P--": lw(g(0) * g(5)) + lw(g(1)) * s,
        "P+-": lw(g(0) * g(4)) + lw(g(2)) * s,
        "P-+": lw((g(1) * g(3)).scale(-1)) + s * lw(g(5)),
    }


# cap 1 drops the grades >= 3 of S_ell, ell >= 2
@pytest.mark.parametrize("cap", ["none", "1", "2ell+4"])
@pytest.mark.parametrize("ell", range(5))
@pytest.mark.parametrize("ring", [WeylElement, PoissonElement],
                         ids=lambda r: r.__name__)
def test_generator_table_matches_the_hand_written_recipe(ring, ell, cap):
    cap = {"none": None, "1": 1, "2ell+4": 2 * ell + 4}[cap]
    got = embedded_generators(ell, cap, ring)
    want = _recipe_generators(ell, cap, ring)
    assert list(got) == list(want)
    for name, lau in want.items():
        assert got[name] == lau, name
        assert (got[name].cap, got[name].dropped) == (lau.cap, lau.dropped)


def test_sqrt_coefficients():
    assert sqrt_coefficient(0) == 1
    assert sqrt_coefficient(1) == Fraction(-1, 2)
    assert sqrt_coefficient(2) == Fraction(-1, 8)


def test_sqrt_partial_sum_s0():
    s0 = sqrt_partial_sum(0)
    assert set(s0.grades) == {-1}
    assert s0.grades[-1].terms == {(0, 0): CRat(1)}
    with pytest.raises(ValueError):
        sqrt_partial_sum(-1)


def test_absent_grade_is_zero_of_the_coefficient_ring():
    s1 = sqrt_partial_sum(1)
    assert 4 not in s1.grades
    zero = s1.coefficient(4)
    assert type(zero) is PolyNM and zero.is_zero()
    assert type(LaurentElement().coefficient(0)) is WeylElement


def test_square_relation_residual_grade():
    # S_ell^2 - (1/h - N - n/2) has minimal grade >= 2 ell
    n, N = WeylElement.number_op(), WeylElement.total_number_op()
    for ell in (0, 1, 2, 3):
        s = sqrt_partial_sum(ell).expand()
        target = LaurentElement({
            -2: WeylElement.unit(),
            0: (N + n.scale(CRat(Fraction(1, 2)))).scale(-1)})
        res = s * s - target
        if ell == 0:
            assert res.min_grade() == 0
        else:
            assert res.min_grade() >= 2 * ell


def test_k_plus_minus_independent_of_ell():
    g0 = embedded_generators(0)["K+-"]
    g5 = embedded_generators(5)["K+-"]
    assert g0 == g5
    # i(1/h - N - n): grade -2 coefficient is i, grade 0 is -i(N + n)
    assert g0.coefficient(-2) == WeylElement.unit(I)
    n, N = WeylElement.number_op(), WeylElement.total_number_op()
    assert g0.coefficient(0) == (N + n).scale(-I)


def test_leading_grades():
    gens = embedded_generators(2)
    assert gens["K++"].coefficient(-1) == G(A_AN).scale(-2 * I)
    for name, slot in (("P++", A_PP), ("P+-", A_PM),
                       ("P-+", A_MP), ("P--", A_MM)):
        assert gens[name].coefficient(-1) == G(slot)


def _reality_report(ell, cap=None):
    """Exact check that daggering each image lands on the image of X^dagger."""
    gens = embedded_generators(ell, cap=cap)
    out = {}
    for name, lau in gens.items():
        target = LaurentElement(cap=cap)
        for g, c in REALITY_SPINOR[name].items():
            target = target + gens[g].scale(c)
        out[name] = (lau.dagger() - target).is_zero()
    return out


def test_embedding_reality_exact():
    for ell in (0, 2, 5, 8):
        rep = _reality_report(ell)
        assert all(rep.values()), rep


def test_k_pm_brackets_close_exactly_every_ell():
    for ell in (0, 1, 3):
        gens = embedded_generators(ell)
        comm = gens["K+-"].comm(gens["K++"])
        target = gens["K++"].scale(2 * I)
        assert (comm - target).is_zero()


def test_verify_embedding_structure():
    rep = verify_embedding(1)
    assert len(rep) == 45
    # compact bilinears close exactly: all J rows and everything with K+-
    for key, entry in rep.items():
        x, y = entry["pair"]
        if x.startswith("J") or y.startswith("J") or "K+-" in (x, y):
            assert entry["exact"], key
    finite = {k: v["residual_min_grade"] for k, v in rep.items()
              if v["residual_min_grade"] is not None}
    assert len(finite) == 9
    assert set(finite.values()) == {2}


def test_embedding_residual_growth():
    grades = {}
    for ell in (0, 1, 2, 3):
        rep = verify_embedding(ell)
        grades[ell] = {k: v["residual_min_grade"] for k, v in rep.items()
                       if v["residual_min_grade"] is not None}
    for ell in (1, 2, 3):
        for k, g in grades[ell].items():
            assert g >= grades[ell - 1][k]
    for k in grades[2]:
        assert grades[2][k] >= grades[0][k] + 2
        assert grades[3][k] >= grades[1][k] + 2
