import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import conjugation
from sphere7 import fock
from sphere7.fock import (GENERATOR_NAMES, M_MAX, basis, basis_index,
                          build_rho, build_rho_partial, casimir_deviation,
                          commutant_dimension, dim,
                          dump_representation, expected_k_spectrum,
                          full_convergence_ell, k_spectrum,
                          load_representation, matrix_of_laurent,
                          partial_sum_distance, sqrt_series_value,
                          sym_power, verify_brackets, verify_reality,
                          verify_traceless)
from sphere7.rational import CRat
from sphere7.weyl import LaurentElement, WeylElement, embedded_generators


def test_dim():
    assert [dim(m) for m in range(1, 9)] == [1, 4, 10, 20, 35, 56, 84, 120]
    with pytest.raises(ValueError):
        dim(0)


def test_basis_graded_prefix():
    for m in (1, 2, 3, 5):
        b = basis(m)
        assert len(b) == dim(m)
        assert b == basis(m + 1)[:dim(m)]
        totals = [sum(s) for s in b]
        assert totals == sorted(totals)
    assert basis(2)[0] == (0, 0, 0)


def test_m1_trivial():
    rep = build_rho(1)
    for mat in rep.values():
        assert mat.shape == (1, 1)
        assert np.all(mat.toarray() == 0)


def test_m2_examples():
    rep = build_rho(2)
    idx = basis_index(2)
    v = np.zeros(4, dtype=complex)
    v[idx[(0, 0, 0)]] = 1.0
    out = rep["P+-"].toarray() @ v
    expect = np.zeros(4, dtype=complex)
    expect[idx[(0, 0, 1)]] = 1.0  # sqrt(1) * sqrt(2 - 1)
    assert np.allclose(out, expect)
    spec = np.sort_complex(np.diag(rep["K+-"].toarray()))
    assert np.allclose(spec, np.sort_complex(np.array([1j, -1j, 0, 0])))


def _conjugation_matrix(m):
    """C with C[sigma(i), i] = s_i, so that J = C conj(.)."""
    sigma, sign = conjugation(m)
    c = np.zeros((dim(m), dim(m)))
    c[sigma, np.arange(dim(m))] = sign
    return c


def _conjugation_defect(c, rep):
    """Largest entry of C conj(X) - X C over the real span's antihermitean
    basis rho_g - rho_g^H, i (rho_g + rho_g^H)."""
    worst = 0.0
    for g in GENERATOR_NAMES:
        r = rep[g].toarray()
        for x in (r - r.conj().T, 1j * (r + r.conj().T)):
            worst = max(worst, float(np.max(np.abs(c @ x.conj() - x @ c))))
    return worst


def test_conjugation_permutation_matches_basis_index():
    for m in range(1, 21):
        index = basis_index(m)
        expected = [index[(m - 1 - n1 - n2 - n3, n3, n2)]
                    for n1, n2, n3 in basis(m)]
        assert conjugation(m)[0].tolist() == expected


@pytest.mark.parametrize("m", range(1, 13))
def test_conjugation_commutes_with_rho(m):
    sigma, _ = conjugation(m)
    c = _conjugation_matrix(m)
    assert _conjugation_defect(c, build_rho(m)) == 0.0
    # quaternionic type for even m, real type for odd m
    assert np.array_equal(c @ c.conj(), (-1) ** (m - 1) * np.eye(dim(m)))
    assert np.array_equal(sigma[sigma], np.arange(dim(m)))
    fixed = int(np.sum(sigma == np.arange(dim(m))))
    assert fixed == ((m + 1) // 2 if m % 2 else 0)


@pytest.mark.parametrize("m", [2, 4, 5])
def test_conjugation_detects_a_flipped_amplitude(m):
    rep = dict(build_rho(m))
    rep["P++"].val[0] = -rep["P++"].val[0]
    assert _conjugation_defect(_conjugation_matrix(m), rep) > 0.1


def test_bracket_and_reality_residuals():
    for m in range(1, 7):
        rep = build_rho(m)
        res, _ = verify_brackets(rep)
        assert res < 1e-10
        assert verify_reality(rep) < 1e-10
        assert verify_traceless(rep) < 1e-10


def test_specific_pp_bracket_m2():
    rep = {g: x.toarray() for g, x in build_rho(2).items()}
    lhs = rep["P++"] @ rep["P--"] - rep["P--"] @ rep["P++"]
    rhs = 1j * (-rep["J+-"] + rep["K+-"])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_k_spectrum_integer():
    for m in (1, 2, 3, 5, 8):
        assert np.allclose(k_spectrum(build_rho(m)), expected_k_spectrum(m),
                           atol=1e-12)


def test_k_spectrum_reads_the_diagonal():
    rep = build_rho(4)
    k = rep["K+-"].toarray()
    assert np.array_equal(k_spectrum(rep), expected_k_spectrum(4))
    assert np.array_equal(k_spectrum({"K+-": k}), k_spectrum(rep))
    k[0, 1] = 1e-3
    with pytest.raises(ValueError, match="off-diagonal"):
        k_spectrum({"K+-": k})


def test_commutant_dimension():
    for m in range(1, M_MAX + 1):
        assert commutant_dimension(build_rho(m)) == 1


def _dense_commutant_dimension(rep):
    # nullspace of the stacked row-major vec([M, X]) maps over all ten X
    d = next(iter(rep.values())).shape[0]
    eye = np.eye(d)
    stack = np.vstack([np.kron(eye, x.T) - np.kron(x, eye)
                       for x in rep.values()])
    sv = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(sv < 1e-8 * max(1.0, sv[0])))


def _zeroed(m, *names):
    rep = {g: x.toarray() for g, x in build_rho(m).items()}
    rep.update({g: np.zeros_like(rep[g]) for g in names})
    return rep


@pytest.mark.parametrize("zeroed, expected", [
    ((), [1, 1, 1, 1]),
    (("P++", "P--", "P-+", "P+-", "K++", "K--"), [1, 3, 6, 10]),
    (("P++", "P--", "P-+", "P+-"), [1, 2, 3, 4]),
])
def test_commutant_dimension_matches_dense_nullspace(zeroed, expected):
    for m, want in zip((1, 2, 3, 4), expected):
        rep = _zeroed(m, *zeroed)
        assert _dense_commutant_dimension(rep) == want
        if want > 1:
            with pytest.raises(ValueError):
                commutant_dimension(rep)
        else:
            assert commutant_dimension(rep) == want


@pytest.mark.parametrize("m", (2, 3, 4))
def test_witness_needs_a_diagonal_k_with_a_simple_vacuum_entry(m):
    with pytest.raises(ValueError, match="not simple"):
        commutant_dimension(_zeroed(m, "K+-"))
    rep = _zeroed(m)
    rep["K+-"][1, 2] = 1e-3
    with pytest.raises(ValueError, match="off-diagonal"):
        commutant_dimension(rep)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_witness_needs_the_walk_along_rows(m):
    # without K++, P++ and P-+ no generator maps a non-vacuum state onto
    # the vacuum, so their span is invariant; the commutant is still the
    # scalars, and only the walk along rows sees the subspace
    rep = _zeroed(m, "K++", "P++", "P-+")
    assert not any(x[0, 1:].any() for x in rep.values())
    assert _dense_commutant_dimension(rep) == 1
    with pytest.raises(ValueError, match="along the rows"):
        commutant_dimension(rep)


@pytest.mark.parametrize("m", (3, 4))
def test_witness_is_sufficient_not_necessary(m):
    rep = _zeroed(m, "J++", "J--")
    assert _dense_commutant_dimension(rep) == 1
    with pytest.raises(ValueError, match="along the columns"):
        commutant_dimension(rep)


def test_casimir_scalar():
    assert casimir_deviation(build_rho(1)) == 0
    assert casimir_deviation(build_rho(3)) < 1e-10


def test_partial_action_boundary_sequence():
    # boundary state x = 1: partial sums decrease toward sqrt(0) = 0
    vals = [sqrt_series_value(ell, 1.0) for ell in range(3)]
    assert vals == [1.0, 0.5, 0.375]
    # m = 2, |1,0,0>: the K-- column leaves the level-2 block with this weight
    part = build_rho_partial(2, 0)
    idx3 = basis_index(3)
    col = basis_index(2)[(1, 0, 0)]
    out_row = idx3[(2, 0, 0)]
    amp = part["K--"].toarray()[out_row, col]
    assert abs(amp - 2j * math.sqrt(2) * math.sqrt(2) * 1.0) < 1e-12


def test_negative_truncation_order_is_refused():
    # every partial sum reads sqrt_series_value, which refuses ell < 0 with
    # the message of the exact layer's generator walk, weyl._generator_orders
    for call in (lambda: sqrt_series_value(-1, 0.5),
                 lambda: partial_sum_distance(3, -1),
                 lambda: build_rho_partial(3, -1)):
        with pytest.raises(ValueError, match="ell must be >= 0"):
            call()


def _embed_exact_in_ambient(m):
    """build_rho(m) in the D(m+1) x D(m) ambient shape: the exact S
    assembled into the level-(m+1) codomain, whose extra rows stay zero."""
    return fock._assemble(m, np.sqrt(m - np.arange(m + 1.0)), m, m + 1)


def test_partial_distance_monotone_and_matches_matrices():
    for m in (2, 3, 4):
        amb = _embed_exact_in_ambient(m)
        prev = np.inf
        for ell in (0, 1, 2, 4, 8, 16, 32, 64):
            d_scan = partial_sum_distance(m, ell)
            assert d_scan <= prev + 1e-15
            prev = d_scan
            if ell <= 8:
                part = build_rho_partial(m, ell)
                d_mat = max(float(np.max(np.abs(
                    part[g].toarray() - amb[g].toarray()))) for g in amb)
                assert abs(d_mat - d_scan) < 1e-12


def test_partial_distance_interior_geometric():
    d1 = partial_sum_distance(2, 10, block="interior")
    d2 = partial_sum_distance(2, 20, block="interior")
    assert d2 < d1 * 1e-2


def test_full_convergence_ell_small_threshold():
    # the boundary tail makes the sup-distance cross 0.5 only after
    # hundreds of terms
    ell = full_convergence_ell(2, threshold=0.5)
    assert ell is not None
    assert partial_sum_distance(2, ell) < 0.5
    assert ell > 10


def test_full_convergence_ell_recorded_value():
    # the boundary-inclusive distance at m=2 first dips below 1e-3 past
    # five million terms; this pins the measured crossings
    assert full_convergence_ell(2, threshold=1e-3) == 5_092_958
    assert full_convergence_ell(3) == 11_459_156
    assert full_convergence_ell(4) == 20_371_833


@pytest.mark.parametrize("threshold, message", [
    (0, "threshold 0 is not positive"),
    (1e-16, "threshold 1e-16 is not reached by ell = 2[*][*]53"),
])
def test_full_convergence_ell_rejects_unreachable_thresholds(threshold,
                                                             message):
    with pytest.raises(ValueError, match=message):
        full_convergence_ell(2, threshold)


def _sqrt_series_reference(ell, x):
    # every term summed, as the series defines it
    acc, c = 0.0, 1.0
    for k in range(ell + 1):
        acc += c * x ** k
        c *= (2 * k - 1) / (2 * k + 2)
    return acc


def test_sqrt_series_value_matches_reference():
    # t / m up to t = m + 2, as build_rho_partial evaluates, skipping x = 1
    xs = [i / 64 for i in range(64)] + [t / m for m in (3, 7, 20)
                                        for t in range(m + 3) if t != m]
    for x in xs:
        for ell in range(201):
            assert sqrt_series_value(ell, x) == _sqrt_series_reference(ell, x)
    for ell in range(512):
        assert sqrt_series_value(ell, 1.0) == _sqrt_series_reference(ell, 1.0)
    for ell in (512, 513, 1000, 4096):
        exact = math.comb(2 * ell, ell) / 4 ** ell
        assert abs(sqrt_series_value(ell, 1.0) / exact - 1) < 1e-15


def test_matrix_of_laurent_is_algebra_map():
    # the Fock action is a representation: matrices of products compose
    rng = np.random.default_rng(0)
    for _ in range(30):
        k1 = tuple(int(rng.integers(0, 2)) for _ in range(6))
        k2 = tuple(int(rng.integers(0, 2)) for _ in range(6))
        x = WeylElement({k1: CRat(int(rng.integers(-2, 3)), 1)})
        y = WeylElement({k2: CRat(1, int(rng.integers(-2, 3)))})
        lau = {"x": LaurentElement({0: x}), "y": LaurentElement({0: y}),
               "xy": LaurentElement({0: x * y})}
        my = matrix_of_laurent(lau, 1, 3, 6)["y"]  # raises total by <= 3
        mx_big = matrix_of_laurent(lau, 1, 6, 9)["x"]
        mxy = matrix_of_laurent(lau, 1, 3, 9)["xy"]
        assert np.max(np.abs(mx_big @ my - mxy)) < 1e-10


def test_matrix_of_laurent_evaluates_each_element_alone(monkeypatch):
    # one evaluator call on the ten generators gives, bit for bit, the
    # matrices of ten calls on one generator each
    calls = []
    apply_words = fock._apply_words
    monkeypatch.setattr(fock, "_apply_words",
                        lambda *a: calls.append(1) or apply_words(*a))
    matrix_of_laurent(embedded_generators(1), 2, 2, 3)
    assert len(calls) == 1
    for ell in range(5):
        gens = embedded_generators(ell)
        for m in (1, 2, 3):
            together = matrix_of_laurent(gens, m, m, m + 1)
            assert list(together) == list(gens)
            for name, lau in gens.items():
                alone, = matrix_of_laurent({name: lau}, m, m, m + 1).values()
                assert np.array_equal(together[name], alone)


def test_commuting_diagram():
    for m in (1, 2, 3):
        for ell in (0, 2, 4):
            part = build_rho_partial(m, ell)
            mats = matrix_of_laurent(embedded_generators(ell), m, m, m + 1)
            for name, mat in mats.items():
                assert np.max(np.abs(mat - part[name])) < 1e-12


def _filtration_check(m_max):
    """Basis-compatibility of the level inclusions, and the off-block fact.

    Verifies that dimensions strictly increase and each level's basis is the
    prefix of the next level's.  Restricting the level-(m+1) matrices to the
    level-m block is NOT a subrepresentation; the maximal off-block column
    entry per level is reported as evidence.
    """
    report = {"dims": [dim(m) for m in range(1, m_max + 1)],
              "prefix_ok": True, "off_block_norm": {}}
    for m in range(1, m_max):
        if dim(m) >= dim(m + 1):
            report["prefix_ok"] = False
        if basis(m) != basis(m + 1)[:dim(m)]:
            report["prefix_ok"] = False
        rep = build_rho(m + 1)
        d = dim(m)
        off = max(float(np.abs(rep[g].toarray()[d:, :d]).max()) for g in rep)
        report["off_block_norm"][m + 1] = off
    report["is_subrepresentation"] = all(
        v < 1e-14 for v in report["off_block_norm"].values())
    return report


def test_filtration_check():
    rep = _filtration_check(8)
    assert rep["dims"] == [1, 4, 10, 20, 35, 56, 84, 120]
    assert rep["prefix_ok"]
    assert not rep["is_subrepresentation"]
    assert rep["off_block_norm"][3] > 0.1


@pytest.mark.parametrize("m", range(1, 9))
def test_sym_power_exponentiates_the_generators(m):
    # level m is Sym^(m-1) of level 2, so the lift of exp(t rho_2(X)) is
    # exp(t rho_m(X)) for every generator, hermitean or not
    low, rep = build_rho(2), build_rho(m)
    for name in GENERATOR_NAMES:
        for t in (0.3, -0.7):
            want = scipy.linalg.expm(t * rep[name].toarray())
            got = sym_power(scipy.linalg.expm(t * low[name].toarray()), m)
            assert np.max(np.abs(got - want)) < 1e-12


_ENTRIES = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=32,
                    max_size=32)


def _matrix(entries):
    """A complex 4 x 4 matrix of spectral norm 1, so that every level's lift
    has entries of modulus at most 1."""
    z = np.array(entries[:16]) + 1j * np.array(entries[16:])
    z = z.reshape(4, 4)
    norm = np.linalg.norm(z, 2)
    assume(norm > 1e-3)
    return z / norm


@settings(deadline=None, max_examples=40)
@given(_ENTRIES, _ENTRIES, st.integers(1, 6))
def test_sym_power_is_multiplicative_and_keeps_adjoints(a, b, m):
    a, b = _matrix(a), _matrix(b)
    lift_a, lift_b = sym_power(a, m), sym_power(b, m)
    assert lift_a.shape == (dim(m), dim(m))
    assert np.max(np.abs(sym_power(a @ b, m) - lift_a @ lift_b)) < 1e-13
    assert np.max(np.abs(sym_power(a.conj().T, m) - lift_a.conj().T)) < 1e-14


def test_dump_load_roundtrip(tmp_path):
    for mode in ("binary", "json"):
        path = dump_representation(2, tmp_path / mode, mode=mode)
        header, rep = load_representation(path)
        assert header["m"] == 2
        assert header["basis_order"][0] == [0, 0, 0]
        orig = build_rho(2)
        for g in orig:
            assert np.allclose(rep[g], orig[g].toarray())
