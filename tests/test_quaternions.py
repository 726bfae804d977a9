import math

import numpy as np
import pytest

from oracles import qlog
from sphere7.coframe import SpherePoint, random_point
from sphere7.quaternions import (QCONJ, QMUL, PatchError, qcomplex, qdagger,
                                 qinv, qmatmul, qmul, qnorm, section_n,
                                 section_s, transition_tau)

ONE, QI, QJ, QK = np.eye(4)
UNITS = {"1": ONE, "i": QI, "j": QJ, "k": QK}
# Hamilton's table, written out: row a, column b holds e_a e_b
HAMILTON = [["1", "i", "j", "k"],
            ["i", "-1", "k", "-j"],
            ["j", "-k", "-1", "i"],
            ["k", "j", "-i", "-1"]]
ID2 = np.array([[ONE, 0 * ONE], [0 * ONE, ONE]])


def _unit(name):
    return -UNITS[name[1:]] if name.startswith("-") else UNITS[name]


def _diag(a, b):
    return np.array([[a, 0 * a], [0 * b, b]])


def _unitarity_defect(g):
    return float(np.max(qnorm(qmatmul(qdagger(g), g) - ID2)))


def test_unit_relations():
    for a, row in enumerate(HAMILTON):
        for b, name in enumerate(row):
            assert np.array_equal(QMUL[4 * a + b], _unit(name))
    # i^2 = j^2 = k^2 = ijk = -1, ij = k, jk = i, ki = j
    for q in (QI, QJ, QK):
        assert qnorm(qmul(q, q) + ONE) == 0
    assert qnorm(qmul(qmul(QI, QJ), QK) + ONE) == 0
    assert qnorm(qmul(QI, QJ) - QK) == 0
    assert qnorm(qmul(QJ, QK) - QI) == 0
    assert qnorm(qmul(QK, QI) - QJ) == 0


def test_mul_examples():
    q = np.array([0.3, -1.2, 0.5, 2.0])
    assert qnorm(qmul(q, ONE) - q) == 0
    # (1+i)(1-i) = 2 by expanding bilinearly
    prod = qmul(np.array([1.0, 1, 0, 0]), np.array([1.0, -1, 0, 0]))
    assert qnorm(prod - [2, 0, 0, 0]) == 0


def test_qmul_broadcasts_over_leading_axes():
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((2, 30, 4))
    rows = qmul(a, b)
    assert rows.shape == (30, 4)
    # one row and a batch may sum the four terms in different orders
    one = np.array([qmul(x, y) for x, y in zip(a, b)])
    assert np.max(np.abs(rows - one)) < 1e-14
    assert np.array_equal(qmul(a[0], b), qmul(np.repeat(a[:1], 30, 0), b))
    grid = qmul(a[:, None], b[None, :5])
    assert grid.shape == (30, 5, 4)
    assert np.array_equal(grid[7], qmul(a[7], b[:5]))


def test_conj_norm_inv():
    assert qnorm(np.array([1.0, 1, 0, 0]) * QCONJ - [1, -1, 0, 0]) == 0
    assert qnorm(np.array([1.0, 1, 1, 1])) ** 2 == 4
    assert qnorm(qinv(QI) + QI) == 0


def test_norm_multiplicative_and_inverse_random():
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal((2, 10_000, 4))
    na, nb = qnorm(a), qnorm(b)
    assert np.max(np.abs(qnorm(qmul(a, b)) - na * nb) / (na * nb)) < 1e-14
    assert np.max(qnorm(qmul(a, qinv(a)) - ONE)) < 1e-14
    assert np.max(qnorm(qmul(qinv(a), a) - ONE)) < 1e-14


def test_conj_antihomomorphism_random():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 10_000, 4))
    worst = np.max(qnorm(qmul(a, b) * QCONJ - qmul(b * QCONJ, a * QCONJ)))
    assert worst < 1e-13


def test_mul_associative_random():
    rng = np.random.default_rng(1)
    a, b, c = rng.standard_normal((3, 500, 4))
    assert np.max(qnorm(qmul(qmul(a, b), c) - qmul(a, qmul(b, c)))) < 1e-12


def test_qdagger_reverses_matrix_products():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, 200, 2, 2, 4))
    lhs = qdagger(qmatmul(a, b))
    rhs = qmatmul(qdagger(b), qdagger(a))
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    assert np.array_equal(qdagger(qdagger(a)), a)
    # on integer entries the product is exact
    ints = rng.integers(-3, 4, (2, 2, 2, 4))
    assert np.array_equal(qdagger(qmatmul(ints[0], ints[1])),
                          qmatmul(qdagger(ints[1]), qdagger(ints[0])))


def test_qcomplex_is_an_exact_homomorphism():
    # the block of each basis quaternion, as the module docstring writes it
    blocks = {"1": [[1, 0], [0, 1]], "i": [[1j, 0], [0, -1j]],
              "j": [[0, 1], [-1, 0]], "k": [[0, 1j], [1j, 0]]}
    for name, q in UNITS.items():
        a = np.zeros((2, 2, 4))
        a[1, 0] = q
        want = np.zeros((4, 4), dtype=complex)
        want[2:, :2] = blocks[name]
        assert np.array_equal(qcomplex(a), want)
    rng = np.random.default_rng(3)
    a, b = rng.integers(-3, 4, (2, 50, 2, 2, 4))
    assert np.array_equal(qcomplex(qmatmul(a, b)), qcomplex(a) @ qcomplex(b))
    assert np.array_equal(qcomplex(qdagger(a)),
                          qcomplex(a).conj().swapaxes(-1, -2))
    assert np.array_equal(qcomplex(ID2), np.eye(4))


def test_qlog_closed_forms():
    t = 0.7
    assert np.allclose(qlog([2.0, 0, 0, 0]), [math.log(2), 0, 0, 0],
                       rtol=0, atol=1e-15)
    # log(-|q|): angle pi about i
    assert np.allclose(qlog([-2.0, 0, 0, 0]), [math.log(2), math.pi, 0, 0],
                       rtol=0, atol=1e-15)
    assert np.allclose(qlog([0.0, 3.0, 0, 0]),
                       [math.log(3), math.pi / 2, 0, 0], rtol=0, atol=1e-15)
    assert np.allclose(qlog([math.cos(t), 0, math.sin(t), 0]), [0, 0, t, 0],
                       rtol=0, atol=1e-15)
    n = np.array([1.0, -2.0, 2.0]) / 3
    rows = np.array([np.r_[math.cos(s), math.sin(s) * n]
                     for s in (0.1, 1.5, 3.0)])
    want = np.array([np.r_[0.0, s * n] for s in (0.1, 1.5, 3.0)])
    assert np.allclose(qlog(rows), want, rtol=0, atol=1e-15)
    assert np.allclose(qlog(2.5 * rows), want + [math.log(2.5), 0, 0, 0],
                       rtol=0, atol=1e-15)
    with pytest.raises(ZeroDivisionError):
        qlog(np.zeros(4))


def test_section_s_at_pole():
    p = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    (w, x), (z, y) = section_s(p)
    assert (qnorm(w) == 0 and qnorm(x - ONE) == 0
            and qnorm(z - ONE) == 0 and qnorm(y) == 0)


def test_section_n_identity_coset():
    p = SpherePoint([0, 0, 0, 0], [1, 0, 0, 0])
    g = section_n(p)
    assert np.max(qnorm(g - ID2)) == 0


def test_section_unitary_midpoint():
    s = 1 / math.sqrt(2)
    p = SpherePoint([s, 0, 0, 0], [s, 0, 0, 0])
    assert _unitarity_defect(section_s(p)) < 1e-12


def test_sections_and_transition_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p = random_point(rng, min_patch=0.1)
        gs, gn = section_s(p), section_n(p)
        assert _unitarity_defect(gs) < 1e-12
        assert _unitarity_defect(gn) < 1e-12
        # second column is the point itself
        assert qnorm(gs[0, 1] - p.x) < 1e-14 and qnorm(gs[1, 1] - p.y) < 1e-14
        tau = transition_tau(p)
        h = _diag(tau, ONE)
        assert np.max(qnorm(gn - qmatmul(gs, h))) < 1e-10


def test_transition_values():
    s = 1 / math.sqrt(2)
    p = SpherePoint([s, 0, 0, 0], [s, 0, 0, 0])
    assert qnorm(transition_tau(p) + ONE) < 1e-14
    # any purely real x = y gives -1
    p2 = SpherePoint([0.3, 0, 0, 0], [math.sqrt(1 - 0.09), 0, 0, 0])
    assert qnorm(transition_tau(p2) + ONE) < 1e-14
    p3 = SpherePoint([0, s, 0, 0], [0, 0, s, 0])  # x = i/sqrt2, y = j/sqrt2
    assert abs(qnorm(transition_tau(p3)) - 1.0) < 1e-12


def test_patch_violations():
    p = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    with pytest.raises(PatchError):
        section_n(p)
    with pytest.raises(PatchError):
        transition_tau(p)
    q = SpherePoint([0, 0, 0, 0], [0, 1, 0, 0])
    with pytest.raises(PatchError):
        section_s(q)
