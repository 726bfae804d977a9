import math

import numpy as np
import pytest

from sphere7.coframe import SpherePoint, random_point
from sphere7.quaternions import (PatchError, QI, QJ, QK, QMatrix2, QONE,
                                 Quaternion, qexp, qlog, section_n, section_s,
                                 transition_tau)


def qq(*c):
    return Quaternion(*c)


def test_unit_relations():
    assert (QI * QJ - QK).norm() == 0
    assert (QJ * QK - QI).norm() == 0
    assert (QI * QI + QONE).norm() == 0
    assert (QI * QJ * QK + QONE).norm() == 0


def test_mul_examples():
    q = qq(0.3, -1.2, 0.5, 2.0)
    assert (q * QONE - q).norm() == 0
    # (1+i)(1-i) = 2 by expanding bilinearly
    prod = qq(1, 1, 0, 0) * qq(1, -1, 0, 0)
    assert (prod - qq(2, 0, 0, 0)).norm() == 0


def test_conj_norm_inv():
    assert (qq(1, 1, 0, 0).conj() - qq(1, -1, 0, 0)).norm() == 0
    assert qq(1, 1, 1, 1).normsq() == 4
    assert (QI.inv() + QI).norm() == 0
    with pytest.raises(ZeroDivisionError):
        Quaternion().inv()


def test_conj_antihomomorphism_random():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        a = Quaternion.from_seq(rng.standard_normal(4))
        b = Quaternion.from_seq(rng.standard_normal(4))
        worst = max(worst, ((a * b).conj() - b.conj() * a.conj()).norm())
    assert worst < 1e-13


def test_mul_associative_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a, b, c = (Quaternion.from_seq(rng.standard_normal(4))
                   for _ in range(3))
        assert ((a * b) * c - a * (b * c)).norm() < 1e-12


def test_exp_log_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = Quaternion.from_seq(rng.standard_normal(4) * 0.7)
        assert (qlog(qexp(q)) - q).norm() < 1e-10


def test_section_s_at_pole():
    p = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    g = section_s(p)
    assert (g.w.norm() == 0 and (g.x - QONE).norm() == 0
            and (g.z - QONE).norm() == 0 and g.y.norm() == 0)


def test_section_n_identity_coset():
    p = SpherePoint([0, 0, 0, 0], [1, 0, 0, 0])
    g = section_n(p)
    assert (g - QMatrix2.identity()).max_norm() == 0


def test_section_unitary_midpoint():
    s = 1 / math.sqrt(2)
    p = SpherePoint([s, 0, 0, 0], [s, 0, 0, 0])
    assert section_s(p).unitarity_defect() < 1e-12


def test_sections_and_transition_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p = random_point(rng, min_patch=0.1)
        gs, gn = section_s(p), section_n(p)
        assert gs.unitarity_defect() < 1e-12
        assert gn.unitarity_defect() < 1e-12
        # second column is the point itself
        assert (gs.x - p.x).norm() < 1e-14 and (gs.y - p.y).norm() < 1e-14
        tau = transition_tau(p)
        h = QMatrix2.diag(tau, QONE)
        assert (gn - gs * h).max_norm() < 1e-10


def test_transition_values():
    s = 1 / math.sqrt(2)
    p = SpherePoint([s, 0, 0, 0], [s, 0, 0, 0])
    assert (transition_tau(p) + QONE).norm() < 1e-14
    # any purely real x = y gives -1
    p2 = SpherePoint([0.3, 0, 0, 0], [math.sqrt(1 - 0.09), 0, 0, 0])
    assert (transition_tau(p2) + QONE).norm() < 1e-14
    p3 = SpherePoint([0, s, 0, 0], [0, 0, s, 0])  # x = i/sqrt2, y = j/sqrt2
    assert abs(transition_tau(p3).norm() - 1.0) < 1e-12


def test_patch_violations():
    p = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    with pytest.raises(PatchError):
        section_n(p)
    with pytest.raises(PatchError):
        transition_tau(p)
    q = SpherePoint([0, 0, 0, 0], [0, 1, 0, 0])
    with pytest.raises(PatchError):
        section_s(q)
