import math
import warnings

import numpy as np
import pytest

from sphere7.coframe import (Chart, SpherePoint, TangentVector, ToricPoint,
                             _coframe, _pullback, eds_residual, pullback,
                             random_point, random_unit_tangent, reeb_flow,
                             reeb_tangent, toric_embed, toric_tangent)
from sphere7.quaternions import (QCONJ, PatchError, qdagger, qmatmul, qmul,
                                 qnorm, section_n, section_s, transition_tau)

ZERO = np.zeros(4)
QK = np.array([0.0, 0.0, 0.0, 1.0])


def test_pullback_at_pole():
    p = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    u = TangentVector(p, QK, ZERO)
    c = pullback(u, "s")
    assert np.allclose(c.kappa, [0, 0, 2])
    assert np.allclose(c.mu, [0, 0, -2])
    assert np.allclose(c.nu, 0)
    assert abs(c.alpha() + 1.0) < 1e-14


def test_pullback_linearity_zero():
    rng = np.random.default_rng(0)
    p = random_point(rng, 0.2)
    z = TangentVector(p, ZERO, ZERO)
    c = pullback(z, "s")
    assert np.allclose(c.components10(), 0)


def test_kappa_mu_imaginary():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = random_point(rng, 0.15)
        u = random_unit_tangent(rng, p)
        c = pullback(u, "s")
        assert abs(c.kappa_real) < 1e-12
        assert abs(c.mu_real) < 1e-10


def test_double_index_component_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = random_point(rng, 0.15)
        u = random_unit_tangent(rng, p)
        c = pullback(u, "s")
        # 2 kappa^{+.-.} = -kappa^3/2 exactly, same number both ways
        assert 2 * c.kappa_dd()["+-"] == c.alpha()
        assert c.alpha() == -c.kappa[2] / 2


def _section_pullback_fd(u, patch="s", h=1e-6):
    """Finite-difference oracle g^dagger (dg/dt) for the coframe formulas."""
    p8 = u.base.as_array8()
    u8 = u.as_array8()
    sec = section_s if patch == "s" else section_n

    def g_at(s):
        q = p8 + s * u8
        return sec(SpherePoint.from_array8(q / np.linalg.norm(q)))

    gp, gm = g_at(h), g_at(-h)
    dg = (gp - gm) * (1.0 / (2 * h))
    return qmatmul(qdagger(sec(u.base)), dg)


def test_closed_form_matches_section_derivative():
    rng = np.random.default_rng(3)
    for patch in ("s", "n"):
        for _ in range(25):
            p = random_point(rng, 0.25)
            u = random_unit_tangent(rng, p)
            mu, nu, kappa = (r[0] for r in _coframe(
                u.base.as_array8()[None], u.as_array8()[None], patch))
            a = 0.5 * np.array([[mu, nu], [-nu * QCONJ, kappa]])
            b = _section_pullback_fd(u, patch, h=1e-6)
            assert np.max(qnorm(a - b)) < 1e-8


def _pairing_from_maurer_cartan(g):
    """The ten generator coefficients from (1/2)[[mu, nu], [-nubar, kappa]]:
    J from mu, P from nu, K from kappa, with the double-index factors."""
    m1, m2, m3 = 2 * g[0, 0, 1:]
    n0, n1, n2, n3 = 2 * g[0, 1]
    k1, k2, k3 = 2 * g[1, 1, 1:]
    return [(-m1 - 1j * m2) / 4, -m3 / 2, (m1 - 1j * m2) / 4,
            (-n3 + 1j * n0) / 2, -(n1 + 1j * n2) / 2, (n1 - 1j * n2) / 2,
            -(n3 + 1j * n0) / 2,
            (k1 - 1j * k2) / 4, -k3 / 2, -(k1 + 1j * k2) / 4]


@pytest.mark.parametrize("patch", ["s", "n"])
def test_batched_pullback_matches_section_derivative(patch):
    rng = np.random.default_rng(14)
    us = []
    for _ in range(200):
        p = random_point(rng, 0.25)
        us.append(random_unit_tangent(rng, p))
    got = _pullback(np.array([u.base.as_array8() for u in us]),
                    np.array([u.as_array8() for u in us]), patch)
    want = [_pairing_from_maurer_cartan(_section_pullback_fd(u, patch))
            for u in us]
    assert got.shape == (200, 10)
    assert np.max(np.abs(got - np.array(want))) < 1e-8


def test_kappa_global_and_nu_gauge():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = random_point(rng, 0.15)
        u = random_unit_tangent(rng, p)
        cs, cn = pullback(u, "s"), pullback(u, "n")
        assert np.max(np.abs(cs.kappa - cn.kappa)) < 1e-12
        tau = transition_tau(p)
        assert qnorm(cn.nu - qmul(tau * QCONJ, cs.nu)) < 1e-10


def test_transition_constant_along_real_rotation():
    # x, y purely real: tau = -1 along the whole real circle
    theta = 0.7
    p = SpherePoint([math.cos(theta), 0, 0, 0], [math.sin(theta), 0, 0, 0])
    u = TangentVector(p, [-math.sin(theta), 0, 0, 0],
                      [math.cos(theta), 0, 0, 0])
    chart = Chart(p, [u])
    h = 1e-5
    tp, tm = (transition_tau(chart.frame_vector(0, (s,)).base)
              for s in (h, -h))
    dtau = (tp - tm) * (1.0 / (2 * h))
    assert qnorm(dtau) < 1e-8


def test_patch_errors():
    p = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    u = TangentVector(p, QK, ZERO)
    with pytest.raises(PatchError):
        pullback(u, "n")


def test_eds_residual_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        p = random_point(rng, 0.35)
        u = random_unit_tangent(rng, p, 0.5)
        v = random_unit_tangent(rng, p, 0.5)
        worst = max(worst, eds_residual(p, u, v, h=1e-4).max())
    assert worst < 1e-6


def test_eds_degenerate_pair():
    rng = np.random.default_rng(8)
    p = random_point(rng, 0.3)
    u = random_unit_tangent(rng, p)
    assert eds_residual(p, u, u, h=1e-4).max() < 1e-12


def test_eds_antisymmetry():
    rng = np.random.default_rng(9)
    p = random_point(rng, 0.3)
    u = random_unit_tangent(rng, p)
    v = random_unit_tangent(rng, p)
    r_uv = eds_residual(p, u, v, h=1e-4)
    r_vu = eds_residual(p, v, u, h=1e-4)
    assert np.allclose(r_uv, r_vu, atol=1e-12)


def test_eds_convergence_order():
    rng = np.random.default_rng(10)
    p = random_point(rng, 0.35)
    u = random_unit_tangent(rng, p, 0.5)
    v = random_unit_tangent(rng, p, 0.5)
    r1 = eds_residual(p, u, v, h=1e-3).max()
    r2 = eds_residual(p, u, v, h=5e-4).max()
    ratio = r1 / r2
    assert 3.5 < ratio < 4.5


def test_eds_step_validation():
    rng = np.random.default_rng(11)
    p = random_point(rng, 0.3)
    u = random_unit_tangent(rng, p)
    with pytest.raises(ValueError):
        eds_residual(p, u, u, h=0.0)


def test_toric_period():
    t = ToricPoint([1, 0, 0, 0], [0.3, 0, 0, 0])
    p0 = toric_embed(t).as_array8()
    p1 = toric_embed(reeb_flow(t, 2 * math.pi)).as_array8()
    assert np.allclose(p0, p1, atol=1e-12)


def test_reeb_alpha_normalization():
    t = ToricPoint([0.5, 0.5, 0.5, 0.5], [0.2, 1.0, 2.5, 4.1])
    assert abs(pullback(reeb_tangent(t)).alpha() - 1.0) < 1e-12


def test_toric_alpha_cross_check():
    # d/dtheta1 at r = (1,0,0,0): alpha = r1^2 = 1 in toric coordinates,
    # and the kappa-based evaluation of the pushforward must agree
    t = ToricPoint([1, 0, 0, 0], [0.9, 0, 0, 0])
    u = toric_tangent(t, (1, 0, 0, 0))
    assert abs(pullback(u).alpha() - 1.0) < 1e-10


def test_toric_tangent_matches_fd():
    t = ToricPoint([0.6, 0.2, 0.5, np.sqrt(1 - 0.36 - 0.04 - 0.25)],
                   [0.3, 1.8, 2.2, 5.1])
    dth = np.array([0.4, -1.2, 0.8, 0.1])
    u = toric_tangent(t, dth)
    h = 1e-6
    pp = toric_embed(ToricPoint(t.r, t.theta + h * dth)).as_array8()
    pm = toric_embed(ToricPoint(t.r, t.theta - h * dth)).as_array8()
    fd = (pp - pm) / (2 * h)
    assert np.allclose(u.as_array8(), fd, atol=1e-8)


def test_point_tangent_projection_and_warnings():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        p = SpherePoint([2, 0, 0, 0], [0, 0, 0, 0])
        assert any("sphere constraint" in str(w.message) for w in rec)
    assert abs(np.linalg.norm(p.as_array8()) - 1) < 1e-14
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        u = TangentVector(p, [1.0, 0, 0, 0], ZERO)
        assert any("tangency" in str(w.message) for w in rec)
    assert abs(p.as_array8() @ u.as_array8()) < 1e-14


def test_point_coordinates_are_quaternion_arrays():
    p = SpherePoint([0.5, 0.5, -0.5, 0.5], ZERO)
    assert p.x.shape == p.y.shape == (4,)
    assert np.array_equal(p.as_array8(), [0.5, 0.5, -0.5, 0.5, 0, 0, 0, 0])
    assert p.x.norm() == qnorm(p.x) == 1.0 and p.y.norm() == 0.0
    u = TangentVector(p, ZERO, QK)
    assert u.dx.shape == u.dy.shape == (4,)
    assert np.array_equal(u.as_array8(), np.r_[ZERO, QK])
