import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (conjugation, expm_gauge, lifted_reference,
                     reference_switch_log, reference_transport, tensor_lift)
from sphere7 import connection
from sphere7.coframe import (Chart, SpherePoint, TangentVector, ToricPoint,
                             _coframe, _pullback, pullback, random_point,
                             random_unit_tangent)
from sphere7.connection import (PathSpec, connection_matrix,
                                curvature_residual, gauge_matrix,
                                parallel_transport)
from sphere7.fock import (GENERATOR_NAMES, build_rho, build_rho_partial, dim,
                          sym_power)
from sphere7.quaternions import (QCONJ, PatchError, qcomplex, qmul,
                                 section_s, transition_tau)
from sphere7.u2h import _vector_matrices, basis_maps, float_image


def test_trivial_level_connection():
    rng = np.random.default_rng(0)
    p = random_point(rng, 0.2)
    u = random_unit_tangent(rng, p)
    a = connection_matrix(u, 1)
    assert a.shape == (1, 1) and np.all(a == 0)


def test_zero_tangent():
    rng = np.random.default_rng(1)
    p = random_point(rng, 0.2)
    z = TangentVector(p, np.zeros(4), np.zeros(4))
    assert np.all(connection_matrix(z, 3) == 0)


def test_exact_antihermitean():
    rng = np.random.default_rng(2)
    for m in (2, 3, 4):
        for _ in range(10):
            p = random_point(rng, 0.15)
            u = random_unit_tangent(rng, p)
            a = connection_matrix(u, m)
            assert np.max(np.abs(a + a.conj().T)) < 1e-10


def test_exact_connection_refuses_another_domain():
    rng = np.random.default_rng(2)
    p = random_point(rng, 0.15)
    u = random_unit_tangent(rng, p)
    assert connection_matrix(u, 2, domain_m=2).shape == (4, 4)
    assert connection_matrix(u, 2, ell=1, domain_m=5).shape == (56, 35)
    with pytest.raises(ValueError, match="level m only"):
        connection_matrix(u, 2, domain_m=5)
    # the truncation takes partial sums through order ell + 1, which must
    # not let ell = -1 through as order 0
    with pytest.raises(ValueError, match="ell must be >= 0"):
        connection_matrix(u, 2, ell=-1)


def test_exact_flatness():
    rng = np.random.default_rng(3)
    for m in (2, 3):
        for _ in range(15):
            p = random_point(rng, 0.35)
            u = random_unit_tangent(rng, p, 0.5)
            v = random_unit_tangent(rng, p, 0.5)
            assert curvature_residual(p, u, v, m, h=1e-4) < 1e-5


def test_flatness_degenerate_pair():
    rng = np.random.default_rng(4)
    p = random_point(rng, 0.3)
    u = random_unit_tangent(rng, p, 0.5)
    assert curvature_residual(p, u, u, 2, h=1e-4) < 1e-10


def test_truncated_flatness_improves_with_ell():
    rng = np.random.default_rng(5)
    p = random_point(rng, 0.35)
    u = random_unit_tangent(rng, p, 0.5)
    v = random_unit_tangent(rng, p, 0.5)
    vals = [curvature_residual(p, u, v, 6, ell=ell, h=1e-4)
            for ell in (0, 2, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_exact_flatness_n_patch():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = random_point(rng, 0.35)
        u = random_unit_tangent(rng, p, 0.5)
        v = random_unit_tangent(rng, p, 0.5)
        assert curvature_residual(p, u, v, 2, h=1e-4, patch="n") < 1e-5


def test_great_circle_loop_closes_without_reprojection():
    p0 = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    path = PathSpec.great_circle_loop(p0, np.array([0, 1., 0, 0, 0, 0, 0, 0]),
                                      steps=500)
    for m in (2, 3, 4):
        res = parallel_transport(path, m)
        assert res.holonomy_distance() < 1e-6


def test_toric_line_transport():
    # a non-Reeb toric path: only two of the four angles advance
    t0 = ToricPoint([0.5, 0.5, 0.5, 0.5], [0.1, 0.6, 1.1, 1.6])
    path = PathSpec.toric_line(t0, (2 * math.pi, 0.0, 2 * math.pi, 0.0),
                               steps=6000)
    res = parallel_transport(path, 2)
    # closed loop on a simply connected space with a flat connection
    assert res.holonomy_distance() < 1e-5
    assert res.unitarity_residual < 1e-8


def _gauge_relation_residual(p, u, m):
    """max |a_n - (g^dagger a_s g + g^dagger dg)| on the tangent u at the
    overlap point p, g = gauge_matrix(m, p) and dg by central differences
    along the chart line of u."""
    g = gauge_matrix(m, p)
    a_s = connection_matrix(u, m, patch="s")
    a_n = connection_matrix(u, m, patch="n")
    chart = Chart(p, [u])
    h = 1e-6
    gp, gm = (gauge_matrix(m, chart.frame_vector(0, (s,)).base)
              for s in (h, -h))
    dg = (gp - gm) / (2 * h)
    return np.max(np.abs(a_n - (g.conj().T @ a_s @ g + g.conj().T @ dg)))


def test_gauge_relation_at_rep_level():
    rng = np.random.default_rng(6)
    m = 2
    for _ in range(5):
        p = random_point(rng, 0.35)
        u = random_unit_tangent(rng, p)
        g = gauge_matrix(m, p)
        assert np.max(np.abs(g.conj().T @ g - np.eye(dim(m)))) < 1e-12
        assert _gauge_relation_residual(p, u, m) < 1e-8


_COORDS = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=8,
                   max_size=8)


@settings(deadline=None, max_examples=30)
@given(_COORDS, _COORDS, st.sampled_from([2, 3, 4]))
def test_gauge_relation_property(p_coords, u_coords, m):
    # the s -> n transition unitary at random overlap points: unitary,
    # commuting with the level's conjugation J, and a_n = g^dagger a_s g +
    # g^dagger dg on a random unit tangent
    p8 = np.array(p_coords)
    assume(np.linalg.norm(p8) > 0.1)
    p8 /= np.linalg.norm(p8)
    assume(min(np.linalg.norm(p8[:4]), np.linalg.norm(p8[4:])) >= 0.35)
    u8 = np.array(u_coords)
    u8 -= (p8 @ u8) * p8
    assume(np.linalg.norm(u8) > 0.1)
    p = SpherePoint.from_array8(p8)
    u = TangentVector.from_array8(p, u8 / np.linalg.norm(u8))
    g = gauge_matrix(m, p)
    assert np.max(np.abs(g.conj().T @ g - np.eye(dim(m)))) < 1e-12
    assert _conjugation_defect(g, m) < 1e-13
    a_s = connection_matrix(u, m, patch="s")
    assert _gauge_relation_residual(p, u, m) < 1e-8 * np.max(np.abs(a_s))


def _alpha_coefficient_probe(u, m1=2, m2=3, ell=0):
    """Extract the deformation-leading scalar of the truncated connection.

    The diagonal entry at the vacuum state is exactly linear in the level,
    <0|A|0> = i alpha(u) (m - 1), so a two-point difference recovers the
    coefficient of the identity block in the hbar^{-1} term; it must equal
    alpha(u).
    """
    a1 = connection_matrix(u, m1, ell=ell)
    a2 = connection_matrix(u, m2, ell=ell)
    val = (a2[0, 0] - a1[0, 0]) / (1j * (m2 - m1))
    return complex(val)


def test_alpha_coefficient_probe():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_point(rng, 0.2)
        u = random_unit_tangent(rng, p)
        val = _alpha_coefficient_probe(u)
        assert abs(val - pullback(u).alpha()) < 1e-10


def test_constant_path_identity():
    p = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    res = parallel_transport(PathSpec.constant(p, steps=10), 2)
    assert res.holonomy_distance() == 0


def test_great_circle_loop_holonomy():
    p0 = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    path = PathSpec.great_circle_loop(p0, np.array([0, 1., 0, 0, 0, 0, 0, 0]),
                                      steps=10_000)
    res = parallel_transport(path, 2)
    assert res.holonomy_distance() < 1e-6
    assert res.unitarity_residual < 1e-8


def test_cross_patch_loop_switches_and_closes():
    p0 = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    path = PathSpec.great_circle_loop(p0, np.array([0, 0, 0, 0, 1., 0, 0, 0]),
                                      steps=10_000)
    res = parallel_transport(path, 2)
    assert len(res.switches) >= 2
    assert res.holonomy_distance() < 1e-6
    assert res.unitarity_residual < 1e-8


def test_norm_preservation():
    rng = np.random.default_rng(8)
    p0 = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    path = PathSpec.great_circle_loop(p0, np.array([0, 1., 1., 0, 0, 0, 0, 0]),
                                      steps=4000)
    res = parallel_transport(path, 3)
    psi = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    assert abs(np.linalg.norm(res.matrix @ psi) / np.linalg.norm(psi) - 1) \
        < 1e-8


def test_transport_composition_and_reversal():
    # composition holds when all legs are integrated in a common frame
    rng = np.random.default_rng(9)
    a = random_point(rng, 0.4)
    b = random_point(rng, 0.4)
    c = random_point(rng, 0.4)
    m = 2
    u_ab = parallel_transport(PathSpec.great_circle(a, b, 4000), m,
                              start_frame="s").matrix
    u_bc = parallel_transport(PathSpec.great_circle(b, c, 4000), m,
                              start_frame="s").matrix
    u_ac2 = parallel_transport(PathSpec.piecewise([a, b, c], 8000), m,
                               start_frame="s").matrix
    assert np.max(np.abs(u_bc @ u_ab - u_ac2)) < 1e-5
    u_ba = parallel_transport(PathSpec.great_circle(b, a, 4000), m,
                              start_frame="s").matrix
    assert np.max(np.abs(u_ba @ u_ab - np.eye(dim(m)))) < 1e-6


def test_two_path_endpoint_independence():
    rng = np.random.default_rng(10)
    a = random_point(rng, 0.4)
    b = random_point(rng, 0.4)
    mid1 = random_point(rng, 0.4)
    mid2 = random_point(rng, 0.4)
    m = 3
    u1 = parallel_transport(PathSpec.piecewise([a, mid1, b], 10_000), m).matrix
    u2 = parallel_transport(PathSpec.piecewise([a, mid2, b], 10_000), m).matrix
    assert np.max(np.abs(u1 - u2)) < 1e-5


def test_rk4_order():
    p0 = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    def loop(steps):
        return PathSpec.great_circle_loop(
            p0, np.array([0, 1., 0, 1., 0, 0, 0, 0]), steps)

    # the per-node RK4 oracle converges to the closed form
    exact = parallel_transport(loop(50), 2).matrix
    e1 = np.max(np.abs(reference_transport(loop(50), 2) - exact))
    e2 = np.max(np.abs(reference_transport(loop(100), 2) - exact))
    assert 10 < e1 / e2 < 25  # fourth order


def test_reeb_transport():
    t = ToricPoint([1, 0, 0, 0], [0, 0, 0, 0])
    assert parallel_transport(PathSpec.reeb_loop(t, 100),
                              1).holonomy_distance() == 0
    t = ToricPoint([0.5, 0.5, 0.5, 0.5], [0.3, 1.0, 2.0, 5.0])
    res = parallel_transport(PathSpec.reeb_loop(t, 10_000), 2)
    assert res.holonomy_distance() < 1e-5
    assert res.unitarity_residual < 1e-8


def test_reeb_rk4_convergence():
    t = ToricPoint([0.5, 0.5, 0.5, 0.5], [0.0, 0.5, 1.5, 2.5])
    exact = parallel_transport(PathSpec.reeb_loop(t, 100), 2).matrix
    e1 = np.max(np.abs(reference_transport(PathSpec.reeb_loop(t, 100), 2)
                       - exact))
    e2 = np.max(np.abs(reference_transport(PathSpec.reeb_loop(t, 200), 2)
                       - exact))
    assert 10 < e1 / e2 < 25


def test_born_probability():
    rng = np.random.default_rng(11)
    m = 2
    d = dim(m)
    a = random_point(rng, 0.4)
    b = random_point(rng, 0.4)
    psi_i = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    res = parallel_transport(PathSpec.great_circle(a, b, 4000), m)
    u_psi = res.matrix @ psi_i
    assert abs(res.probability(psi_i, u_psi) - 1.0) < 1e-10
    # orthogonal final state
    perp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    perp -= (np.vdot(u_psi, perp) / np.vdot(u_psi, u_psi)) * u_psi
    assert res.probability(psi_i, perp) < 1e-10
    # completeness over an orthonormal final basis, from one transport
    coarse = parallel_transport(PathSpec.great_circle(a, b, 1000), m)
    total = sum(coarse.probability(psi_i, e) for e in np.eye(d))
    assert abs(total - 1.0) < 1e-8


def _s_patch_arcs(rng, count):
    """Great-circle arcs whose points all keep |x| > 0.5."""
    while count:
        p, q = random_point(rng), random_point(rng)
        path = PathSpec.great_circle(p, q, 2000)
        x = path.arrays(np.linspace(0, 1, 401))[0][:, :4]
        if np.linalg.norm(x, axis=1).min() > 0.5:
            count -= 1
            yield p, q, path


def test_vacuum_amplitude_has_a_closed_form():
    # on one patch the level-2 vacuum amplitude is h0 - i h3 with the
    # quaternion h = conj(x_q) x_p + conj(y_q) y_p, and level m lifts it to
    # its (m - 1)-th power; no RK4 enters this oracle
    for p, q, path in _s_patch_arcs(np.random.default_rng(17), 3):
        h = qmul(q.x * QCONJ, p.x) + qmul(q.y * QCONJ, p.y)
        vacuum = h[0] - 1j * h[3]
        for m in range(2, 9):
            res = parallel_transport(path, m, start_frame="s")
            assert res.switches == []
            assert abs(res.matrix[0, 0] - vacuum ** (m - 1)) < 1e-10


def test_born_rejects_zero_states():
    p = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    res = parallel_transport(PathSpec.constant(p, steps=10), 2)
    with pytest.raises(ValueError):
        res.probability(np.zeros(4), np.ones(4))


def test_piecewise_rejects_antipodal_knots():
    a = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    b = SpherePoint([-1, 0, 0, 0], [0, 0, 0, 0])
    with pytest.raises(ValueError, match="knots 0 and 1 are antipodal"):
        PathSpec.piecewise([a, b])
    c = SpherePoint([0.6, 0, 0, 0], [0.8, 0, 0, 0])
    d = SpherePoint([-0.6, 0, 0, 0], [-0.8, 0, 0, 0])
    with pytest.raises(ValueError, match="knots 1 and 2 are antipodal"):
        PathSpec.piecewise([a, c, d], steps=101)
    # antipodal but not consecutive is a valid path
    assert PathSpec.piecewise([a, c, b]).label == "piecewise"


def test_transport_step_validation():
    p = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
    with pytest.raises(ValueError):
        parallel_transport(PathSpec.constant(p, steps=1), 2)


@pytest.mark.parametrize("steps", [10, 12, 20, 40, 100])
def test_coarse_loop_through_x_zero(steps):
    # each step's frame is chosen from all three of its nodes, so a node
    # that lands on x = 0 or y = 0 never reaches the wrong chart
    p0 = SpherePoint([0.6, 0.8, 0, 0], [0, 0, 0, 0])
    path = PathSpec.great_circle_loop(p0, [0, 0, 0, 0, 1., 0, 0, 0], steps)
    res = parallel_transport(path, 2)
    assert [sw[1:] for sw in res.switches] == [("s", "n"), ("n", "s"),
                                               ("s", "n"), ("n", "s")]
    assert res.holonomy_distance() < 1e-2


def _gauge_points():
    """Five seeded overlap points, and one where x and y commute, so that
    tau = -1 and its logarithm takes a branch."""
    rng = np.random.default_rng(5)
    return [random_point(rng, 0.35) for _ in range(5)] + [
        SpherePoint([0.6, 0, 0, 0], [0.8, 0, 0, 0])]


def test_gauge_matrix_is_the_exponential_of_the_logarithm():
    # the lift of W c(diag(tau, 1)) W^H / 2 against expm of the level-m
    # generator of diag(log tau, 0)
    points = _gauge_points()
    assert np.allclose(transition_tau(points[-1]), [-1, 0, 0, 0])
    for p in points:
        for m in range(1, 9):
            assert np.max(np.abs(gauge_matrix(m, p) - expm_gauge(m, p))
                          ) < 1e-13


def test_level_2_is_one_conjugation_of_the_vector_matrices():
    # W W^H = 2 I and rho_2(X) = W c(X) W^H / 2 for the ten vector
    # generators X, both without rounding; 2X is _vector_matrices()
    w = connection.W
    assert np.array_equal(w @ w.conj().T, 2 * np.eye(4))
    rep = build_rho(2)
    rows = float_image(basis_maps()[1])
    for row, two_x in zip(rows, _vector_matrices()):
        image = sum(c * rep[g].toarray() for c, g in zip(row, GENERATOR_NAMES))
        assert np.array_equal(image, w @ qcomplex(two_x) @ w.conj().T / 4)


def _coframe_conjugation_residual(w):
    """max |connection_matrix(u, 2, patch) - w c(Omega) w^H / 4| over seeded
    tangents u in both patches, Omega = [[mu, nu], [-nubar, kappa]] the
    coframe on u, the pulled-back 2 g^-1 dg."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        p = random_point(rng, 0.3)
        u = random_unit_tangent(rng, p)
        for patch in ("s", "n"):
            mu, nu, kappa = (r[0] for r in _coframe(
                p.as_array8()[None], u.as_array8()[None], patch))
            omega = np.array([[mu, nu], [-nu * QCONJ, kappa]])
            want = w @ qcomplex(omega) @ w.conj().T / 4
            worst = max(worst, float(np.max(np.abs(
                connection_matrix(u, 2, patch=patch) - want))))
    return worst


def test_level_2_connection_is_the_conjugated_coframe():
    assert _coframe_conjugation_residual(connection.W) < 1e-14


@pytest.mark.parametrize("entry", list(zip(*np.nonzero(connection.W))))
def test_a_sign_flip_in_w_is_caught(monkeypatch, entry):
    # negative control: W with one entry negated breaks the coframe identity,
    # the closed-form gauge and the gauge relation
    w = connection.W.copy()
    w[entry] *= -1
    assert _coframe_conjugation_residual(w) > 0.1
    monkeypatch.setattr(connection, "W", w)
    p = _gauge_points()[0]
    assert np.max(np.abs(gauge_matrix(2, p) - expm_gauge(2, p))) > 0.1
    u = random_unit_tangent(np.random.default_rng(6), p)
    assert _gauge_relation_residual(p, u, 2) > 0.1


def _error_ratio(u, ref, ref2):
    """|u - ref| / |ref - ref2| for the oracle ref in n and ref2 in 2n
    steps: 16/15 when the oracle converges to u at fourth order."""
    return float(np.max(np.abs(u - ref)) / np.max(np.abs(ref - ref2)))


def _switching_loop(steps):
    """A great-circle loop through x = 0 and y = 0: it switches patch four
    times."""
    p0 = SpherePoint([0.6, 0.8, 0, 0], [0, 0, 0, 0])
    return PathSpec.great_circle_loop(p0, [0, 0, 0, 0, 1., 0.5, 0, 0.2],
                                      steps)


def test_tensor_lift_is_an_isometry_and_matches_sym_power():
    rng = np.random.default_rng(31)
    for m in range(1, 6):
        assert np.max(np.abs(tensor_lift(np.eye(4), m)
                             - np.eye(dim(m)))) < 1e-14
        u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u /= np.linalg.norm(u, 2)
        assert np.max(np.abs(sym_power(u, m) - tensor_lift(u, m))) < 1e-14


def _conjugation_defect(u, m):
    """max |U[sigma i, sigma j] - s_i s_j conj(U[i, j])|, J = (sigma, s)
    the conjugation of the level."""
    sigma, sign = conjugation(m)
    return float(np.max(np.abs(u[np.ix_(sigma, sigma)]
                               - np.outer(sign, sign) * u.conj())))


def _unit(*coords):
    return SpherePoint.from_array8(np.array(coords) / np.linalg.norm(coords))


_TORUS = ToricPoint([0.5, 0.5, 0.5, 0.5], [0.3, 1.0, 2.0, 5.0])


def _open_toric_line(n):
    return PathSpec.toric_line(_TORUS, (0.0, 1.0, 2 * math.pi, 0.0), n)


def _open_arc(n):
    return PathSpec.great_circle(_unit(0.8, 0.1, 0, 0, 0.3, 0, 0.2, 0.1),
                                 _unit(0.5, 0, 0.4, 0.3, 0.1, 0.5, 0, 0.2), n)


def _scanned_reference(path, m, frame="s"):
    """The lifted oracle in the path's steps, switching frame where the
    scan of parallel_transport does at that resolution."""
    switches = parallel_transport(path, 2, start_frame=frame).switches
    return lifted_reference(path, m, frame, switches)


# start_frame None: the frame parallel_transport picks, s on these paths
@pytest.mark.parametrize("start_frame", [None])
@pytest.mark.parametrize("make_path, m", [
    (lambda n: PathSpec.reeb_loop(_TORUS, n), 2),
    (lambda n: PathSpec.reeb_loop(_TORUS, n), 3),
    (lambda n: PathSpec.reeb_loop(_TORUS, n), 4),
    (_open_toric_line, 5),
    (lambda n: PathSpec.toric_line(_TORUS, (2 * math.pi, 0.0, 0.0, 1.0), n),
     2),
    (_open_arc, 3),
    (_open_arc, 5),
], ids=["reeb-m2", "reeb-m3", "reeb-m4", "toric-line-m5", "toric-line",
        "great-circle", "great-circle-m5"])
def test_batched_transport_matches_per_node_reference(start_frame, make_path,
                                                      m):
    res = parallel_transport(make_path(150), m, start_frame=start_frame)
    assert res.switches == [] and res.start_frame == "s"
    ref, ref2 = (_scanned_reference(make_path(n), m) for n in (150, 300))
    assert 1.0 < _error_ratio(res.matrix, ref, ref2) < 1.2
    assert _conjugation_defect(res.matrix, m) < 1e-13


@pytest.mark.parametrize("start_frame", [None])
def test_switching_transport_matches_per_node_reference(start_frame):
    # a loop through x = 0 switches patch four times; the oracle switches
    # where the scan does at its resolution; even m are of quaternionic
    # type, odd m of real type
    path = _switching_loop(100)
    for m in (2, 3, 4, 5):
        res = parallel_transport(path, m, start_frame=start_frame)
        assert [sw[1:] for sw in res.switches] == [("s", "n"), ("n", "s"),
                                                   ("s", "n"), ("n", "s")]
        assert res.start_frame == res.to_json()["end_frame"] == "s"
        ref, ref2 = (_scanned_reference(_switching_loop(n), m)
                     for n in (100, 200))
        assert 1.0 < _error_ratio(res.matrix, ref, ref2) < 1.2
        assert _conjugation_defect(res.matrix, m) < 1e-13
        for t, _, _ in res.switches:
            gauge = gauge_matrix(m, path.point(t))
            assert _conjugation_defect(gauge, m) < 1e-13
        again = parallel_transport(path, m)
        assert np.array_equal(again.matrix, res.matrix)


def _scan_paths(seed, steps):
    """Seeded paths of every kind, the loops through x = 0 and y = 0, and
    two great circles whose least |x| is 0.0499 and 0.0501 at t = 1/4."""
    rng = np.random.default_rng(seed)
    p, q, c = (random_point(rng) for _ in range(3))
    r = rng.uniform(0.01, 1.0, 4)
    torus = ToricPoint(r / np.linalg.norm(r), rng.uniform(0, 7, 4))
    paths = [PathSpec.great_circle(p, q, steps),
             PathSpec.great_circle_loop(p, rng.standard_normal(8), steps),
             PathSpec.toric_line(torus, rng.uniform(-7, 7, 4), steps),
             PathSpec.reeb_loop(torus, steps),
             PathSpec.piecewise([p, q, c], steps),
             PathSpec.constant(p, steps), _switching_loop(steps)]
    for at, direction in (((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 0)),
                          ((0, 0, 0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0)),
                          ((1, 0, 0, 0, 0, 0, 0, 0),
                           (0, 0, 0, 0.0499, 1, 0, 0, 0)),
                          ((1, 0, 0, 0, 0, 0, 0, 0),
                           (0, 0, 0, 0.0501, 1, 0, 0, 0))):
        paths.append(PathSpec.great_circle_loop(
            SpherePoint.from_array8(np.array(at, dtype=float)),
            np.array(direction) / np.linalg.norm(direction), steps))
    return paths


@pytest.mark.parametrize("block", [256, 7])
@pytest.mark.parametrize("frame", ["s", "n"])
def test_switch_log_matches_the_per_step_loop(monkeypatch, block, frame):
    # the scan evaluates only the steps near a closed-form crossing, in
    # blocks that at 7 steps split the longer runs; the oracle carries the
    # frame through every step
    monkeypatch.setattr(connection, "_BLOCK_STEPS", block)
    logs = []
    for seed, steps in ((0, 4), (1, 10), (2, 12), (3, 100), (4, 400)):
        for path in _scan_paths(seed, steps):
            log = connection._switch_log(path, frame)
            assert log == reference_switch_log(path, frame)
            logs.append(log)
    # at 4 steps the loop through x = 0 has a node on x = 0 and one on
    # y = 0, and every step switches into a frame singular at a node
    other = "ns"["sn".index(frame)]
    assert logs[7] == [(0.0, frame, other), (0.25, other, frame),
                       (0.5, frame, other), (0.75, other, frame)]
    # at 400 steps t = 1/4 is a node, so the least |x| is read exactly; the
    # n frame leaves y = 0 at once
    below, above = logs[-2:]
    assert len(below) == 4 + (frame == "n") and len(above) == (frame == "n")


_EDGE_STEPS = (2, 3, 5, 16, 999, 3000)


def _edge_paths(steps, swap):
    """Paths at the chart edge, with x and y exchanged when swap: loops and
    an arc whose least |x| is at t = 1/4 or 1/2 (t = 1/2 is a node at every
    step count), chords whose least |x| is at a segment's midpoint, toric
    lines and Reeb loops with |x| fixed, that |x| being the level, 1e-10
    below or above it, half of it or zero; paths in the y-plane; constant
    points below the level."""
    def point(*v):
        v = np.array(v, dtype=float) / np.linalg.norm(v)
        return SpherePoint.from_array8(np.roll(v, 4) if swap else v)

    def torus(*r):
        return ToricPoint(np.roll(r, 2) if swap else r, [0.3, 1.0, 2.0, 5.0])

    paths = []
    for rel in (-1.0, -0.5, -1e-10, 0.0, 1e-10):
        e = connection.PATCH_SWITCH_LEVEL * (1.0 + rel)
        c = math.sqrt(1.0 - e * e)
        mid = point(e, 0, 0, 0, c, 0, 0, 0)
        m8, side = mid.as_array8(), point(0, 1, 0, 0, 0, 0, 0, 0).as_array8()
        ends = [point(*(m8 + h * side)) for h in (-0.5, 0.5)]
        arc = [point(*(math.cos(0.3) * m8 + h * math.sin(0.3) * side))
               for h in (-1, 1)]
        paths += [
            PathSpec.great_circle_loop(mid, side, steps),
            PathSpec.great_circle_loop(point(0.6, 0, 0, 0, 0.8, 0, 0, 0),
                                       point(0, 0, e, 0, 0, 0, 0, c)
                                       .as_array8(), steps),
            PathSpec.great_circle(*arc, steps),
            PathSpec.piecewise(ends, steps),
            PathSpec.piecewise(ends + [point(0.7, 0, 0, 0, 0, 0.7, 0, 0)],
                               steps),
            PathSpec.toric_line(torus(0.6 * e, 0.8 * e, c, 0.0),
                                (1.0, -2.0, 3.0, 0.5), steps),
            PathSpec.reeb_loop(torus(e, 0.0, 0.0, c), steps)]
    y_plane = [point(0, 0, 0, 0, 1, 0, 0, 0), point(0, 0, 0, 0, 0, 1, 0, 0),
               point(0, 0, 0, 0, 0, 0, 0.6, 0.8)]
    return paths + [
        PathSpec.great_circle_loop(y_plane[0], y_plane[1].as_array8(), steps),
        PathSpec.great_circle(y_plane[0], y_plane[2], steps),
        PathSpec.piecewise(y_plane, steps),
        PathSpec.reeb_loop(torus(0.0, 0.0, 0.6, 0.8), steps),
        PathSpec.constant(point(0.01, 0, 0, 0, 1, 0, 0, 0), steps),
        PathSpec.constant(point(0, 0, 0, 0, 1, 0, 0, 0), steps),
        PathSpec.constant(point(connection.PATCH_SWITCH_LEVEL * (1 - 1e-10),
                                0, 0, 0, 1, 0, 0, 0), steps)]


def _edge_mismatches(frame):
    """The chart-edge cases on which the scan and the per-step loop differ."""
    out = []
    for steps in _EDGE_STEPS:
        for swap in (False, True):
            for i, path in enumerate(_edge_paths(steps, swap)):
                log = connection._switch_log(path, frame)
                if log != reference_switch_log(path, frame):
                    out.append((steps, swap, i))
    return out


@pytest.mark.parametrize("block", [256, 7])
@pytest.mark.parametrize("frame", ["s", "n"])
def test_switch_log_matches_the_per_step_loop_at_the_chart_edge(
        monkeypatch, block, frame):
    monkeypatch.setattr(connection, "_BLOCK_STEPS", block)
    assert _edge_mismatches(frame) == []
    # the cases hold runs of candidate steps that 7-step blocks split
    assert any(hi - lo > 7 for steps in _EDGE_STEPS
               for path in _edge_paths(steps, False)
               for runs in connection._step_runs(path) for lo, hi in runs)


@pytest.mark.parametrize("mutant", ["narrowed-level", "no-y-form"])
def test_a_narrowed_crossing_misses_a_switching_step(monkeypatch, mutant):
    # the scan evaluates only the candidate steps, so a crossing set that
    # misses the edge from inside, or reads |x| for |y|, loses switches
    if mutant == "narrowed-level":
        monkeypatch.setattr(connection, "_LEVEL_MARGIN", -1e-9)
    else:
        below = connection._arc_below
        monkeypatch.setattr(connection, "_arc_below",
                            lambda *args: below(*args)[:1] * 2)
    assert _edge_mismatches("s") or _edge_mismatches("n")


def _counted_curve(path):
    """The sizes of the time arrays path.curve is called with from now on."""
    calls, curve = [], path.curve

    def counted(t):
        calls.append(len(t))
        return curve(t)
    path.curve = counted
    return calls


def _dense_loop(seed, steps):
    """The loop of the transport-dense workload: a seeded point with y = 0
    along a seeded direction with x = 0 crosses x = 0 and y = 0 twice
    each."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    return PathSpec.great_circle_loop(
        SpherePoint(x / np.linalg.norm(x), np.zeros(4)),
        np.concatenate([np.zeros(4), rng.standard_normal(4)]), steps)


def test_switch_scan_work_does_not_grow_with_steps():
    # a Reeb loop keeps |x| and |y|, so no node is evaluated at any count
    reeb = PathSpec.reeb_loop(_TORUS, 10**9)
    calls = _counted_curve(reeb)
    assert connection._switch_log(reeb, "s") == [] and calls == []
    assert parallel_transport(reeb, 2).switches == []
    loop = _dense_loop(7, 10**5)
    calls = _counted_curve(loop)
    log = connection._switch_log(loop, "s")
    assert [sw[1:] for sw in log] == [("s", "n"), ("n", "s"), ("s", "n"),
                                      ("n", "s")]
    assert 0 < sum(calls) < 0.05 * (2 * loop.steps + 1)


def test_transport_reads_the_path_once(monkeypatch):
    # the end points come from one curve call at t = 0 and 1, and a Reeb
    # loop has no candidate steps to scan
    reeb = PathSpec.reeb_loop(_TORUS, 2000)
    calls = _counted_curve(reeb)
    parallel_transport(reeb, 2)
    assert calls == [2]
    # on the seed-7 transport-dense loop every other call is the scan's
    loop = _dense_loop(7, 1000)
    calls, scanned, scan = _counted_curve(loop), [], connection._switch_log

    def counted_scan(path, frame):
        before = len(calls)
        log = scan(path, frame)
        scanned.append(len(calls) - before)
        return log
    monkeypatch.setattr(connection, "_switch_log", counted_scan)
    assert len(parallel_transport(loop, 8).switches) == 4
    assert scanned[0] > 0 and len(calls) - sum(scanned) == 1


def test_unknown_start_frame_is_refused():
    p = SpherePoint([0.6, 0, 0, 0], [0.8, 0, 0, 0])
    q = _unit(0.8, 0, 0.1, 0, 0.5, 0.3, 0, 0)
    for path in (PathSpec.great_circle(p, q, 100), _switching_loop(100)):
        for frame in ("x", "", "S", 0):
            with pytest.raises(ValueError, match="None, 's' or 'n'"):
                parallel_transport(path, 2, start_frame=frame)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("swap", [False, True])
def test_an_end_off_the_start_chart_is_expressed_in_the_other_frame(swap, m):
    # p lies in the s chart, q on x = 0 and mid in the overlap, or x and y
    # exchanged: the transport p -> q is the leg p -> mid in the start
    # frame, the gauge into the other frame at mid, and the leg mid -> q in
    # the other frame
    def point(*v):
        return _unit(*(v[4:] + v[:4] if swap else v))

    p = point(0.9, 0.1, 0, 0.2, 0.3, 0, 0.1, 0)
    q = point(0, 0, 0, 0, 0.6, 0, 0.8, 0)
    mid = point(0.5, 0.2, 0.1, 0, 0.4, 0.3, 0.1, 0.2)
    start, end = ("n", "s") if swap else ("s", "n")
    res = parallel_transport(PathSpec.great_circle(p, q, 100), m)
    assert (res.start_frame, res.end_frame) == (start, end)
    assert res.to_json()["end_frame"] == end and len(res.switches) == 1
    first, second = (parallel_transport(PathSpec.great_circle(a, b, 100), m,
                                        start_frame=frame)
                     for a, b, frame in ((p, mid, start), (mid, q, end)))
    assert (first.end_frame, second.end_frame) == (start, end)
    gauge = gauge_matrix(m, mid)
    into, back = (gauge, gauge.conj().T) if swap else (gauge.conj().T, gauge)
    assert np.max(np.abs(second.matrix @ into @ first.matrix
                         - res.matrix)) < 1e-14
    # the gauge turned the other way misses
    assert np.max(np.abs(second.matrix @ back @ first.matrix
                         - res.matrix)) > 0.1


def test_a_start_frame_whose_chart_misses_the_start_is_refused():
    # the start frame's section is read at the start, so a pinned frame
    # must hold it
    mid = _unit(0.8, 0, 0.1, 0, 0.5, 0.3, 0, 0)
    for frame, start in (("s", _unit(0, 0, 0, 0, 0.6, 0, 0.8, 0)),
                         ("n", _unit(0.6, 0, 0.8, 0, 0, 0, 0, 0))):
        with pytest.raises(PatchError, match=f"0 on the {frame} patch"):
            parallel_transport(PathSpec.great_circle(start, mid, 100), 2,
                               start_frame=frame)


def test_transport_lifts_once(monkeypatch):
    # the drift is read at level 2, so it does not depend on m, and the
    # level-m matrix is the one lift of the level-2 transport
    path = _open_arc(150)
    drift = parallel_transport(path, 2).unitarity_residual
    assert drift > 0
    calls = []

    def counted(u, m):
        calls.append(m)
        return sym_power(u, m)

    monkeypatch.setattr(connection, "sym_power", counted)
    assert parallel_transport(path, 8).unitarity_residual == drift
    assert calls == [8]


def _flipped_section_s(p):
    g = section_s(p)
    g[0, 0] *= -1
    return g


_RHO2 = connection._rho2


@pytest.mark.parametrize("attr, mutant", [
    ("_rho2", lambda g: _RHO2(g).conj().T),
    ("section_s", _flipped_section_s),
], ids=["reversed-order", "section-sign"])
@pytest.mark.parametrize("make_path, m", [(_open_toric_line, 5),
                                          (_open_arc, 3)],
                         ids=["toric-line-m5", "great-circle"])
def test_a_wrong_closed_form_fails_the_ratio_test(monkeypatch, attr, mutant,
                                                  make_path, m):
    # negative control: rho_2(s(q)) rho_2(s(p))^H, the product in reversed
    # order, or a section with one sign flipped is caught by the oracle
    monkeypatch.setattr(connection, attr, mutant)
    res = parallel_transport(make_path(150), m)
    ref, ref2 = (_scanned_reference(make_path(n), m) for n in (150, 300))
    assert not 1.0 < _error_ratio(res.matrix, ref, ref2) < 1.2


@settings(deadline=None, max_examples=25)
@given(_COORDS, _COORDS, st.floats(0.0, 1.0), st.sampled_from([0, 4]),
       st.sampled_from([2, 3, 4, 5]))
# the scan switches at t = 0.525 in 40 steps and at 0.5375 in 80
@example(a=[0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.5, 0.375],
         c=[0.0, 0.0, 0.1875, 0.0, 0.5, 0.0, 0.5, 0.5], squeeze=0.03125,
         part=4, m=2)
def test_random_arc_transport_matches_per_node_reference(a, c, squeeze, part,
                                                         m):
    # the arc from a to its mirror b through c passes c at its midpoint;
    # c's x (part 0) or y (part 4) is scaled by `squeeze`, so small values
    # take the arc below PATCH_SWITCH_LEVEL and the transport switches
    a, c = np.array(a), np.array(c)
    c[part:part + 4] *= squeeze
    assume(min(np.linalg.norm(a), np.linalg.norm(c)) > 0.1)
    a, c = a / np.linalg.norm(a), c / np.linalg.norm(c)
    c *= np.sign(a @ c)
    assume(0.1 < a @ c < 0.99)
    b = 2 * (a @ c) * c - a
    assume(min(np.linalg.norm(v[i:i + 4]) for v in (a, b) for i in (0, 4))
           > 0.05)
    a, b = SpherePoint.from_array8(a), SpherePoint.from_array8(b)
    res = parallel_transport(PathSpec.great_circle(a, b, 40), m)
    # both references switch where the 40-step scan does: a switch moved by
    # the finer scan changes the oracle's RK4 error by more than a factor of
    # 16, and ref - ref2 then no longer estimates the error of ref
    ref, ref2 = (lifted_reference(PathSpec.great_circle(a, b, n), m,
                                  res.start_frame, res.switches)
                 for n in (40, 80))
    # 40 steps can leave RK4's stability region on a fast arc, and the
    # lifted oracle then grows with m; the bounds hold relative to its size
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert (np.max(np.abs(res.matrix - ref))
            <= 2 * np.max(np.abs(ref - ref2)) + 1e-13 * scale)
    assert _conjugation_defect(res.matrix, m) < 1e-13 * scale


def _dense_assembly(u, rep, patch="s"):
    rows = np.stack([rep[g].toarray().ravel() for g in GENERATOR_NAMES])
    shape = rep[GENERATOR_NAMES[0]].shape
    c = _pullback(u.base.as_array8()[None], u.as_array8()[None], patch)[0]
    return (c @ rows).reshape(shape)


@pytest.mark.parametrize("m", range(1, 7))
def test_pattern_storage_matches_dense_assembly(m):
    rng = np.random.default_rng(40 + m)
    ell = 2
    for _ in range(3):
        p = random_point(rng, 0.3)
        u = random_unit_tangent(rng, p)
        for patch in ("s", "n"):
            assert np.max(np.abs(connection_matrix(u, m, patch=patch)
                                 - _dense_assembly(u, build_rho(m), patch))
                          ) <= 1e-15
        for dom in (m, m + 1):
            got = connection_matrix(u, m, ell, domain_m=dom)
            want = _dense_assembly(u, build_rho_partial(m, ell + 1,
                                                        domain_m=dom))
            assert np.max(np.abs(got - want)) <= 1e-15


def test_vacuum_entry_is_a_power_of_the_level_2_one():
    # the vacuum is Sym^(m-1) of level-2 index 0, so its amplitude is
    # U_2[0, 0]^(m-1) on any path
    path = PathSpec.great_circle(_unit(0.8, 0.1, 0, 0, 0.3, 0, 0.2, 0.1),
                                 _unit(0.5, 0, 0.4, 0.3, 0.1, 0.5, 0, 0.2),
                                 400)
    u00 = parallel_transport(path, 2).matrix[0, 0]
    assert abs(u00) < 0.99
    for m in range(1, 9):
        vac = parallel_transport(path, m).matrix[0, 0]
        assert abs(vac - u00 ** (m - 1)) < 1e-14


def _point(coords):
    p8 = np.array(coords)
    assume(min(np.linalg.norm(p8[:4]), np.linalg.norm(p8[4:])) > 0.1)
    return SpherePoint.from_array8(p8 / np.linalg.norm(p8))


@settings(deadline=None, max_examples=20)
@given(_COORDS, _COORDS, _COORDS, st.integers(3, 6))
def test_transport_composition_property(a, b, c, m):
    # in the s frame at every end, U(b -> c) U(a -> b) = U(a -> c): the
    # connection is flat and the sphere simply connected.  Arcs that come
    # near x = 0 or y = 0 switch patch on the way; the legs' change from 500
    # to 1000 steps adds to the bound on the composition defect
    a, b, c = _point(a), _point(b), _point(c)
    for p, q in ((a, b), (b, c), (a, c)):
        assume(-0.9 < p.as_array8() @ q.as_array8() < 0.999)

    def transport(p, q):
        coarse, fine = (parallel_transport(PathSpec.great_circle(p, q, n), m,
                                           start_frame="s").matrix
                        for n in (500, 1000))
        return fine, float(np.max(np.abs(coarse - fine)))

    (ab, e_ab), (bc, e_bc), (ac, e_ac) = (transport(*leg) for leg in
                                          ((a, b), (b, c), (a, c)))
    assert np.max(np.abs(bc @ ab - ac)) < 1e-12 + e_ab + e_bc + e_ac


@pytest.mark.parametrize("m", [3, 4, 5])
def test_lift_is_within_the_level_m_rk4_error(m):
    # the level-m oracle on the switching loop is off from the closed form
    # by about |ref(n) - ref(2n)| (fourth order), so they agree within
    # twice that estimate
    coarse, fine = _switching_loop(100), _switching_loop(200)
    res = parallel_transport(coarse, m)
    ref = reference_transport(coarse, m, switches=res.switches)
    ref2 = reference_transport(
        fine, m, switches=parallel_transport(fine, 2).switches)
    estimate = float(np.max(np.abs(ref - ref2)))
    assert 0 < np.max(np.abs(res.matrix - ref)) < 2 * estimate
