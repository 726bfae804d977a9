"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a PASS line on success (run with -s or -v to see them);
tolerances are pinned here, not configured elsewhere.  Random sampling uses
fixed seeds, half-unit tangents and patch margin 0.35 (both chart coordinates
bounded away from zero) so the second-order finite-difference constants sit
well inside the absolute thresholds.
"""

import re
import time

import numpy as np

from oracles import reference_transport
from sphere7 import classical, coframe, fock, u2h, weyl
from sphere7.cli import main as cli_main
from sphere7.connection import (PathSpec, curvature_residual,
                                parallel_transport)


def _ok(label, detail=""):
    print(f"PASS {label}: {detail}")


# 1 ------------------------------------------------------------------
def test_criterion_1_structure_constants():
    t0 = time.time()
    worst, _ = u2h.verify_jacobi("spinor")
    assert worst == 0
    worst_v, _ = u2h.verify_jacobi("vector")
    assert worst_v == 0
    assert u2h.cross_basis_residual() == 0
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok("criterion 1 (structure constants)",
        f"jacobi exact, cross-basis exact, {elapsed:.2f}s")


# 2 ------------------------------------------------------------------
def test_criterion_2_formal_embedding():
    grades = {}
    t6 = None
    for ell in range(0, 7):
        t0 = time.time()
        rep = weyl.verify_embedding(ell, gradecap=16)
        if ell == 6:
            t6 = time.time() - t0
        assert len(rep) == 45
        for key, entry in rep.items():
            x, y = entry["pair"]
            if x.startswith("J") or y.startswith("J") or "K+-" in (x, y):
                assert entry["exact"], f"ell={ell} pair {key} not exact"
        grades[ell] = {k: v["residual_min_grade"] for k, v in rep.items()
                       if not (k.split("|")[0].startswith("J")
                               or k.split("|")[1].startswith("J")
                               or "K+-" in k.split("|"))}
    for ell in range(1, 7):
        for k, g in grades[ell].items():
            gp = grades[ell - 1][k]
            if g is not None and gp is not None:
                assert g >= gp
    for ell in range(2, 7):
        for k, g in grades[ell].items():
            gp = grades[ell - 2][k]
            if gp is None:
                continue  # already beyond the cap two orders ago
            assert g is None or g >= gp + 2, (ell, k, g, gp)
    assert t6 < 120.0
    _ok("criterion 2 (formal embedding)",
        f"ell 0..6 at cap 16, ell=6 in {t6:.1f}s")


# 3 ------------------------------------------------------------------
def test_criterion_3_classical_quantum_agreement():
    for ell in range(0, 5):
        cl = classical.verify_classical(ell)
        qu = weyl.verify_embedding(ell)
        tc = {k: v["residual_min_grade"] for k, v in cl.items()}
        tq = {k: v["residual_min_grade"] for k, v in qu.items()}
        assert tc == tq, f"tables differ at ell={ell}"
    _ok("criterion 3 (classical/quantum agreement)", "ell <= 4 identical")


# 4 ------------------------------------------------------------------
def test_criterion_4_representations():
    t0 = time.time()
    dims = []
    for m in range(1, 9):
        rep = fock.build_rho(m)
        dims.append(fock.dim(m))
        br, pair = fock.verify_brackets(rep)
        assert br < 1e-10, (m, pair)
        assert fock.verify_reality(rep) < 1e-10
        assert fock.verify_traceless(rep) < 1e-10
        assert np.allclose(fock.k_spectrum(rep), fock.expected_k_spectrum(m),
                           atol=1e-12)
        assert fock.commutant_dimension(rep) == 1
        assert fock.casimir_deviation(rep) < 1e-8
    assert dims == [1, 4, 10, 20, 35, 56, 84, 120]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _ok("criterion 4 (representations)", f"m=1..8 in {elapsed:.1f}s")


# 5 ------------------------------------------------------------------
def test_criterion_5_partial_sum_convergence():
    for m in range(2, 5):
        prev = np.inf
        for ell in range(0, 65):
            d = fock.partial_sum_distance(m, ell)
            assert d <= prev + 1e-15
            prev = d
    interior = fock.partial_sum_distance(2, 40, block="interior")
    assert interior < 1e-6
    # boundary columns decay only like 1/sqrt(ell): still order 0.3 at ell=64
    slow = fock.partial_sum_distance(2, 64)
    assert slow > 0.1
    _ok("criterion 5 (partial-sum convergence)",
        f"nonincreasing m<=4; interior(m=2, ell=40)={interior:.2e}; "
        f"boundary(m=2, ell=64)={slow:.2f} (slow decay documented)")


# 6 ------------------------------------------------------------------
def test_criterion_6_commuting_diagram():
    worst = 0.0
    for m in (1, 2, 3):
        for ell in range(0, 5):
            gens = weyl.embedded_generators(ell)
            part = fock.build_rho_partial(m, ell)
            for name, mat in fock.matrix_of_laurent(gens, m, m,
                                                    m + 1).items():
                worst = max(worst, float(np.max(np.abs(mat - part[name]))))
    assert worst < 1e-12
    _ok("criterion 6 (commuting diagram)", f"max deviation {worst:.2e}")


# 7 ------------------------------------------------------------------
def test_criterion_7_exterior_system():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        p = coframe.random_point(rng, min_patch=0.35)
        u = coframe.random_unit_tangent(rng, p, length=0.5)
        v = coframe.random_unit_tangent(rng, p, length=0.5)
        worst = max(worst, float(coframe.eds_residual(p, u, v, h=1e-4).max()))
    assert worst < 1e-6
    p = coframe.random_point(rng, min_patch=0.35)
    u = coframe.random_unit_tangent(rng, p, length=0.5)
    v = coframe.random_unit_tangent(rng, p, length=0.5)
    r1 = float(coframe.eds_residual(p, u, v, h=1e-3).max())
    r2 = float(coframe.eds_residual(p, u, v, h=5e-4).max())
    order = float(np.log2(r1 / r2))
    assert 1.8 <= order <= 2.2
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _ok("criterion 7 (exterior system)",
        f"max residual {worst:.2e}, order {order:.3f}, {elapsed:.1f}s")


# 8 ------------------------------------------------------------------
def test_criterion_8_flatness():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for m in (2, 3, 4):
        for _ in range(50):
            p = coframe.random_point(rng, min_patch=0.35)
            u = coframe.random_unit_tangent(rng, p, 0.5)
            v = coframe.random_unit_tangent(rng, p, 0.5)
            worst = max(worst, curvature_residual(p, u, v, m, h=1e-4))
    assert worst < 1e-5
    means = []
    samples = []
    for _ in range(3):
        p = coframe.random_point(rng, min_patch=0.35)
        samples.append((p, coframe.random_unit_tangent(rng, p, 0.5),
                        coframe.random_unit_tangent(rng, p, 0.5)))
    for ell in (0, 2, 4, 8):
        vals = [curvature_residual(p, u, v, 16, ell=ell, h=1e-4)
                for (p, u, v) in samples]
        means.append(float(np.mean(vals)))
    assert means[0] > means[1] > means[2] > means[3]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok("criterion 8 (flatness)",
        f"exact max {worst:.2e}; truncated m=16 means "
        + "->".join(f"{v:.3f}" for v in means) + f"; {elapsed:.1f}s")


# 9 ------------------------------------------------------------------
def _oracle(path, m):
    """The per-node RK4 oracle in the s frame, switching where the
    transport's scan does."""
    switches = parallel_transport(path, m, start_frame="s").switches
    return reference_transport(path, m, "s", switches)


def test_criterion_9_quantum_dynamics():
    # the closed-form transport closes loops and agrees on two paths by
    # construction, so each check is also made on the RK4 oracle, which
    # integrates the Schroedinger equation U' = -A U, at 2000 steps
    t0 = time.time()
    rng = np.random.default_rng(5)
    for m in (2, 3):
        p0 = coframe.SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
        loop = PathSpec.great_circle_loop(
            p0, np.array([0, 1.0, 0, 0, 0, 0.5, 0, 0]), 10_000)
        res = parallel_transport(loop, m)
        assert res.holonomy_distance() < 1e-5
        assert res.unitarity_residual < 1e-8
        tor = coframe.ToricPoint([0.5, 0.5, 0.5, 0.5], [0.2, 1.2, 2.2, 3.2])
        res = parallel_transport(PathSpec.reeb_loop(tor, 10_000), m)
        assert res.holonomy_distance() < 1e-5
        assert res.unitarity_residual < 1e-8
        eye = np.eye(fock.dim(m))
        for path in (PathSpec.great_circle_loop(
                p0, np.array([0, 1.0, 0, 0, 0, 0.5, 0, 0]), 2000),
                     PathSpec.reeb_loop(tor, 2000)):
            u = _oracle(path, m)
            assert float(np.max(np.abs(u - eye))) < 1e-5
            assert float(np.max(np.abs(u.conj().T @ u - eye))) < 1e-8
    a = coframe.random_point(rng, 0.4)
    b = coframe.random_point(rng, 0.4)
    mid1 = coframe.random_point(rng, 0.4)
    mid2 = coframe.random_point(rng, 0.4)
    m = 3
    u1 = parallel_transport(PathSpec.piecewise([a, mid1, b], 10_000), m,
                            start_frame="s").matrix
    u2 = parallel_transport(PathSpec.piecewise([a, mid2, b], 10_000), m,
                            start_frame="s").matrix
    assert float(np.max(np.abs(u1 - u2))) < 1e-5
    u1, u2 = (_oracle(PathSpec.piecewise([a, mid, b], 2000), m)
              for mid in (mid1, mid2))
    assert float(np.max(np.abs(u1 - u2))) < 1e-5
    d = fock.dim(m)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    res = parallel_transport(PathSpec.piecewise([a, mid1, b], 2000), m)
    total = sum(res.probability(psi, e) for e in np.eye(d))
    assert abs(total - 1.0) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok("criterion 9 (quantum dynamics)",
        f"holonomy/unitarity/two-path/Born all within tolerance, "
        f"{elapsed:.1f}s")


# 10 -----------------------------------------------------------------
def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "rep"

    def run_and_read():
        code = cli_main(["eds-check", "--samples", "20", "--seed", "17",
                         "--out", str(out)])
        assert code == 0
        text = (out / "eds.json").read_text()
        return re.sub(r'"generated_at": "[^"]*"', "", text)

    first = run_and_read()
    second = run_and_read()
    assert first == second
    _ok("criterion 10 (determinism)", "byte-identical modulo timestamp")
