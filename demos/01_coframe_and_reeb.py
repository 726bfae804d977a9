"""Tour of the homogeneous geometry: sections, coframe, identities, Reeb flow.

Walks one point of the seven-sphere through both group sections, evaluates
the pulled-back coframe on random tangents, checks the first-order identity
system by finite differences, and follows a Reeb orbit around its period.
"""

import numpy as np

from sphere7 import (ToricPoint, eds_residual, pullback, reeb_flow,
                     reeb_tangent, section_n, section_s, toric_embed,
                     transition_tau)
from sphere7.coframe import random_point, random_unit_tangent
from sphere7.quaternions import qdagger, qmatmul, qnorm

rng = np.random.default_rng(0)

print("== group sections ==")
p = random_point(rng, min_patch=0.3)
gs, gn = section_s(p), section_n(p)
tau = transition_tau(p)
# quaternions are arrays with the components on the last axis, and the
# sections are (2, 2, 4) arrays of quaternionic 2x2 matrices
one = np.eye(2)[:, :, None] * [1.0, 0.0, 0.0, 0.0]
print(f"point: {p}")
print(f"unitarity defects: s-patch "
      f"{np.max(qnorm(qmatmul(qdagger(gs), gs) - one)):.2e}, "
      f"n-patch {np.max(qnorm(qmatmul(qdagger(gn), gn) - one)):.2e}")
h = one.copy()
h[0, 0] = tau
rel = np.max(qnorm(gn - qmatmul(gs, h)))
print(f"section transition g_n = g_s diag(tau,1): residual {rel:.2e}, "
      f"|tau| - 1 = {abs(qnorm(tau) - 1):.2e}")

print("\n== coframe on tangents ==")
u = random_unit_tangent(rng, p)
cs, cn = pullback(u, "s"), pullback(u, "n")
print(f"kappa (global):  s-patch {np.round(cs.kappa, 6)}")
print(f"                 n-patch {np.round(cn.kappa, 6)}")
print(f"contact form alpha(u) = {cs.alpha():+.6f} "
      f"(= 2 kappa^(+.-.) = {2*cs.kappa_dd()['+-']:+.6f})")
print(f"purely imaginary check: Re mu = {cs.mu_real:.2e}, "
      f"Re kappa = {cs.kappa_real:.2e}")

print("\n== the ten first-order identities ==")
worst = 0.0
for _ in range(25):
    q = random_point(rng, min_patch=0.35)
    a = random_unit_tangent(rng, q, 0.5)
    b = random_unit_tangent(rng, q, 0.5)
    worst = max(worst, eds_residual(q, a, b, h=1e-4).max())
print(f"max residual over 25 random samples (h = 1e-4): {worst:.3e}")
q = random_point(rng, min_patch=0.35)
a = random_unit_tangent(rng, q, 0.5)
b = random_unit_tangent(rng, q, 0.5)
r1 = eds_residual(q, a, b, h=1e-3).max()
r2 = eds_residual(q, a, b, h=5e-4).max()
print(f"halving the step drops the residual by {r1/r2:.3f} (second order)")

print("\n== Reeb dynamics in toric coordinates ==")
t = ToricPoint([0.5, 0.5, 0.5, 0.5], [0.3, 1.1, 2.2, 4.0])
r = reeb_tangent(t)
print(f"alpha(Reeb) = {pullback(r).alpha():.12f}  (normalized to 1)")
p0 = toric_embed(t).as_array8()
for frac in (0.25, 0.5, 1.0):
    pt = toric_embed(reeb_flow(t, 2 * np.pi * frac)).as_array8()
    print(f"after {frac:4.2f} of a period, distance from start "
          f"{np.linalg.norm(pt - p0):.3e}")
