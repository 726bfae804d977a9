"""Tour of quantum dynamics: flat transport, holonomy, Born probabilities.

The exact connection is flat and the sphere is simply connected, so loops
transport to the identity and transports between fixed endpoints do not
depend on the path.  Probabilities follow from the transport unitary.
"""

import numpy as np

from sphere7 import (PathSpec, SpherePoint, ToricPoint, curvature_residual,
                     parallel_transport)
from sphere7.coframe import random_point, random_unit_tangent

rng = np.random.default_rng(1)

print("== flatness of the exact connection ==")
for m in (2, 3):
    worst = 0.0
    for _ in range(10):
        p = random_point(rng, 0.35)
        u = random_unit_tangent(rng, p, 0.5)
        v = random_unit_tangent(rng, p, 0.5)
        worst = max(worst, curvature_residual(p, u, v, m, h=1e-4))
    print(f"m={m}: max curvature residual over 10 samples {worst:.2e}")

print("\n== loops have trivial holonomy ==")
p0 = SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])
loop = PathSpec.great_circle_loop(p0, np.array([0, 1., 0, 0, 0, 0, 0, 0]),
                                  8000)
res = parallel_transport(loop, 2)
print(f"great circle (one patch):  |U - Id| = {res.holonomy_distance():.2e}, "
      f"unitarity drift {res.unitarity_residual:.2e}")
loop2 = PathSpec.great_circle_loop(p0, np.array([0, 0, 0, 0, 1., 0, 0, 0]),
                                   8000)
res2 = parallel_transport(loop2, 2)
print(f"great circle (two patches): |U - Id| = {res2.holonomy_distance():.2e}"
      f", {len(res2.switches)} frame switches along the way")
tor = ToricPoint([0.5, 0.5, 0.5, 0.5], [0.3, 1.0, 2.0, 3.0])
res3 = parallel_transport(PathSpec.reeb_loop(tor, 8000), 2)
print(f"Reeb orbit, one period:     |U - Id| = {res3.holonomy_distance():.2e}")

print("\n== path independence between fixed endpoints ==")
a, b = random_point(rng, 0.4), random_point(rng, 0.4)
mid1, mid2 = random_point(rng, 0.4), random_point(rng, 0.4)
u1 = parallel_transport(PathSpec.piecewise([a, mid1, b], 6000), 2,
                        start_frame="s").matrix
u2 = parallel_transport(PathSpec.piecewise([a, mid2, b], 6000), 2,
                        start_frame="s").matrix
print(f"two different paths a -> b: transport gap {np.max(np.abs(u1-u2)):.2e}")

print("\n== Born probabilities ==")
m = 2
d = 4
psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
res = parallel_transport(PathSpec.great_circle(a, b, 2000), m)
probs = [res.probability(psi, e) for e in np.eye(d)]
print("outcome distribution over the occupation basis:",
      np.round(probs, 6))
print(f"total probability: {sum(probs):.12f}")
