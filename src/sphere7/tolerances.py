"""Package-wide numerical tolerances.

TAU_PATCH  below this modulus a chart coordinate counts as zero
TAU_SPHERE acceptance for the sphere / tangency constraints
TAU_REP    acceptance for representation-level matrix identities
TAU_UNITARY largest unitarity residual a CLI transport may report: above
           every coarse but stable RK4 run of the tests (8.1e-3, m = 2 with
           10 steps), below a 12-step loop lifted to m = 12 (3.6e-2)
"""

TAU_PATCH = 1e-8
TAU_SPHERE = 1e-10
TAU_REP = 1e-10
TAU_UNITARY = 1e-2
