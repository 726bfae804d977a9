"""Package-wide numerical tolerances.

TAU_PATCH  below this modulus a chart coordinate counts as zero: a section
           and the coframe refuse it, and a transport ends in the other
           frame
TAU_SPHERE acceptance for the sphere / tangency constraints
TAU_REP    acceptance for representation-level matrix identities
"""

TAU_PATCH = 1e-8
TAU_SPHERE = 1e-10
TAU_REP = 1e-10
