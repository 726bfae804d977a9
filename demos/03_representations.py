"""Tour of the truncated Fock representations and their convergence story.

Exact level-m matrices (dimension binom(m+2,3)) pass the bracket, reality,
spectrum and irreducibility battery; the partial-sum operators converge to
them fast on interior states and only like 1/sqrt(ell) on boundary states.
"""

import numpy as np

from sphere7 import (build_rho, build_rho_partial, casimir_deviation,
                     commutant_dimension, dim, k_spectrum,
                     matrix_of_laurent, partial_sum_distance, verify_brackets,
                     verify_reality)
from sphere7.fock import expected_k_spectrum, full_convergence_ell
from sphere7.weyl import embedded_generators

print("== dimensions and verification battery ==")
print("m :", list(range(1, 9)))
print("D :", [dim(m) for m in range(1, 9)])
for m in (1, 2, 4, 6):
    rep = build_rho(m)
    br, _ = verify_brackets(rep)
    print(f"m={m}: bracket {br:.1e}, reality {verify_reality(rep):.1e}, "
          f"commutant dim {commutant_dimension(rep)}, "
          f"casimir deviation {casimir_deviation(rep):.1e}")

print("\n== the compact-direction spectrum is exactly integer ==")
m = 3
spec = k_spectrum(build_rho(m))
print(f"m=3 spectrum of -i rho(K_+.-.): {np.round(spec, 12)}")
print(f"expected multiset:              {expected_k_spectrum(m)}")

print("\n== partial sums converge to the exact matrices ==")
m = 2
for ell in (0, 2, 8, 32):
    full = partial_sum_distance(m, ell)
    interior = partial_sum_distance(m, ell, block="interior")
    print(f"ell={ell:3d}: sup distance {full:.3e}   interior block "
          f"{interior:.3e}")
print("boundary columns keep the full distance large: first below 1e-3 at")
print(f"ell = {full_convergence_ell(2, 1e-3)} (the tail decays ~ 1/sqrt(ell))")

print("\n== symbolic generators evaluate to the same operators ==")
worst = 0.0
part = build_rho_partial(2, 3)
for name, mat in matrix_of_laurent(embedded_generators(3), 2, 2, 3).items():
    worst = max(worst, np.max(np.abs(mat - part[name].toarray())))
print(f"max entrywise gap between the two constructions: {worst:.2e}")
