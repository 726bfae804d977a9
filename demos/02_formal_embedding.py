"""Tour of the oscillator realization: square-root series and bracket closure.

Builds the ten formal generators at a few truncation orders, shows which of
the 45 brackets close exactly at every order, and how the residual grade of
the remaining ones climbs with the truncation.  The commutative Poisson
mirror produces the identical residual table.
"""

from sphere7 import verify_classical, verify_embedding
from sphere7.weyl import embedded_generators, sqrt_coefficient

print("== square-root series coefficients ==")
print("b_k for k = 0..5:", [str(sqrt_coefficient(k)) for k in range(6)])
gens = embedded_generators(2)
# K++ = -2i S_2 a, so its grades are those of S_2
print(f"S_2 carries grades {sorted(gens['K++'].grades)} in the half-integer "
      "counting")

print("\n== the ten generators at truncation 2 ==")
for name in ("K+-", "K++", "P+-"):
    lau = gens[name]
    grades = sorted(lau.grades)
    lead = lau.coefficient(grades[0])
    print(f"{name}: grades {grades}, leading coefficient {lead!r}")

print("\n== bracket closure report ==")
for ell in (0, 1, 2, 3):
    rep = verify_embedding(ell)
    exact = sum(1 for v in rep.values() if v["exact"])
    finite = sorted({v["residual_min_grade"] for v in rep.values()
                     if v["residual_min_grade"] is not None})
    print(f"ell={ell}: {exact}/45 exact, residual grades of the rest: "
          f"{finite}")

print("\nthe nine stubborn pairs (square roots meet square roots):")
rep = verify_embedding(2)
for key, v in sorted(rep.items()):
    if v["residual_min_grade"] is not None:
        print(f"  [{v['pair'][0]}, {v['pair'][1]}] "
              f"first fails at grade {v['residual_min_grade']}")

print("\n== the classical mirror ==")
for ell in (0, 1, 2):
    cl = verify_classical(ell)
    qu = verify_embedding(ell)
    same = all(cl[k]["residual_min_grade"] == qu[k]["residual_min_grade"]
               for k in cl)
    print(f"ell={ell}: classical and quantum residual tables "
          f"{'identical' if same else 'DIFFER'}")
