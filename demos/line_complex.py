"""The quadratic line complex, decided by exact linear algebra.

Lines tangent to a fixed smooth quadric are cut out on the Grassmannian
by the second compound of the quadric's bilinear form.  Everything the
construction needs -- where that complex is singular, how its resolution's
exceptional divisor sits in the Picard group, and which quadrics contain
G(2,6) -- reduces to ranks and vanishing of exact rational forms.
"""

import random
from math import comb

from spincalc import (plucker_quadric_rank, second_compound, solve_in_basis,
                      symmetric_form, tangency)
from spincalc.linecomplex import (build_sample, complex_point_samples,
                                  discriminant_tangency, is_singular_point,
                                  random_symmetric_form_of_rank,
                                  tangency_samples, transform_bivector,
                                  random_invertible_matrix)

rng = random.Random(1729)

print("compound rank law: rank of the 2x2-minor form is C(rank, 2)")
for r in range(6):
    q = random_symmetric_form_of_rank(rng, 5, r)
    c = second_compound(q)
    print(f"  rank {r} form -> compound rank {c.rank()} = C({r},2) "
          f"= {comb(r, 2)}")

print()
print("tangency predicate vs the binary-discriminant oracle "
      "(200 random lines):")
agree = 0
for q, u, v in map(build_sample, tangency_samples(rng, count=200)):
    agree += tangency(q, u, v) == discriminant_tangency(q, u, v)
print(f"  agreement {agree}/200")

print()
print("singular points of the complex are exactly the lines inside the "
      "quadric (200 samples):")
agree = 0
for q, u, v, inside in map(build_sample,
                           complex_point_samples(rng, count=200)):
    agree += is_singular_point(q, u, v) == inside == (q.quadratic(v) == 0)
print(f"  agreement {agree}/200")

print()
print("the exceptional divisor of the resolved complex:")
coeffs = solve_in_basis([[1, 0], [0, 1]], [2, -2])
print(f"  pairings (2, -2) against the point-pencil and line-family "
      f"curves solve to E = {coeffs[0]}H + ({coeffs[1]})B")

print()
print("rank trichotomy of quadrics through G(2,6):")
shapes = [("decomposable", {(0, 1): 1}),
          ("wedge-rank two", {(0, 1): 1, (2, 3): 1}),
          ("wedge-rank three", {(0, 1): 1, (2, 3): 1, (4, 5): 1})]
for label, psi in shapes:
    base = plucker_quadric_rank(psi)
    m = random_invertible_matrix(rng, 6)
    conj = plucker_quadric_rank(transform_bivector(m, psi))
    print(f"  {label:>16}: rank {base} (random basis change: {conj})")

print()
q = symmetric_form([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, -1, 0, 0],
                    [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]])
print("a rank-3 example by hand: diag(1,1,-1,0,0), base point e1+e3")
print(f"  line to e2 tangent?  {tangency(q, [1, 0, 1, 0, 0], [0, 1, 0, 0, 0])}")
print(f"  line to e1 tangent?  {tangency(q, [1, 0, 1, 0, 0], [1, 0, 0, 0, 0])}")
