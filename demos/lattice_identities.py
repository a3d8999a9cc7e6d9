"""Gram-matrix arithmetic in the lattices behind the constructions.

The rank-8 even lattice of eight orthogonal (-2)-classes and their
half-sum sits inside the Picard group of every surface used here; adding
an orthogonal polarization class of square 2g-2 gives the rank-9 lattice
whose arithmetic controls which curves the surfaces can contain.
"""

from spincalc import (cs_obstruction, doubly_elliptic_identities, e8,
                      hyperbolic_u, lambda_identities, lambda_lattice,
                      nikulin_lattice)
from spincalc.lattices import nikulin_derived_root

nik = nikulin_lattice()
print(f"Nikulin lattice: rank {nik.rank}, even={nik.is_even()}, "
      f"determinant {nik.determinant()}")
n8 = nikulin_derived_root()
print(f"derived eighth root 2e - n_1 - ... - n_7: square {nik.norm(n8)}, "
      "orthogonal to the other seven")

print()
print("genus-7 identity battery in the polarized lattice:")
for name, got, want in lambda_identities(7):
    print(f"  {name:>6} = {got:>4}   (expected {want})")

print()
print("determinants (2g-2) * 64:")
for g in (2, 5, 7, 11):
    print(f"  genus {g:>2}: {lambda_lattice(g).determinant()}")

print()
print("why no surface in the family carries a degree-3 elliptic curve:")
print("the two constraint equations force eight integers whose sum is")
print("large and whose squares are small; Cauchy-Schwarz forbids it, and")
print("an exhaustive search double-checks that no tuple exists.")
for g in (7, 9, 12):
    for e in cs_obstruction(g, a_bound=3):
        print(f"  g={g} a={e.a}: sum={e.target_sum:>3} "
              f"norm={e.target_norm:>3} gap={e.cs_gap:>5} "
              f"solutions={'none' if not e.solution_found else 'FOUND'}")

print()
de = doubly_elliptic_identities()
print("doubly-elliptic K3 bookkeeping at genus 8:")
print(f"  (2E + G_1 + ... + G_7)^2 = {de.section_square} = 2*8 - 2")
print(f"  (C_1 + C_2)^2 with C_1.C_2 = 7: {de.pencil_sum_square}")
print(f"  section meets each exceptional curve in "
      f"{set(de.section_dot_exceptional)} points")

print()
u = hyperbolic_u()
e8m = e8(-1)
s = u.direct_sum(u).direct_sum(u).direct_sum(e8m).direct_sum(e8m)
print(f"K3 reference lattice U^3 + E8(-1)^2: rank {s.rank}, "
      f"even={s.is_even()}, determinant {s.determinant()}")
print(f"E8(-2): determinant {e8(-2).determinant()}, all squares "
      "divisible by 4")
