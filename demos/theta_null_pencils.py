"""Covering pencils of the theta-null divisor, genus 4 through 9.

A spin curve with a vanishing theta-null is a canonical curve on a rank-3
quadric.  Representing it as a hyperplane section of a nodal canonical
surface produces a pencil of such curves; everything about the pencil's
moduli class follows from four surface numbers via Noether's formula.
The theta-null pairing comes out at -2 whatever the genus (-1 in the
degenerate genus-4 construction), certifying that the divisor is rigid.
"""

from spincalc import gamma_curve, pair, theta_null
from spincalc.curves import GAMMA_SURFACE_DATA, noether_c2
from spincalc.picard import ALPHA0, BETA0, LAMBDA, higher_boundary

print("surface invariants behind each pencil")
print(f"{'g':>3} {'chi':>4} {'K^2':>5} {'base':>5} {'b0-fibres':>10} "
      f"{'c2':>4}")
for g in range(4, 10):
    chi, k2, base, nodes = GAMMA_SURFACE_DATA[g]
    print(f"{g:>3} {chi:>4} {k2:>5} {base:>5} {nodes:>10} "
          f"{noether_c2(chi, k2):>4}")

print()
print("induced pairings of the pencil in the even-spin space")
print(f"{'g':>3} {'lambda':>7} {'alpha_0':>8} {'beta_0':>7} {'theta':>6}")
rigid = {}
for g in range(4, 10):
    c = gamma_curve(g)
    t = pair(c, theta_null(g))
    rigid[g] = t < 0 and all(c.pairing(sym) == 0
                             for sym in higher_boundary(c.space))
    print(f"{g:>3} {str(c.pairing(LAMBDA)):>7} "
          f"{str(c.pairing(ALPHA0)):>8} {str(c.pairing(BETA0)):>7} "
          f"{str(t):>6}")

print()
print("rigidity verdicts (negative self-pairing, zero higher boundary):")
for g, verdict in rigid.items():
    print(f"  genus {g}: {'rigid' if verdict else 'NOT CERTIFIED'}")
