"""Master verification harness.

Every headline identity computed by the package is a row of `REGISTRY`,
one tuple of `Check` records (id, claim, run, note) built once, in report
order.  `run` gives the exactly computed and the expected value, rendered
canonically (lowest-terms rationals); a check passes iff the two strings
are identical.  The last rows, steps that rest on quoted results rather
than computation, have no `run` and the status ``cited-not-replayed``.
The order is fixed, so reports are deterministic; the only randomness is
in the property-suite samplers, driven by an explicit seed.
Checks read their pinned divisor classes only through `_Provider.divisor`,
by name and home space, e.g. ``ctx.divisor("bn8", mbar(8))``:
canonical, theta_null, bn8, prym_green, nikulin_N6, hodge_c1 and
d2_nonveryample (see `picard.named_divisor`).  One coefficient of any of
them can be perturbed through ``verify_all(perturb=...)`` to confirm the
harness actually depends on it (fault injection).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import cycle, islice
from math import comb

from . import curves, kodaira, lattices, linecomplex, picard, schubert
from ._record import Record
from .curves import pair
from .picard import mbar, rbar, spin_plus

DEFAULT_SEED = 1729

#: sample counts for the property suites: (per-rank compound, tangency,
#: singularity, bivector conjugates)
FULL_SAMPLES = (100, 1000, 1000, 100)
QUICK_SAMPLES = (5, 25, 25, 5)


class CheckRecord(Record):
    """One check of the registry; `status` is "pass", "fail" or
    "cited-not-replayed"."""

    __slots__ = ("id", "citation", "computed", "expected", "status", "note")
    _defaults = (None,)


def _count(status: str) -> property:
    return property(lambda report: sum(c.status == status
                                       for c in report.checks))


class Report(Record):
    __slots__ = ("checks", "seed")

    passed = _count("pass")
    failed = _count("fail")
    cited = _count("cited-not-replayed")

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


class _Provider:
    """What a check may draw on: the seeded generator, the property-suite
    sample counts and the named classes with an optional single-coefficient
    perturbation."""

    def __init__(self, rng, samples, perturb=None):
        self.rng = rng
        self.samples = samples
        self.perturb = perturb
        self.perturbed = False

    def divisor(self, name: str, space, param=None):
        """`picard.named_divisor(name, space, param)`, plus the `perturb`
        delta when `perturb` names this class and a symbol it pins."""
        d = picard.named_divisor(name, space, param)
        target, symbol, delta = self.perturb or (None,) * 3
        pins = picard._basis_set(d.space) - d.opaque
        if target != name or symbol not in pins:
            return d
        self.perturbed = True
        return d + picard.divisor_class(d.space, [(symbol, delta)])


class Check(Record):
    """One row of the registry.  `run(ctx)` returns (computed, expected)
    as strings; a row whose `run` is None rests on quoted results and is
    reported as cited-not-replayed."""

    __slots__ = ("id", "citation", "run", "note")
    _defaults = (None, None)


def _higher(c) -> str:
    """The `higher=` field of a row: "0" when the curve `c` pairs 0 with
    every higher boundary class alpha_1, beta_1, ..., else "nonzero"."""
    return "0" if all(c.pairing(sym) == 0 for sym in
                      picard.higher_boundary(c.space)) else "nonzero"


def _xi_check(g):
    def run(ctx):
        xi = curves.xi_curve(g)
        k = pair(xi, ctx.divisor("canonical", rbar(g)))
        computed = (f"lambda={xi.pairing(picard.LAMBDA)} "
                    f"delta_0'={xi.pairing(picard.D0P)} "
                    f"delta_0''={xi.pairing(picard.D0PP)} "
                    f"delta_0^ram={xi.pairing(picard.D0RAM)} K={k}")
        expected = (f"lambda={g + 1} delta_0'={6 * g + 2} delta_0''=0 "
                    f"delta_0^ram=8 K={g - 15}")
        return computed, expected
    return Check(f"xi-battery-g{g}",
                 f"Nikulin-pencil pairings at genus {g}: (g+1, 6g+2, 0, 8) "
                 f"on the Prym boundary and g-15 against the canonical class",
                 run)


def _prym_green_check(i):
    g = 2 * i + 6
    def run(ctx):
        value = pair(curves.xi_curve(g), ctx.divisor("prym_green", rbar(g)))
        return str(value), str(-comb(2 * i + 3, i))
    return Check(f"prym-green-i{i}",
                 f"Nikulin pencil against the Prym-Green virtual class at "
                 f"genus {g}: -C({2 * i + 3},{i})",
                 run)


def _theta_rigidity_check(g):
    theta, lam, a0, b0 = {4: (-1, 4, 32, 1), 5: (-2, 10, 72, 4),
                          6: (-2, 12, 80, 6)}.get(
        g, (-2, g + 7, 4 * g + 60, 8))
    def run(ctx):
        c = curves.gamma_curve(g)
        t = pair(c, ctx.divisor("theta_null", spin_plus(g)))
        higher = _higher(c)
        computed = (f"theta={t} lambda={c.pairing(picard.LAMBDA)} "
                    f"alpha_0={c.pairing(picard.ALPHA0)} "
                    f"beta_0={c.pairing(picard.BETA0)} higher={higher} "
                    f"verdict={'yes' if t < 0 and higher == '0' else 'no'}")
        expected = (f"theta={theta} lambda={lam} alpha_0={a0} "
                    f"beta_0={b0} higher=0 verdict=yes")
        return computed, expected
    note = ("surface data frozen from the 6-nodal (2,2,3) complete "
            "intersection" if g == 6 else None)
    return Check(f"theta-rigidity-g{g}",
                 f"covering pencil of the theta-null divisor at genus {g}: "
                 f"pairing {theta}, disjoint from higher boundary",
                 run, note)


def _grassmannian_check(n, degree, citation):
    def run(ctx):
        return (f"pieri={schubert.grassmannian_degree(n)} "
                f"closed-form={schubert.catalan_degree(n)}",
                f"pieri={degree} closed-form={degree}")
    return Check(f"schubert-g2{n}-degree", citation, run)


def _tally(outcomes) -> tuple[str, str]:
    """(computed, expected) of a property suite: how many of the sampled
    outcomes hold, against all of them."""
    held = list(outcomes)
    return f"{sum(held)}/{len(held)}", f"{len(held)}/{len(held)}"


def _nikulin_g6(ctx):
    value = pair(curves.xi_curve(6), ctx.divisor("nikulin_N6", rbar(6)))
    return str(value), "-1"


def _hodge3(ctx):
    return (picard.format_class(ctx.divisor("hodge_c1", rbar(5), 3)),
            "37*lambda - 3*delta_0' - 3*delta_0'' - 33/4*delta_0^ram "
            "+ ?*pi_delta_1 + ?*pi_delta_2")


def _d1d2(ctx):
    d1 = ctx.divisor("hodge_c1", rbar(5), 3) - picard.sym_power_c1(
        ctx.divisor("hodge_c1", rbar(5), 1), rank=4, power=3)
    diff = d1 - ctx.divisor("d2_nonveryample", rbar(5))
    return (picard.format_class(diff),
            "8*lambda - delta_0' - delta_0'' - 2*delta_0^ram "
            "+ ?*pi_delta_1 + ?*pi_delta_2")


def _septic(ctx):
    m = curves.septic_pencil_curve()
    value = pair(m, ctx.divisor("bn8", mbar(8)))
    computed = (f"lambda={m.pairing(picard.LAMBDA)} "
                f"delta_0={m.pairing(picard.DELTA0)} bn8={value}")
    return computed, "lambda=8 delta_0=59 bn8=-1"


def _decomposition(ctx):
    d = kodaira.canonical_decomposition_g8(ctx.divisor)
    a = [d.coeff(picard.alpha(i)) for i in range(1, 5)]
    b = [d.coeff(picard.beta(i)) for i in range(1, 5)]
    residual = d - picard.divisor_class(d.space, [
        (sym, d.coeff(sym)) for sym in picard.higher_boundary(d.space)])
    computed = (f"residual={residual} a=({','.join(map(str, a))}) "
                f"b=({','.join(map(str, b))}) "
                f"positive={'yes' if all(v > 0 for v in a + b) else 'no'}")
    return computed, "residual=0 a=(4,10,13,14) b=(8,14,17,18) positive=yes"


def _r_invariants(ctx):
    r = curves.r_curve_g8()
    budget = r.pairing(picard.ALPHA0) + 2 * r.pairing(picard.BETA0)
    halves = "+".join([str(Fraction(7, 2))] * 2)
    computed = (f"lambda={r.pairing(picard.LAMBDA)} budget={budget} "
                f"beta_0={halves}={r.pairing(picard.BETA0)} "
                f"alpha_0={r.pairing(picard.ALPHA0)}")
    return computed, "lambda=9 budget=66 beta_0=7/2+7/2=7 alpha_0=52"


def _r_theta(ctx):
    theta = ctx.divisor("theta_null", spin_plus(8))
    return str(pair(curves.r_curve_g8(), theta)), "-1"


def _r_disjoint(ctx):
    r = curves.r_curve_g8()
    bn_pull = pair(r, picard.pullback_to_spin(ctx.divisor("bn8", mbar(8))))
    return (f"bn8-pullback={bn_pull} higher={_higher(r)}",
            "bn8-pullback=0 higher=0")


def _btilde(ctx):
    lift = curves.btilde_curve(curves.septic_pencil_curve())
    value = pair(lift, picard.pullback_to_spin(ctx.divisor("bn8", mbar(8))))
    computed = (f"degree={curves.covering_degree(8)} pairing={value} "
                f"negative={'yes' if value < 0 else 'no'}")
    return computed, "degree=32896 pairing=-32896 negative=yes"


def _lattice_nikulin(ctx):
    lat = lattices.nikulin_lattice()
    n8 = lattices.nikulin_derived_root()
    dots = [lat.inner(n8, lat.basis_vector(f"n{j}")) for j in range(1, 8)]
    computed = (f"even={'yes' if lat.is_even() else 'no'} "
                f"det={lat.determinant()} n8^2={lat.norm(n8)} "
                f"n8.n_j={'0' if all(d == 0 for d in dots) else 'bad'}")
    return computed, "even=yes det=64 n8^2=-2 n8.n_j=0"


def _lattice_l7(ctx):
    rows = lattices.lambda_identities(7)
    bad = [name for name, got, want in rows if got != want]
    computed = " ".join(f"{name}={got}" for name, got, _ in rows[:7])
    computed += " H.n_i=1" if not bad else f" bad={bad}"
    return computed, "H^2=8 H.c=12 N^2=-16 N.H=8 N.c=0 e^2=-4 c^2=12 H.n_i=1"


def _lattice_cs(ctx):
    total, obstructed, found = 0, 0, 0
    for g in range(7, 13):
        for e in lattices.cs_obstruction(g, a_bound=5):
            total += 1
            obstructed += e.cs_gap > 0
            found += e.solution_found
    return (f"{obstructed}/{total} obstructed, {found} solutions",
            "30/30 obstructed, 0 solutions")


def _lattice_de(ctx):
    r = lattices.doubly_elliptic_identities()
    dots = "0" if all(x == 0 for x in r.section_dot_exceptional) else "bad"
    computed = (f"section^2={r.section_square} "
                f"pencils^2={r.pencil_sum_square} C.G_i={dots}")
    return computed, "section^2=14 pencils^2=14 C.G_i=0"


def _schubert_vq(ctx):
    return str(schubert.degree(schubert.sigma(5, 2, 1, 4))), "8"


def _wq_degree(ctx):
    return str(2 * schubert.grassmannian_degree(5)), "10"


def _compound_law(ctx):
    return _tally(linecomplex.second_compound(q).rank() == comb(rank, 2)
                  for q, rank in linecomplex.compound_rank_samples(
                      ctx.rng, ctx.samples[0]))


def _tangency_oracle(ctx):
    return _tally(linecomplex.tangency(q, u, v)
                  == linecomplex.discriminant_tangency(q, u, v)
                  for q, u, v in linecomplex.tangency_samples(
                      ctx.rng, ctx.samples[1]))


def _singularity(ctx):
    return _tally(linecomplex.is_singular_point(q, u, v)
                  == (q.quadratic(v) == 0) == inside
                  for q, u, v, inside in linecomplex.complex_point_samples(
                      ctx.rng, ctx.samples[2]))


def _plucker(ctx):
    canonical = [({(0, 1): 1}, 6),
                 ({(0, 1): 1, (2, 3): 1}, 10),
                 ({(0, 1): 1, (2, 3): 1, (4, 5): 1}, 15)]
    ranks = [linecomplex.plucker_quadric_rank(psi) for psi, _ in canonical]
    got, want = _tally(
        linecomplex.plucker_quadric_rank(linecomplex.transform_bivector(
            linecomplex.random_invertible_matrix(ctx.rng, 6), psi)) == rank
        for psi, rank in islice(cycle(canonical), ctx.samples[3]))
    return (f"{','.join(map(str, ranks))} conjugates={got}",
            f"6,10,15 conjugates={want}")


def _eq_solve(ctx):
    rows = [[1, 0], [0, 1]]  # h.H=1 h.B=0 / s.H=0 s.B=1
    coeffs = linecomplex.solve_in_basis(rows, [2, -2])
    return ",".join(map(str, coeffs)), "2,-2"


def _slope_bn8(ctx):
    return str(picard.slope(ctx.divisor("bn8", mbar(8)))), "22/3"


#: every row of the report, in report order; the cited rows come last
REGISTRY = (
    *map(_xi_check, range(2, 13)),
    *map(_prym_green_check, range(7)),
    Check("nikulin-divisor-g6", "Nikulin pencil against the genus-6 "
          "Nikulin-section divisor: -1", _nikulin_g6),
    Check("hodge-c1-3", "first Chern class of the third twisted Hodge "
          "bundle at genus 5", _hodge3,
          "the delta_0' coefficient follows from the binomial Chern-class "
          "formula; a sometimes-printed variant with delta_0 in its place "
          "is inconsistent with that formula"),
    Check("d1-d2-difference", "cubic-hypersurface locus minus "
          "non-very-ample locus at genus 5: the pinned part is a pullback "
          "of slope 8", _d1d2,
          "uses the derived symmetric-cube factor 15 = 3*C(6,3)/4"),
    *map(_theta_rigidity_check, range(4, 10)),
    Check("septic-pencil", "Lefschetz pencil of 7-nodal plane septics: "
          "lambda 8, delta_0 59, pairing -1 against the Brill-Noether "
          "class (in units of its positive normalization)", _septic),
    Check("canonical-decomposition-g8", "genus-8 canonical class = 1/2 "
          "bn8-pullback + 8 theta-null + positive boundary", _decomposition,
          "the eight boundary coefficients are derived from the three "
          "pinned classes, not quoted"),
    Check("r-curve-invariants", "doubly-elliptic pencil at genus 8: "
          "lambda 9, boundary budget 66 split as alpha_0=52, beta_0=7 with "
          "two half-integer fibres", _r_invariants),
    Check("r-curve-theta", "doubly-elliptic pencil against the theta-null "
          "class: 9/4 - 52/16 = -1", _r_theta),
    Check("r-curve-disjointness", "doubly-elliptic pencil is disjoint from "
          "the Brill-Noether pullback and the higher boundary", _r_disjoint),
    Check("btilde-covering", "spin lift of the septic pencil: covering "
          "degree 2^7(2^8+1) and negative pairing with the Brill-Noether "
          "pullback", _btilde),
    Check("lattice-nikulin", "the Nikulin lattice is even of determinant "
          "64 with a derived eighth (-2)-root", _lattice_nikulin),
    Check("lattice-lambda7", "identity battery in the rank-9 polarized "
          "Nikulin lattice at genus 7", _lattice_l7),
    Check("lattice-cs-obstruction", "no degree-3 isotropic class: "
          "Cauchy-Schwarz gap positive and exhaustive search empty for "
          "genus 7..12, multiples 1..5", _lattice_cs),
    Check("lattice-doubly-elliptic", "doubly-elliptic K3 identities: "
          "(2E+sum G_i)^2 = 14 = (C_1+C_2)^2 at genus 8", _lattice_de),
    Check("schubert-vq-degree", "degree of the lines-on-a-quadric "
          "threefold in G(2,5): 4*s(2,1)*s1^3 = 8", _schubert_vq),
    _grassmannian_check(5, 5, "degree of G(2,5): repeated Pieri against "
                        "the Catalan closed form"),
    _grassmannian_check(6, 14, "degree of G(2,6): codimension-7 linear "
                        "sections are canonical curves of degree 14"),
    Check("complex-wq-degree", "the tangent-line complex is a quadric "
          "section of G(2,5): degree 2 * 5 = 10", _wq_degree),
    Check("complex-compound-rank-law", "rank of the second compound form "
          "is C(rank, 2), sampled over all ranks in dimension 5",
          _compound_law),
    Check("complex-tangency-oracle", "compound-form tangency predicate "
          "agrees with the binary discriminant oracle on random lines",
          _tangency_oracle),
    Check("complex-singularity-criterion", "gradient test for singular "
          "points of the tangent complex agrees with the "
          "both-vectors-isotropic criterion", _singularity),
    Check("complex-plucker-trichotomy", "rank trichotomy {6, 10, 15} of "
          "quadrics through G(2,6), stable under random changes of basis",
          _plucker),
    Check("complex-exceptional-class-solve", "exceptional divisor of the "
          "complex resolution: pairings (2, -2) against the point- and "
          "line-pencil curves give E = 2H - 2B", _eq_solve),
    Check("slope-bn8", "slope of the genus-8 Brill-Noether class: 22/3 = "
          "6 + 12/(g+1)", _slope_bn8),
    Check("clifford-index", "maximal Clifford index floor((g-1)/2) for a "
          "curve generating the rank-9 polarized lattice: rests on the "
          "verified congruence c.l = 0 mod 2g-2 plus quoted surface "
          "Brill-Noether theory"),
    Check("vq-class-input", "the class 4*sigma_{2,1} of the "
          "lines-on-a-quadric locus in G(2,5) is classical input; only its "
          "degree-8 consequence is computed here"),
    Check("kodaira-dimension-bridge", "from the rigidity table to the "
          "vanishing Kodaira dimension of the genus-8 even-spin space: "
          "quoted, not recomputed"),
)


def _run_check(check: Check, ctx: _Provider) -> CheckRecord:
    """Run one row against `ctx`.  A cited row is not run; a row that
    raises fails, its computed value the error."""
    if check.run is None:
        return CheckRecord(check.id, check.citation, "", "",
                           "cited-not-replayed", check.note)
    try:
        computed, expected = check.run(ctx)
    except ValueError as exc:
        computed, expected = f"error: {exc}", "(no error)"
    except Exception as exc:
        computed = f"error: {type(exc).__name__}: {exc}"
        expected = "(no error)"
    status = "pass" if computed == expected else "fail"
    return CheckRecord(check.id, check.citation, computed, expected, status,
                       check.note)


def verify_all(seed: int = DEFAULT_SEED, perturb=None,
               quick: bool = False) -> Report:
    """Run every row of `REGISTRY` and return the report.

    `perturb`, when given, is (target, symbol, delta), the target a name
    of `picard.named_divisor`: "canonical", "theta_null", "bn8",
    "prym_green", "nikulin_N6", "hodge_c1" or "d2_nonveryample".  The
    delta, an int or Fraction (a float or bool fails the checks that read
    it), is added to that coefficient of every such class a check reads;
    ``ValueError`` is raised if none pins the symbol.  `quick` shrinks
    the property-suite sample counts (the deterministic checks are
    unaffected).  A check that raises is recorded as a failure whose
    computed value is the error; it never aborts the report.
    """
    ctx = _Provider(random.Random(seed),
                    QUICK_SAMPLES if quick else FULL_SAMPLES, perturb)
    records = tuple(_run_check(check, ctx) for check in REGISTRY)
    if perturb and not ctx.perturbed:
        raise ValueError(f"no class the checks read pins {perturb[:2]!r}")
    return Report(records, seed)


def render_text(report: Report) -> str:
    lines = []
    for c in report.checks:
        if c.status == "cited-not-replayed":
            lines.append(f"[cite] {c.id}: {c.citation}")
        elif c.status == "pass":
            lines.append(f"[ ok ] {c.id}: {c.computed}")
        else:
            lines.append(f"[FAIL] {c.id}: computed {c.computed!r}, "
                         f"expected {c.expected!r}")
        if c.note:
            lines.append(f"       note: {c.note}")
    lines.append(f"passed={report.passed} failed={report.failed} "
                 f"cited={report.cited} (seed={report.seed})")
    return "\n".join(lines)


def render_json(report: Report) -> str:
    checks = []
    for c in report.checks:
        rec = {"id": c.id, "citation": c.citation, "computed": c.computed,
               "expected": c.expected, "status": c.status}
        if c.note:
            rec["note"] = c.note
        checks.append(rec)
    doc = {"checks": checks, "passed": report.passed,
           "failed": report.failed, "cited": report.cited}
    return json.dumps(doc, indent=2)
