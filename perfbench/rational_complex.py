"""Workload `rational-complex`: in-process line-complex queries on inputs
with non-integer entries, at dimensions 5 to 7.

A block holds, at each dimension, two tangency, two singular-point, two
compound-rank (full rank and rank dim-2) and two solve queries, plus one
Pluecker-rank query per wedge-rank 1, 2, 3: 27 ops.  Each sample is built
where its answer is known and pushed through a seeded rational change of
basis (see `gen`); set-up does all of that.  An op is one library call,
including building the `SymmetricForm` from its Gram rows as a caller
would, and its answer is checked after the timer stops against an
independent oracle:

    tangency            discriminant_tangency, and the construction
    is_singular_point   both vectors isotropic (benchmark arithmetic)
    compound rank       C(rank q, 2)
    Pluecker rank       6 / 10 / 15 by wedge-rank of the bivector
    solve_in_basis      back-substitution A x = b (benchmark arithmetic)

Compared with `certificate`, this reaches the same `_linalg` and
`linecomplex` code with rational entries and with 15x15 and 21x21 second
compounds, so a kernel that only pays off on integers shows here.
"""

from __future__ import annotations

import random
from math import comb

import gen
from common import Op, State

DIMS = (5, 6, 7)
DEN_BOUND = 100
BLOCKS = 32
TRACED_BLOCKS = 4
MIN_OPS = 100


def _form(gram):
    from spincalc import linecomplex
    return linecomplex.symmetric_form(gram)


def _ops_for_dim(rng, dim):
    from spincalc import linecomplex as lc
    ops = []
    for tangent in (True, False):
        g, u, v, want = gen.tangency_sample(rng, dim, DEN_BOUND, tangent)
        ops.append(Op(f"tangency-d{dim}",
                      lambda g=g, u=u, v=v: lc.tangency(_form(g), u, v),
                      (want, g, u, v), _check_tangency))
    for inside in (True, False):
        g, u, v, want = gen.complex_point_sample(rng, dim, DEN_BOUND, inside)
        ops.append(Op(f"singular-d{dim}",
                      lambda g=g, u=u, v=v: lc.is_singular_point(
                          _form(g), u, v),
                      (want, g, u, v), _check_singular))
    for rank in (dim, dim - 2):
        g, _ = gen.rank_sample(rng, dim, DEN_BOUND, rank)
        ops.append(Op(f"compound-d{dim}",
                      lambda g=g: lc.second_compound(_form(g)).rank(),
                      comb(rank, 2)))
    for _ in range(2):
        a, b = gen.solve_sample(rng, dim, DEN_BOUND)
        ops.append(Op(f"solve-d{dim}",
                      lambda a=a, b=b: lc.solve_in_basis(a, b),
                      (a, b), _check_solve))
    return ops


def _check_tangency(got, expected):
    from spincalc import linecomplex as lc
    want, g, u, v = expected
    return got == want == lc.discriminant_tangency(_form(g), u, v)


def _check_singular(got, expected):
    want, g, u, v = expected
    isotropic = gen.bilinear(g, u, u) == 0 and gen.bilinear(g, v, v) == 0
    return got == want == isotropic


def _check_solve(got, expected):
    a, b = expected
    return len(got) == len(b) and gen.mat_vec(a, got) == list(b)


def _block(rng):
    from spincalc import linecomplex as lc
    ops = []
    for dim in DIMS:
        ops += _ops_for_dim(rng, dim)
    for wedge_rank in (1, 2, 3):
        m, psi, want = gen.plucker_sample(rng, DEN_BOUND, wedge_rank)
        ops.append(Op("plucker",
                      lambda m=m, psi=psi: lc.plucker_quadric_rank(
                          lc.transform_bivector(m, psi)),
                      want))
    rng.shuffle(ops)
    return ops


def setup(root, seed: int, toy: bool) -> State:
    rng = random.Random(seed)
    units = [_block(rng) for _ in range(1 if toy else BLOCKS)]
    if toy:
        units = [[op for op in units[0]
                  if op.kind.endswith(("d5", "plucker"))]]
    counts: dict = {}
    for op in units[0]:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    sizes = {"dims": list(DIMS), "den_bound": DEN_BOUND,
             "blocks": len(units), "ops_per_block": counts}
    return State(units=units, traced_units=units[:TRACED_BLOCKS],
                 sizes=sizes, min_ops=1 if toy else MIN_OPS)
