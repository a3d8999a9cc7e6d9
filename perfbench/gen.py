"""Seeded input generation for the line-complex workloads.

Everything here is the benchmark's own code: the program under test only
ever sees the finished inputs, so a change to its samplers cannot change
what the benchmark feeds it.  Each sample is built in a split model where
its answer is known by construction, then pushed through a change of basis
P, which changes no answer:

    form   G  ->  P^T G P
    vector x  ->  P^{-1} x        (x given in the old coordinates)

P is an integer unimodular matrix times a diagonal of rationals n/d with
0 < n <= 9 and 0 < d <= ``den_bound``; with ``den_bound = 1`` it is a plain
integer change of basis.
"""

from __future__ import annotations

from fractions import Fraction

ENTRY = 9


def nonzero(rng, bound=ENTRY):
    return rng.choice([-1, 1]) * rng.randint(1, bound)


def unimodular_pair(rng, dim, steps=10):
    """Integer matrix of determinant +-1 and its integer inverse."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inv = [row[:] for row in m]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        if rng.random() < 0.2:
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
            continue
        c = nonzero(rng, 3)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in inv:
            row[j] -= c * row[i]
    return m, inv


def change_of_basis(rng, dim, den_bound):
    """(P, P^{-1}) with P = M * diag(n_k / d_k)."""
    m, minv = unimodular_pair(rng, dim)
    diag = [Fraction(nonzero(rng), rng.randint(1, den_bound))
            for _ in range(dim)]
    p = [[m[i][k] * diag[k] for k in range(dim)] for i in range(dim)]
    pinv = [[minv[k][j] / diag[k] for j in range(dim)] for k in range(dim)]
    return p, pinv


def mat_vec(a, x):
    return [sum((aij * xj for aij, xj in zip(row, x)), Fraction(0))
            for row in a]


def conjugate(p, g):
    """P^T G P."""
    dim = len(p)
    gp = [[sum((g[i][k] * p[k][j] for k in range(dim)), Fraction(0))
           for j in range(dim)] for i in range(dim)]
    return [[sum((p[k][i] * gp[k][j] for k in range(dim)), Fraction(0))
             for j in range(dim)] for i in range(dim)]


def bilinear(g, x, y):
    return sum((x[i] * g[i][j] * y[j]
                for i in range(len(x)) for j in range(len(y))), Fraction(0))


def split_gram(tail):
    """Hyperbolic plane on e_0, e_1 plus a diagonal tail."""
    dim = 2 + len(tail)
    g = [[0] * dim for _ in range(dim)]
    g[0][1] = g[1][0] = 1
    for i, d in enumerate(tail):
        g[2 + i][2 + i] = d
    return g


def _unit(dim, k):
    return [int(i == k) for i in range(dim)]


def tangency_sample(rng, dim, den_bound, tangent):
    """(gram, u, v, tangent): u = e_0 is isotropic and the line through
    [u] and [v] is tangent exactly when v has no e_1 component, since
    then Qt(u, v) = 0 and the discriminant Qt(u,v)^2 - Q(u)Q(v) vanishes."""
    g0 = split_gram([nonzero(rng) for _ in range(dim - 2)])
    v0 = [rng.randint(-ENTRY, ENTRY) for _ in range(dim)]
    v0[1] = 0 if tangent else nonzero(rng)
    if not any(v0[2:]):
        v0[2] = nonzero(rng)
    p, pinv = change_of_basis(rng, dim, den_bound)
    return (conjugate(p, g0), mat_vec(pinv, _unit(dim, 0)),
            mat_vec(pinv, v0), tangent)


def complex_point_sample(rng, dim, den_bound, inside):
    """(gram, u, v, inside): a line [u ^ v] in the tangent complex of a
    full-rank form; `inside` lines lie in the quadric (v isotropic too).

    Split model U + diag(d, -d, tail): u = e_0 is isotropic and orthogonal
    to every v without an e_1 component; v = (a, 0, t, t, 0, ...) is
    isotropic, a generic v = (a, 0, b, c, f, ...) is not.
    """
    d = nonzero(rng)
    g0 = split_gram([d, -d] + [nonzero(rng) for _ in range(dim - 4)])
    while True:
        if inside:
            t = nonzero(rng)
            v0 = [rng.randint(-ENTRY, ENTRY), 0, t, t] + [0] * (dim - 4)
        else:
            v0 = [rng.randint(-ENTRY, ENTRY), 0] + [
                rng.randint(-ENTRY, ENTRY) for _ in range(dim - 2)]
        if any(v0[2:]) and (inside or bilinear(g0, v0, v0) != 0):
            break
    p, pinv = change_of_basis(rng, dim, den_bound)
    return (conjugate(p, g0), mat_vec(pinv, _unit(dim, 0)),
            mat_vec(pinv, v0), inside)


def rank_sample(rng, dim, den_bound, rank):
    """(gram, rank): a nonzero diagonal of length `rank`, conjugated."""
    g0 = [[0] * dim for _ in range(dim)]
    for i in range(rank):
        g0[i][i] = nonzero(rng)
    p, _ = change_of_basis(rng, dim, den_bound)
    return conjugate(p, g0), rank


#: bivectors of wedge-rank 1, 2 and 3 in a 6-space and the rank of their
#: volume quadric on the wedge square
PLUCKER_CANONICAL = (({(0, 1): 1}, 6),
                     ({(0, 1): 1, (2, 3): 1}, 10),
                     ({(0, 1): 1, (2, 3): 1, (4, 5): 1}, 15))


def plucker_sample(rng, den_bound, wedge_rank):
    """(matrix, psi, expected rank): the query transforms psi by the
    invertible matrix, which keeps its wedge-rank."""
    psi, rank = PLUCKER_CANONICAL[wedge_rank - 1]
    p, _ = change_of_basis(rng, 6, den_bound)
    return p, dict(psi), rank


def solve_sample(rng, dim, den_bound):
    """(matrix, rhs): an invertible rational system with a rational
    solution of denominators up to `den_bound`."""
    a, _ = change_of_basis(rng, dim, den_bound)
    x = [Fraction(rng.randint(-ENTRY, ENTRY), rng.randint(1, den_bound))
         for _ in range(dim)]
    return a, mat_vec(a, x)
