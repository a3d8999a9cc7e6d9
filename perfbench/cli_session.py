"""Workload `cli-session`: one-shot `python -m spincalc.cli ...` queries,
run one at a time as subprocesses.

Every block has the same mix (`MIX`); the seed picks each query's
parameters from a catalogue and shuffles the order.  The four README
examples are in every block and must print their documented values.  Set-up
writes the `complex` input files and computes the expected stdout of every
query in-process; a query passes when it exits 0 and prints exactly that.

A traced run calls `cli.main(argv)` in-process with stdout captured, so the
per-layer spans see the same argument vectors without the interpreter
start, which `cli.interp_start_ms` and `cli.import_ms` measure apart.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys

import gen
from common import Op, State

#: queries per block, by subcommand; `lattice` includes one cs check at
#: each genus 7..12, the slowest queries of the mix
MIX = {"pair": 10, "class": 6, "lattice": 10, "schubert": 8, "complex": 6}
BLOCKS = 6
MIN_OPS = 100

README = (
    (["pair", "--curve", "xi", "--genus", "6", "--divisor", "nikulin_N6"],
     "-1"),
    (["pair", "--curve", "gamma", "--genus", "5", "--divisor", "theta_null"],
     "-2"),
    (["pair", "--curve", "btilde", "--genus", "8", "--divisor", "bn8"],
     "-32896"),
    (["schubert", "--n", "5", "--expr", "4*s(2,1)*s1^3", "--degree"], "8"),
)


def _pair_catalogue():
    out = [("xi", g, "canonical", None) for g in range(2, 13)]
    out += [("xi", 2 * i + 6, "prym_green", None) for i in range(7)]
    out += [("gamma", g, d, None) for g in range(4, 10)
            for d in ("theta_null", "canonical")]
    out += [("r", 8, d, None) for d in ("bn8", "theta_null", "canonical")]
    out += [("septic", 8, d, None) for d in ("bn8", "canonical")]
    out += [("xi", 5, "d2_nonveryample", None)]
    out += [("xi", 5, "hodge_c1", i) for i in (1, 2, 3)]
    return [["pair", "--curve", c, "--genus", str(g), "--divisor", d]
            + ([] if p is None else ["--param", str(p)])
            for c, g, d, p in out]


def _class_catalogue():
    out = [(s, g, "canonical", None) for s in ("mbar", "rbar", "spin")
           for g in range(2, 13)]
    out += [("spin", g, "theta_null", None) for g in range(2, 13)]
    out += [("rbar", 2 * i + 6, "prym_green", None) for i in range(7)]
    out += [("rbar", 5, "hodge_c1", i) for i in (1, 2, 3)]
    out += [("rbar", 5, "d2_nonveryample", None),
            ("rbar", 6, "nikulin_N6", None), ("mbar", 8, "bn8", None)]
    return [["class", "--space", s, "--genus", str(g), "--name", n]
            + ([] if p is None else ["--param", str(p)])
            for s, g, n, p in out]


PAIRS = _pair_catalogue()
CLASSES = _class_catalogue()


def _lattice_queries(rng):
    out = [["lattice", "--name", "lambda_g", "--genus", str(g),
            "--check", "cs"] for g in range(7, 13)]
    out.append(["lattice", "--name", "nikulin", "--check",
                "doubly-elliptic"])
    out.append(["lattice", "--name", "lambda_g", "--genus",
                str(rng.randint(7, 12)), "--check", "identities"])
    out.append(rng.choice([["lattice", "--name", "u"],
                           ["lattice", "--name", "nikulin"],
                           ["lattice", "--name", "e8", "--scale",
                            str(rng.randint(1, 3))]]))
    out.append(["lattice", "--name", "lambda_g", "--genus",
                str(rng.randint(3, 12))])
    return out


def _schubert_query(rng):
    """A pure-codimension product in G(2, n) whose degree is defined."""
    n = rng.randint(5, 40)
    top = 2 * (n - 2)
    a = rng.randint(1, n - 2)
    b = rng.randint(0, min(a, top - a))
    power = rng.randint(0, top - a - b)
    expr = f"{rng.randint(1, 9)}*s({a},{b})" + (f"*s1^{power}" if power
                                                  else "")
    return ["schubert", "--n", str(n), "--expr", expr, "--degree"]


def _fmt_rows(rows):
    return "\n".join(" ".join(str(x) for x in row) for row in rows)


def _complex_queries(rng, directory, block):
    """Write the six `complex` inputs of one block: dimension-5 forms
    (dimension 6 for the Pluecker rank) under an integer change of basis;
    vectors may carry denominators and are written as `p/q`."""
    files = []
    g, rank = gen.rank_sample(rng, 5, 1, rng.randint(2, 5))
    files.append(("compound", f"5\n{_fmt_rows(g)}\n"))
    for kind, tangent in (("tangency", True), ("tangency", False)):
        g, u, v, _ = gen.tangency_sample(rng, 5, 1, tangent)
        files.append((kind, f"5\n{_fmt_rows(g + [u, v])}\n"))
    for inside in (True, False):
        g, u, v, _ = gen.complex_point_sample(rng, 5, 1, inside)
        files.append(("singular", f"5\n{_fmt_rows(g + [u, v])}\n"))
    m, psi, _ = gen.plucker_sample(rng, 1, rng.randint(1, 3))
    coeffs = _transform(m, psi)
    files.append(("plucker-rank", f"6\n{' '.join(map(str, coeffs))}\n"))
    out = []
    for i, (op, text) in enumerate(files):
        path = os.path.join(directory, f"block{block}-{i}-{op}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out.append(["complex", "--op", op, "--input", path])
    return out


def _transform(matrix, psi):
    """Wedge coordinates, in lexicographic pair order, of the image of psi
    under e_i -> sum_k matrix[k][i] e_k."""
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    coords = {p: 0 for p in pairs}
    for (i, j), c in psi.items():
        for k, l in pairs:
            coords[(k, l)] += c * (matrix[k][i] * matrix[l][j]
                                   - matrix[k][j] * matrix[l][i])
    return [coords[p] for p in pairs]


def _block(rng, directory, b):
    queries = [argv for argv, _ in README]
    queries += rng.sample(PAIRS, MIX["pair"] - 3)
    queries += rng.sample(CLASSES, MIX["class"])
    queries += _lattice_queries(rng)
    queries += [_schubert_query(rng) for _ in range(MIX["schubert"] - 1)]
    queries += _complex_queries(rng, directory, b)
    rng.shuffle(queries)
    return queries


def run_in_process(argv):
    from spincalc import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def subprocess_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup(root, seed: int, toy: bool) -> State:
    rng = random.Random(seed)
    directory = os.path.join(root, ".bench_out", f"cli-session-{seed}")
    os.makedirs(directory, exist_ok=True)
    env = subprocess_env(root)
    readme = {" ".join(argv): want + "\n" for argv, want in README}
    units, traced = [], []
    counts: dict = {}
    for b in range(1 if toy else BLOCKS):
        block, inproc = [], []
        for argv in _block(rng, directory, b):
            kind = argv[0]
            counts[kind] = counts.get(kind, 0) + 1
            # the documented value where there is one, else the answer the
            # library gives in-process for the same argument vector
            want = readme.get(" ".join(argv))
            if want is None:
                want = run_in_process(argv)[1]
            expected = (0, want)
            block.append(Op(kind, _subprocess_call(argv, env), expected))
            inproc.append(Op(kind, _in_process_call(argv), expected))
        units.append(block)
        traced.append(inproc)
    if toy:
        units = [units[0][:len(MIX)]]
    sizes = {"ops_per_block": MIX, "blocks": len(units),
             "ops_by_subcommand": counts}
    return State(units=units, traced_units=traced[:1], sizes=sizes,
                 min_ops=1 if toy else MIN_OPS,
                 cleanup=lambda: shutil.rmtree(directory, ignore_errors=True))


def _subprocess_call(argv, env):
    cmd = [sys.executable, "-m", "spincalc.cli", *argv]

    def call():
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        return done.returncode, done.stdout
    return call


def _in_process_call(argv):
    return lambda: run_in_process(argv)
