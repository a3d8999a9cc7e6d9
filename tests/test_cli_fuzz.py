"""Fuzzing the command line: no input makes it raise.

Random argument vectors for every subcommand but `verify-all`, and random
`complex` input files, run in process through `cli.main`.  Every run must
end with exit 0 or 2 (a `lattice` check may also fail with 1), through a
return value or argparse's `SystemExit`; any other exception escaping
`main` is a traceback the user would see.  Sizes stay small: n <= 12,
powers <= 3, dimensions <= 7.  Apart from that, `pair` and `class` run
with genera around and far above the `--genus` cap, and the `lattice`
checks `cs` and `identities` with the same genera, each under a deadline.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from spincalc.cli import MAX_GENUS, main

GENUS = st.integers(-2, 12)
PARAM = st.integers(-2, 6)
DIVISORS = st.sampled_from(["theta_null", "prym_green", "nikulin_N6", "bn8",
                            "d2_nonveryample", "hodge_c1", "canonical",
                            "delta_0", ""])

_two_row = st.builds("s({},{})^{}".format, st.integers(0, 12),
                     st.integers(0, 12), st.integers(0, 3))
_special = st.builds("s{}^{}".format, st.integers(0, 12), st.integers(0, 3))
FACTORS = st.one_of(st.integers(-5, 5).map(str), _two_row, _special,
                    st.builds("s({})".format, st.integers(0, 12)),
                    st.sampled_from(["", "s", "s(1,", "x", "s1^", "2.5"]))

#: per subcommand, the (flag, values) it requires and those it may take;
#: a flag with the value True takes no argument.  Optional flags are left
#: out at random; required ones are missing only from the junk vectors.
SUBCOMMANDS = {
    "pair": ([("--curve", st.sampled_from(["xi", "gamma", "r", "septic",
                                           "btilde"])),
              ("--divisor", DIVISORS)],
             [("--genus", GENUS), ("--param", PARAM)]),
    "class": ([("--space", st.sampled_from(["mbar", "rbar", "spin"])),
               ("--genus", GENUS), ("--name", DIVISORS)],
              [("--param", PARAM)]),
    "lattice": ([("--name", st.sampled_from(["nikulin", "lambda_g", "u",
                                             "e8"]))],
                [("--genus", GENUS), ("--scale", st.integers(-3, 3)),
                 ("--check", st.sampled_from(["identities", "cs",
                                              "doubly-elliptic"]))]),
    "schubert": ([("--n", st.integers(-1, 12)),
                  ("--expr", st.lists(FACTORS, min_size=1, max_size=4)
                   .map("*".join))],
                 [("--degree", st.just(True))]),
}

JUNK = st.lists(st.sampled_from(["pair", "class", "lattice", "schubert",
                                 "complex", "--genus", "--name", "-h", "7",
                                 "--curve", "xi", "--op", "compound", "=",
                                 ""]), max_size=6)

ENTRIES = st.sampled_from(["0", "0", "0", "1", "-1", "2", "1/2", "-3/4"])
BAD_TOKENS = st.sampled_from(["1/0", "0.5", "x", "#", "", "1 1",
                              "1e100000000", "1" * 2001])


@st.composite
def complex_files(draw, op):
    """A dimension line and a symmetric form with two vectors (for
    `plucker-rank`, one line of C(dim, 2) coefficients), sometimes with
    one token replaced by a bad one, or else random lines."""
    head = draw(st.one_of(st.integers(-3, 7).map(str),
                          st.sampled_from(["", "x", "2/1", "6"])))
    try:
        dim = max(int(head), 0)
    except ValueError:
        dim = draw(st.integers(0, 7))
    if draw(st.integers(0, 4)) == 0:
        body = draw(st.lists(st.lists(ENTRIES | BAD_TOKENS, max_size=8),
                             max_size=10))
    elif op == "plucker-rank":
        body = [draw(st.lists(ENTRIES, min_size=dim * (dim - 1) // 2,
                              max_size=dim * (dim - 1) // 2))]
    else:
        gram = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                gram[i][j] = gram[j][i] = draw(ENTRIES)
        vectors = st.lists(st.sampled_from(["0", "1", "-1"]),
                           min_size=dim, max_size=dim)
        body = gram + [draw(vectors), draw(vectors)]
    if body and body[0] and draw(st.booleans()):
        row = draw(st.integers(0, len(body) - 1))
        if body[row]:
            col = draw(st.integers(0, len(body[row]) - 1))
            body[row][col] = draw(BAD_TOKENS)
    return "\n".join([head] + [" ".join(row) for row in body]) + "\n"


@st.composite
def options(draw, required, optional):
    argv = []
    for flag, values in required + optional:
        value = draw(values if (flag, values) in required
                     else st.none() | values)
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, str(value)]
    return argv


@st.composite
def argument_vectors(draw, input_path):
    """One argument vector and, for `complex`, the input file text."""
    kind = draw(st.sampled_from(sorted(SUBCOMMANDS) + ["complex", "junk"]))
    if kind == "junk":
        return draw(JUNK), None
    if kind == "complex":
        op = draw(st.sampled_from(["compound", "tangency", "singular",
                                   "plucker-rank"]))
        argv = ["complex", "--op", op, "--input", input_path]
        return argv, draw(complex_files(op))
    return [kind] + draw(options(*SUBCOMMANDS[kind])), None


def run_quietly(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            return exc.code


def test_cli_never_raises(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"

    @settings(max_examples=400, deadline=None)
    @given(argument_vectors(str(path)))
    def check(case):
        argv, text = case
        if text is not None:
            path.write_text(text, encoding="utf-8")
        code = run_quietly(argv)
        allowed = {0, 1, 2} if argv[:1] == ["lattice"] else {0, 2}
        assert code in allowed, (argv, text, code)

    check()


#: genera just below, at and above the cap, up to nine and nineteen digits
LARGE_GENUS = st.one_of(st.integers(MAX_GENUS - 3, MAX_GENUS + 3),
                        st.integers(MAX_GENUS, 10 ** 9),
                        st.sampled_from([10 ** 9, 10 ** 18]))


def test_large_genera_exit_in_time():
    @settings(max_examples=60, deadline=1000)
    @given(st.sampled_from(["pair", "class"]), LARGE_GENUS, st.data())
    def check(kind, genus, data):
        required, optional = SUBCOMMANDS[kind]
        argv = [kind] + data.draw(options(
            [(f, v) for f, v in required if f != "--genus"],
            [(f, v) for f, v in optional if f != "--genus"]))
        argv += ["--genus", str(genus)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in {0, 2}, argv
        if genus > MAX_GENUS:
            assert code == 2 and out.getvalue() == "", argv

    check()


def test_lattice_checks_at_large_genera_exit_in_time():
    # `lattice` has no genus cap: from genus 19 on the sum-of-squares
    # search rules out every multiple by |s| > 8 * isqrt(norm) before it
    # builds a table, which would hold (norm + 1) * width bits at once
    @settings(max_examples=60, deadline=1000)
    @given(st.sampled_from(["cs", "identities"]), LARGE_GENUS)
    def check(battery, genus):
        argv = ["lattice", "--name", "lambda_g", "--genus", str(genus),
                "--check", battery]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == 0 and out.getvalue().splitlines()[-1] == "ok", argv

    check()
