"""Command-line surface: outputs, exit codes, file formats."""

import json
import random
import time
from math import comb, factorial

import pytest

from spincalc import checks, cli, picard
from spincalc.cli import main, parse_schubert_expr
from spincalc.schubert import degree, sigma


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- pair -------------------------------------------------------------------

def test_pair_xi_nikulin(capsys):
    code, out, _ = run(capsys, "pair", "--curve", "xi", "--genus", "6",
                       "--divisor", "nikulin_N6")
    assert code == 0
    assert out.strip() == "-1"


def test_pair_xi_canonical(capsys):
    code, out, _ = run(capsys, "pair", "--curve", "xi", "--genus", "7",
                       "--divisor", "canonical")
    assert code == 0
    assert out.strip() == "-8"


def test_pair_gamma_theta(capsys):
    code, out, _ = run(capsys, "pair", "--curve", "gamma", "--genus", "5",
                       "--divisor", "theta_null")
    assert code == 0
    assert out.strip() == "-2"


def test_pair_r_with_pulled_back_bn8(capsys):
    code, out, _ = run(capsys, "pair", "--curve", "r", "--divisor", "bn8")
    assert code == 0
    assert out.strip() == "0"


def test_pair_btilde_bn8(capsys):
    code, out, _ = run(capsys, "pair", "--curve", "btilde", "--genus", "8",
                       "--divisor", "bn8")
    assert code == 0
    assert out.strip() == "-32896"


def test_pair_usage_error_bad_genus(capsys):
    code, _, err = run(capsys, "pair", "--curve", "xi", "--genus", "3",
                       "--divisor", "prym_green")
    assert code == 2
    assert "error:" in err


def test_pair_usage_error_wrong_space(capsys):
    code, _, err = run(capsys, "pair", "--curve", "septic", "--genus", "8",
                       "--divisor", "theta_null")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("pair", "--curve", "xi", "--divisor", "canonical"),
    ("pair", "--curve", "gamma", "--divisor", "theta_null"),
    ("class", "--space", "spin", "--name", "canonical"),
    ("class", "--space", "rbar", "--name", "hodge_c1", "--param", "1"),
], ids=["pair-xi", "pair-gamma", "class-spin", "class-rbar"])
def test_genus_above_the_cap_exits_two_naming_it(capsys, argv):
    for genus in (cli.MAX_GENUS + 1, 10 ** 9):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--genus", str(genus))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == (f"error: --genus must be at most {cli.MAX_GENUS}, "
                       f"not {genus}\n")


def test_genus_at_the_cap_is_answered(capsys):
    genus = str(cli.MAX_GENUS)
    code, out, _ = run(capsys, "pair", "--curve", "xi", "--genus", genus,
                       "--divisor", "canonical")
    assert code == 0 and out.strip().lstrip("-").isdigit()
    code, out, _ = run(capsys, "class", "--space", "spin", "--genus", genus,
                       "--name", "canonical")
    assert code == 0 and out.count("beta_") > cli.MAX_GENUS // 4


# --- class ------------------------------------------------------------------

def test_space_choices_are_the_picard_kinds():
    assert cli._KINDS == (picard.MBAR, picard.RBAR, picard.SPIN)


def test_class_theta_null(capsys):
    code, out, _ = run(capsys, "class", "--space", "spin", "--genus", "8",
                       "--name", "theta_null")
    assert code == 0
    assert out.strip() == ("1/4*lambda - 1/16*alpha_0 - 1/2*beta_1 "
                           "- 1/2*beta_2 - 1/2*beta_3 - 1/2*beta_4")


def test_class_marks_opaque_symbols(capsys):
    code, out, _ = run(capsys, "class", "--space", "rbar", "--genus", "6",
                       "--name", "nikulin_N6")
    assert code == 0
    assert "?*pi_delta_1" in out


def test_class_space_mismatch(capsys):
    code, _, err = run(capsys, "class", "--space", "mbar", "--genus", "8",
                       "--name", "theta_null")
    assert code == 2


def test_class_hodge_needs_param(capsys):
    code, _, err = run(capsys, "class", "--space", "rbar", "--genus", "5",
                       "--name", "hodge_c1")
    assert code == 2
    code, out, _ = run(capsys, "class", "--space", "rbar", "--genus", "5",
                       "--name", "hodge_c1", "--param", "3")
    assert code == 0
    assert out.startswith("37*lambda")


# --- lattice ----------------------------------------------------------------

def test_lattice_gram_output(capsys):
    code, out, _ = run(capsys, "lattice", "--name", "u")
    assert code == 0
    assert out.splitlines() == ["u1 u2", "0 1", "1 0"]


def test_lattice_identities(capsys):
    code, out, _ = run(capsys, "lattice", "--name", "lambda_g",
                       "--genus", "7", "--check", "identities")
    assert code == 0
    assert "H^2: 8 (expected 8)" in out
    assert out.strip().endswith("ok")


def test_lattice_cs_check(capsys):
    code, out, _ = run(capsys, "lattice", "--name", "lambda_g",
                       "--genus", "9", "--check", "cs")
    assert code == 0
    assert "solutions=none" in out


@pytest.mark.parametrize("argv", [
    ["--name", "lambda_g", "--genus", "3", "--check", "cs"],
    ["--name", "nikulin", "--check", "identities"],
    ["--name", "e8", "--check", "identities"],
    ["--name", "nikulin", "--check", "cs"],
    ["--name", "u", "--check", "cs"],
    ["--name", "u", "--check", "doubly-elliptic"],
    ["--name", "lambda_g", "--genus", "8", "--check", "doubly-elliptic"],
    ["--name", "e8", "--check", "doubly-elliptic"],
    ["--name", "nikulin", "--genus", "8"],
    ["--name", "nikulin", "--genus", "8", "--check", "doubly-elliptic"],
    ["--name", "u", "--genus", "8"],
    ["--name", "e8", "--genus", "8"],
    ["--name", "nikulin", "--scale", "2"],
    ["--name", "u", "--scale", "-1"],
    ["--name", "lambda_g", "--genus", "7", "--scale", "2"],
])
def test_lattice_rejects_bad_check_before_printing(capsys, argv):
    code, out, err = run(capsys, "lattice", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_lattice_doubly_elliptic(capsys):
    code, out, _ = run(capsys, "lattice", "--name", "nikulin",
                       "--check", "doubly-elliptic")
    assert code == 0
    assert "(2E+sum G_i)^2 = 14" in out


# --- schubert ---------------------------------------------------------------

def test_schubert_degree(capsys):
    code, out, _ = run(capsys, "schubert", "--n", "5",
                       "--expr", "4*s(2,1)*s1^3", "--degree")
    assert code == 0
    assert out.strip() == "8"


def test_schubert_expansion(capsys):
    code, out, _ = run(capsys, "schubert", "--n", "5", "--expr", "s1*s1")
    assert code == 0
    assert out.strip() == "s(1,1) + s(2,0)"


def test_schubert_parse_matches_library():
    cycle = parse_schubert_expr(5, "4*s(2,1)*s1^3")
    direct = sigma(5, 2, 1, 4)
    for _ in range(3):
        from spincalc.schubert import multiply
        direct = multiply(direct, sigma(5, 1))
    assert cycle == direct
    assert degree(parse_schubert_expr(5, "4*s(2,1)")) == 8


def test_schubert_parse_error(capsys):
    code, _, err = run(capsys, "schubert", "--n", "5", "--expr", "4+s(2,1)")
    assert code == 2


@pytest.mark.parametrize("expr", ["s\u0663", "\u0663*s1", "s(\u0662,1)"])
def test_schubert_refuses_digits_that_are_not_ascii(capsys, expr):
    # Arabic-Indic three and two, once read as 3 and 2
    code, out, _ = run(capsys, "schubert", "--n", "5", "--expr", expr)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("n, expr", [
    (cli.MAX_SCHUBERT_N + 1, "s1"),
    (10 ** 9, "s1"),
    (5, "s1^" + "9" * 5000),
    (5, "*".join(["7" * 2000] * 3) + "*s1"),
    (5, "s(" + "1" * 2001 + ")"),
], ids=["n-above-cap", "n-huge", "5000-digit-power", "three-2000-digit-ints",
        "2001-digit-index"])
def test_schubert_bounds_exit_two_at_once(capsys, n, expr):
    start = time.perf_counter()
    code, out, err = run(capsys, "schubert", "--n", str(n), "--expr", expr,
                         "--degree")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    bound = (f"at most {cli.MAX_SCHUBERT_N}" if n > cli.MAX_SCHUBERT_N
             else f"at most {cli.MAX_SCHUBERT_DIGITS} digits")
    assert bound in err


@pytest.mark.parametrize("expr, answer", [
    ("s1^10000000", "0"), ("s1^100000000", "0"), ("s0^100000000", "s(0,0)"),
    ("3*s(1,1)^100000000", "0"), ("s1^7", "0"), ("s1^6", "5*s(3,3)"),
])
def test_schubert_high_powers_answer_at_once(capsys, expr, answer):
    # the product of 2n - 3 factors of positive codimension is zero, and
    # s(0,0) is the unit, so no power needs more steps than that
    start = time.perf_counter()
    code, out, _ = run(capsys, "schubert", "--n", "5", "--expr", expr)
    assert time.perf_counter() - start < 1
    assert (code, out.strip()) == (0, answer)


def test_schubert_at_the_bounds_is_answered(capsys):
    n = str(cli.MAX_SCHUBERT_N)
    code, out, _ = run(capsys, "schubert", "--n", n, "--expr", "s1")
    assert (code, out.strip()) == (0, "s(1,0)")
    numeral = "7" * (cli.MAX_SCHUBERT_DIGITS - 4)  # with 2, 1, 1 and 3
    code, out, _ = run(capsys, "schubert", "--n", "5", "--expr",
                       f"{numeral}*s(2,1)*s1^3", "--degree")
    assert (code, out.strip()) == (0, str(int(numeral) * 2))


# --- complex ----------------------------------------------------------------

def test_complex_compound(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run(capsys, "complex", "--op", "compound",
                       "--input", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "rank: 3"


def test_complex_tangency(tmp_path, capsys):
    path = tmp_path / "line.txt"
    path.write_text("# rank-3 form, isotropic base point, tangent line\n"
                    "5\n"
                    "1 0 0 0 0\n0 1 0 0 0\n0 0 -1 0 0\n"
                    "0 0 0 0 0\n0 0 0 0 0\n"
                    "1 0 1 0 0\n"
                    "0 1 0 0 0\n")
    code, out, _ = run(capsys, "complex", "--op", "tangency",
                       "--input", str(path))
    assert code == 0
    assert out.strip() == "true"


def test_complex_singular(tmp_path, capsys):
    path = tmp_path / "point.txt"
    path.write_text("5\n"
                    "1 0 0 0 0\n0 -1 0 0 0\n0 0 1 0 0\n"
                    "0 0 0 -1 0\n0 0 0 0 1\n"
                    "1 1 0 0 0\n"
                    "0 0 1 1 0\n")
    code, out, _ = run(capsys, "complex", "--op", "singular",
                       "--input", str(path))
    assert code == 0
    assert out.strip() == "true"


@pytest.mark.parametrize("v", ["0 1 7", "0"])
def test_complex_vector_length_mismatch(tmp_path, capsys, v):
    path = tmp_path / "short.txt"
    path.write_text(f"2\n1 0\n0 -1\n1 1\n{v}\n")
    code, out, err = run(capsys, "complex", "--op", "tangency",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_complex_plucker_rank(tmp_path, capsys):
    path = tmp_path / "psi.txt"
    path.write_text("6\n1 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n")
    code, out, _ = run(capsys, "complex", "--op", "plucker-rank",
                       "--input", str(path))
    assert code == 0
    assert out.strip() == "6"


def test_complex_plucker_rank_needs_dimension_six(tmp_path, capsys):
    path = tmp_path / "psi.txt"
    path.write_text("5\n1 0 0 0 0 0 0 0 0 0\n")
    code, out, err = run(capsys, "complex", "--op", "plucker-rank",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert "6-dimensional" in err


def test_complex_rational_entries(tmp_path, capsys):
    path = tmp_path / "half.txt"
    path.write_text("2\n1/2 0\n0 1/2\n")
    code, out, _ = run(capsys, "complex", "--op", "compound",
                       "--input", str(path))
    assert code == 0
    assert out.splitlines()[0] == "1/4"


def test_complex_zero_denominator_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("2\n1/0 0\n0 1\n")
    code, out, err = run(capsys, "complex", "--op", "compound",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


TANGENT_LINE = ("1 0 0 0 0\n0 1 0 0 0\n0 0 -1 0 0\n0 0 0 0 0\n0 0 0 0 0\n"
                "1 0 1 0 0\n0 1 0 0 0\n")


@pytest.mark.parametrize("op,text", [
    ("tangency", "-2\n" + TANGENT_LINE),
    ("singular", "-2\n" + TANGENT_LINE),
    ("compound", "0\n"),
    ("compound", "-3\n"),
], ids=["tangency-2", "singular-2", "compound0", "compound-3"])
def test_complex_dimension_below_one_is_a_usage_error(tmp_path, capsys, op,
                                                      text):
    path = tmp_path / "form.txt"
    path.write_text(text)
    code, out, err = run(capsys, "complex", "--op", op, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_plucker_rank_length_check_lists_no_wedge_pairs(tmp_path, capsys,
                                                        monkeypatch):
    # the coefficient count C(dim, 2) is checked arithmetically, so a huge
    # dimension line costs nothing
    from spincalc import linecomplex
    monkeypatch.setattr(linecomplex, "wedge_pairs",
                        lambda n: pytest.fail(f"wedge_pairs({n}) built"))
    path = tmp_path / "psi.txt"
    path.write_text("100000\n1 0 0\n")
    code, out, err = run(capsys, "complex", "--op", "plucker-rank",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert "C(dim,2)" in err


@pytest.mark.parametrize("token", [
    "1e100000000", "0.5", "1" * 2001, "1/" + "7" * 2001, "--1",
    "1_000", "1/-2",
], ids=["huge-exponent", "decimal", "2001-digits", "2001-digit-denominator",
        "double-sign", "underscore", "signed-denominator"])
def test_complex_entry_outside_the_grammar_exits_two_at_once(
        tmp_path, capsys, token):
    path = tmp_path / "form.txt"
    path.write_text(f"# a comment line\n2\n\n1 0\n0 {token}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "complex", "--op", "compound",
                         "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 5:")
    assert token not in err


def test_complex_2000_digit_entries_print_exactly(tmp_path, capsys):
    big = 10 ** 2000 - 1
    path = tmp_path / "form.txt"
    path.write_text(f"2\n{big} -{big}\n-{big} 7\n")
    code, out, _ = run(capsys, "complex", "--op", "compound",
                       "--input", str(path))
    assert code == 0
    assert out.splitlines() == [str(7 * big - big * big), "rank: 1"]


@pytest.mark.parametrize("head", ["\u0663", "1_0", "2/1", "+x"],
                         ids=["arabic-indic-three", "underscore", "fraction",
                              "letter"])
def test_complex_dimension_line_keeps_the_entry_grammar(tmp_path, capsys,
                                                         head):
    path = tmp_path / "form.txt"
    path.write_text(f"{head}\n1 0 0\n0 1 0\n0 0 1\n", encoding="utf-8")
    code, out, err = run(capsys, "complex", "--op", "compound",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: the dimension must be an integer")


def test_complex_compound_over_4300_digits_names_the_input_bound(
        tmp_path, capsys):
    sevens, threes = "7" * 2000, "3" * 2000
    ones = "1" * 1999 + "3"
    path = tmp_path / "form.txt"
    path.write_text(f"2\n1/{sevens} 1/{ones}\n1/{ones} 1/{threes}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "complex", "--op", "compound",
                         "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "2000 digits a part" in err
    assert "set_int_max_str_digits" not in err


def coprime_form_lines():
    """A 7x7 form whose 28 entries have distinct odd 2000-digit
    denominators, pairwise coprime: any common prime of 1 + iK and 1 + jK
    divides (j - i) K, and every prime below 28 divides K, so their lcm
    has about 56000 digits.  Then two unit vectors."""
    k = factorial(30) * 10 ** 1966
    dens = iter(1 + i * k for i in range(4, 32))
    gram = [[""] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            gram[i][j] = gram[j][i] = f"1/{next(dens)}"
    return ["7", *(" ".join(row) for row in gram), "1 0 0 0 0 0 0",
            "0 1 0 0 0 0 0"]


def split_form_lines(u, v):
    """The one-digit form diag(1, -1, ..., 1) in dimension 15, which
    meets both rules, then the vectors u and v."""
    rows = [" ".join(str((-1) ** i if i == j else 0) for j in range(15))
            for i in range(15)]
    return ["15", *rows, " ".join(u), " ".join(v)]


def coprime_vector_lines():
    """An isotropic u and a v whose 2000-digit denominators are pairwise
    coprime, as above, so the vectors do not meet the size rule."""
    k = factorial(30) * 10 ** 1966
    p = [1 + i * k for i in range(26)]
    u = [f"1/{p[i]}" for i in range(1, 8) for _ in range(2)] + ["0"]
    return split_form_lines(u, [f"1/{p[i]}" for i in range(11, 26)])


@pytest.mark.parametrize("op,lines", [
    ("compound", coprime_form_lines), ("tangency", coprime_form_lines),
    ("tangency", coprime_vector_lines), ("singular", coprime_vector_lines),
], ids=["compound", "tangency", "tangency-vectors", "singular-vectors"])
def test_complex_coprime_denominators_exit_two_at_once(tmp_path, capsys, op,
                                                       lines):
    path = tmp_path / "form.txt"
    path.write_text("\n".join(lines()) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "complex", "--op", op, "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "below 10^2000" in err


@pytest.mark.parametrize("op,answer", [("tangency", "true"),
                                       ("singular", "false")])
def test_complex_vectors_meet_the_size_rule_alone(tmp_path, capsys, op,
                                                  answer):
    # 1999-digit vectors at dimension 15 would fail the work rule, which
    # prices an elimination; the vectors enter none, so they are answered
    big = "9" * 1999
    lines = split_form_lines([big, big] + ["0"] * 13,
                             ["0", "0", big] + [f"-{big}"] * 12)
    path = tmp_path / "form.txt"
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "complex", "--op", op, "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out.strip()) == (0, answer)


def dense_form_file(path, dim, digits, seed=1):
    """A seeded dense symmetric form with entries of exactly `digits`
    digits (0 or 1 for `digits` = 0), then two unit vectors."""
    rng = random.Random(seed)
    gram = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            gram[i][j] = gram[j][i] = (
                rng.randint(0, 1) if digits == 0 else
                rng.choice([-1, 1]) * rng.randrange(10 ** (digits - 1),
                                                    10 ** digits))
    units = [" ".join("1" if k == i else "0" for k in range(dim))
             for i in (0, 1)]
    path.write_text("\n".join([str(dim), *(" ".join(map(str, row))
                                           for row in gram), *units]) + "\n")


@pytest.mark.parametrize("op,dim,digits", [
    ("compound", 7, 2000), ("compound", 7, 200), ("compound", 6, 400),
    ("compound", 60, 0), ("tangency", 60, 0), ("singular", 60, 0),
    ("compound", 16, 1),
])
def test_complex_work_rule_exits_two_at_once(tmp_path, capsys, op, dim,
                                             digits):
    path = tmp_path / "form.txt"
    dense_form_file(path, dim, digits)
    start = time.perf_counter()
    code, out, err = run(capsys, "complex", "--op", op, "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: too much work: C(dim,2)^5 * D^2")


@pytest.mark.parametrize("dim,digits", [(7, 50), (7, 69), (6, 162), (4, 1603),
                                        (15, 1)])
def test_complex_work_rule_keeps_queries_inside_it(tmp_path, capsys, dim,
                                                   digits):
    path = tmp_path / "form.txt"
    dense_form_file(path, dim, digits)
    assert comb(dim, 2) ** 5 * digits ** 2 <= cli.MAX_COMPLEX_WORK
    start = time.perf_counter()
    code, out, _ = run(capsys, "complex", "--op", "compound",
                       "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines()[-1] == f"rank: {comb(dim, 2)}"


@pytest.mark.parametrize("coefficients,message", [
    (["9" * 2000] * 15, "too much work"),
    ([f"1/{1 + i * factorial(30) * 10 ** 1966}" for i in range(4, 19)],
     "below 10^2000"),
], ids=["2000-digit-integers", "coprime-denominators"])
def test_complex_plucker_rank_meets_both_rules(tmp_path, capsys,
                                               coefficients, message):
    path = tmp_path / "psi.txt"
    path.write_text("6\n" + " ".join(coefficients) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "complex", "--op", "plucker-rank",
                         "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert message in err


def test_complex_failure_after_compound_leaves_stdout_empty(
        tmp_path, capsys, monkeypatch):
    from spincalc import linecomplex

    def fail(self):
        raise ValueError("rank failed")
    monkeypatch.setattr(linecomplex.SymmetricForm, "rank", fail)
    path = tmp_path / "form.txt"
    path.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "complex", "--op", "compound",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: rank failed\n"


def test_complex_missing_file(capsys):
    code, _, err = run(capsys, "complex", "--op", "compound",
                       "--input", "/no/such/file")
    assert code == 2


# --- verify-all -------------------------------------------------------------

@pytest.fixture()
def small_samples(monkeypatch):
    monkeypatch.setattr(checks, "FULL_SAMPLES", checks.QUICK_SAMPLES)


def test_verify_all_text(small_samples, capsys):
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    assert "[ ok ] slope-bn8: 22/3" in out
    assert "failed=0" in out


def test_verify_all_json_round_trip(small_samples, capsys):
    code, out, _ = run(capsys, "verify-all", "--json", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert json.dumps(doc, indent=2) == out.strip()


def test_verify_all_seed_defaults_to_checks_default(monkeypatch, capsys):
    seeds = []

    def fake(seed):
        seeds.append(seed)
        raise ValueError("stop")
    monkeypatch.setattr(checks, "verify_all", fake)
    assert run(capsys, "verify-all")[0] == 2
    assert run(capsys, "verify-all", "--seed", "5")[0] == 2
    assert seeds == [checks.DEFAULT_SEED, 5]


def test_verify_all_exit_one_on_failure(monkeypatch, capsys):
    failing = checks.Report((checks.CheckRecord(
        "x", "c", "1", "2", "fail"),), seed=0)
    monkeypatch.setattr(checks, "verify_all",
                        lambda seed=0, perturb=None, quick=False: failing)
    code, out, _ = run(capsys, "verify-all")
    assert code == 1


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--curve", "unknown", "--divisor", "bn8"])
    assert exc.value.code == 2
