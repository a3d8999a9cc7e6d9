"""Command-line surface: outputs, exit codes, file formats."""

import json
import time
from math import factorial

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


@pytest.mark.parametrize("op", ["compound", "tangency"])
def test_complex_coprime_denominators_exit_two_at_once(tmp_path, capsys, op):
    # 28 distinct odd 2000-digit denominators, pairwise coprime: any common
    # prime of 1 + iK and 1 + jK divides (j - i) K, and every prime below
    # 28 divides K, so their lcm has about 56000 digits
    k = factorial(30) * 10 ** 1966
    dens = iter(1 + i * k for i in range(4, 32))
    gram = [[""] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            gram[i][j] = gram[j][i] = f"1/{next(dens)}"
    rows = [" ".join(row) for row in gram]
    path = tmp_path / "form.txt"
    path.write_text("\n".join(["7", *rows, "1 0 0 0 0 0 0",
                               "0 1 0 0 0 0 0"]) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "complex", "--op", op, "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "below 10^2000" in err


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
