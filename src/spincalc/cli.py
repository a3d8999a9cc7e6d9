"""Command-line front end; `build_parser` names each subcommand.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors.  All rationals print as lowest-terms `p/q` (the denominator is
omitted when it is 1); there is no decimal output.  Each handler returns
its exit code and its whole output, which `main` prints once, so an
error leaves stdout empty.

Each handler imports the modules it runs, so a query loads only those:
`schubert` loads `spincalc.schubert` alone, `verify-all` the whole package.

The parser is built once per process and parses every argv `main` is
given.  Its handlers are bound when it is built, so a test patches what a
handler calls (as tests patch `checks.verify_all`), not a `_cmd_*`.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

#: `class --space` choices, spelled as `picard.MBAR`, `RBAR` and `SPIN`
_KINDS = ("mbar", "rbar", "spin")
#: the largest `--genus` that `pair` and `class` take: their time, memory
#: and output grow linearly in the genus, and at the cap the slowest query
#: (`class --space spin`) takes well under 0.1 s
MAX_GENUS = 10_000


class UsageError(ValueError):
    """Arguments the command line accepts but the query cannot use."""


_INT_FACTOR = re.compile(r"^-?\d+$", re.ASCII)


def _integer(text: str) -> int:
    """The `type=` of the integer options, which int() alone would also
    read in other scripts' digits, with underscores or with spaces.  Past
    the interpreter's digit limit int() raises ``ValueError``, which
    argparse would report with the whole text and this function's name."""
    if _INT_FACTOR.fullmatch(text):
        try:
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected at most {sys.get_int_max_str_digits()} digits"
            ) from None
    raise argparse.ArgumentTypeError(f"expected ASCII digits, not {text!r}")


def _require_genus_cap(genus) -> None:
    if genus is not None and genus > MAX_GENUS:
        raise UsageError(f"--genus must be at most {MAX_GENUS}, not {genus}")


def _build_curve(name: str, genus: int | None):
    from . import curves
    if name in ("xi", "gamma"):
        if genus is None:
            raise UsageError(f"--genus is required for the {name} curve")
        return (curves.xi_curve if name == "xi" else curves.gamma_curve)(genus)
    if genus not in (None, 8):
        raise UsageError(f"the {name} curve lives in genus 8")
    if name == "r":
        return curves.r_curve_g8()
    if name == "septic":
        return curves.septic_pencil_curve()
    if name == "btilde":
        return curves.btilde_curve(curves.septic_pencil_curve())
    raise UsageError(f"unknown curve {name!r}")


def _divisor_for_curve(curve, name: str, param):
    """Resolve a divisor on the curve's space, pulling back a
    stable-curve class along the covering when that is the only fit."""
    from . import picard
    try:
        return picard.named_divisor(name, space=curve.space, param=param)
    except picard.BadParamError:
        # on the stable-curve space itself this raises the same error again
        d = picard.named_divisor(name, space=picard.mbar(curve.space.genus),
                                 param=param)
        return picard.pullback(d, curve.space)


def _cmd_pair(args) -> tuple[int, str]:
    from . import curves
    _require_genus_cap(args.genus)
    curve = _build_curve(args.curve, args.genus)
    divisor = _divisor_for_curve(curve, args.divisor, args.param)
    return 0, str(curves.pair(curve, divisor))


def _cmd_class(args) -> tuple[int, str]:
    from . import picard
    _require_genus_cap(args.genus)
    space = picard.ModuliSpace(args.space, args.genus)
    d = picard.named_divisor(args.name, space=space, param=args.param)
    return 0, picard.format_class(d)


def _matrix_lines(rows) -> list:
    return [" ".join(str(x) for x in row) for row in rows]


#: `lattice --name` -> its builder, given `spincalc.lattices`, the genus
#: and the scale
_LATTICES = {"nikulin": lambda lattices, g, s: lattices.nikulin_lattice(),
             "lambda_g": lambda lattices, g, s: lattices.lambda_lattice(g),
             "u": lambda lattices, g, s: lattices.hyperbolic_u(),
             "e8": lambda lattices, g, s: lattices.e8(s)}
#: the one lattice each check battery, and each sizing option, applies to
_LATTICE_OF_CHECK = {"identities": "lambda_g", "cs": "lambda_g",
                     "doubly-elliptic": "nikulin"}
_LATTICE_OF_OPTION = {"genus": "lambda_g", "scale": "e8"}


def _lattice_check(check: str, genus: int) -> tuple[bool, list]:
    """Run a lattice check battery; returns (ok, report lines)."""
    from . import lattices
    if check == "identities":
        rows = lattices.lambda_identities(genus)
        return all(got == want for _, got, want in rows), [
            f"{name}: {got} (expected {want})"
            + ("" if got == want else "  <- FAIL")
            for name, got, want in rows]
    if check == "cs":
        entries = lattices.cs_obstruction(genus, a_bound=5)
        return all(e.cs_gap > 0 and not e.solution_found
                   for e in entries), [
            f"a={e.a}: sum={e.target_sum} norm={e.target_norm} "
            f"gap={e.cs_gap} solutions="
            f"{'found' if e.solution_found else 'none'}"
            for e in entries]
    square, dots, pencils = lattices.doubly_elliptic_identities()
    return (square == pencils == 14 and not any(dots)), [
        f"(2E+sum G_i)^2 = {square}", f"(C1+C2)^2 = {pencils}",
        f"C.G_i = {list(dots)}"]


def _cmd_lattice(args) -> tuple[int, str]:
    from . import lattices
    owner = _LATTICE_OF_CHECK.get(args.check)
    if owner not in (None, args.name):
        raise UsageError(
            f"--check {args.check} applies to --name {owner} only")
    for option, lattice in _LATTICE_OF_OPTION.items():
        if getattr(args, option) is not None and args.name != lattice:
            raise UsageError(f"--{option} applies to --name {lattice} only")
    genus = args.genus if args.genus is not None else 7
    scale = args.scale if args.scale is not None else 1
    lat = _LATTICES[args.name](lattices, genus, scale)
    lines = [" ".join(lat.basis_names), *_matrix_lines(lat.gram)]
    if not args.check:
        return 0, "\n".join(lines)
    ok, report = _lattice_check(args.check, genus)
    lines += [*report, "ok" if ok else "FAILED"]
    return 0 if ok else 1, "\n".join(lines)


#: s(a,b), s(a) or sa, each with an optional power ^k
_FACTOR = re.compile(r"^s(?:\((\d+)(?:,(\d+))?\)|(\d+))(?:\^(\d+))?$",
                     re.ASCII)
#: the largest `schubert --n`: a degree takes about n^2 Pieri terms, and
#: at the cap a whole `--expr s1 --degree` query took 1.0 s (median of
#: seven runs, 0.95-1.26 s) on a two-core x86-64 VM
MAX_SCHUBERT_N = 1000
#: the digits of all numerals of a `schubert` expression together: the
#: integer factors then multiply to below 10^2000, so with a Schubert
#: coefficient of G(2, 1000) (below 10^600) every number prints within
#: CPython's 4300-digit limit, and no expression has more factors
MAX_SCHUBERT_DIGITS = 2000


def parse_schubert_expr(n: int, expr: str):
    """Parse products like "4*s(2,1)*s1^3" into a `SchubertCycle` in
    G(2, n)."""
    from . import schubert
    digits = sum(map(len, re.findall(r"\d+", expr, re.ASCII)))
    if digits > MAX_SCHUBERT_DIGITS:
        raise UsageError(f"the numerals of an expression may have at most "
                         f"{MAX_SCHUBERT_DIGITS} digits together")
    result = schubert.sigma(n, 0, 0)
    for raw in expr.split("*"):
        token = raw.strip()
        if not token:
            raise UsageError("empty factor in expression")
        if _INT_FACTOR.match(token):
            result = result * int(token)
            continue
        m = _FACTOR.match(token)
        if not m:
            raise UsageError(f"cannot parse factor {token!r}")
        a, b = int(m.group(1) or m.group(3)), int(m.group(2) or 0)
        # 2n - 3 factors of positive codimension make the product zero,
        # and s(0,0) is the unit, so a higher power changes nothing
        for _ in range(min(int(m.group(4) or 1), 2 * n - 3)):
            result = schubert.multiply(result, schubert.sigma(n, a, b))
    return result


def _cmd_schubert(args) -> tuple[int, str]:
    from . import schubert
    if args.n > MAX_SCHUBERT_N:
        raise UsageError(f"--n must be at most {MAX_SCHUBERT_N}, "
                         f"not {args.n}")
    cycle = parse_schubert_expr(args.n, args.expr)
    return 0, str(schubert.degree(cycle) if args.degree else cycle)


#: one `complex` input entry: an integer or p/q, each part at most 2000
#: digits, so no numeral costs more than its text; the dimension line is
#: an integer of the same grammar.  A form's integer view (d G, d) must be
#: below 10^2000, so each compound entry prints in at most 4001 digits
_INTEGER = r"[+-]?\d{1,2000}"
_ENTRY = re.compile(rf"{_INTEGER}(?:/\d{{1,2000}})?", re.ASCII)
_DIMENSION = re.compile(_INTEGER, re.ASCII)
#: the work rule of `complex`: the rank of an n x n matrix of D-digit
#: ints, n = C(dim, 2), costs about n^5 D^2 digit operations, which must
#: stay at or below this (dim 7 takes entries of up to 69 digits, dim 15
#: one-digit entries); at the bound a whole `compound` query took under
#: 0.4 s on a two-core x86-64 VM
MAX_COMPLEX_WORK = 2 * 10 ** 10


def _read_complex_file(path: str):
    from fractions import Fraction
    with open(path, encoding="utf-8") as handle:
        lines = [(number, ln.strip()) for number, ln in enumerate(handle, 1)
                 if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise UsageError("empty input file")
    number, head = lines[0]
    if not _DIMENSION.fullmatch(head):
        raise UsageError(f"line {number}: the dimension must be an integer "
                         f"of at most 2000 ASCII digits")
    dim = int(head)
    if dim < 1:
        raise UsageError(f"dimension must be at least 1, not {dim}")
    for number, line in lines[1:]:
        if not all(map(_ENTRY.fullmatch, line.split())):
            raise UsageError(f"line {number}: entries must be integers or "
                             f"p/q with at most 2000 digits in each part")
    try:
        rows = [[Fraction(tok) for tok in ln.split()] for _, ln in lines[1:]]
    except ZeroDivisionError:
        raise UsageError("zero denominator in input") from None
    return dim, rows


def _require_size(ints, den: int) -> int:
    """The size rule of `complex` on the integer view (`ints`, `den`) of
    input rows, alone for the line predicates: the work rule prices an
    elimination, and they run none.  Returns max |entry|."""
    top = max(abs(x) for row in ints for x in row)
    if den >= 10 ** 2000 or top >= 10 ** 2000:
        raise UsageError("the entries times the lcm d of their denominators, "
                         "and d, must be below 10^2000: 2000 digits a part "
                         "bounds each entry, not their common denominator")
    return top


def _require_bounds(dim: int, ints, den: int) -> None:
    """The size rule and the work rule of `compound` and `plucker-rank`,
    checked before any work on the integer view (`ints`, `den`)."""
    n, digits = dim * (dim - 1) // 2, len(str(_require_size(ints, den)))
    if n ** 5 * digits ** 2 > MAX_COMPLEX_WORK:
        raise UsageError(f"too much work: C(dim,2)^5 * D^2 = {n}^5 * "
                         f"{digits}^2 is above {MAX_COMPLEX_WORK}, where D "
                         f"counts the digits of the largest entry times d")


def _cmd_complex(args) -> tuple[int, str]:
    from . import linecomplex
    from ._linalg import scaled
    dim, rows = _read_complex_file(args.input)
    if args.op == "plucker-rank":
        if len(rows) < 1 or len(rows[0]) != dim * (dim - 1) // 2:
            raise UsageError(
                "plucker-rank input: dimension line, then one line of "
                "C(dim,2) wedge coefficients in lexicographic order")
        if dim != 6:
            raise UsageError("the volume pairing needs a 6-dimensional space")
        _require_bounds(dim, *scaled(rows[:1]))
        psi = {p: c for p, c in zip(linecomplex.wedge_pairs(6), rows[0])
               if c}
        return 0, str(linecomplex.plucker_quadric_rank(psi))
    if len(rows) < dim:
        raise UsageError(f"expected {dim} matrix rows")
    q = linecomplex.symmetric_form(rows[:dim])
    if args.op == "compound":
        _require_bounds(dim, q._ints, q._den)
        c = linecomplex.second_compound(q)
        return 0, "\n".join([*_matrix_lines(c.gram), f"rank: {c.rank()}"])
    _require_size(q._ints, q._den)
    vectors = rows[dim:]
    if len(vectors) < 2:
        raise UsageError("tangency/singular input needs two "
                         "vector lines after the matrix")
    _require_size(*scaled(vectors[:2]))
    predicate = (linecomplex.tangency if args.op == "tangency"
                 else linecomplex.is_singular_point)
    return 0, "true" if predicate(q, vectors[0], vectors[1]) else "false"


def _cmd_verify_all(args) -> tuple[int, str]:
    from . import checks
    seed = checks.DEFAULT_SEED if args.seed is None else args.seed
    report = checks.verify_all(seed=seed)
    render = checks.render_json if args.json else checks.render_text
    return 0 if report.all_passed else 1, render(report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincalc",
        description="exact moduli intersection numbers, lattice identities "
                    "and Grassmannian degrees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="pair a test curve with a divisor")
    p.add_argument("--curve", required=True,
                   choices=["xi", "gamma", "r", "septic", "btilde"])
    p.add_argument("--genus", type=_integer)
    p.add_argument("--divisor", required=True)
    p.add_argument("--param", type=_integer)
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("class", help="print a named divisor class")
    p.add_argument("--space", required=True, choices=_KINDS)
    p.add_argument("--genus", type=_integer, required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--param", type=_integer)
    p.set_defaults(fn=_cmd_class)

    p = sub.add_parser("lattice", help="Gram matrices and lattice checks")
    p.add_argument("--name", required=True,
                   choices=["nikulin", "lambda_g", "u", "e8"])
    p.add_argument("--genus", type=_integer)
    p.add_argument("--scale", type=_integer)
    p.add_argument("--check",
                   choices=["identities", "cs", "doubly-elliptic"])
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("schubert", help="Schubert-class expressions")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--degree", action="store_true")
    p.set_defaults(fn=_cmd_schubert)

    p = sub.add_parser("complex", help="quadratic line-complex queries")
    p.add_argument("--op", required=True,
                   choices=["compound", "tangency", "singular",
                            "plucker-rank"])
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_complex)

    p = sub.add_parser("verify-all", help="run the full check registry")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=_integer)
    p.set_defaults(fn=_cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
