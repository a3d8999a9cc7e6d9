"""Import footprint: `import spincalc` loads no submodule, and each CLI
subcommand loads only the modules it runs.

The footprint is read from `sys.modules` in a fresh interpreter, since
this test process has long since imported the whole package.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import spincalc

#: prints the sorted spincalc modules loaded after exec'ing argv[1]; the
#: remaining arguments, if any, are a CLI argument vector run quietly first
PROBE = """
import contextlib, io, json, sys
exec(sys.argv[1])
if len(sys.argv) > 2:
    from spincalc.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[2:]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "spincalc")))
"""

SRC = os.path.dirname(os.path.dirname(spincalc.__file__))

TANGENCY_INPUT = ("5\n1 0 0 0 0\n0 1 0 0 0\n0 0 -1 0 0\n"
                  "0 0 0 0 0\n0 0 0 0 0\n1 0 1 0 0\n0 1 0 0 0\n")

#: every module of the package but the CLI
LIBRARY = {"_linalg", "_record", "checks", "curves", "kodaira", "lattices",
           "linecomplex", "picard", "schubert"}

#: the README's argument vectors, with the modules each one may load
README_QUERIES = [
    (["pair", "--curve", "xi", "--genus", "6", "--divisor", "nikulin_N6"],
     {"picard", "curves", "_record"}),
    (["pair", "--curve", "btilde", "--genus", "8", "--divisor", "bn8"],
     {"picard", "curves", "_record"}),
    (["class", "--space", "rbar", "--genus", "6", "--name", "nikulin_N6"],
     {"picard", "_record"}),
    (["class", "--space", "spin", "--genus", "8", "--name", "canonical"],
     {"picard", "_record"}),
    (["lattice", "--name", "lambda_g", "--genus", "7", "--check",
      "identities"], {"lattices", "_linalg", "_record"}),
    (["lattice", "--name", "nikulin", "--check", "doubly-elliptic"],
     {"lattices", "_linalg", "_record"}),
    (["schubert", "--n", "5", "--expr", "4*s(2,1)*s1^3", "--degree"],
     {"schubert", "_record"}),
    (["complex", "--op", "tangency", "--input", "line.txt"],
     {"linecomplex", "_linalg", "_record"}),
    (["verify-all", "--json", "--seed", "1729"], LIBRARY),
]


def run_probe(script, *args, cwd=None):
    """Run `script` in a fresh interpreter; returns its last line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded(code, *argv, cwd=None):
    return set(run_probe(PROBE, code, *argv, cwd=cwd))


def test_import_package_loads_no_submodule():
    assert loaded("import spincalc") == {"spincalc"}


def test_import_cli_loads_only_the_cli():
    assert loaded("import spincalc.cli") == {"spincalc", "spincalc.cli"}


def test_building_the_parser_loads_no_submodule():
    code = "from spincalc.cli import build_parser; build_parser()"
    assert loaded(code) == {"spincalc", "spincalc.cli"}


@pytest.mark.parametrize("argv,modules", README_QUERIES,
                         ids=[" ".join(argv[:3]) for argv, _ in
                              README_QUERIES])
def test_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    (tmp_path / "line.txt").write_text(TANGENCY_INPUT)
    want = {"spincalc", "spincalc.cli"} | {f"spincalc.{m}" for m in modules}
    assert loaded("pass", *argv, cwd=tmp_path) == want


#: runs every README query except `verify-all` (whose modules `import
#: spincalc.checks` has already loaded) and prints the loaded stdlib
#: modules that the value types once pulled in
NO_DATACLASSES = """
import contextlib, io, json, sys
import spincalc.checks
from spincalc.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def test_no_query_imports_dataclasses_or_inspect(tmp_path):
    (tmp_path / "line.txt").write_text(TANGENCY_INPUT)
    queries = [argv for argv, _ in README_QUERIES if argv[0] != "verify-all"]
    assert run_probe(NO_DATACLASSES, json.dumps(queries), cwd=tmp_path) == []


#: runs one CLI query and prints the rational-number modules it loaded
NO_FRACTIONS = """
import contextlib, io, json, sys
from spincalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(json.loads(sys.argv[1])) == 0
print(json.dumps(sorted({"fractions", "decimal"} & set(sys.modules))))
"""


def test_schubert_query_loads_no_fractions():
    (argv,) = [argv for argv, _ in README_QUERIES if argv[0] == "schubert"]
    assert run_probe(NO_FRACTIONS, json.dumps(argv)) == []


def test_library_is_every_module_but_the_cli():
    found = {info.name for info in pkgutil.iter_modules(spincalc.__path__)}
    assert found == LIBRARY | {"cli"}


def test_every_export_is_its_module_attribute():
    for name in spincalc.__all__:
        module = importlib.import_module(
            f"spincalc.{spincalc._MODULE_OF[name]}")
        value = getattr(spincalc, name)
        assert value is getattr(module, name), name
        if hasattr(value, "__module__"):
            assert value.__module__ == module.__name__, name


def test_exports_are_not_cached_in_the_package(monkeypatch):
    from spincalc import schubert
    assert spincalc.degree is schubert.degree
    assert "degree" not in vars(spincalc)
    monkeypatch.setattr(schubert, "degree", len)
    assert spincalc.degree is len


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from spincalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(spincalc.__all__)
    assert set(spincalc.__all__) <= set(dir(spincalc))
    assert len(spincalc.__all__) == len(set(spincalc.__all__))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spincalc.no_such_name
    assert not hasattr(spincalc, "no_such_name")
