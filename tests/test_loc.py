"""The line counter of the package, tools/loc.py, on a synthetic module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(loc)

#: 11 lines: a two-line module docstring, a one-line class docstring and
#: a three-line function docstring; the literal after the function's
#: docstring and the assigned string are code
SOURCE = '''"""A module.
Its second line."""
NAME = "not a docstring"
class A:
    """A class."""
    def f(self):
        """A method,
        over three lines.
        """
        "a later string literal"
        return 1
'''


def test_docstrings_are_counted_and_later_literals_are_not(tmp_path, capsys):
    (tmp_path / "m.py").write_text(SOURCE)
    assert loc.count(tmp_path / "m.py") == (11, 6)
    assert loc.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["m.py", "11", "6", "5"]
    assert rows[-1].split() == ["total", "11", "6", "5"]
