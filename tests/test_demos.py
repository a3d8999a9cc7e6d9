"""Each demo script prints exactly the bytes it printed before.

The sha256 of each demo's stdout is pinned, so a refactor that changes
any printed value, label or line of a demo fails here.  All six demos
run in about a quarter of a second together.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: sha256 of the stdout of each demo
DEMO_SHA256 = {
    "grassmannian_degrees.py":
        "f69f14d1ad8da0c74a9e49725aaf4cb85559155bb5612bb74d2a1ee5a75e60a8",
    "lattice_identities.py":
        "805bd5d50aa9b1bd06074d08dc1093c77d6a730f8efeeda34c19a0520c1a6106",
    "line_complex.py":
        "2aedc06c358d26a2d107487da6325b31fa3adf04fb7cfcf3fa4e47b0a530614b",
    "prym_pairings.py":
        "e22372c952d4b68b6052ad4d2fbe2ed4109e2b3529366d18c208647514e2f766",
    "spin_genus8.py":
        "22ed5e67c9605e21b0ea79a1062ea9be0c43d4bede705c55fc3daa355f0b1fa9",
    "theta_null_pencils.py":
        "07fd8b44c14dd7583256a5319717765bbe2f233663ffa89063f12da668ae532c",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            capture_output=True, env=env, timeout=60,
                            check=True)
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_SHA256[name]
