"""Self-test of the benchmark, at toy size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it runs the end-to-end and the traced mode at toy size
and asserts that every metric named in BENCHMARK.json is emitted with its
unit, that every answer checks and that `failed_frac` is 0.  A negative
control then injects one wrong expected answer per workload and asserts
that the run reports a failure.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _declared(root: Path):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _assert_metrics(result, declared, label):
    got = result["metrics"]
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    assert not missing and not extra, f"{label}: missing {missing}, " \
                                      f"undeclared {extra}"
    for name, unit in declared.items():
        metric = got[name]
        assert metric["unit"] == unit, f"{label}: {name} unit {metric}"
        assert isinstance(metric["value"], (int, float)), f"{label}: {name}"


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    (root / ".bench_out").mkdir(exist_ok=True)
    end_to_end, per_layer = _declared(root)
    for name in run.WORKLOADS:
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            label = f"{name} trace={int(trace)}"
            result, env = run.benchmark(name, 1729, 0.0, trace, root,
                                        toy=True)
            _assert_metrics(result, declared, label)
            assert result["correct"], f"{label}: {env['first_failures']}"
            assert result["failed"] == 0 and env["failed_frac"] == 0, label
            assert result["attempted"] >= 1, label
            print(f"ok   {label}: {result['attempted']} ops")
        result, env = run.benchmark(name, 1729, 0.0, False, root, toy=True,
                                    inject_fault=True)
        assert not result["correct"] and env["failed_frac"] > 0, \
            f"{name}: an injected wrong answer went unnoticed"
        print(f"ok   {name} negative control: failed_frac="
              f"{env['failed_frac']:.3f}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
