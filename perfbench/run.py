"""spincalc benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certificate --seed 1729 \
        --seconds 20 --trace 0

Workloads are `certificate`, `cli-session` and `rational-complex` (see
WORKLOADS.md).  Each run sets up SETUP_REPEATS times and reports the median
as `setup_s`, then, with `--trace 0`, runs a closed loop with one client for
`--seconds` and prints the end-to-end metrics.  With `--trace 1` it runs the
workload's fixed traced work twice untraced and twice traced, checks that
both traced passes counted the same calls, and prints the per-layer
metrics.  Every op's answer is checked.  End-to-end times are scaled to a
nominal machine speed read from a frozen reference kernel during the run
(see calibrate.py); the raw wall-clock values go to the environment
record.  The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}; the line before it is the environment
record.  Spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import certificate
import cli_session
import rational_complex
import tracer
from calibrate import Clock
from common import run_fixed, run_loop, wrong

SETUP_REPEATS = 3
STARTUP_REPEATS = 15
WORKLOADS = {"certificate": certificate, "cli-session": cli_session,
             "rational-complex": rational_complex}
UNITS = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_p90_ms": "ms"}


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def startup_ms(root: Path) -> tuple[float, float]:
    """Median of a bare interpreter start, and median over back-to-back
    pairs of the extra time that importing the CLI takes."""
    env = cli_session.subprocess_env(str(root))
    bare, extra = [], []
    for _ in range(STARTUP_REPEATS):
        pair = []
        for code in ("pass", "import spincalc.cli"):
            start = time.perf_counter()
            # piped output lets the wait end at the child's exit; an
            # unpiped wait with a timeout polls at up to 50 ms steps
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=60)
            pair.append((time.perf_counter() - start) * 1000)
        bare.append(pair[0])
        extra.append(pair[1] - pair[0])
    return statistics.median(bare), statistics.median(extra)


def _setup(workload, root: Path, seed: int, toy: bool):
    """Warm the bytecode cache and build the inputs, SETUP_REPEATS times,
    reading a speed clock meanwhile; returns (median raw seconds, speed
    factor, last state, whether compilation succeeded)."""
    times = []
    state = None
    with Clock(timer=True) as clock:
        for _ in range(SETUP_REPEATS):
            paused = clock.paused_s
            start = time.perf_counter()
            compiled = compileall.compile_dir(str(root / "src"), quiet=1)
            state = workload.setup(str(root), seed, toy)
            times.append(time.perf_counter() - start
                         - (clock.paused_s - paused))
    return statistics.median(times), clock.factor(), state, bool(compiled)


def _end_to_end(state, seconds, in_process):
    """End-to-end times at nominal speed, the raw ones, the speed factor
    and the op counts."""
    with Clock(timer=in_process) as clock:
        lat, blocks, attempted, failed = run_loop(state, seconds, clock)
    raw = {
        "wall_s": statistics.median(blocks),
        "ops_per_s": (attempted - failed) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": _p90(lat) * 1000,
    }
    f = clock.factor()
    metrics = {k: (v / f if k == "ops_per_s" else v * f,
                   UNITS[k]) for k, v in raw.items()}
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024,
                              "MB")
    return metrics, raw, f, attempted, failed


def _traced(state, root: Path, name: str, seed: int):
    """Untraced and traced passes over the fixed traced work, alternated
    (U T U T) so that drift hits both sides of the overhead alike."""
    untraced, passes = [], []
    attempted = failed = 0
    for _ in range(2):
        wall, n, bad = run_fixed(state.traced_units, state)
        untraced.append(wall)
        t = tracer.Tracer()
        undo = tracer.install(t)

        def next_op(t=t):
            t.op_id += 1
        try:
            traced_wall, m, bad2 = run_fixed(state.traced_units, state,
                                             next_op)
        finally:
            tracer.uninstall(undo)
        passes.append((t, traced_wall))
        attempted += n + m
        failed += bad + bad2
    (first, wall1), (second, wall2) = passes
    counts1, counts2 = first.counts(), second.counts()
    deterministic = counts1 == counts2
    if not deterministic:
        diff = {k: (counts1[k], counts2[k]) for k in counts1
                if counts1[k] != counts2.get(k)}
        print(f"traced passes disagree: {diff}", file=sys.stderr)
    first.write(root / ".bench_out" / f"spans-{name}-{seed}.tsv")
    metrics = first.metrics()
    interp, imp = startup_ms(root)
    metrics["cli.interp_start_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (imp, "ms")
    metrics["trace.overhead_frac"] = ((wall1 + wall2) / sum(untraced) - 1,
                                      "ratio")
    return metrics, attempted, failed, deterministic


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              root: Path, toy: bool = False, inject_fault: bool = False):
    """Run one workload and return (result, environment record)."""
    workload = WORKLOADS[name]
    load_start = os.getloadavg()
    setup_raw, setup_factor, state, compiled = _setup(workload, root, seed,
                                                      toy)
    if inject_fault:
        op = state.units[0][0]
        op.expected = wrong(op.expected)
        state.traced_units[0][0].expected = op.expected
    raw = {"setup_s": setup_raw}
    speed = {"setup": setup_factor}
    try:
        if trace:
            metrics, attempted, failed, ok = _traced(state, root, name, seed)
        else:
            metrics, timings, speed["run"], attempted, failed = _end_to_end(
                state, seconds, in_process=name != "cli-session")
            metrics["setup_s"] = (setup_raw * setup_factor, "s")
            raw.update(timings)
            ok = True
    finally:
        state.cleanup()
    env = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "toy": toy, "git_sha": _git_sha(root),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "sizes": state.sizes, "failed_frac": failed / attempted,
        "first_failures": state.failures,
        "raw_wall_clock": raw, "speed_factor": speed,
    }
    result = {
        "correct": bool(ok and compiled and failed == 0),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "spincalc" / "__init__.py").is_file():
        print(f"error: no spincalc sources under {src}; run from the root "
              "of a spincalc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spincalc
    if Path(spincalc.__file__).resolve().parent != src / "spincalc":
        print(f"error: imported spincalc from {spincalc.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    (root / ".bench_out").mkdir(exist_ok=True)

    result, env = benchmark(args.workload, args.seed, args.seconds,
                            bool(args.trace), root)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
