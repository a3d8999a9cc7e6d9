"""Alternating parent/change pairs of the benchmark, summarised as one
BENCH_<n>.json.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload rational-complex --first-seed 1501 --pairs 10 \
        --seconds 20 --out BENCH_15.json

Each side is a checkout directory holding its own `perfbench/run.py`,
`src/` and `BENCHMARK.json`; the script runs that checkout's
`perfbench/run.py --workload W --seed S --seconds X --trace 0` as a
subprocess from its root.  Pair i uses seed first_seed + i for both sides,
and the parent runs first in pairs 0, 2, 4, ... and second in the others,
so drift in machine speed hits both sides alike.  For every end-to-end
metric of the change's `BENCHMARK.json` the output gives each side's
median and quartiles (`statistics.quantiles(n=4)`; with one run both
quartiles are that run), `relative_change` of the medians, the number of
pairs in which the change is strictly better, the bound and the runs in
seed order; it also gives the failed ops of each side, and as
`parent_sha` the git sha the parent's runs report or, where they report
none (`perfbench/run.py` reads `.git/HEAD`, which a worktree lacks),
`git -C PARENT rev-parse HEAD`; it is null only when the parent
directory is the top of no git checkout, so clone it rather than export
it.  A run that
reports a wrong answer or misses a declared metric stops the script with
exit status 1.

`--claim WORKLOAD:METRIC` adds a `claim` record.  It is met when the
change is better in at least nine tenths of the pairs and the medians
differ, in the better direction, by more than the distance between the
parent's quartiles.  `--trace-seed S` adds a `traces` record: one
`--seconds 1 --trace 1` run of `certificate` a side at seed S, and every
count metric (`.calls`, `linalg.mat_rank.cells`, the sampler's
`det_per_accept`) that differs between the two.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: count metrics compared by `--trace-seed`, besides every ".calls" one
TRACE_COUNTS = ("linalg.mat_rank.cells",
                "linecomplex.random_invertible_matrix.det_per_accept")


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def end_to_end(root: Path) -> dict:
    """{metric name: its BENCHMARK.json record} of the checkout at root."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple[dict, dict]:
    """One benchmark run from the checkout at root: (env, result)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def head_sha(root: Path, reported):
    """The sha a run reported, else the HEAD of the git checkout whose top
    is root, else None."""
    if reported:
        return reported
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    lines = done.stdout.split("\n")
    if done.returncode or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def quartiles(runs: list) -> tuple[float, float]:
    if len(runs) == 1:
        return runs[0], runs[0]
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return q1, q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def summarise(parent: list, change: list, spec: dict) -> dict:
    """The record of one metric from the runs of each side, paired in
    seed order."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    return {
        "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
        "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
        "relative_change": round((c_med - p_med) / p_med, 4),
        "change_better_pairs": sum(better(c, p, spec["better"])
                                   for p, c in zip(parent, change)),
        "bound": spec["bound"],
        "parent_runs": parent, "change_runs": change,
    }


def claim_record(workload: str, metric: str, record: dict,
                 direction: str) -> dict:
    iqr = record["parent_q3"] - record["parent_q1"]
    runs = len(record["parent_runs"])
    gain = record["parent_median"] - record["change_median"]
    if direction == "higher":
        gain = -gain
    return {
        "workload": workload, "metric": metric,
        "parent_median": record["parent_median"],
        "change_median": record["change_median"],
        "relative_change": record["relative_change"],
        "change_better_pairs": record["change_better_pairs"],
        "parent_iqr": iqr,
        "met": 10 * record["change_better_pairs"] >= 9 * runs and gain > iqr,
    }


def pairs(parent: Path, change: Path, workload: str, seeds: list,
          seconds: float, specs: dict) -> tuple[dict, dict]:
    """Run the pairs of one workload; returns its BENCH record and the
    environment record of the parent's last run."""
    runs = {"parent": [], "change": []}
    envs = {}
    failed = {"parent": 0, "change": 0}
    for i, seed in enumerate(seeds):
        order = (("parent", parent), ("change", change))
        for side, root in order if i % 2 == 0 else order[::-1]:
            envs[side], result = run_once(root, workload, seed, seconds)
            missing = sorted(set(specs) - set(result["metrics"]))
            if not result["correct"] or missing:
                raise RuntimeError(f"{side} {workload} seed {seed}: correct="
                                   f"{result['correct']}, missing {missing}")
            runs[side].append({name: result["metrics"][name]["value"]
                               for name in specs})
            failed[side] += result["failed"]
            log(f"{workload} seed {seed} {side}: wall_s "
                f"{runs[side][-1].get('wall_s')}")
    record = {name: summarise([r[name] for r in runs["parent"]],
                              [r[name] for r in runs["change"]], spec)
              for name, spec in specs.items()}
    record["failed_ops"] = failed
    return record, envs["parent"]


def trace_counts(root: Path, seed: int) -> dict:
    _, result = run_once(root, "certificate", seed, 1, trace=1)
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(".calls") or name in TRACE_COUNTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/run.py; repeatable")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims "
                        "a gain on")
    parser.add_argument("--trace-seed", type=int,
                        help="compare the counts of one traced certificate "
                        "run a side at this seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    specs = end_to_end(change)
    claim = args.claim.partition(":")[::2] if args.claim else None
    if claim and (claim[0] not in args.workload or claim[1] not in specs):
        parser.error("--claim needs a workload that runs and an end-to-end "
                     "metric")
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))

    workloads = {}
    try:
        for workload in args.workload:
            workloads[workload], env = pairs(parent, change, workload, seeds,
                                             args.seconds, specs)
        if args.trace_seed is not None:
            counts = (trace_counts(parent, args.trace_seed),
                      trace_counts(change, args.trace_seed))
    except RuntimeError as error:
        log(f"error: {error}")
        return 1
    bench = {
        "what": "parent/change pairs of unmodified perfbench/run.py "
                f"(--seconds {args.seconds:g} --trace 0) by "
                "tools/bench_pairs.py, one pair per seed and workload, the "
                "parent running first in every other pair from the first; "
                "end-to-end times are calibrated by the benchmark itself; "
                "quartiles are statistics.quantiles(n=4) of each side's "
                "runs; parent_runs and change_runs list the runs in seed "
                "order",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent_sha": head_sha(parent, env["git_sha"]),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": f"{platform.machine()} {platform.system()}, "
                   f"{len(os.sched_getaffinity(0))} cores usable",
        "claim": None,
        "seeds": seeds,
        "workloads": workloads,
    }
    if claim:
        workload, metric = claim
        bench["claim"] = claim_record(workload, metric,
                                      workloads[workload][metric],
                                      specs[metric]["better"])
    if args.trace_seed is not None:
        before, after = counts
        bench["traces"] = {
            "note": f"certificate, seed {args.trace_seed}, --seconds 1 "
                    "--trace 1, one run a side",
            "counts": after,
            "calls_that_differ": {k: [before.get(k), v]
                                  for k, v in after.items()
                                  if before.get(k) != v},
        }
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
