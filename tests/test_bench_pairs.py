"""The pairing driver of the benchmark, tools/bench_pairs.py, against two
stand-in checkouts whose perfbench/run.py prints fixed metrics."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

#: a stand-in run.py: wall_s is WALL plus the seed / 1000, every other
#: end-to-end metric of BENCHMARK.json is 1, each run appends "<side>
#: <seed>" to the shared log one directory up, and the sha it reports is
#: GIT_SHA; a `--trace 1` run adds the per-layer metrics, each `.self_ms`
#: WALL * 1000, `checks.verify_all.calls` round(WALL * 1000), the rest 1
FAKE_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
root = Path.cwd()
with open(root.parent / "order.log", "a") as log:
    log.write(f"{root.name} {args['--seed']}\\n")
spec = json.loads((root / "BENCHMARK.json").read_text())
names = [m["name"] for m in spec["end_to_end"]]
if args["--trace"] == "1":
    names += [m["name"] for m in spec["per_layer"]]
metrics = {name: {"value": WALL * 1000 if name.endswith(".self_ms")
                  else 1.0, "unit": "x"} for name in names}
metrics["wall_s"]["value"] = WALL + int(args["--seed"]) / 1000
if "checks.verify_all.calls" in metrics:
    metrics["checks.verify_all.calls"]["value"] = round(WALL * 1000)
print(json.dumps({"env": {"git_sha": GIT_SHA}}))
print(json.dumps({"correct": CORRECT, "attempted": 3, "failed": 0,
                  "metrics": metrics}))
'''


def checkout(tmp_path, name, wall, correct=True, git_sha="root.name"):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    (root / "perfbench" / "run.py").write_text(
        FAKE_RUN.replace("WALL", repr(wall))
        .replace("CORRECT", repr(correct)).replace("GIT_SHA", git_sha))
    return root


def test_pairs_alternate_and_summarise(tmp_path):
    parent = checkout(tmp_path, "parent", 0.010)
    change = checkout(tmp_path, "change", 0.005)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "rational-complex", "--first-seed", "1",
        "--pairs", "4", "--seconds", "0", "--out", str(out),
        "--claim", "rational-complex:wall_s"]) == 0
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 1", "change 1", "change 2", "parent 2",
                     "parent 3", "change 3", "change 4", "parent 4"]
    bench = json.loads(out.read_text())
    assert bench["seeds"] == [1, 2, 3, 4]
    assert bench["parent_sha"] == "parent"
    record = bench["workloads"]["rational-complex"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(record) == {m["name"] for m in spec["end_to_end"]} | {
        "failed_ops"}
    wall = record["wall_s"]
    assert wall["parent_runs"] == pytest.approx([0.011, 0.012, 0.013, 0.014])
    assert wall["change_median"] == pytest.approx(0.0075)
    assert wall["relative_change"] == -0.4
    assert wall["change_better_pairs"] == 4
    assert record["ops_per_s"]["change_better_pairs"] == 0   # ties
    # the parent's quartiles are 0.01125 and 0.01375: a gain of 0.005 in
    # the median is more than their distance
    assert bench["claim"]["parent_iqr"] == pytest.approx(0.0025)
    assert bench["claim"]["met"] is True


def test_a_wrong_answer_stops_the_pairs(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", 0.010)
    change = checkout(tmp_path, "change", 0.008, correct=False)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "certificate", "--first-seed", "5", "--pairs", "1",
        "--seconds", "0", "--out", str(out)]) == 1
    assert "change certificate seed 5" in capsys.readouterr().err
    assert not out.exists()


def test_parent_sha_falls_back_to_the_checkout_head(tmp_path):
    # a run from a worktree or an exported tree reports no sha; the
    # driver then asks git for the HEAD of the parent checkout itself
    parent = checkout(tmp_path, "parent", 0.010, git_sha="None")
    change = checkout(tmp_path, "change", 0.008, git_sha="None")
    git = ["git", "-C", str(parent), "-c", "user.name=t",
           "-c", "user.email=t@t"]
    for argv in (["init", "-q"], ["add", "-A"],
                 ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + argv, check=True, capture_output=True)
    sha = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
    assert bench_pairs.head_sha(change, None) is None
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "certificate", "--first-seed", "1", "--pairs", "1",
        "--seconds", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["parent_sha"] == sha


def test_quartiles_of_a_single_run():
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0)


def test_claim_needs_a_workload_that_runs(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(ROOT),
                          "--workload", "certificate", "--first-seed", "1",
                          "--out", str(tmp_path / "x.json"),
                          "--claim", "rational-complex:wall_s"])


def test_trace_seed_reports_counts_that_differ_and_self_times(tmp_path):
    parent = checkout(tmp_path, "parent", 0.010)
    change = checkout(tmp_path, "change", 0.005)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "certificate", "--first-seed", "1", "--pairs", "1",
        "--seconds", "0", "--trace-seed", "1729", "--out", str(out)]) == 0
    traces = json.loads(out.read_text())["traces"]
    # after the one pair, five traced runs a side alternate as pairs do
    order = (tmp_path / "order.log").read_text().split("\n")[2:-1]
    assert order == [f"{side} 1729" for side in
                     ("parent", "change", "change", "parent") * 2
                     + ("parent", "change")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    self_ms = {m["name"] for m in spec["per_layer"]
               if m["name"].endswith(".self_ms")}
    assert traces["calls_that_differ"] == {"checks.verify_all.calls": [10, 5]}
    assert traces["counts"]["checks.verify_all.calls"] == 5
    assert not any(name.endswith(".self_ms") for name in traces["counts"])
    # self times are reported for each side, whatever their difference
    assert traces["self_ms"] == {
        "parent": dict.fromkeys(self_ms, 10.0),
        "change": dict.fromkeys(self_ms, 5.0)}
    assert traces["change_lower_pairs"] == dict.fromkeys(self_ms, 5)
    assert "not judged" in traces["note"]



def test_traced_runs_give_median_self_times_and_need_equal_counts(
        monkeypatch):
    def traced(change_calls):
        runs = {"parent": iter(zip([3] * 5, [9, 1, 5, 7, 2])),
                "change": iter(zip(change_calls, [4] * 5))}

        def fake(root, seed):
            calls, ms = next(runs[root.name])
            return {"a.calls": calls}, {"a.self_ms": ms}
        monkeypatch.setattr(bench_pairs, "trace_metrics", fake)
        return bench_pairs.traces(Path("parent"), Path("change"), 1729)

    # the median, not the mean (4.8) or the first run (9); the change is
    # lower than the parent in the runs where the parent read 9, 5 and 7
    assert traced([3] * 5) == (({"a.calls": 3}, {"a.self_ms": 5}),
                               ({"a.calls": 3}, {"a.self_ms": 4}),
                               {"a.self_ms": 3})
    with pytest.raises(RuntimeError, match="change traced counts differ"):
        traced([3, 3, 3, 3, 4])


def test_paired_counts_show_the_layer_a_slow_phase_hides(monkeypatch):
    # a slow phase lifts both layers of the last three change runs and of
    # the last two parent runs: each side's median reads both layers
    # higher on the change side, but only the layer the change moved is
    # lower in most of the runs made back to back
    moved = {"parent": [10, 10, 10, 20, 20], "change": [9, 9, 18, 18, 18]}
    kept = {"parent": [5, 5, 5, 10, 10], "change": [5, 5, 10, 10, 10]}
    runs = {side: iter(zip(moved[side], kept[side])) for side in moved}

    def fake(root, seed):
        a, b = next(runs[root.name])
        return {"a.calls": 1}, {"a.self_ms": a, "b.self_ms": b}
    monkeypatch.setattr(bench_pairs, "trace_metrics", fake)
    (_, parent_ms), (_, change_ms), lower = bench_pairs.traces(
        Path("parent"), Path("change"), 1729)
    assert parent_ms == {"a.self_ms": 10, "b.self_ms": 5}
    assert change_ms == {"a.self_ms": 18, "b.self_ms": 10}
    assert lower == {"a.self_ms": 4, "b.self_ms": 0}
