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
#: metric of BENCHMARK.json is 1, each run appends "<side> <seed>" to the
#: shared log one directory up, and the sha it reports is GIT_SHA
FAKE_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
root = Path.cwd()
with open(root.parent / "order.log", "a") as log:
    log.write(f"{root.name} {args['--seed']}\\n")
names = [m["name"] for m in
         json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
metrics = {name: {"value": 1.0, "unit": "x"} for name in names}
metrics["wall_s"]["value"] = WALL + int(args["--seed"]) / 1000
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
