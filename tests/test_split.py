"""The property suites judged in two processes: the same document as the
serial run, the same records when a suite fails, and no child left."""

import os
import random
import threading

import pytest

from spincalc import checks, linecomplex

TWO_CPUS = len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
               else range(os.cpu_count() or 1)) >= 2
needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and TWO_CPUS),
                                reason="the split needs os.fork and 2 CPUs")


@pytest.fixture
def forks(monkeypatch):
    """The parent's record of every `os.fork` call."""
    made, real = [], os.fork

    def fork():
        made.append(os.getpid())
        return real()
    monkeypatch.setattr(os, "fork", fork)
    return made


def serial_json(monkeypatch, **kw):
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return checks.render_json(checks.verify_all(**kw))


@needs_fork
@pytest.mark.parametrize("seed", [1729, 1, 2])
def test_split_document_is_the_serial_one(monkeypatch, forks, seed):
    split = checks.render_json(checks.verify_all(seed))
    assert len(forks) == 1
    assert split == serial_json(monkeypatch, seed=seed)


@needs_fork
def test_each_process_judges_every_other_sample(monkeypatch, forks,
                                                tmp_path):
    # each process logs the samples it judges to a file named by its pid;
    # a split that fell back to the serial run would log 1500 here
    real = linecomplex.tangency

    def logged(q, u, v):
        with open(tmp_path / str(os.getpid()), "a") as log:
            log.write(f"{u} {v}\n")
        return real(q, u, v)
    monkeypatch.setattr(linecomplex, "tangency", logged)
    assert checks.verify_all().all_passed
    assert len(forks) == 1
    logs = {path.name: path.read_text().splitlines()
            for path in tmp_path.iterdir()}
    ours = logs.pop(str(os.getpid()))
    (theirs,) = logs.values()
    for path in tmp_path.iterdir():
        path.unlink()
    serial_json(monkeypatch)
    every = (tmp_path / str(os.getpid())).read_text().splitlines()
    assert len(every) == 1000
    assert (ours, theirs) == (every[0::2], every[1::2])


def _wrong_on_some(real):
    """`real`, answering wrong on the samples whose v prints with a
    character-code sum of 0 mod 5: the tally shows which were drawn."""
    return lambda q, u, v: real(q, u, v) != (sum(map(ord, str(v))) % 5 == 0)


@needs_fork
def test_a_raising_predicate_gives_the_serial_records(monkeypatch, forks):
    # the compound law raises at its first sample, so a serial run draws
    # one compound sample, and the later suites' tallies show whether the
    # generator was rewound before the serial rerun
    def boom(q):
        raise ZeroDivisionError("division by zero")
    monkeypatch.setattr(linecomplex, "second_compound", boom)
    monkeypatch.setattr(linecomplex, "is_singular_point",
                        _wrong_on_some(linecomplex.is_singular_point))
    split = checks.verify_all()
    assert len(forks) == 1
    by_id = {c.id: c for c in split.checks}
    assert by_id["complex-compound-rank-law"].computed \
        == "error: ZeroDivisionError: division by zero"
    assert by_id["complex-singularity-criterion"].status == "fail"
    assert split.failed == 2
    assert checks.render_json(split) == serial_json(monkeypatch)


@needs_fork
def test_a_child_that_dies_leaves_the_serial_document(monkeypatch, forks):
    parent, real = os.getpid(), linecomplex.is_singular_point

    def dies_in_the_child(q, u, v):
        if os.getpid() != parent:
            os._exit(3)
        return real(q, u, v)
    monkeypatch.setattr(linecomplex, "is_singular_point", dies_in_the_child)
    split = checks.render_json(checks.verify_all())
    assert len(forks) == 1
    assert split == serial_json(monkeypatch)


@needs_fork
def test_a_failure_only_the_child_judges_gives_the_serial_records(
        monkeypatch, forks):
    # the tangency suite's second sample (index 1) is the child's alone,
    # so only the child's exit status can start the serial rerun
    real, drawn = linecomplex.tangency, []

    def logged(q, u, v):
        drawn.append((tuple(u), tuple(v)))
        return real(q, u, v)
    monkeypatch.setattr(linecomplex, "tangency", logged)
    serial_json(monkeypatch)
    second = drawn[1]

    def wrong_on_the_second(q, u, v):
        return real(q, u, v) != ((tuple(u), tuple(v)) == second)
    monkeypatch.setattr(linecomplex, "tangency", wrong_on_the_second)
    split = checks.verify_all()
    assert len(forks) == 1
    by_id = {c.id: c for c in split.checks}
    assert by_id["complex-tangency-oracle"].computed == "999/1000"
    assert checks.render_json(split) == serial_json(monkeypatch)


@needs_fork
def test_ctrl_c_in_the_child_leaves_no_second_parent(monkeypatch, forks,
                                                     tmp_path):
    parent, real = os.getpid(), linecomplex.tangency
    escaped = tmp_path / "escaped"

    def interrupted_in_the_child(q, u, v):
        if os.getpid() != parent:
            raise KeyboardInterrupt
        return real(q, u, v)
    monkeypatch.setattr(linecomplex, "tangency", interrupted_in_the_child)
    try:
        split = checks.render_json(checks.verify_all())
    finally:
        if os.getpid() != parent:  # a child that got out of `verify_all`
            escaped.write_text(str(os.getpid()))
            os._exit(0)
    assert not escaped.exists()
    assert len(forks) == 1
    assert split == serial_json(monkeypatch)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_ctrl_c_in_the_parent_still_reaps_the_child(monkeypatch, forks):
    parent, real = os.getpid(), linecomplex.tangency

    def interrupted_in_the_parent(q, u, v):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(q, u, v)
    monkeypatch.setattr(linecomplex, "tangency", interrupted_in_the_parent)
    with pytest.raises(KeyboardInterrupt):
        checks.verify_all()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_full_run_leaves_no_child(forks):
    assert checks.verify_all().all_passed
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def refused(monkeypatch):
    """Every call of an `os.fork` that raises `OSError`."""
    calls = []

    def refuse():
        calls.append(None)
        raise OSError("fork refused")
    monkeypatch.setattr(os, "fork", refuse, raising=False)
    return calls


def test_quick_never_forks(refused):
    assert checks.verify_all(quick=True).all_passed
    assert refused == []


@needs_fork
def test_a_failing_fork_runs_the_suites_serially(refused):
    ctx = checks._Provider(random.Random(1729), checks.FULL_SAMPLES)
    state = ctx.rng.getstate()
    assert checks._split_suites(ctx) == {}
    assert len(refused) == 1 and ctx.rng.getstate() == state


@pytest.mark.parametrize("case", ["no fork", "one cpu", "two threads"])
def test_the_split_stays_serial_where_it_cannot_run(monkeypatch, forks,
                                                   case):
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    elif case == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    ctx = checks._Provider(random.Random(1729), checks.FULL_SAMPLES)
    state, stop = ctx.rng.getstate(), threading.Event()
    other = threading.Thread(target=stop.wait)
    if case == "two threads":
        other.start()
    try:
        assert checks._split_suites(ctx) == {}
    finally:
        stop.set()
        if other.is_alive():
            other.join(timeout=10)
    assert not other.is_alive()
    assert forks == [] and ctx.rng.getstate() == state
