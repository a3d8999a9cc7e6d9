"""Pieces shared by the workloads: the op record and the closed-loop runner."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable


@dataclass
class Op:
    """One query: `call` is timed, `check(result, expected)` is not."""

    kind: str
    call: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], bool] = lambda got, want: got == want


@dataclass
class State:
    """What a workload's set-up hands to the runner.

    `units` is the end-to-end work, a list of blocks of ops; the runner
    cycles through whole blocks.  `traced_units` is the fixed work of a
    traced run.  `sizes` is recorded with the result.
    """

    units: list
    traced_units: list
    sizes: dict
    min_ops: int
    cleanup: Callable[[], None] = lambda: None
    failures: list = field(default_factory=list)


def wrong(expected):
    """A wrong expected value of the same shape, for the negative control."""
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, (int, Fraction)):
        return expected + 1
    if isinstance(expected, str):
        return expected + "?"
    if isinstance(expected, (tuple, list)):
        return type(expected)([wrong(expected[0]), *expected[1:]])
    raise TypeError(f"cannot perturb {type(expected).__name__}")


def run_op(op: Op, state: State, on_start=None, clock=None
           ) -> tuple[float, bool]:
    """Run and check one op; returns (seconds, ok).  Time `clock` spent
    reading its reference kernel during the op is not counted.  An op that
    raises or whose check raises counts as failed, never as dropped."""
    if on_start is not None:
        on_start()
    paused = clock.paused_s if clock is not None else 0.0
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed op is recorded, the run goes on
        result = f"raised {type(exc).__name__}: {exc}"
        ok = False
    else:
        ok = None
    elapsed = time.perf_counter() - start
    if clock is not None:
        elapsed -= clock.paused_s - paused
    if ok is None:
        try:
            ok = bool(op.check(result, op.expected))
        except Exception as exc:
            ok = False
            result = f"check raised {type(exc).__name__}: {exc}"
    if not ok:
        _record(state, op, f"got {_short(result)}, expected "
                           f"{_short(op.expected)}")
    return elapsed, ok


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _record(state: State, op: Op, message: str) -> None:
    if len(state.failures) < 5:
        state.failures.append(f"{op.kind}: {message}"[:400])
        print(f"FAILED {op.kind}: {message}"[:400], file=sys.stderr)


def run_loop(state: State, seconds: float, clock):
    """Closed loop, one client: run whole blocks until `seconds` have
    passed and at least `state.min_ops` ops are done.  The caller holds
    `clock` open around the loop; it is polled between ops.

    Returns (op latencies, block times, attempted, failed); raw seconds.
    """
    latencies: list[float] = []
    blocks: list[float] = []
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        spent = 0.0
        for op in state.units[i % len(state.units)]:
            elapsed, ok = run_op(op, state, clock=clock)
            latencies.append(elapsed)
            spent += elapsed
            failed += not ok
            clock.poll()
        blocks.append(spent)
        i += 1
        if (time.perf_counter() - start >= seconds
                and len(latencies) >= state.min_ops):
            return latencies, blocks, len(latencies), failed


def run_fixed(units: list, state: State, on_start=None):
    """Run each op of `units` once; returns (seconds, attempted, failed)."""
    total = 0.0
    attempted = failed = 0
    for block in units:
        for op in block:
            elapsed, ok = run_op(op, state, on_start)
            total += elapsed
            attempted += 1
            failed += not ok
    return total, attempted, failed
