"""Operations, deadlines, the closed-loop timed phase and its statistics.

A workload is a list of operations making up one *round*, plus probes of
known defects that run once after the rounds.  The timed phase runs whole
rounds, in a fixed seeded order, until ``--seconds`` have passed and at
least the workload's ``min_rounds`` are done, so every run holds the same
mix of operations whatever the machine speed.  Each operation's output is
checked after its timer stops; checks are never timed.

Reported times are scaled by the host's speed at the moment they were
taken, as read by :class:`Gauge`.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional


class DeadlineExceeded(BaseException):
    """Raised inside an in-process operation when its deadline passes.

    A BaseException, so that library code catching ``Exception`` cannot
    swallow it.
    """


class Wrong(Exception):
    """A check found a wrong answer delivered as a success."""


class Failed(Exception):
    """A check found a failed operation: a crash, a wrong exit code or an
    error where an answer was due."""


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` inspects its output.

    ``check`` returns normally when the output is right and raises
    :class:`Wrong` or :class:`Failed` otherwise.  ``kind`` groups operations
    for per-layer splits; ``ladder`` is the size of a scale point, set only on
    the operations that ``growth_exp`` is measured over.
    """

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    deadline_s: float
    ladder: Optional[float] = None
    in_process: bool = True


@dataclass
class Sample:
    op: Op
    round: int
    wall_s: float  # time the operation actually took
    outcome: str  # "ok" | "wrong" | "failed" | "deadline"
    message: str = ""
    started: float = 0.0  # perf_counter() when the operation started
    scale: float = 1.0  # host-speed factor set by Gauge.scale

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def latency_s(self) -> float:
        """Latency as reported: a failed or over-deadline op counts at its
        deadline.  Scaled to the reference host speed."""
        return (self.wall_s if self.outcome == "ok" else self.op.deadline_s) * self.scale


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def run_op(op: Op, round_no: int) -> tuple[Sample, Any]:
    """Run one operation under its deadline and check its output."""
    out = None
    t0 = time.perf_counter()
    try:
        if op.in_process:
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
            try:
                out = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        else:
            out = op.run()
    except DeadlineExceeded:
        return Sample(op, round_no, time.perf_counter() - t0, "deadline", "deadline passed", t0), None
    except Exception as e:  # the library raised: a failed op, reported with its type
        return Sample(op, round_no, time.perf_counter() - t0, "failed", f"{type(e).__name__}: {e}", t0), None
    wall = time.perf_counter() - t0
    try:
        op.check(out)
    except Wrong as e:
        return Sample(op, round_no, wall, "wrong", str(e), t0), out
    except Failed as e:
        return Sample(op, round_no, wall, "failed", str(e), t0), out
    return Sample(op, round_no, wall, "ok", "", t0), out


@dataclass
class Workload:
    """What a workload module's ``setup(seed, ctx)`` returns."""

    round_ops: list[Op]
    # Inputs on which the library is known to fail.  They run once after the
    # rounds, untimed, and count neither in ``attempted`` nor in ``failed``:
    # the report names each with its outcome, and a wrong answer from one
    # still makes the run incorrect.
    defect_ops: list[Op] = field(default_factory=list)
    min_rounds: int = 1
    ladder_name: str = ""
    warmup_ops: list[Op] = field(default_factory=list)  # run once, untimed, before ready
    child_rss: bool = False  # peak RSS is that of child processes
    traced_ops: Optional[list[Op]] = None  # in-process stand-ins for the trace run


def _clip(msg: str) -> str:
    return msg if len(msg) < 300 else msg[:300] + "..."


# -- host speed ----------------------------------------------------------------------

REFERENCE_S = 0.005  # times are scaled to a host on which reference() takes this long
GAUGE_EVERY_S = 0.2


def reference() -> float:
    """Seconds that one fixed piece of pure-Python work takes now: exact
    fractions, big integers and a dict, the kinds of work the library does.
    The garbage collector is off meanwhile, so the size of the library's
    heap does not change the reading."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 120):
            total += Fraction(1, k)
        x = 1
        for i in range(1, 3000):
            x = (x * 3 + i) % (1 << 2000)
        d = {}
        for i in range(20000):
            d[i % 500] = (i, str(i))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def speed_now() -> float:
    """The host's speed now, as a reading of ``reference()``."""
    return statistics.median(reference() for _ in range(3))


class Gauge:
    """Reads the host's speed between operations.

    A shared CPU can move between speed states that differ by up to 1.8x and
    last a few seconds each, and a run's share of each state varies from run
    to run.  The gauge runs ``reference()`` between operations, at most once
    every ``GAUGE_EVERY_S``.  ``scale`` then gives each operation the factor
    ``REFERENCE_S`` over the median of the two readings before it and the
    two after it.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (perf_counter, reading)

    def tick(self) -> None:
        now = time.perf_counter()
        if not self.marks or now - self.marks[-1][0] >= GAUGE_EVERY_S:
            self.marks.append((now, reference()))

    def scale(self, samples: list[Sample]) -> None:
        self.marks.append((time.perf_counter(), reference()))
        times = [t for t, _ in self.marks]
        for s in samples:
            i = bisect.bisect_right(times, s.started)
            near = [r for _, r in self.marks[max(i - 2, 0):i + 2]]
            s.scale = REFERENCE_S / statistics.median(near)


# -- statistics ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with at least ten
    samples beyond it: the 11th-largest sample."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def growth_exponent(samples: list[Sample]) -> Optional[float]:
    """Log-log slope of the mean scaled op time at the smallest and the
    largest ladder point, each the median over rounds."""
    per_point: dict[float, dict[int, list[float]]] = {}
    for s in samples:
        if s.op.ladder is not None:
            per_point.setdefault(s.op.ladder, {}).setdefault(s.round, []).append(s.scaled_s)
    if len(per_point) < 2:
        return None
    lo, hi = min(per_point), max(per_point)
    t_lo = statistics.median(statistics.fmean(ts) for ts in per_point[lo].values())
    t_hi = statistics.median(statistics.fmean(ts) for ts in per_point[hi].values())
    return math.log(t_hi / t_lo) / math.log(hi / lo)


def failure_summary(samples: list[Sample]) -> list[str]:
    counts: dict[tuple[str, str, str], int] = {}
    for s in samples:
        if s.outcome != "ok":
            key = (s.op.name, s.outcome, _clip(s.message))
            counts[key] = counts.get(key, 0) + 1
    return [f"{n} x {name}: {outcome} ({msg})" for (name, outcome, msg), n in sorted(counts.items())]


def defect_report(samples: list[Sample]) -> list[str]:
    return [f"{s.op.name}: {s.outcome}" + (f" ({_clip(s.message)})" if s.message else "") for s in samples]
