"""Summary statistics and process measurements for the benchmark."""

from __future__ import annotations

import math
import os
import signal
import statistics
import time

#: A tail percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (nearest rank), refusing thin tails.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    strictly beyond the percentile's rank, so a p95 needs 200 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(math.ceil(q / 100.0 * n), 1)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return float(ordered[rank - 1])


def _status_kb(pid: int | str, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def child_pids() -> list[int]:
    """Direct children of this process."""
    pid = os.getpid()
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as h:
                found.extend(int(p) for p in h.read().split())
        except OSError:
            continue
    return found


class SpeedProbe:
    """Samples how fast this machine runs while a workload runs.

    A shared box runs the same code up to ~1.5x slower from one minute to
    the next, and the change is not visible in CPU time.  While active, a
    ``SIGPROF`` timer fires every :data:`PERIOD_S` of process CPU time and
    the main thread times a fixed ~0.1 ms kernel of interpreter and small
    numpy work, like the campaign's own mix, which the repo's code cannot
    change.
    :meth:`factor` is the mean of the reference kernel time over each sample
    time: multiplying a wall time by it gives the wall time on a machine
    where the kernel takes :data:`REFERENCE_S`.
    """

    PERIOD_S = 0.02
    REFERENCE_S = 1e-4

    def __init__(self) -> None:
        import numpy

        self.samples: list[float] = []
        self._matrix = numpy.arange(64.0).reshape(8, 8) / 64.0
        self._previous = None

    def _kernel(self, signum=None, frame=None) -> None:
        # Thread CPU time leaves out waits for the interpreter lock and for
        # the scheduler.
        start = time.thread_time()
        total = 0.0
        matrix = self._matrix
        for i in range(30):
            table = {j: j * i for j in range(8)}
            total += float(matrix.dot(matrix[i % 8])[i % 8]) + len(table)
        self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._kernel)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Speed factor over the samples taken after ``mark() == since``.

        Samples come at equal steps of CPU time, so the mean of the
        per-sample speed ratios weighs each stretch of the run by the time
        spent in it, as a wall time does.
        """
        window = self.samples[since:] or self.samples
        if not window:
            raise ValueError("speed probe took no samples")
        return sum(self.REFERENCE_S / sample for sample in window) / len(window)


class PeakRss:
    """Peak resident memory of this process plus its pool children.

    The kernel keeps each process's high-water mark (``VmHWM``).  Children
    exit before the run ends, so :meth:`sample` reads theirs while they
    live (the campaign calls it after every scenario) and keeps the
    largest value seen per child.
    """

    def __init__(self) -> None:
        self._children: dict[int, int] = {}

    def sample(self, *_: object) -> None:
        for pid in child_pids():
            hwm = _status_kb(pid, "VmHWM")
            if hwm > self._children.get(pid, 0):
                self._children[pid] = hwm

    def megabytes(self) -> float:
        own = _status_kb("self", "VmHWM")
        return (own + sum(self._children.values())) / 1024.0


__all__ = ["MIN_BEYOND", "PeakRss", "SpeedProbe", "child_pids", "median", "percentile"]
