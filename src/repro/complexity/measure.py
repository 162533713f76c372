"""Parameter sweeps with wall-clock timing and work counters.

A sweep runs ``workload(parameter)`` for each parameter value, timing the
call and optionally collecting a dictionary of work counters (iteration
counts, intermediate sizes, CNF sizes, ...) that the growth classifier
can fit alongside raw time — counters are deterministic, so they give
much cleaner scaling curves than wall-clock noise.

With a ``tracer_factory``, each timed call also records a span trace
(``workload(parameter, tracer)``), so a sweep can attribute a point's
time to evaluation phases — see :mod:`repro.obs`.

Failures do not abort a sweep: a point whose workload raises is recorded
with ``outcome`` ``"timeout"`` (a :class:`~repro.errors.ResourceExhausted`
— typically a per-point deadline, ``repro perf record --deadline``) or
``"error"`` (anything else) plus the message, and the sweep continues
with the next parameter.  Pass ``capture_failures=False`` for the old
fail-fast behavior.

With ``parallel=N`` the points are fanned across a
``ProcessPoolExecutor``; results come back in parameter order and carry
the same counters/outcomes/traces as a serial run (the parallel-sweep
tests assert the sequences are identical point for point).  Workloads
must then be picklable — module-level functions or ``functools.partial``
over them, not lambdas or closures.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ResourceExhausted
from repro.obs.tracer import NULL_TRACER, Tracer

_MISSING = object()


def shutdown_pool(pool: Executor, graceful: bool = True) -> None:
    """Shut a worker pool down without ever hanging the caller.

    ``graceful`` waits for in-flight work (the happy path); otherwise
    queued work is cancelled and the call returns immediately — the
    right response to ``KeyboardInterrupt`` or a broken pool, where
    waiting on workers that will never answer would hang forever.
    Shared by :func:`run_sweep` and the :mod:`repro.serve` worker pool.
    """
    if graceful:
        pool.shutdown(wait=True)
    else:
        pool.shutdown(wait=False, cancel_futures=True)


@contextmanager
def pool_scope(max_workers: int) -> Iterator[ProcessPoolExecutor]:
    """A ``ProcessPoolExecutor`` that always shuts down.

    Unlike the executor's own context manager — whose ``__exit__`` is
    ``shutdown(wait=True)`` and therefore blocks on every queued task
    even when the body died on ``KeyboardInterrupt`` — this scope
    cancels outstanding work and returns immediately on any exception,
    and only waits on the clean path.
    """
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        yield pool
    except BaseException:
        shutdown_pool(pool, graceful=False)
        raise
    else:
        shutdown_pool(pool, graceful=True)


@dataclass(frozen=True)
class SweepPoint:
    """One measurement: parameter value, seconds, and work counters.

    ``trace`` holds the recording tracer for this point when the sweep
    was run with a ``tracer_factory`` (``None`` otherwise).

    ``outcome`` is ``"ok"``, ``"timeout"`` (the workload raised
    :class:`~repro.errors.ResourceExhausted` — budget or deadline), or
    ``"error"`` (any other exception); ``error`` carries the message for
    the failing cases.  Failing points keep whatever counters the
    workload did not get to report (usually none) and the time spent
    until the failure.
    """

    parameter: float
    seconds: float
    counters: Tuple[Tuple[str, float], ...] = ()
    trace: Optional[Tracer] = None
    outcome: str = "ok"
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def counter(self, name: str, default: object = _MISSING) -> float:
        """The named counter; ``default`` if given, else ``KeyError``."""
        for key, value in self.counters:
            if key == name:
                return value
        if default is _MISSING:
            raise KeyError(name)
        return default  # type: ignore[return-value]


@dataclass(frozen=True)
class SweepResult:
    """All points of one sweep, in parameter order."""

    name: str
    points: Tuple[SweepPoint, ...]

    def parameters(self) -> List[float]:
        return [p.parameter for p in self.points]

    def seconds(self) -> List[float]:
        return [p.seconds for p in self.points]

    def failures(self) -> List[SweepPoint]:
        """The points that did not complete (timeout or error)."""
        return [p for p in self.points if not p.ok]

    def counter_series(
        self, name: str, default: object = _MISSING
    ) -> List[float]:
        """The counter across all points; points missing it get
        ``default`` when given, else the first miss raises ``KeyError``."""
        if default is _MISSING:
            return [p.counter(name) for p in self.points]
        return [p.counter(name, default) for p in self.points]

    def format_rows(self, counter_names: Sequence[str] = ()) -> str:
        """A plain-text table of the sweep, for ``repro perf record``.

        Points that lack one of ``counter_names`` render ``-`` in that
        column instead of raising.  When any point failed, an ``outcome``
        column is appended so timeouts/errors are visible in the table.
        """
        show_outcome = any(not p.ok for p in self.points)
        header = ["param", "seconds"] + list(counter_names)
        if show_outcome:
            header.append("outcome")
        lines = ["\t".join(header)]
        for point in self.points:
            row = [f"{point.parameter:g}", f"{point.seconds:.6f}"]
            for name in counter_names:
                value = point.counter(name, default=None)
                row.append("-" if value is None else f"{value:g}")
            if show_outcome:
                row.append(point.outcome)
            lines.append("\t".join(row))
        return "\n".join(lines)


def _measure_point(
    parameter: float,
    workload: Callable[..., Optional[Dict[str, float]]],
    repetitions: int,
    warmup: bool,
    tracer_factory: Optional[Callable[[], Tracer]],
    capture_failures: bool,
) -> SweepPoint:
    """Measure one sweep point — the shared serial/parallel work unit.

    Module-level (not a closure) so that parallel sweeps can ship it to
    ``ProcessPoolExecutor`` workers; everything it touches (workload,
    tracer factory, the returned :class:`SweepPoint` with its tracer)
    must therefore be picklable in the parallel case.
    """
    best = float("inf")
    counters: Dict[str, float] = {}
    trace: Optional[Tracer] = None
    failure: Optional[BaseException] = None
    start = time.perf_counter()
    try:
        if warmup:
            if tracer_factory is None:
                workload(parameter)
            else:
                workload(parameter, NULL_TRACER)
        for _ in range(max(1, repetitions)):
            if tracer_factory is None:
                start = time.perf_counter()
                outcome = workload(parameter)
                elapsed = time.perf_counter() - start
            else:
                tracer = tracer_factory()
                start = time.perf_counter()
                outcome = workload(parameter, tracer)
                elapsed = time.perf_counter() - start
                trace = tracer
            best = min(best, elapsed)
            if outcome:
                counters = dict(outcome)
    except Exception as exc:
        if not capture_failures:
            raise
        failure = exc
        best = min(best, time.perf_counter() - start)
    return SweepPoint(
        parameter=float(parameter),
        seconds=best,
        counters=tuple(sorted(counters.items())),
        trace=trace,
        outcome=(
            "ok"
            if failure is None
            else "timeout"
            if isinstance(failure, ResourceExhausted)
            else "error"
        ),
        error="" if failure is None else str(failure),
    )


def run_sweep(
    name: str,
    parameters: Sequence[float],
    workload: Callable[..., Optional[Dict[str, float]]],
    repetitions: int = 1,
    warmup: bool = True,
    tracer_factory: Optional[Callable[[], Tracer]] = None,
    capture_failures: bool = True,
    parallel: int = 1,
) -> SweepResult:
    """Run ``workload`` across ``parameters`` and time each call.

    ``workload`` may return a dict of work counters (or ``None``).  With
    ``repetitions > 1`` the *minimum* time across runs is reported (the
    standard noise-robust choice); counters come from the last run.

    With ``tracer_factory``, the workload is called as
    ``workload(parameter, tracer)`` — a fresh tracer per timed run (the
    last run's tracer lands on :attr:`SweepPoint.trace`), and the
    no-op tracer for the warmup call so warmups stay out of the trace.

    With ``capture_failures`` (the default), a workload that raises is
    recorded as a failing :class:`SweepPoint` (``outcome`` ``"timeout"``
    for :class:`~repro.errors.ResourceExhausted`, ``"error"`` otherwise)
    and the sweep moves on — one diverging point no longer loses the
    whole table.  Failures during warmup count against the point too
    (the workload is deterministic, so the timed run would fail the
    same way).

    With ``parallel > 1``, points are distributed across that many
    worker processes.  The result is deterministic in everything but
    wall-clock: points come back in parameter order with the same
    counters, outcomes, errors, and traces a serial run would produce.
    Per-point guard budgets keep working unchanged — a workload builds
    its budget/deadline when called, i.e. inside its own worker, so a
    fault or timeout in one point is isolated to that process and is
    captured the same way as in a serial sweep.  With
    ``capture_failures=False`` a failing point raises at collection
    time, like the serial fail-fast path.  Workloads, tracer factories,
    and tracers must be picklable.
    """
    if parallel <= 1:
        points = [
            _measure_point(
                parameter, workload, repetitions, warmup,
                tracer_factory, capture_failures,
            )
            for parameter in parameters
        ]
    else:
        with pool_scope(parallel) as pool:
            futures = [
                pool.submit(
                    _measure_point,
                    parameter, workload, repetitions, warmup,
                    tracer_factory, capture_failures,
                )
                for parameter in parameters
            ]
            points = [future.result() for future in futures]
    return SweepResult(name, tuple(points))
