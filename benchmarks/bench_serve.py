"""SERVE — the query-service load drill: robustness counters under fire.

The ``SERVE`` perf experiment drives a full
:class:`repro.serve.service.QueryService` through a scripted request
mix — transient faults (retried), persistent faults (retries
exhausted, breaker trips), an impossible row budget (degradation
ladder), and a shed burst that arrives while every concurrency slot is
held.  Every counter is exact-reproducible, so the run is recorded as
``SERVE`` and gated against ``BENCH_SERVE.json`` by
``repro perf compare``.  Service latency under load is measured by the
repository benchmark (``BENCHMARK.json``, ``perfbench/``), not here.

The drill's asserted claims are the acceptance criteria of the serve
layer: every request resolves to a correct answer or a structured
error (no lost requests), injected faults are retried, the breaker
trips, the ladder degrades, and the shed count is exactly the burst
overflow.
"""

from repro.complexity.measure import run_sweep
from repro.perf.experiments import serve_workload

from benchmarks._harness import emit, emit_record, series_table, sweep_jobs

SIZES = [6, 8, 10]

#: The scripted drill shape (kept in sync with the SERVE experiment's
#: registered options — the baseline is recorded under these).
REQUESTS, MAX_QUEUE, BURST = 18, 4, 8


def _drill_workload(parameter: float) -> dict:
    return serve_workload(
        parameter, requests=REQUESTS, max_queue=MAX_QUEUE, burst=BURST
    )


def bench_serve_drill(benchmark):
    """The gated robustness drill across database sizes."""
    jobs = sweep_jobs()
    sweep = run_sweep(
        "SERVE", SIZES, _drill_workload, repetitions=1, warmup=False,
        parallel=jobs,
    )
    rows = []
    for point in sweep.points:
        assert point.ok, point
        # no lost requests: every admitted or shed request resolved
        assert point.counter("ok") + point.counter("failed") == point.counter(
            "requests"
        )
        # the burst overflow — and only it — was shed
        assert point.counter("shed") == float(BURST)
        # injected faults were retried, the persistent tenant tripped
        # its breaker, and the tight tenant walked the ladder
        assert point.counter("retries") >= 1
        assert point.counter("breaker_trips") >= 1
        assert point.counter("degraded") >= 1
        rows.append(
            (
                int(point.parameter),
                int(point.counter("requests")),
                int(point.counter("ok")),
                int(point.counter("shed")),
                int(point.counter("retries")),
                int(point.counter("degraded")),
                int(point.counter("breaker_trips")),
                int(point.counter("answer_rows")),
            )
        )
    # determinism is the gate's precondition: a second run of one point
    # must reproduce every counter exactly
    repeat = _drill_workload(SIZES[-1])
    last = sweep.points[-1]
    assert {k: v for k, v in last.counters} == repeat, (
        last.counters,
        repeat,
    )
    benchmark(_drill_workload, SIZES[-1])

    body = (
        series_table(
            (
                "n", "requests", "ok", "shed", "retries", "degraded",
                "breaker trips", "answer rows",
            ),
            rows,
        )
        + "\n\nevery request resolved: correct answer, or structured "
        "Overloaded/ResourceExhausted — none lost, none wrong"
        + f"\nshed per point is exactly the burst overflow ({BURST}); "
        "counters are exact-reproducible (re-run checked)"
        + ("" if jobs == 1 else f"\nsweep ran with {jobs} worker processes")
    )
    emit("SERVE", "query service robustness drill", body)
    emit_record(
        "SERVE",
        "Query service robustness drill: deterministic serve counters",
        sweep=sweep,
        fit_counters=("ok", "answer_rows"),
        meta={
            "requests": REQUESTS,
            "max_queue": MAX_QUEUE,
            "burst": BURST,
        },
    )
