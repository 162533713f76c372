"""SERVE — the query-service load drill: robustness counters under fire.

Two halves:

1. **Deterministic drill** (the gated half): the ``SERVE`` perf
   experiment drives a full :class:`repro.serve.service.QueryService`
   through a scripted request mix — transient faults (retried),
   persistent faults (retries exhausted, breaker trips), an
   impossible row budget (degradation ladder), and a shed burst that
   arrives while every concurrency slot is held.  Every counter is
   exact-reproducible, so the run is recorded as ``SERVE`` and gated
   against ``BENCH_SERVE.json`` by ``repro perf compare``.

2. **Concurrent load generator** (reported, not gated): a burst of
   concurrent requests against an inline service, reporting latency
   quantiles and queue-wait from the service's own histograms.
   Wall-clock numbers are environment noise by definition — they go in
   the text block only, never into gated counters.

The drill's asserted claims are the acceptance criteria of the serve
layer: every request resolves to a correct answer or a structured
error (no lost requests), injected faults are retried, the breaker
trips, the ladder degrades, and the shed count is exactly the burst
overflow.
"""

import asyncio
import functools

from repro.complexity.measure import run_sweep
from repro.perf.experiments import serve_workload

from benchmarks._harness import emit, emit_record, series_table, sweep_jobs

SIZES = [6, 8, 10]

#: The scripted drill shape (kept in sync with the SERVE experiment's
#: registered options — the baseline is recorded under these).
REQUESTS, MAX_QUEUE, BURST = 18, 4, 8

#: Concurrent-load half: requests fired at once at the largest size.
LOAD_REQUESTS = 32


def _drill_workload(parameter: float) -> dict:
    return serve_workload(
        parameter, requests=REQUESTS, max_queue=MAX_QUEUE, burst=BURST
    )


def _concurrent_load(n: int, requests: int) -> dict:
    """Fire ``requests`` concurrent calls; return latency/wait readings."""
    from repro.perf.experiments import TC_QUERY
    from repro.serve.service import QueryService
    from repro.workloads.graphs import random_graph

    service = QueryService(max_concurrency=2, max_queue=requests)
    service.register_database("g", random_graph(n, 0.3, seed=n))
    service.prepare("tc", TC_QUERY, ("u", "v"))

    async def drive():
        await asyncio.gather(
            *[
                service.call(f"t{i % 4}", "tc", "g", request_seed=i)
                for i in range(requests)
            ]
        )

    asyncio.run(drive())
    snap = service.registry.snapshot()
    service.close()
    return {
        "latency": snap["serve.latency_seconds"],
        "queue_wait": snap["serve.queue_wait_seconds"],
        "ok": snap["serve.ok"],
    }


def _obs_overhead(n: int, requests: int) -> dict:
    """Measure the observability tax: traced vs untraced drive time,
    /metrics render cost, and the recorder/trace-store footprint.

    Wall-clock readings by definition — they go in the text block only.
    The one asserted claim is structural: the exposition parses and is
    non-empty, so a scrape of a loaded service always yields samples.
    """
    import time

    from repro.obs.expo import parse_exposition
    from repro.perf.experiments import TC_QUERY
    from repro.serve.service import QueryService
    from repro.workloads.graphs import random_graph

    def build() -> QueryService:
        service = QueryService(max_concurrency=2, max_queue=requests)
        service.register_database("g", random_graph(n, 0.3, seed=n))
        service.prepare("tc", TC_QUERY, ("u", "v"))
        return service

    def drive(service: QueryService, trace: bool) -> float:
        async def go():
            await asyncio.gather(
                *[
                    service.call(
                        f"t{i % 4}", "tc", "g", request_seed=i, trace=trace
                    )
                    for i in range(requests)
                ]
            )

        start = time.perf_counter()
        asyncio.run(go())
        return time.perf_counter() - start

    plain_service = build()
    plain = drive(plain_service, False)
    plain_service.close()

    service = build()
    traced = drive(service, True)
    renders = 50
    start = time.perf_counter()
    for _ in range(renders):
        text = service.metrics_text()
    render = (time.perf_counter() - start) / renders
    samples = parse_exposition(text)
    assert samples, "a loaded service must expose at least one sample"
    result = {
        "plain": plain,
        "traced": traced,
        "render": render,
        "samples": len(samples),
        "flight": service.flight.recorded,
        "traces": len(service.traces),
    }
    service.close()
    return result


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

    load = _concurrent_load(SIZES[-1], LOAD_REQUESTS)
    latency, wait = load["latency"], load["queue_wait"]
    obs = _obs_overhead(SIZES[-1], LOAD_REQUESTS)
    tax = obs["traced"] / max(obs["plain"], 1e-9)
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
        + f"\n\nconcurrent load (n={SIZES[-1]}, {LOAD_REQUESTS} requests "
        f"at once, {int(load['ok'])} ok; wall-clock, not gated):"
        + f"\n  latency  p50={latency['p50']:.4f}s "
        f"p95={latency['p95']:.4f}s p99={latency['p99']:.4f}s"
        + f"\n  queue wait  p50={wait['p50']:.4f}s p95={wait['p95']:.4f}s"
        + f"\n\nobservability tax (n={SIZES[-1]}, {LOAD_REQUESTS} requests; "
        "wall-clock, not gated):"
        + f"\n  drive untraced={obs['plain']:.4f}s "
        f"traced={obs['traced']:.4f}s (x{tax:.2f} with full span shipping)"
        + f"\n  /metrics render {obs['render'] * 1000:.3f} ms/scrape, "
        f"{obs['samples']} samples parsed back"
        + f"\n  flight events recorded={obs['flight']}, "
        f"traces retained={obs['traces']}"
        + ("" if jobs == 1 else f"\nsweep ran with {jobs} worker processes")
    )
    emit("SERVE", "query service robustness drill + concurrent load", body)
    emit_record(
        "SERVE",
        "Query service robustness drill: deterministic serve counters",
        sweep=sweep,
        fit_counters=("ok", "answer_rows"),
        meta={
            "requests": REQUESTS,
            "max_queue": MAX_QUEUE,
            "burst": BURST,
            "load_requests": LOAD_REQUESTS,
        },
    )
