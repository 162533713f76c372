"""The ``repro serve`` subcommand: run, and smoke-test, the service.

Two modes share one flag surface:

* **server mode** (default) — register databases from standard-encoding
  files (``--db NAME=PATH``), prepare queries
  (``--prepare NAME=OUTVARS=QUERY``), then listen until SIGINT or
  SIGTERM, either of which closes the listener and the worker pool and
  exits 0::

      python -m repro serve --db g=graph.db \\
          --prepare "tc=u,v=[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)" \\
          --port 8080 --workers 2

* **smoke mode** (``--smoke N``) — the CI resilience drill: start the
  server on an ephemeral port, fire ``N`` concurrent HTTP clients at it
  across four tenants in two waves around one ``/mutate`` that changes
  the answer, inject one worker crash mid-run (``--crash-at``), and
  assert that every response is either a correct answer for its wave
  (differentially checked against a direct in-process evaluation of
  the database before or after the mutation) or a structured 429/503.
  Exit 0 only if that holds, the injected crash was actually
  retried, and the answer rows reconcile: the rows in the 200
  responses, ``serve.answer_rows`` in ``/stats`` and the ``rows`` of
  the telemetry lines sum to one total.  The second wave is what
  catches a pool worker answering from a stale resident copy of the
  database.

The smoke drill auto-provisions a seeded random graph database
(``smoke``) and the transitive-closure query (``tc``) so it needs no
files; ``--telemetry PATH`` writes the per-request JSONL log CI uploads
as an artifact.

The drill also exercises the observability pipeline end to end: every
request runs traced (cross-process span reassembly), ``GET /metrics``
is scraped *while the workload is in flight* and must parse
(``--metrics-out`` saves the scrape), the last assembled trace is
written as JSONL ready for ``repro explain --trace-file``
(``--trace-out``), and when a crash is injected with ``--flight-dump``
set the drill asserts the crash left a JSON post-mortem on disk.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
from typing import Dict, List, Optional, Tuple

from repro.core.engine import Query
from repro.database.database import Database
from repro.database.relation import Relation
from repro.errors import ReproError
from repro.guard.budget import Budget
from repro.guard.chaos import ChaosPolicy
from repro.obs.correlate import trace_jsonl
from repro.obs.expo import ExpositionError, parse_exposition
from repro.serve.admission import TenantPolicy
from repro.serve.http import ServeHTTP
from repro.serve.service import ChaosSpec, QueryService

#: The smoke drill's workload: transitive closure, the paper's canonical
#: bounded-variable fixpoint query.
TC_QUERY = "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"


def _smoke_db(seed: int, size: int = 12, edges: int = 30) -> Database:
    rng = random.Random(seed)
    tuples = set()
    while len(tuples) < edges:
        tuples.add((rng.randrange(size), rng.randrange(size)))
    return Database.from_tuples(range(size), {"E": (2, sorted(tuples))})


def _parse_prepare(spec: str) -> Tuple[str, Tuple[str, ...], str]:
    parts = spec.split("=", 2)
    if len(parts) != 3:
        raise ReproError(
            f"--prepare expects NAME=OUTVARS=QUERY, got {spec!r}"
        )
    name, outvars, text = parts
    out = tuple(v.strip() for v in outvars.split(",") if v.strip())
    return name, out, text


def _build_service(args: argparse.Namespace) -> QueryService:
    injector = None
    if args.smoke is not None and args.crash_at > 0:
        # fail_at=1 fires on every evaluation: one answered from a
        # worker's subquery cache passes a single guard checkpoint, the
        # audit of the one table it serves
        crash = ChaosPolicy(
            seed=args.seed, fail_at=1, fault_kinds=("crash",)
        )

        def injector(index: int) -> ChaosSpec:
            # one transient crash: the first attempt of request
            # `crash_at` dies, its retry runs clean
            return [crash, None] if index == args.crash_at else None

    service = QueryService(
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        workers=args.workers,
        telemetry_path=args.telemetry,
        fault_injector=injector,
        flight_dump_dir=args.flight_dump,
    )
    for tenant, weight in (("t0", 1.0), ("t1", 1.0), ("t2", 2.0), ("t3", 4.0)):
        service.set_tenant(
            tenant,
            TenantPolicy(
                weight=weight,
                budget=Budget(deadline_seconds=args.request_deadline),
            ),
        )
    for spec in args.db or ():
        name, _, path = spec.partition("=")
        if not path:
            raise ReproError(f"--db expects NAME=PATH, got {spec!r}")
        from repro.database.encoding import decode_database

        with open(path) as handle:
            service.register_database(name, decode_database(handle.read().strip()))
    for spec in args.prepare or ():
        name, out, text = _parse_prepare(spec)
        service.prepare(name, text, out)
    return service


async def _http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, object]] = None,
) -> Tuple[int, Dict[str, object]]:
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    # parse Content-Length rather than reading to EOF: a worker process
    # forked while this connection is open would hold its fd and delay
    # the FIN indefinitely
    head_bytes = await reader.readuntil(b"\r\n\r\n")
    status = int(head_bytes.split()[1])
    length = 0
    for line in head_bytes.decode("latin-1").split("\r\n"):
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body_bytes = await reader.readexactly(length) if length else b""
    writer.close()
    return status, json.loads(body_bytes.decode() or "{}")


async def _http_text(host: str, port: int, path: str) -> Tuple[int, str]:
    """GET a raw text document (the ``/metrics`` exposition)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Connection: close\r\n\r\n".encode()
    )
    await writer.drain()
    head_bytes = await reader.readuntil(b"\r\n\r\n")
    status = int(head_bytes.split()[1])
    length = 0
    for line in head_bytes.decode("latin-1").split("\r\n"):
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body_bytes = await reader.readexactly(length) if length else b""
    writer.close()
    return status, body_bytes.decode("utf-8")


def _smoke_mutation(db: Database) -> Tuple[str, Tuple[int, int], Database]:
    """One edge mutation that changes the drill's TC answer.

    Returns ``(op, edge, mutated database)``: the first pair missing
    from the closure is added, or, when the closure is complete, the
    first edge whose removal shrinks it is removed.
    """
    query = Query.parse(TC_QUERY, ("u", "v"))
    closure = query.run(db).relation.tuples
    edges = db.relation("E")
    for u in db.domain:
        for v in db.domain:
            if (u, v) not in closure:
                added = Relation(2, edges.tuples | {(u, v)})
                return "add", (u, v), db.with_relation("E", added)
    for edge in sorted(edges.tuples):
        removed = db.with_relation("E", Relation(2, edges.tuples - {edge}))
        if query.run(removed).relation.tuples != closure:
            return "remove", edge, removed
    raise ReproError("no single-edge mutation changes the smoke answer")


async def _run_smoke(args: argparse.Namespace) -> int:
    # the telemetry log appends: reconcile only the lines this drill adds
    telemetry_start = (
        os.path.getsize(args.telemetry)
        if args.telemetry and os.path.exists(args.telemetry)
        else 0
    )
    service = _build_service(args)
    db = _smoke_db(args.seed)
    op, edge, mutated = _smoke_mutation(db)
    service.register_database("smoke", db)
    service.prepare("tc", TC_QUERY, ("u", "v"))
    query = Query.parse(TC_QUERY, ("u", "v"))
    expected = [
        sorted(query.run(wave_db).relation.tuples)
        for wave_db in (db, mutated)
    ]
    server = ServeHTTP(service, args.host, args.port)
    host, port = await server.start()
    first = args.smoke // 2
    print(f"smoke: serving on {host}:{port}, firing {args.smoke} requests "
          f"in two waves ({first} + {args.smoke - first}) around one "
          f"/mutate (crash injected at request {args.crash_at})")

    async def one_call(i: int) -> Tuple[int, Dict[str, object]]:
        try:
            return await _http_json(
                host, port, "POST", "/call",
                {"tenant": f"t{i % 4}", "query": "tc", "db": "smoke",
                 "trace": True},
            )
        except Exception as exc:  # a hang/connection bug = drill failure
            return -1, {"error": "client", "detail": repr(exc)}

    async def mid_drill_scrape() -> Tuple[int, str]:
        # scrape /metrics while the workload is in flight — the
        # exposition must render and parse under live traffic
        await asyncio.sleep(0.01)
        try:
            return await _http_text(host, port, "/metrics")
        except Exception as exc:
            return -1, repr(exc)

    gathered = await asyncio.gather(
        mid_drill_scrape(), *[one_call(i) for i in range(first)]
    )
    scrape_status, scrape_text = gathered[0]
    mutate_status, mutate_body = await _http_json(
        host, port, "POST", "/mutate",
        {"db": "smoke", "op": op, "relation": "E", "values": list(edge)},
    )
    second = await asyncio.gather(
        *[one_call(i) for i in range(first, args.smoke)]
    )
    _, stats = await _http_json(host, port, "GET", "/stats")
    trace_status, trace_body = await _http_json(host, port, "GET", "/trace")
    await server.close()
    service.close()

    counts: Dict[int, int] = {}
    wrong: List[int] = []
    for wave, results in enumerate((gathered[1:], second)):
        for status, body in results:
            counts[status] = counts.get(status, 0) + 1
            if status == 200:
                rows = sorted(tuple(row) for row in body["rows"])
                if rows != expected[wave]:
                    wrong.append(wave + 1)
    metrics = stats.get("metrics", {})
    retries = metrics.get("serve.retries", 0)
    crashes = metrics.get("serve.worker_crashes", 0)
    print(f"smoke: statuses={dict(sorted(counts.items()))} "
          f"retries={retries} worker_crashes={crashes} "
          f"shed={metrics.get('serve.shed', 0)} "
          f"db_ships={metrics.get('serve.db_ships', 0)}")
    latency = metrics.get("serve.latency_seconds", {})
    if isinstance(latency, dict) and latency.get("count"):
        print(f"smoke: latency p50={latency.get('p50', 0):.4f}s "
              f"p95={latency.get('p95', 0):.4f}s "
              f"p99={latency.get('p99', 0):.4f}s")
    slo_total = stats.get("slo", {}).get("total", {}).get("60s", {})
    if slo_total:
        print(f"smoke: slo(60s) availability="
              f"{slo_total.get('availability', 0):.4f} "
              f"burn_rate={slo_total.get('burn_rate', 0):.2f} "
              f"latency={slo_total.get('latency', 0):.4f}s")
    ok = True
    bad_statuses = [s for s in counts if s not in (200, 429, 503)]
    if bad_statuses:
        print(f"smoke: FAIL — unexpected statuses {bad_statuses}")
        ok = False
    if mutate_status != 200 or not mutate_body.get("applied"):
        print(f"smoke: FAIL — /mutate {op} {edge} returned "
              f"{mutate_status}: {mutate_body}")
        ok = False
    if wrong:
        print(f"smoke: FAIL — {len(wrong)} responses had wrong rows "
              f"(waves {sorted(set(wrong))})")
        ok = False
    if args.crash_at > 0 and args.crash_at <= args.smoke and retries < 1:
        print("smoke: FAIL — injected crash was never retried")
        ok = False
    ok = _check_answer_rows(
        args, gathered[1:] + second, metrics, telemetry_start
    ) and ok
    ok = _check_observability(
        args, scrape_status, scrape_text, trace_status, trace_body, crashes
    ) and ok
    if ok:
        print(f"smoke: OK — all {args.smoke} requests answered correctly "
              "or shed with structured errors")
    return 0 if ok else 1


def _check_answer_rows(
    args: argparse.Namespace,
    results: List[Tuple[int, Dict[str, object]]],
    metrics: Dict[str, object],
    telemetry_start: int,
) -> bool:
    """Reconcile the answer-row totals the drill can see.

    The rows in the 200 responses, ``serve.answer_rows`` in ``/stats``
    and, with ``--telemetry``, the ``rows`` of the drill's ``ok`` lines
    in the log must all be one number.
    """
    totals = {
        "responses": sum(
            len(body["rows"]) for status, body in results if status == 200
        ),
        "/stats": metrics.get("serve.answer_rows", 0),
    }
    if args.telemetry:
        with open(args.telemetry, encoding="utf-8") as handle:
            handle.seek(telemetry_start)
            events = [json.loads(line) for line in handle if line.strip()]
        totals["telemetry"] = sum(
            event.get("rows", 0)
            for event in events
            if event.get("event") == "call" and event.get("outcome") == "ok"
        )
    shown = " ".join(f"{name}={total}" for name, total in totals.items())
    if len(set(totals.values())) != 1:
        print(f"smoke: FAIL — answer rows do not reconcile: {shown}")
        return False
    print(f"smoke: answer rows reconcile: {shown}")
    return True


def _check_observability(
    args: argparse.Namespace,
    scrape_status: int,
    scrape_text: str,
    trace_status: int,
    trace_body: Dict[str, object],
    crashes: float,
) -> bool:
    """The drill's observability assertions (and artifact writing)."""
    ok = True
    if scrape_status != 200:
        print(f"smoke: FAIL — mid-drill /metrics scrape returned "
              f"{scrape_status}: {scrape_text[:200]}")
        ok = False
    else:
        try:
            samples = parse_exposition(scrape_text)
        except ExpositionError as exc:
            print(f"smoke: FAIL — /metrics did not parse: {exc}")
            ok = False
        else:
            names = {name for name, _, _ in samples}
            if "repro_serve_requests_total" not in names:
                print("smoke: FAIL — /metrics lacks "
                      "repro_serve_requests_total")
                ok = False
            else:
                print(f"smoke: /metrics scraped mid-drill "
                      f"({len(samples)} samples)")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(scrape_text)
    if trace_status != 200 or not trace_body.get("spans"):
        print(f"smoke: FAIL — no assembled trace (status {trace_status})")
        ok = False
    else:
        spans = trace_body["spans"]
        print(f"smoke: trace {trace_body.get('request_id')} assembled "
              f"({len(spans)} spans)")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                handle.write(trace_jsonl(spans) + "\n")
    if args.flight_dump and args.crash_at > 0 and crashes >= 1:
        dumps = sorted(
            name for name in os.listdir(args.flight_dump)
            if name.startswith("flight-") and name.endswith(".json")
        ) if os.path.isdir(args.flight_dump) else []
        crash_dumps = [n for n in dumps if "worker-crash" in n]
        if not crash_dumps:
            print(f"smoke: FAIL — injected crash left no flight dump "
                  f"in {args.flight_dump} (found {dumps})")
            ok = False
        else:
            with open(
                os.path.join(args.flight_dump, crash_dumps[-1]),
                encoding="utf-8",
            ) as handle:
                dump = json.load(handle)
            kinds = {e.get("kind") for e in dump.get("events", [])}
            if "crash" not in kinds:
                print(f"smoke: FAIL — flight dump {crash_dumps[-1]} has "
                      f"no crash event (kinds={sorted(kinds)})")
                ok = False
            else:
                print(f"smoke: flight dump {crash_dumps[-1]} captured "
                      f"{dump.get('captured', 0)} events")
    return ok


async def _run_server(args: argparse.Namespace) -> int:
    service = _build_service(args)
    server = ServeHTTP(service, args.host, args.port)
    host, port = await server.start()
    print(f"repro serve: listening on http://{host}:{port} "
          f"(workers={args.workers}, concurrency={args.max_concurrency}, "
          f"queue={args.max_queue})")
    # SIGTERM takes the same shutdown path as Ctrl-C, so the pool's
    # forkserver and workers exit with the server instead of outliving it
    terminated = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, terminated.set)
    try:
        await terminated.wait()
    finally:
        loop.remove_signal_handler(signal.SIGTERM)
        await server.close()
        service.close()
    print("repro serve: terminated, shut down cleanly")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        if args.smoke is not None:
            return asyncio.run(_run_smoke(args))
        return asyncio.run(_run_server(args))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shut down cleanly")
        return 0


def add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="run the multi-tenant query service (HTTP)",
        description="Serve prepared bounded-variable queries over HTTP "
        "with admission control, retries, and load shedding.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = evaluate inline)")
    p.add_argument("--max-concurrency", type=int, default=2,
                   help="requests evaluated at once")
    p.add_argument("--max-queue", type=int, default=16,
                   help="queued requests before shedding")
    p.add_argument("--request-deadline", type=float, default=30.0,
                   help="per-request tenant deadline (seconds)")
    p.add_argument("--db", action="append", metavar="NAME=PATH",
                   help="register a database file (repeatable)")
    p.add_argument("--prepare", action="append", metavar="NAME=OUTVARS=QUERY",
                   help="prepare a named query (repeatable)")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="append per-request JSONL telemetry to PATH")
    p.add_argument("--flight-dump", default=None, metavar="DIR",
                   help="dump flight-recorder post-mortems into DIR on "
                   "worker crashes and terminal failures")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="smoke drill: save the mid-drill /metrics scrape")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="smoke drill: save the last assembled trace as "
                   "JSONL (repro explain --trace-file consumes it)")
    p.add_argument("--smoke", type=int, default=None, metavar="N",
                   help="smoke drill: N concurrent requests, then exit")
    p.add_argument("--crash-at", type=int, default=7, metavar="K",
                   help="smoke drill: inject a worker crash at request K "
                   "(0 = none)")
    p.add_argument("--seed", type=int, default=0,
                   help="smoke drill: database/chaos seed")
    p.set_defaults(func=cmd_serve)


__all__ = ["TC_QUERY", "add_serve_parser", "cmd_serve"]
