"""HTTP front-end tests: routes, error mapping, and the CLI smoke drill."""

import argparse
import asyncio
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.engine import EvalOptions, Query, evaluate
from repro.core.fp_eval import FixpointStrategy
from repro.core.naive_eval import naive_answer
from repro.guard.budget import Budget
from repro.perf.cache import SubqueryCache
from repro.serve.admission import TenantPolicy
from repro.serve.cli import TC_QUERY, _check_answer_rows, _http_json
from repro.serve.http import ServeHTTP
from repro.serve.retry import RetryPolicy
from repro.serve.service import QueryService
from repro.workloads.graphs import random_graph

from repro.cli import main

PATH_DB = {
    "name": "g",
    "domain": list(range(5)),
    "relations": {"E": {"arity": 2, "tuples": [[i, i + 1] for i in range(4)]}},
}


def serve(test_body, **service_kwargs):
    """Run ``test_body(host, port, service)`` against a live server."""
    service_kwargs.setdefault("retry", RetryPolicy(base_delay=0.0, jitter=0.0))
    service = QueryService(**service_kwargs)

    async def main_coro():
        server = ServeHTTP(service)
        host, port = await server.start()
        try:
            await test_body(host, port, service)
        finally:
            await server.close()
            service.close()

    asyncio.run(asyncio.wait_for(main_coro(), timeout=60))


async def _http_raw(host, port, path, body):
    """POST ``body`` as JSON; returns the status and the raw body bytes."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode()
    writer.write(
        b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
        b"Connection: close\r\n\r\n" % (path.encode(), len(payload))
        + payload
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    raw = await reader.readexactly(length)
    writer.close()
    return int(head.split()[1]), raw


def _database_body(name, db):
    return {
        "name": name,
        "domain": list(db.domain),
        "relations": {
            rel: {
                "arity": db.relation(rel).arity,
                "tuples": [list(t) for t in sorted(db.relation(rel).tuples)],
            }
            for rel in db.relation_names()
        },
    }


def _wire_rows(db):
    """The TC answer as a ``/call`` body renders it: sorted by repr."""
    formula = Query.parse(TC_QUERY, ("u", "v")).formula
    answer = naive_answer(formula, db, ("u", "v"))
    return [list(row) for row in sorted(answer.tuples, key=repr)]


class TestRoutes:
    def test_healthz_register_prepare_call_mutate(self):
        async def body(host, port, service):
            status, out = await _http_json(host, port, "GET", "/healthz")
            assert (status, out) == (200, {"ok": True})

            status, out = await _http_json(
                host, port, "POST", "/register", PATH_DB
            )
            assert status == 200 and out["registered"] == "g"

            status, out = await _http_json(
                host, port, "POST", "/prepare",
                {"name": "tc", "query": TC_QUERY, "output_vars": ["u", "v"]},
            )
            assert status == 200 and out["width"] >= 2

            status, out = await _http_json(
                host, port, "POST", "/call",
                {"tenant": "t0", "query": "tc", "db": "g"},
            )
            assert status == 200
            rows = sorted(tuple(r) for r in out["rows"])
            assert (0, 4) in rows and (4, 0) not in rows
            assert out["served_by"] == "inline"

            status, out = await _http_json(
                host, port, "POST", "/mutate",
                {"db": "g", "op": "add", "relation": "E", "values": [4, 0]},
            )
            assert status == 200 and out["applied"] is True

            status, out = await _http_json(
                host, port, "POST", "/call",
                {"query": "tc", "db": "g"},
            )
            rows = sorted(tuple(r) for r in out["rows"])
            assert (4, 0) in rows  # the mutation is visible immediately

            status, out = await _http_json(host, port, "GET", "/stats")
            assert status == 200
            assert out["metrics"]["serve.ok"] == 2

        serve(body)

    def test_chaos_body_drives_retries(self):
        async def body(host, port, service):
            await _http_json(host, port, "POST", "/register", PATH_DB)
            await _http_json(
                host, port, "POST", "/prepare",
                {"name": "tc", "query": TC_QUERY, "output_vars": ["u", "v"]},
            )
            status, out = await _http_json(
                host, port, "POST", "/call",
                {
                    "tenant": "t0", "query": "tc", "db": "g",
                    "chaos": {"seed": 1, "fail_at": 1},
                },
            )
            # a persistent chaos policy exhausts retries → structured 429
            assert status == 429
            assert out["reason"] == "retries-exhausted"

        serve(body)


class TestErrorMapping:
    def test_429_overloaded_with_retry_after_header(self):
        async def body(host, port, service):
            await _http_json(host, port, "POST", "/register", PATH_DB)
            await _http_json(
                host, port, "POST", "/prepare",
                {"name": "tc", "query": TC_QUERY, "output_vars": ["u", "v"]},
            )

            async def raw_call():
                reader, writer = await asyncio.open_connection(host, port)
                payload = (
                    b'{"tenant": "t0", "query": "tc", "db": "g"}'
                )
                writer.write(
                    b"POST /call HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n"
                    % len(payload) + payload
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                writer.close()
                return head.decode("latin-1")

            # hold the only slot so every arriving request overflows the
            # zero-length queue (inline evaluation never yields the loop,
            # so overlap has to be manufactured)
            await service.admission.admit("blocker")
            try:
                heads = await asyncio.gather(*[raw_call() for _ in range(3)])
            finally:
                service.admission.release(None)
            assert all("429" in h.split("\r\n")[0] for h in heads), heads
            assert all("Retry-After:" in h for h in heads)

        serve(body, max_concurrency=1, max_queue=0)

    def test_503_resource_exhausted(self):
        async def body(host, port, service):
            await _http_json(host, port, "POST", "/register", PATH_DB)
            await _http_json(
                host, port, "POST", "/prepare",
                {"name": "tc", "query": TC_QUERY, "output_vars": ["u", "v"]},
            )
            service.set_tenant(
                "tight", TenantPolicy(budget=Budget(max_rows=1))
            )
            status, out = await _http_json(
                host, port, "POST", "/call",
                {"tenant": "tight", "query": "tc", "db": "g"},
            )
            assert status == 503
            assert out["error"] == "resource-exhausted"
            assert out["kind"] == "rows"
            assert out["limit"] == 1

        serve(body)

    def test_400_on_bad_bodies_and_unknown_names(self):
        async def body(host, port, service):
            status, out = await _http_json(
                host, port, "POST", "/call", {"query": "no", "db": "no"}
            )
            assert status == 400  # unknown prepared query

            status, out = await _http_json(
                host, port, "POST", "/register", {"name": "x"}
            )
            assert status == 400  # malformed database body

            status, out = await _http_json(
                host, port, "POST", "/prepare",
                {"name": "bad", "query": "E(x,", "output_vars": ["x"]},
            )
            assert status == 400  # parse error

        serve(body)

    def test_413_oversized_body_answered_before_it_is_read(self):
        limit = 8 << 20
        length = limit + (1 << 20)

        async def body(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /register HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n" % length
            )
            await writer.drain()
            # not one body byte is sent: the answer must not wait for it
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10)
            size = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            raw = await reader.readexactly(size)
            writer.close()
            assert head.split()[1] == b"413"
            assert json.loads(raw) == {
                "error": "body-too-large", "limit": limit, "length": length,
            }
            status, _ = await _http_json(host, port, "GET", "/healthz")
            assert status == 200

        serve(body)

    def test_413_reaches_a_client_that_sends_the_whole_body(self):
        # a client that writes all 9 MiB before reading must get the
        # 413, not a reset connection
        payload = b'{"name": "x", "pad": "' + b"a" * (9 << 20) + b'"}'
        answers = []

        def client(port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("POST", "/register", body=payload)
                response = conn.getresponse()
                answers.append((response.status, json.loads(response.read())))
            except OSError as exc:
                answers.append(exc)
            finally:
                conn.close()

        async def body(host, port, service):
            thread = threading.Thread(target=client, args=(port,))
            thread.start()
            while thread.is_alive():
                await asyncio.sleep(0.01)
            assert answers == [
                (413, {"error": "body-too-large", "limit": 8 << 20,
                       "length": len(payload)})
            ]
            assert "x" not in service.stats()["databases"]

        serve(body)

    def test_404_and_405(self):
        async def body(host, port, service):
            status, _ = await _http_json(host, port, "POST", "/nope", {})
            assert status == 404
            status, _ = await _http_json(host, port, "GET", "/call")
            assert status == 405

        serve(body)


class TestAnswerWire:
    """A ``/call`` body splices the worker's encoded rows into the
    document; it must still be the bytes one ``json.dumps(document,
    sort_keys=True)`` of the whole response writes."""

    @pytest.mark.parametrize("backend", ["sparse", "packed"])
    @pytest.mark.parametrize("workers", [0, 1])
    def test_call_body_is_the_whole_sorted_document(self, workers, backend):
        # n = 12: repr order ("(10, 2)" < "(2, 10)") is not numeric order
        db = random_graph(12, 0.2, seed=3)
        rows = _wire_rows(db)
        formula = Query.parse(TC_QUERY, ("u", "v")).formula
        # peak rows of the same evaluations: cold, then on a warm cache
        cache = SubqueryCache()
        peaks = [
            evaluate(
                formula, db, ("u", "v"),
                EvalOptions(
                    strategy=FixpointStrategy.MONOTONE,
                    backend=backend,
                    subquery_cache=cache,
                ),
            ).stats.max_intermediate_rows
            for _ in range(2)
        ]

        async def body(host, port, service):
            await _http_json(
                host, port, "POST", "/register", _database_body("g", db)
            )
            await _http_json(
                host, port, "POST", "/prepare",
                {"name": "tc", "query": TC_QUERY, "output_vars": ["u", "v"]},
            )
            for peak in peaks:
                status, raw = await _http_raw(
                    host, port, "/call",
                    {"tenant": "t0", "query": "tc", "db": "g",
                     "backend": backend},
                )
                assert status == 200
                document = json.loads(raw)
                # one json.dumps(sort_keys=True) of the whole document
                assert raw == json.dumps(
                    document, sort_keys=True, default=repr
                ).encode()
                for volatile in ("queue_wait", "seconds", "request_id"):
                    del document[volatile]
                assert document == {
                    "tenant": "t0",
                    "query": "tc",
                    "db": "g",
                    "rows": rows,
                    "arity": 2,
                    "language": "FP",
                    "served_by": "pool" if workers else "inline",
                    "attempts": 1,
                    "retries": 0,
                    "degraded": [],
                    "peak_rows": peak,
                }

        serve(body, workers=workers)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_mutate_then_call_never_serves_the_old_encoding(self, workers):
        async def body(host, port, service):
            await _http_json(host, port, "POST", "/register", PATH_DB)
            await _http_json(
                host, port, "POST", "/prepare",
                {"name": "tc", "query": TC_QUERY, "output_vars": ["u", "v"]},
            )
            call = {"tenant": "t0", "query": "tc", "db": "g"}
            before = json.loads((await _http_raw(host, port, "/call", call))[1])
            for op in ("add", "remove"):
                status, _ = await _http_json(
                    host, port, "POST", "/mutate",
                    {"db": "g", "op": op, "relation": "E", "values": [4, 0]},
                )
                assert status == 200
                status, raw = await _http_raw(host, port, "/call", call)
                assert status == 200
                assert json.loads(raw)["rows"] == _wire_rows(
                    service.database("g")
                )
            # the cycle closed, then opened again: the first answer is back
            assert json.loads(raw)["rows"] == before["rows"]

        serve(body, workers=workers)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_traced_call_shows_the_encode_span(self, workers):
        async def body(host, port, service):
            await _http_json(host, port, "POST", "/register", PATH_DB)
            await _http_json(
                host, port, "POST", "/prepare",
                {"name": "tc", "query": TC_QUERY, "output_vars": ["u", "v"]},
            )
            call = {"tenant": "t0", "query": "tc", "db": "g", "trace": True}
            for _ in range(2):
                status, raw = await _http_raw(host, port, "/call", call)
                assert status == 200
                document = json.loads(raw)
                assert raw == json.dumps(
                    document, sort_keys=True, default=repr
                ).encode()
                encodes = [
                    span for span in document["trace"]
                    if span["name"] == "serve.encode"
                ]
                assert len(encodes) == 1
                assert encodes[0]["attrs"]["rows"] == len(document["rows"])
            # the second call's answer is the first one's content
            assert encodes[0]["attrs"]["reused"] is True

        serve(body, workers=workers)


class TestCLISmoke:
    def test_smoke_drill_inline(self, capsys):
        code = main(
            ["serve", "--smoke", "12", "--crash-at", "0", "--max-queue", "32"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "smoke: OK" in out

    def test_smoke_drill_with_injected_crash_and_telemetry(
        self, capsys, tmp_path
    ):
        telemetry = tmp_path / "serve.jsonl"
        code = main(
            [
                "serve", "--smoke", "10", "--workers", "1",
                "--crash-at", "3", "--max-queue", "32",
                "--telemetry", str(telemetry),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "smoke: OK" in out
        retries = re.search(r"retries=([\d.]+)", out)
        assert retries and float(retries.group(1)) >= 1
        assert telemetry.exists()
        assert len(telemetry.read_text().splitlines()) == 10
        assert "smoke: answer rows reconcile" in out

    def test_answer_rows_must_reconcile(self, capsys, tmp_path):
        # an earlier drill's line stays out of the sum
        telemetry = tmp_path / "serve.jsonl"
        telemetry.write_text('{"event": "call", "outcome": "ok", "rows": 9}\n')
        start = telemetry.stat().st_size
        with telemetry.open("a") as handle:
            handle.write('{"event": "call", "outcome": "ok", "rows": 3}\n')
            handle.write('{"event": "call", "outcome": "overloaded"}\n')
        args = argparse.Namespace(telemetry=str(telemetry))
        results = [(200, {"rows": [[0], [1], [2]]}), (429, {"error": "x"})]
        assert _check_answer_rows(args, results, {"serve.answer_rows": 3}, start)
        assert not _check_answer_rows(
            args, results, {"serve.answer_rows": 4}, start
        )
        assert not _check_answer_rows(args, results, {"serve.answer_rows": 3}, 0)
        assert "answer rows do not reconcile" in capsys.readouterr().out


def _live_session_members(sid):
    """Pids of the live (non-zombie) processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields: state, ppid, pgrp, session, ...
        if fields[0] not in "ZX" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="reads process state from /proc"
)
class TestServerProcess:
    def test_sigterm_shuts_down_cleanly_and_empties_session(self):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            PYTHONUNBUFFERED="1",
        )
        # its own session: every process the server starts (resource
        # tracker, forkserver, pool worker) stays findable by session id
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            line = proc.stdout.readline().decode() if ready else ""
            port = int(re.search(r"http://[^:]+:(\d+)", line).group(1))

            def post(path, body):
                return asyncio.run(asyncio.wait_for(
                    _http_json("127.0.0.1", port, "POST", path, body), 60
                ))

            assert post("/register", PATH_DB)[0] == 200
            status, _ = post(
                "/prepare",
                {"name": "tc", "query": TC_QUERY, "output_vars": ["u", "v"]},
            )
            assert status == 200
            status, out = post("/call", {"tenant": "t0", "query": "tc", "db": "g"})
            assert status == 200 and out["served_by"] == "pool"

            proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 10
            assert proc.wait(10) == 0
            while _live_session_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _live_session_members(proc.pid) == []
            # with the session empty nobody else holds the pipe open
            assert "shut down cleanly" in proc.stdout.read().decode()
        finally:
            for pid in _live_session_members(proc.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
