"""HTTP front-end tests: routes, error mapping, and the CLI smoke drill."""

import asyncio
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.guard.budget import Budget
from repro.serve.admission import TenantPolicy
from repro.serve.cli import TC_QUERY, _http_json
from repro.serve.http import ServeHTTP
from repro.serve.retry import RetryPolicy
from repro.serve.service import QueryService

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

    def test_404_and_405(self):
        async def body(host, port, service):
            status, _ = await _http_json(host, port, "POST", "/nope", {})
            assert status == 404
            status, _ = await _http_json(host, port, "GET", "/call")
            assert status == 405

        serve(body)


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
