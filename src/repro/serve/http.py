"""A dependency-free asyncio HTTP front end for :class:`QueryService`.

Deliberately minimal — stdlib only, HTTP/1.1 with ``Connection: close``
per request — because the point of :mod:`repro.serve` is the robustness
machinery behind the socket, not the socket itself.  Routes:

===============  ====  ===================================================
``/healthz``     GET   liveness probe → ``{"ok": true}``
``/stats``       GET   :meth:`QueryService.stats` (versioned: metrics,
                       breakers, pool, SLO board, flight recorder)
``/metrics``     GET   Prometheus-style text exposition
                       (:meth:`QueryService.metrics_text`)
``/trace``       GET   the most recent assembled request trace;
``/trace/<id>``  GET   one request's trace by ``request_id``
``/register``    POST  ``{"name", "domain", "relations"}`` or
                       ``{"name", "encoding"}`` (the paper's standard
                       encoding, via :func:`decode_database`)
``/prepare``     POST  ``{"name", "query", "output_vars"}``
``/call``        POST  ``{"tenant", "query", "db", "strategy"?,
                       "backend"?, "seed"?, "chaos"?, "trace"?}``
``/mutate``      POST  ``{"db", "op", "relation", "values"}``
===============  ====  ===================================================

Error mapping — the structured failure taxonomy over the wire:

* :class:`~repro.errors.Overloaded` → **429** with a ``Retry-After``
  header and ``{"error": "overloaded", "reason", "retry_after"}``;
* :class:`~repro.errors.ResourceExhausted` → **503** with
  ``{"error": "resource-exhausted", "kind", "limit", "used"}``;
* other :class:`~repro.errors.ReproError` (bad names, parse errors,
  malformed bodies) → **400**;
* a declared ``Content-Length`` above 8 MiB → **413** with
  ``{"error": "body-too-large", "limit", "length"}``, sent before any
  of the body is read (the body is then read and dropped for a few
  seconds, so a client still sending it can read the answer);
* anything else → **500** (and counts as a server bug in the smoke test).

429 and 503 bodies additionally carry a ``flight`` key — the flight
recorder's recent-event tail the service attached to the failure — so a
single error response is already a post-mortem.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Dict, Optional, Tuple

from repro.database.database import Database
from repro.database.encoding import decode_database
from repro.errors import (
    EvaluationError,
    Overloaded,
    ReproError,
    ResourceExhausted,
)
from repro.guard.chaos import ChaosPolicy
from repro.serve.service import QueryService, ServeResponse

#: The largest request body read; a longer declared ``Content-Length``
#: is answered 413 without reading the body.
_MAX_BODY = 8 << 20

#: How long the body of a refused request is read and dropped after its
#: 413 went out, so a client still sending it gets to read the answer
#: instead of a connection reset.
_DISCARD_SECONDS = 5.0


class _BodyTooLarge(Exception):
    """A request declared a body longer than ``_MAX_BODY``."""

    def __init__(self, length: int):
        super().__init__(length)
        self.length = length


async def _discard(reader: asyncio.StreamReader, length: int) -> None:
    """Read and drop up to ``length`` bytes, for at most
    ``_DISCARD_SECONDS``."""

    async def drop() -> None:
        left = length
        while left > 0:
            chunk = await reader.read(min(left, 1 << 16))
            if not chunk:
                return
            left -= len(chunk)

    try:
        await asyncio.wait_for(drop(), _DISCARD_SECONDS)
    except asyncio.TimeoutError:
        pass


def _dumps(body: Dict[str, object]) -> bytes:
    return json.dumps(body, sort_keys=True, default=repr).encode()


def _json_response(
    status: int,
    body: Dict[str, object],
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    return _response(status, _dumps(body), extra_headers)


def _response(
    status: int,
    payload: bytes,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """A JSON response around an already encoded ``payload``."""
    reasons = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        413: "Content Too Large",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }
    head = [
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    head.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode() + payload


def _call_payload(response: ServeResponse) -> bytes:
    """The ``/call`` body: the response document with the worker's
    encoded rows spliced in as they are.

    Keys sort around ``"rows"``, so the body is the keys before it, the
    rows, then the keys after it — the same bytes ``_dumps`` would write
    for the decoded document.
    """
    document = response.as_dict(rows=False)
    parts = [
        _dumps({k: v for k, v in document.items() if k < "rows"})[1:-1],
        b'"rows": ' + response.rows_json,
        _dumps({k: v for k, v in document.items() if k > "rows"})[1:-1],
    ]
    return b"{" + b", ".join(part for part in parts if part) + b"}"


def _text_response(status: int, text: str, content_type: str) -> bytes:
    """A plain-text response (the ``/metrics`` exposition document)."""
    payload = text.encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + payload


def _chaos_from_body(spec: Optional[Dict[str, object]]) -> Optional[ChaosPolicy]:
    """Build a ChaosPolicy from a request body (smoke/chaos tooling only)."""
    if not spec:
        return None
    return ChaosPolicy(
        seed=int(spec.get("seed", 0)),
        fail_at=spec.get("fail_at"),
        fail_within=spec.get("fail_within"),
        fault_kinds=tuple(spec.get("fault_kinds", ("fault",))),
    )


def _database_from_body(body: Dict[str, object]) -> Database:
    if "encoding" in body:
        return decode_database(str(body["encoding"]).strip())
    try:
        domain = body["domain"]
        relations = {
            name: (int(spec["arity"]), [tuple(t) for t in spec["tuples"]])
            for name, spec in body["relations"].items()
        }
    except (KeyError, TypeError) as exc:
        raise EvaluationError(f"malformed database body: {exc}") from exc
    return Database.from_tuples(domain, relations)


class ServeHTTP:
    """One listening socket in front of one :class:`QueryService`."""

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling ------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        unread = 0
        try:
            raw = await self._read_request(reader)
            if raw is None:
                return
            method, path, body = raw
            response = await self._route(method, path, body)
        except _BodyTooLarge as exc:
            unread = exc.length
            response = _json_response(
                413,
                {
                    "error": "body-too-large",
                    "limit": _MAX_BODY,
                    "length": exc.length,
                },
            )
        except ConnectionError:
            return
        except Exception as exc:  # a handler bug, not a client error
            response = _json_response(
                500, {"error": "internal", "detail": str(exc)}
            )
        try:
            writer.write(response)
            await writer.drain()
            if unread:
                await _discard(reader, unread)
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, object]]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        request_line, _, header_block = head.partition(b"\r\n")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        length = 0
        for line in header_block.decode("latin-1").split("\r\n"):
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        if length > _MAX_BODY:
            raise _BodyTooLarge(length)
        body: Dict[str, object] = {}
        if length > 0:
            data = await reader.readexactly(length)
            try:
                body = json.loads(data.decode())
            except ValueError:
                body = {"__malformed__": True}
        return method, path, body

    async def _route(
        self, method: str, path: str, body: Dict[str, object]
    ) -> bytes:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            return _json_response(200, {"ok": True})
        if path == "/stats":
            return _json_response(200, self.service.stats())
        if path == "/metrics":
            return _text_response(
                200,
                self.service.metrics_text(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/trace" or path.startswith("/trace/"):
            return self._trace_response(path)
        if method != "POST":
            return _json_response(405, {"error": "method-not-allowed"})
        if body.get("__malformed__"):
            return _json_response(400, {"error": "malformed-json"})
        try:
            if path == "/register":
                db = _database_from_body(body)
                self.service.register_database(str(body["name"]), db)
                return _json_response(
                    200, {"registered": body["name"], "size": db.size()}
                )
            if path == "/prepare":
                info = self.service.prepare(
                    str(body["name"]),
                    str(body["query"]),
                    tuple(body.get("output_vars", ())),
                )
                return _json_response(200, info)
            if path == "/call":
                response = await self.service.call(
                    str(body.get("tenant", "default")),
                    str(body["query"]),
                    str(body["db"]),
                    strategy=str(body.get("strategy", "monotone")),
                    backend=body.get("backend"),
                    request_seed=body.get("seed"),
                    chaos=_chaos_from_body(body.get("chaos")),
                    trace=bool(body.get("trace", False)),
                )
                return _response(200, _call_payload(response))
            if path == "/mutate":
                outcome = self.service.mutate(
                    str(body["db"]),
                    str(body["op"]),
                    str(body["relation"]),
                    tuple(body["values"]),
                )
                return _json_response(200, outcome)
        except Overloaded as exc:
            retry_after = exc.retry_after if exc.retry_after > 0 else 0.001
            error: Dict[str, object] = {
                "error": "overloaded",
                "reason": exc.reason,
                "retry_after": retry_after,
                "tenant": exc.tenant,
                "detail": str(exc),
            }
            flight = getattr(exc, "flight", None)
            if flight is not None:
                error["flight"] = flight
            return _json_response(
                429,
                error,
                extra_headers=(
                    ("Retry-After", str(max(1, math.ceil(retry_after)))),
                ),
            )
        except ResourceExhausted as exc:
            error = {
                "error": "resource-exhausted",
                "kind": exc.kind,
                "limit": exc.limit,
                "used": exc.used,
                "detail": str(exc),
            }
            flight = getattr(exc, "flight", None)
            if flight is not None:
                error["flight"] = flight
            return _json_response(503, error)
        except (KeyError, TypeError, ValueError) as exc:
            return _json_response(
                400, {"error": "bad-request", "detail": repr(exc)}
            )
        except ReproError as exc:
            return _json_response(
                400,
                {
                    "error": "bad-request",
                    "kind": type(exc).__name__,
                    "detail": str(exc),
                },
            )
        return _json_response(404, {"error": "not-found", "path": path})

    def _trace_response(self, path: str) -> bytes:
        """``GET /trace`` (latest) or ``GET /trace/<request_id>``."""
        request_id = path[len("/trace/"):] if path.startswith("/trace/") else ""
        if request_id:
            spans = self.service.traces.get(request_id)
            if spans is None:
                return _json_response(
                    404, {"error": "unknown-trace", "request_id": request_id}
                )
            return _json_response(
                200, {"request_id": request_id, "spans": spans}
            )
        latest = self.service.traces.latest()
        if latest is None:
            return _json_response(404, {"error": "no-traces"})
        request_id, spans = latest
        return _json_response(200, {"request_id": request_id, "spans": spans})


__all__ = ["ServeHTTP"]
