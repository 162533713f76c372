"""Cross-process trace correlation for served requests.

The engines trace into a local :class:`~repro.obs.tracer.Tracer`, but a
served request may run its attempts in *worker processes*: the spans are
recorded in one process, the request lives in another, and a retry can
scatter one logical request across several workers.  This module is the
reassembly point:

* the service mints a **request id** per request
  (:func:`new_request_id` — deterministic, index-based, so chaos drills
  replay exactly);
* the id travels inside the worker payload; the worker evaluates under
  a private tracer and ships its spans back **as plain dicts** in the
  result payload (processes share nothing else);
* :func:`assemble_trace` reassembles the attempts into one span tree —
  a synthetic ``serve.request`` root, one ``serve.attempt`` span per
  attempt (carrying where it ran, its worker pid, and its outcome), and
  every span re-stamped with the ``request_id`` attribute — exactly the
  dict shape :func:`~repro.obs.explain.spans_from_dicts` and
  ``repro explain --trace-file`` consume;
* a :class:`TraceStore` keeps the most recent assembled traces in
  memory for ``GET /trace/<request_id>``.

Span ids are renumbered during assembly (worker tracers all start at 1)
and attempt starts are re-anchored to the request's own clock, so the
merged tree is a valid, self-consistent trace.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple


def new_request_id(index: int) -> str:
    """The deterministic per-request trace id (``req-000042``)."""
    return f"req-{index:06d}"


def attempt_record(
    attempt: int,
    served_by: str,
    start: float,
    duration: float,
    outcome: str,
    spans: Optional[Sequence[Dict[str, object]]] = None,
    pid: Optional[int] = None,
    shipped_db: Optional[bool] = None,
) -> Dict[str, object]:
    """One attempt's contribution to a request trace.

    ``start`` is seconds since the request began; ``spans`` are the
    worker-side span dicts (absent when the attempt died before
    reporting — a crashed worker ships nothing back, which is itself
    signal).  ``shipped_db`` says whether the attempt had to send its
    database to a pool worker that held no copy of its version.
    """
    return {
        "attempt": attempt,
        "served_by": served_by,
        "start": start,
        "duration": duration,
        "outcome": outcome,
        "spans": list(spans) if spans else [],
        "pid": pid,
        "shipped_db": shipped_db,
    }


def assemble_trace(
    request_id: str,
    attempts: Sequence[Dict[str, object]],
    duration: float = 0.0,
    **root_attrs: object,
) -> List[Dict[str, object]]:
    """Merge per-attempt worker spans into one request span tree.

    Returns a flat list of span dicts (``Span.to_dict()`` shape) whose
    ``parent_id`` linkage forms: ``serve.request`` → one
    ``serve.attempt`` per attempt → that attempt's worker spans.  Every
    span's attrs carry the ``request_id``; attempt spans additionally
    carry ``served_by``, ``outcome``, ``shipped_db`` when the record has
    it, and the worker ``pid`` when the attempt ran in a pool process.
    """
    out: List[Dict[str, object]] = []
    root_id = 1
    root: Dict[str, object] = {
        "span_id": root_id,
        "parent_id": None,
        "name": "serve.request",
        "start": 0.0,
        "duration": float(duration),
        "attrs": {"request_id": request_id, **root_attrs},
    }
    out.append(root)
    next_id = root_id + 1
    for record in attempts:
        attempt_start = float(record.get("start", 0.0))
        attempt_id = next_id
        next_id += 1
        attrs: Dict[str, object] = {
            "request_id": request_id,
            "attempt": record.get("attempt"),
            "served_by": record.get("served_by"),
            "outcome": record.get("outcome"),
        }
        if record.get("shipped_db") is not None:
            attrs["shipped_db"] = record["shipped_db"]
        if record.get("pid") is not None:
            attrs["pid"] = record["pid"]
        out.append(
            {
                "span_id": attempt_id,
                "parent_id": root_id,
                "name": "serve.attempt",
                "start": attempt_start,
                "duration": float(record.get("duration", 0.0)),
                "attrs": attrs,
            }
        )
        spans = record.get("spans") or []
        # renumber the worker's private span ids into the merged
        # sequence, preserving the worker-side parent/child linkage
        id_map: Dict[object, int] = {}
        for span in spans:
            id_map[span.get("span_id")] = next_id
            next_id += 1
        for span in spans:
            parent = span.get("parent_id")
            span_attrs = dict(span.get("attrs") or {})
            span_attrs["request_id"] = request_id
            if record.get("pid") is not None:
                span_attrs.setdefault("pid", record["pid"])
            out.append(
                {
                    "span_id": id_map[span.get("span_id")],
                    "parent_id": (
                        id_map[parent]
                        if parent in id_map
                        else attempt_id
                    ),
                    "name": span.get("name", "?"),
                    "start": attempt_start + float(span.get("start", 0.0)),
                    "duration": float(span.get("duration", 0.0)),
                    "attrs": span_attrs,
                }
            )
    return out


def trace_jsonl(spans: Sequence[Dict[str, object]]) -> str:
    """Span dicts as JSONL — the same shape ``Tracer.export_jsonl`` writes."""
    return "\n".join(json.dumps(span, default=str) for span in spans)


class TraceStore:
    """The most recent assembled request traces, by request id."""

    __slots__ = ("capacity", "_traces")

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._traces: "OrderedDict[str, List[Dict[str, object]]]" = (
            OrderedDict()
        )

    def put(
        self, request_id: str, spans: Sequence[Dict[str, object]]
    ) -> None:
        if request_id in self._traces:
            del self._traces[request_id]
        self._traces[request_id] = list(spans)
        while len(self._traces) > self.capacity:
            self._traces.popitem(last=False)

    def get(self, request_id: str) -> Optional[List[Dict[str, object]]]:
        return self._traces.get(request_id)

    def latest(self) -> Optional[Tuple[str, List[Dict[str, object]]]]:
        if not self._traces:
            return None
        request_id = next(reversed(self._traces))
        return request_id, self._traces[request_id]

    def ids(self) -> List[str]:
        """Stored request ids, oldest first."""
        return list(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def __contains__(self, request_id: str) -> bool:
        return request_id in self._traces

    def __repr__(self) -> str:
        return f"TraceStore({len(self._traces)}/{self.capacity} traces)"


__all__ = [
    "TraceStore",
    "assemble_trace",
    "attempt_record",
    "new_request_id",
    "trace_jsonl",
]
