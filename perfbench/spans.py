"""The benchmark's own spans and the per-layer self times read from them.

A traced pass records one root span ``op`` per operation, a span around
each call into a layer's public function, and grafts the program's own
spans (``EvalOptions(trace=Tracer())``, ``POST /call {"trace": true}``)
under the call that produced them.  A span's *self time* is its duration
minus the part of its interval that its children cover; every span
belongs to one layer, and the root's self time is the operation time no
layer span accounts for.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

#: The layers, named after the ``src/repro`` packages they time.
LAYERS = ("database", "logic", "core", "kernel", "perf", "serve")

#: The root span of one operation; its self time is unattributed.
ROOT = "op"


def layer_of(name: str) -> str:
    """The layer a span name belongs to (program names map by prefix)."""
    if name == ROOT:
        return "unattributed"
    head = name.split(".", 1)[0]
    if name == "evaluate" or head in ("fo", "fp"):
        return "core"
    if head == "compile":
        return "perf"
    return head


class SpanLog:
    """Spans kept in memory as dicts, written out once at the end.

    A log is used by one thread; threads that record concurrently each
    keep their own log and share ``ids`` so span ids stay unique.
    """

    def __init__(self, ids: Optional[Iterator[int]] = None) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[Dict[str, object]] = []
        self._ids = ids if ids is not None else itertools.count(1)

    def add(
        self,
        name: str,
        op: int,
        start: float,
        duration: float,
        parent_id: Optional[int],
    ) -> Dict[str, object]:
        record = {
            "span_id": next(self._ids),
            "parent_id": parent_id,
            "op": op,
            "name": name,
            "start": start,
            "duration": duration,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[Dict[str, object]]:
        """Time a ``with`` block as a child of the innermost open span."""
        parent = self._stack[-1]["span_id"] if self._stack else None
        record = self.add(name, op, time.perf_counter(), 0.0, parent)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["duration"] = time.perf_counter() - record["start"]
            self._stack.pop()

    def graft(
        self,
        program_spans: Iterable[Dict[str, object]],
        parent_id: int,
        base: float,
        op: int,
    ) -> None:
        """Attach spans in ``Span.to_dict()`` shape, whose ``start`` is
        relative to ``base``, below span ``parent_id``.  Parents precede
        children in the input, as both tracers emit them."""
        ids: Dict[object, int] = {}
        for span in program_spans:
            parent = ids.get(span.get("parent_id"), parent_id)
            record = self.add(
                str(span["name"]),
                op,
                base + float(span["start"]),
                float(span["duration"]),
                parent,
            )
            ids[span["span_id"]] = record["span_id"]


def concat(parts: Iterable[List[Dict[str, object]]]) -> List[Dict[str, object]]:
    """Join span lists recorded by separate processes, shifting each
    list's ids past the ones before it so they stay unique."""
    out: List[Dict[str, object]] = []
    offset = 0
    for spans in parts:
        top = 0
        for span in spans:
            parent = span["parent_id"]
            out.append(dict(
                span,
                span_id=int(span["span_id"]) + offset,
                parent_id=None if parent is None else int(parent) + offset,
            ))
            top = max(top, int(span["span_id"]))
        offset += top
    return out


def write_jsonl(path: str, spans: Iterable[Dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def _covered(lo: float, hi: float, intervals: List[List[float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: List[Dict[str, object]]) -> Dict[int, float]:
    """span id -> duration minus the time its children cover."""
    children: Dict[int, List[List[float]]] = defaultdict(list)
    for span in spans:
        if span["parent_id"] is not None:
            start = float(span["start"])
            children[span["parent_id"]].append(
                [start, start + float(span["duration"])]
            )
    out = {}
    for span in spans:
        start, duration = float(span["start"]), float(span["duration"])
        covered = _covered(start, start + duration, children[span["span_id"]])
        out[span["span_id"]] = max(0.0, duration - covered)
    return out


def per_op_layers(spans: List[Dict[str, object]]) -> Dict[int, Dict[str, float]]:
    """op -> layer -> self seconds, plus ``total`` (the root's duration).

    The layers' self times and ``unattributed`` sum to ``total``.
    """
    selfs = self_times(spans)
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        row = out[span["op"]]
        row[layer_of(str(span["name"]))] += selfs[span["span_id"]]
        if span["name"] == ROOT:
            row["total"] += float(span["duration"])
    return out


def per_op_durations(spans: List[Dict[str, object]], name: str) -> Dict[int, float]:
    """op -> summed duration of the spans called ``name``."""
    out: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["name"] == name:
            out[span["op"]] += float(span["duration"])
    return out


def per_op_self(spans: List[Dict[str, object]], name: str) -> Dict[int, float]:
    """op -> summed self time of the spans called ``name``."""
    selfs = self_times(spans)
    out: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["name"] == name:
            out[span["op"]] += selfs[span["span_id"]]
    return out
