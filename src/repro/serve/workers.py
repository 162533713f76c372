"""Request execution: in-process evaluation and the supervised pool.

One request's evaluation is described by a plain picklable *payload*
dict — formula, database, output variables, and the per-attempt options
(strategy, backend, budget, chaos).  :func:`evaluate_payload` runs one
payload in the current process; :class:`WorkerPool` ships payloads to a
``ProcessPoolExecutor`` and supervises it:

* a worker process dying mid-request (a real crash, or a
  :class:`~repro.guard.chaos.ChaosPolicy` ``"crash"`` fault escalated
  via ``os._exit``) surfaces as ``BrokenProcessPool``, which poisons the
  whole executor — the pool is torn down with the non-blocking
  :func:`~repro.complexity.measure.shutdown_pool` helper and rebuilt on
  the next submit, and the failed request surfaces as the retryable
  :class:`WorkerCrashed`;
* databases are **resident** in the workers: a pool payload names its
  database and carries the service's version token for it, not the
  database itself (``db=None``).  Each worker process keeps one
  ``(version, Database)`` entry per database name; a worker whose entry
  is missing or holds another version raises :class:`NotResident`, and
  the service re-sends the same attempt once with the database attached,
  which replaces the entry.  A rebuilt pool starts empty and re-hydrates
  the same lazy way;
* pool workers keep a per-process :class:`~repro.perf.cache.SubqueryCache`
  that stays warm across the requests each worker serves — the pool
  analogue of the service's shared in-process cache.  Its keys hold
  relation content, and a resident copy hands the same relation objects
  to every request, so warm keys hash and compare without re-reading
  the tuples.

Results cross the process boundary as plain dicts (the answer's rows
already encoded as the JSON array an HTTP client receives, a row count,
stats), never as live ``EvalResult`` objects.  The encoding is memoized
per process (see :func:`encode_rows`).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.complexity.measure import shutdown_pool
from repro.errors import ReproError
from repro.guard.chaos import InjectedFault
from repro.kernel.lru import LRU
from repro.kernel.packed import PackedRelation
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.perf.cache import SubqueryCache


class WorkerCrashed(ReproError):
    """A pool worker died mid-request; the request is safe to retry."""


class NotResident(ReproError):
    """A pool worker lacks the payload's version of its database.

    Neither a fault nor a retry: the service answers it by re-sending
    the same attempt once with the database attached.

    ``db``
        The database name the payload asked for.
    ``version``
        The version token the payload carried.
    """

    def __init__(self, message: str, db: str = "", version: object = None):
        super().__init__(message)
        self.db = db
        self.version = version

    def __reduce__(self):
        # keep the fields across the pool boundary (the default
        # exception pickling replays only the message)
        return (type(self), (str(self), self.db, self.version))


def build_payload(
    formula,
    db,
    out,
    strategy: str = "monotone",
    k_limit: Optional[int] = None,
    backend: Optional[str] = None,
    budget=None,
    chaos=None,
    cache: bool = False,
    allow_crash: bool = False,
    request_id: Optional[str] = None,
    trace: bool = False,
    db_name: Optional[str] = None,
    db_version: object = None,
) -> Dict[str, object]:
    """The picklable description of one evaluation attempt.

    ``db`` is the database itself, or ``None`` in a pool payload, which
    names its database by ``db_name`` and ``db_version`` instead (see
    :func:`worker_call`); a pool payload that does carry ``db`` hydrates
    the worker's resident copy.

    ``request_id`` is the cross-process trace context: it crosses the
    pool boundary inside the payload and comes back stamped on every
    worker-side span, so the service can reassemble one trace per
    request.  ``trace`` turns on span recording for the attempt — the
    spans return in the result dict as plain ``Span.to_dict()`` dicts.
    """
    return {
        "formula": formula,
        "db": db,
        "db_name": db_name,
        "db_version": db_version,
        "out": tuple(out),
        "strategy": strategy,
        "k_limit": k_limit,
        "backend": backend,
        "budget": budget,
        "chaos": chaos,
        "cache": bool(cache),
        "allow_crash": bool(allow_crash),
        "request_id": request_id,
        "trace": bool(trace),
    }


#: Bounds of the per-process answer-encoding memo: entries, and rows
#: summed over the retained answers.
ANSWER_MEMO_ENTRIES = 64
ANSWER_MEMO_ROWS = 1 << 18

#: The per-process answer-encoding memo: ``id(rows)`` -> ``(rows, JSON
#: bytes)`` for row sets, ``(codec, arity, mask)`` -> ``(codec, JSON
#: bytes)`` for packed answers; see :func:`encode_rows`.
_ENCODED: LRU = LRU(ANSWER_MEMO_ENTRIES, ANSWER_MEMO_ROWS)


def encode_rows(
    rows: Union[FrozenSet[Tuple[object, ...]], PackedRelation],
    tracer: TracerLike = NULL_TRACER,
) -> bytes:
    """``rows`` — an answer's row set, or a packed answer relation — as
    the JSON array of arrays an HTTP client receives.

    Rows are sorted by ``repr``; values render as ``json.dumps(...,
    default=repr)`` renders them, so JSON scalars round-trip and other
    values arrive as their ``repr``.  ``tracer`` records the work as one
    ``serve.encode`` span.

    A row set's bytes are memoized by its identity, and each entry holds
    its row set, so no other object can take that id while the entry
    lives.  A changed answer is a new row set and so a new key: an
    encoding never outlives the answer it encodes.  Equal content is
    not enough, because equal rows can render differently (``(1,) ==
    (1.0,) == (True,)``).  A warm answer is the very frozenset a cache
    handed out, so its lookup costs no pass over the rows; a row set
    rebuilt on every call (a permuted column order) is encoded on every
    call.

    A packed answer is a fresh relation on every call, but its codec,
    arity and mask fix its rows exactly, the types of their values
    included: codecs are shared only between domains whose values agree
    in type (:func:`repro.kernel.backend.codec_for`).  Its bytes are
    memoized under those three, the key holding the codec, and its row
    count is the mask's popcount, so a warm packed answer decodes
    nothing.
    """
    packed = isinstance(rows, PackedRelation)
    with tracer.span("serve.encode", rows=len(rows)) as span:
        key = (rows.codec, rows.arity, rows.mask) if packed else id(rows)
        entry = _ENCODED.get(key)
        span.set(reused=entry is not None)
        if entry is None:
            tuples = rows.tuples if packed else rows
            text = json.dumps(
                [list(row) for row in sorted(tuples, key=repr)], default=repr
            )
            entry = (rows.codec if packed else rows, text.encode("ascii"))
            _ENCODED.put(key, entry, weight=len(rows))
    return entry[1]


def evaluate_payload(
    payload: Dict[str, object], cache: Optional[SubqueryCache] = None
) -> Dict[str, object]:
    """Evaluate one payload and return a plain, picklable answer dict.

    ``cache`` overrides the payload's cache flag with a concrete
    instance — the inline path passes the service's shared cross-request
    cache; pool workers pass their per-process cache.

    The answer's rows come back as ``rows_json``, the bytes of
    :func:`encode_rows`, with their count as ``row_count``.  A packed
    answer goes to :func:`encode_rows` as its relation, so a warm one
    is neither decoded nor counted row by row.

    When the payload asks for tracing, evaluation runs under a private
    :class:`~repro.obs.tracer.Tracer` and the answer dict carries the
    recorded spans (as dicts, with the payload's ``request_id`` stamped
    into each span's attrs) plus the evaluating ``pid`` — everything the
    service needs to correlate the attempt back into its request trace.
    """
    from repro.core.engine import EvalOptions, evaluate
    from repro.core.fp_eval import FixpointStrategy
    from repro.obs.tracer import Tracer

    subquery_cache = cache if cache is not None else bool(payload["cache"])
    traced = bool(payload.get("trace"))
    tracer = Tracer() if traced else None
    options = EvalOptions(
        strategy=FixpointStrategy(payload["strategy"]),
        k_limit=payload["k_limit"],
        budget=payload["budget"],
        chaos=payload["chaos"],
        subquery_cache=subquery_cache,
        backend=payload["backend"],
        trace=tracer,
    )
    result = evaluate(
        payload["formula"], payload["db"], payload["out"], options
    )
    relation = result.relation
    rows = relation if isinstance(relation, PackedRelation) else relation.tuples
    answer: Dict[str, object] = {
        "rows_json": encode_rows(
            rows, tracer if tracer is not None else NULL_TRACER
        ),
        "row_count": len(rows),
        "arity": result.relation.arity,
        "language": result.language.value,
        "stats": result.stats.as_dict(),
        "peak_rows": int(result.stats.max_intermediate_rows),
        "pid": os.getpid(),
    }
    if tracer is not None:
        request_id = payload.get("request_id")
        spans = []
        for span in tracer.spans:
            data = span.to_dict()
            if request_id is not None:
                attrs = dict(data.get("attrs") or {})
                attrs["request_id"] = request_id
                data["attrs"] = attrs
            spans.append(data)
        answer["spans"] = spans
    return answer


#: Exit status a worker dies with on an escalated chaos crash; chosen
#: from sysexits' EX_SOFTWARE so real segfault codes stay recognizable.
CRASH_EXIT_CODE = 70

#: The per-worker-process cross-request cache (pool workers only).
_WORKER_CACHE: Optional[SubqueryCache] = None

#: The per-worker-process resident databases (pool workers only):
#: database name -> (version token, Database), one entry per name.
_RESIDENT: Dict[str, Tuple[object, object]] = {}


def _worker_cache() -> SubqueryCache:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = SubqueryCache()
    return _WORKER_CACHE


def _resident_db(payload: Dict[str, object]):
    """The payload's database: stored if attached, else the resident copy.

    Raises :class:`NotResident` when this process holds no copy of the
    payload's version.
    """
    name, version = payload["db_name"], payload["db_version"]
    if payload["db"] is not None:
        _RESIDENT[name] = (version, payload["db"])
        return payload["db"]
    resident = _RESIDENT.get(name)
    if resident is None or resident[0] != version:
        raise NotResident(
            f"worker {os.getpid()} holds no copy of database {name!r} "
            f"at version {version!r}",
            db=name,
            version=version,
        )
    return resident[1]


def worker_call(payload: Dict[str, object]) -> Dict[str, object]:
    """The pool-worker entry point (module-level, hence picklable).

    The payload's database resolves through :func:`_resident_db`.  An
    :class:`InjectedFault` of kind ``"crash"`` escalates to a real
    process death when the payload allows it — that is how the chaos
    suite exercises genuine ``BrokenProcessPool`` recovery end to end.
    """
    db = _resident_db(payload)
    cache = _worker_cache() if payload["cache"] else None
    try:
        return evaluate_payload(dict(payload, db=db), cache=cache)
    except InjectedFault as fault:
        if fault.kind == "crash" and payload.get("allow_crash"):
            os._exit(CRASH_EXIT_CODE)
        raise


class WorkerPool:
    """A self-healing ``ProcessPoolExecutor`` facade.

    The executor is created lazily and rebuilt after a crash poisons it;
    concurrent submits that all observe the same broken executor trigger
    exactly one rebuild.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self.restarts = 0

    @staticmethod
    def _context():
        """A start method whose workers inherit no server file descriptors.

        Plain ``fork`` duplicates every open fd into each worker — with
        an asyncio HTTP server in the parent, a forked worker keeps
        client-connection sockets alive, so ``Connection: close``
        responses never reach EOF and clients hang.  ``forkserver``
        (preferred: workers fork from a clean, import-warm server
        process) and ``spawn`` (portable fallback) both avoid that.
        """
        try:
            return multiprocessing.get_context("forkserver")
        except ValueError:
            return multiprocessing.get_context("spawn")

    def _ensure(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._context()
            )
        return self._pool

    async def submit(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Run one payload in a worker; raises :class:`WorkerCrashed`
        (retryable) when the worker process died under it."""
        loop = asyncio.get_running_loop()
        pool = self._ensure()
        try:
            return await loop.run_in_executor(pool, worker_call, payload)
        except BrokenExecutor as exc:
            self._restart(pool)
            raise WorkerCrashed(
                f"worker process died mid-request: {exc}"
            ) from exc

    def _restart(self, broken: ProcessPoolExecutor) -> None:
        if self._pool is broken:
            shutdown_pool(broken, graceful=False)
            self._pool = None
            self.restarts += 1

    def close(self, graceful: bool = True) -> None:
        if self._pool is not None:
            shutdown_pool(self._pool, graceful=graceful)
            self._pool = None

    def __repr__(self) -> str:
        state = "idle" if self._pool is None else "up"
        return (
            f"WorkerPool(workers={self.workers}, {state}, "
            f"restarts={self.restarts})"
        )


__all__ = [
    "ANSWER_MEMO_ENTRIES",
    "ANSWER_MEMO_ROWS",
    "CRASH_EXIT_CODE",
    "NotResident",
    "WorkerCrashed",
    "WorkerPool",
    "build_payload",
    "encode_rows",
    "evaluate_payload",
    "worker_call",
]
