"""Shared helpers for the benchmark suite.

Every bench regenerates one experiment from DESIGN.md's per-experiment
index.  Results are printed and written to ``benchmarks/out/<id>.txt``
(each run overwrites the previous block, so the file always holds the
latest run) so EXPERIMENTS.md can quote them; shape claims (polynomial
vs exponential, who wins) are asserted so a regression breaks the bench.

Alongside the text block, every bench also appends a machine-readable
:class:`repro.obs.runstore.RunRecord` to the content-addressed store
under ``benchmarks/out/records/`` via :func:`emit_record` — the durable
input of the ``repro perf compare`` regression gate (see
``docs/benchmarking.md``).
"""

from __future__ import annotations

import os
from typing import Mapping, Optional, Sequence, Tuple

from repro.guard.budget import Budget

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: Where :func:`emit_record` archives run records (the CLI's default too).
RECORDS_DIR = os.path.join(OUT_DIR, "records")

#: Environment variable overriding the per-point deadline (seconds).
DEADLINE_ENV = "REPRO_BENCH_DEADLINE"

#: Default per-point deadline: generous for any healthy bench point, but
#: a diverging configuration is cut off instead of hanging the suite.
DEFAULT_POINT_DEADLINE = 60.0

#: Environment variable selecting the sweep worker-process count.
JOBS_ENV = "REPRO_BENCH_JOBS"


def sweep_jobs(default: int = 1) -> int:
    """Worker processes for sweep-based benches (``run_sweep(parallel=)``).

    Defaults to serial — parallel workers share cores, so per-point
    wall-clock comparisons are only meaningful at ``1``.  Set
    ``REPRO_BENCH_JOBS`` to fan points out when total sweep throughput
    matters more than clean per-point times; outcomes and counters are
    identical either way.
    """
    try:
        jobs = int(os.environ.get(JOBS_ENV, default))
    except ValueError:
        return default
    return max(1, jobs)


def point_deadline(deadline_seconds: Optional[float] = None) -> Optional[float]:
    """The effective per-point deadline in seconds (``None`` = disabled).

    Resolution order: explicit argument, then ``REPRO_BENCH_DEADLINE``,
    then :data:`DEFAULT_POINT_DEADLINE`; non-positive disables.
    """
    if deadline_seconds is None:
        try:
            deadline_seconds = float(
                os.environ.get(DEADLINE_ENV, DEFAULT_POINT_DEADLINE)
            )
        except ValueError:
            deadline_seconds = DEFAULT_POINT_DEADLINE
    return deadline_seconds if deadline_seconds > 0 else None


def point_budget(deadline_seconds: Optional[float] = None) -> Budget:
    """The per-sweep-point budget for bench workloads.

    Benches thread this into their workloads' ``EvalOptions`` so every
    point is individually deadlined; :func:`repro.complexity.run_sweep`
    then records an over-deadline point as ``outcome="timeout"`` and the
    sweep keeps going.  ``REPRO_BENCH_DEADLINE`` overrides the default
    (``0`` disables the deadline entirely).
    """
    deadline = point_deadline(deadline_seconds)
    if deadline is None:
        return Budget()
    return Budget(deadline_seconds=deadline)


def emit(experiment_id: str, title: str, body: str) -> None:
    """Print one experiment's result block and persist it.

    The output file is overwritten on every run — it is a regenerable
    artifact, not a log.  The header carries the environment fingerprint
    and the effective per-point deadline so a quoted block is
    self-describing about where and under what budget it was measured.
    """
    from repro.obs.runstore import env_fingerprint, format_fingerprint

    deadline = point_deadline()
    banner = f"[{experiment_id}] {title}"
    header = (
        f"{banner}\n"
        f"# env: {format_fingerprint(env_fingerprint())}\n"
        f"# deadline: "
        + (f"{deadline:g}s per point" if deadline is not None else "none")
    )
    block = f"{header}\n{'-' * len(banner)}\n{body}\n"
    print("\n" + block)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{experiment_id}.txt")
    with open(path, "w") as handle:
        handle.write(block)


def emit_record(
    experiment_id: str,
    title: str,
    sweep=None,
    parameters: Optional[Sequence[float]] = None,
    seconds: Optional[Sequence[float]] = None,
    counters: Optional[Sequence[Mapping[str, float]]] = None,
    outcomes: Optional[Sequence[str]] = None,
    fit_counters: Sequence[str] = (),
    meta: Optional[Mapping[str, object]] = None,
    include_spans: bool = False,
    store_root: Optional[str] = None,
) -> Tuple[str, str]:
    """Archive this bench run as a machine-readable record.

    Pass either a :class:`repro.complexity.measure.SweepResult` as
    ``sweep`` or parallel ``parameters``/``seconds``/``counters`` series
    for hand-rolled loops.  Appends to the content-addressed store under
    ``benchmarks/out/records/`` and seeds ``BENCH_<id>.json`` if the
    experiment has no baseline yet (a committed baseline is only ever
    replaced deliberately, via ``repro perf record --baseline``).
    Returns ``(digest, path)``.
    """
    from repro.obs.runstore import RunStore, build_record, record_from_sweep

    deadline = point_deadline()
    if sweep is not None:
        record = record_from_sweep(
            experiment_id,
            title,
            sweep,
            fit_counters=fit_counters,
            deadline=deadline,
            meta=meta,
            include_spans=include_spans,
        )
    else:
        record = build_record(
            experiment_id,
            title,
            parameters=list(parameters or ()),
            seconds=list(seconds or ()),
            counters=list(counters) if counters is not None else None,
            outcomes=list(outcomes) if outcomes is not None else None,
            fit_counters=fit_counters,
            deadline=deadline,
            meta=meta,
        )
    store = RunStore(store_root or RECORDS_DIR)
    digest, path = store.save(record)
    if store.load_baseline(experiment_id) is None:
        store.save_baseline(record)
    return digest, path


def load_baseline(experiment_id: str, store_root: Optional[str] = None):
    """The committed baseline record for an experiment, or ``None``."""
    from repro.obs.runstore import RunStore

    return RunStore(store_root or RECORDS_DIR).load_baseline(experiment_id)


def emit_trace(experiment_id: str, tracer) -> str:
    """Persist a span trace next to the experiment's text output.

    Writes ``benchmarks/out/<id>.trace.jsonl`` (overwriting, like
    :func:`emit`) and returns the path.  ``tracer`` is a recording
    :class:`repro.obs.Tracer`.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{experiment_id}.trace.jsonl")
    with open(path, "w") as handle:
        handle.write(tracer.export_jsonl() + "\n")
    return path


def series_table(
    header: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """A small fixed-width table renderer for bench output."""
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    def fmt(row):
        return "  ".join(str(v).rjust(w) for v, w in zip(row, widths))

    lines = [fmt(header)]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
