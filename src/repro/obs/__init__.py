"""Observability: span-based tracing and a unified metrics registry.

The paper's headline claims are claims about internal quantities —
intermediate relation sizes (Prop 3.1), fixpoint iteration counts
(Theorem 3.5), live PFP space (Theorem 3.8), grounded CNF sizes
(Lemma 3.6 / Corollary 3.7).  This package makes them observable:

* :mod:`repro.obs.tracer` — nested, timed, attributed spans with JSONL
  export; the shared no-op :data:`NULL_TRACER` keeps disabled runs free.
* :mod:`repro.obs.metrics` — counters/gauges/histograms; the store
  behind ``EvalStats`` and ``SpaceMeter``.
* :mod:`repro.obs.report` — plain-text span-tree / hot-span / metrics
  rendering (the ``repro trace`` CLI output).
* :mod:`repro.obs.runstore` — machine-readable run records and the
  content-addressed archive under ``benchmarks/out/records/``.
* :mod:`repro.obs.regress` — the regression gate: a fresh record's
  deterministic counters against its committed ``BENCH_<id>.json``
  baseline, exactly.
* :mod:`repro.obs.profile` — cross-run span profiles: self-time by span
  name, keyed by sweep parameter.
* :mod:`repro.obs.provenance` — answer witnesses ("why is t an
  answer"), Kleene stage logs, and derivation chains for fixpoints.
* :mod:`repro.obs.explain` — annotated evaluation trees (spans merged
  with the formula AST and the ``n^k`` cost model), trace diffing, and
  the live fixpoint :class:`~repro.obs.explain.ProgressReporter`.
* :mod:`repro.obs.rolling` — fixed-bucket sliding windows (1s buckets,
  60s/300s horizons): the *current* latency/error view of a live server.
* :mod:`repro.obs.slo` — availability/latency objectives with
  error-budget burn-rate computation over the rolling windows.
* :mod:`repro.obs.expo` — Prometheus-style text exposition of the
  registry plus rolling/SLO readings (the ``GET /metrics`` document).
* :mod:`repro.obs.flight` — the always-on flight recorder: a bounded
  event ring dumped as a JSON post-mortem on failures.
* :mod:`repro.obs.correlate` — cross-process trace correlation:
  request ids, worker-span reassembly, and the recent-trace store
  behind ``GET /trace``.

See ``docs/observability.md`` for the span and metric catalogue and how
each maps back to a bound in the paper, and ``docs/benchmarking.md``
for the run-record / baseline / profile workflow.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.obs.correlate import (
    TraceStore,
    assemble_trace,
    attempt_record,
    new_request_id,
    trace_jsonl,
)
from repro.obs.expo import (
    ExpositionError,
    gauge_family,
    metric_name,
    parse_exposition,
    registry_families,
    render_exposition,
    render_families,
)
from repro.obs.flight import FlightRecorder
from repro.obs.rolling import (
    WindowSet,
    WindowedCounter,
    WindowedHistogram,
    horizon_label,
)
from repro.obs.slo import SLOBoard, SLOPolicy, SLOTracker
from repro.obs.explain import (
    ExplainReport,
    NodeReport,
    PathDiff,
    ProgressReporter,
    annotate_evaluation,
    diff_traces,
    render_explain_report,
    render_trace_diff,
    spans_from_dicts,
    trace_paths,
)
from repro.obs.profile import (
    ProfileWarning,
    SpanProfile,
    parse_trace_jsonl,
    profile_record,
    profile_sweep,
    render_profile,
)
from repro.obs.provenance import (
    NULL_STAGE_LOG,
    NullStageLog,
    ProvenanceError,
    SolveRecord,
    StageLog,
    StageLogLike,
    Witness,
    check_witness,
    explain_answer,
    explain_membership,
)
from repro.obs.regress import (
    RegressionReport,
    Violation,
    compare_records,
)
from repro.obs.report import (
    render_hot_spans,
    render_metrics,
    render_report,
    render_span_tree,
)
from repro.obs.runstore import (
    PointRecord,
    RunRecord,
    RunStore,
    RunStoreError,
    build_record,
    env_fingerprint,
    format_fingerprint,
    record_from_sweep,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    TracerLike,
    resolve_tracer,
)

__all__ = [
    "Counter",
    "ExplainReport",
    "ExpositionError",
    "FlightRecorder",
    "SLOBoard",
    "SLOPolicy",
    "SLOTracker",
    "TraceStore",
    "WindowSet",
    "WindowedCounter",
    "WindowedHistogram",
    "assemble_trace",
    "attempt_record",
    "gauge_family",
    "horizon_label",
    "metric_name",
    "new_request_id",
    "parse_exposition",
    "quantile_from_buckets",
    "registry_families",
    "render_exposition",
    "render_families",
    "trace_jsonl",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NULL_STAGE_LOG",
    "NULL_TRACER",
    "NodeReport",
    "NullStageLog",
    "PathDiff",
    "ProfileWarning",
    "ProgressReporter",
    "ProvenanceError",
    "SolveRecord",
    "StageLog",
    "StageLogLike",
    "Witness",
    "annotate_evaluation",
    "check_witness",
    "diff_traces",
    "explain_answer",
    "explain_membership",
    "render_explain_report",
    "render_trace_diff",
    "spans_from_dicts",
    "trace_paths",
    "NullTracer",
    "Span",
    "Tracer",
    "TracerLike",
    "resolve_tracer",
    "render_hot_spans",
    "render_metrics",
    "render_report",
    "render_span_tree",
    "PointRecord",
    "RegressionReport",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "SpanProfile",
    "Violation",
    "build_record",
    "compare_records",
    "env_fingerprint",
    "format_fingerprint",
    "parse_trace_jsonl",
    "profile_record",
    "profile_sweep",
    "record_from_sweep",
    "render_profile",
]
