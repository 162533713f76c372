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
  answer") and derivation chains for fixpoints.
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

The package re-exports nothing: each name is loaded from the submodule
that defines it, so loading one facility does not load the others.

See ``docs/observability.md`` for the span and metric catalogue and how
each maps back to a bound in the paper, and ``docs/benchmarking.md``
for the run-record / baseline / profile workflow.
"""
