"""Command-line interface: evaluate queries against encoded databases.

Usage (also via ``python -m repro``)::

    # evaluate a query against a database file (standard §2.1 encoding)
    python -m repro eval --db company.db --query "exists y. E(x, y)" --out x

    # inspect a query: language, width, size
    python -m repro info --query "[lfp S(x). P(x) | S(x)](u)"

    # minimize a query's variables
    python -m repro minimize --query "exists z1. exists z2. (E(x,z1) & E(z1,z2) & E(z2,y))"

    # run a Datalog program
    python -m repro datalog --db graph.db --program rules.dl --pred reach

    # serve prepared queries over HTTP with admission control and
    # retries; --smoke N runs the CI resilience drill instead
    python -m repro serve --db g=graph.db \
        --prepare "tc=u,v=[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)" \
        --port 8080 --workers 2
    python -m repro serve --smoke 50 --workers 2 --telemetry serve.jsonl

    # trace an evaluation: span tree, hot spans, optional JSONL export
    python -m repro trace "[lfp S(x). P(x) | exists y. (E(y,x) & S(y))](u)" graph.db

    # annotated evaluation tree + answer provenance + live progress
    python -m repro explain --db graph.db \
        --query "[lfp S(x,y). E(x,y) | exists z. (E(x,z) & S(z,y))](u,v)" \
        --why 0 3 --progress

    # align two exported traces by subformula path (sparse vs packed, ...)
    python -m repro trace diff sparse.jsonl packed.jsonl

    # scaling sweep over seeded random databases, 2 worker processes
    python -m repro sweep --query "[lfp S(x,y). E(x,y) | exists z. (E(x,z) & S(z,y))](u,v)" \
        --sizes 4 8 12 --jobs 2 --strategy seminaive --cache

    # perf observatory: record a run, gate it against its baseline,
    # inspect the trajectory, profile where the time goes as n grows
    python -m repro perf record T2-FP
    python -m repro perf compare T2-FP
    python -m repro perf report T2-FP
    python -m repro perf profile T2-FP --top 8

Database files contain the standard encoding produced by
:func:`repro.database.encoding.encode_database`.

Resource budgets: ``eval``, ``trace``, and ``datalog`` accept
``--timeout SECONDS``, ``--max-iterations N``, and ``--max-rows N``;
exceeding any of them aborts the evaluation cleanly (see
``docs/robustness.md``).

Exit codes:

====  =============================================================
0     success
1     a :class:`~repro.errors.ReproError` (bad query, missing
      relation, …), a missing file, or a ``perf compare`` regression
2     usage error (argparse)
124   a resource budget or deadline was exhausted
      (:class:`~repro.errors.ResourceExhausted` — same convention as
      ``timeout(1)``)
====  =============================================================
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.engine import EvalOptions, evaluate
from repro.core.fp_eval import FixpointStrategy
from repro.database.encoding import decode_database, encode_database
from repro.errors import ReproError, ResourceExhausted
from repro.guard.budget import Budget

#: Exit code for exhausted budgets/deadlines, matching ``timeout(1)``.
EXIT_RESOURCE_EXHAUSTED = 124
from repro.logic.analysis import alternation_depth, classify_language
from repro.logic.parser import parse_formula
from repro.logic.printer import format_formula, formula_length
from repro.logic.variables import free_variables, variable_width


def _load_db(path: str):
    with open(path) as handle:
        return decode_database(handle.read().strip())


def _budget_from_args(args: argparse.Namespace) -> Optional[Budget]:
    budget = Budget(
        deadline_seconds=getattr(args, "timeout", None),
        max_iterations=getattr(args, "max_iterations", None),
        max_rows=getattr(args, "max_rows", None),
    )
    return None if budget.is_unlimited() else budget


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=["sparse", "packed"],
        default=None,
        help="table representation for the FO/FP/PFP engines (default: "
        "the REPRO_BENCH_BACKEND environment variable, else 'sparse')",
    )


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline; exceeding it exits with code 124",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        metavar="N",
        help="bound on fixpoint/round iterations",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        default=None,
        metavar="N",
        help="bound on any single intermediate relation (the n^k invariant)",
    )


#: Version of the ``eval --json`` document layout; bump on key changes.
EVAL_JSON_SCHEMA_VERSION = 1


def _cmd_eval(args: argparse.Namespace) -> int:
    db = _load_db(args.db)
    formula = parse_formula(args.query)
    out = tuple(args.out or sorted(free_variables(formula)))
    options = EvalOptions(
        strategy=FixpointStrategy(args.strategy),
        k_limit=args.k_limit,
        budget=_budget_from_args(args),
        backend=args.backend,
    )
    result = evaluate(formula, db, out, options)
    if args.json:
        import json as _json

        document = {
            "schema_version": EVAL_JSON_SCHEMA_VERSION,
            "language": result.language.value,
            "output_vars": list(out),
            "answer_rows": len(result.relation),
            "boolean": result.as_bool() if not out else None,
            "rows": sorted(
                [list(row) for row in result.relation.tuples], key=repr
            ),
            "stats": result.stats.as_dict(),
            "metrics": result.stats.registry.snapshot(),
        }
        print(_json.dumps(document, indent=2, sort_keys=True, default=str))
        return 0
    if not out:
        print("true" if result.as_bool() else "false")
    else:
        print("\t".join(out))
        for row in sorted(result.relation.tuples, key=repr):
            print("\t".join(str(v) for v in row))
    if args.stats:
        stats = result.stats
        print(
            f"# language={result.language.value} "
            f"table_ops={stats.table_ops} "
            f"max_rows={stats.max_intermediate_rows} "
            f"max_arity={stats.max_intermediate_arity} "
            f"fixpoint_iterations={stats.fixpoint_iterations} "
            f"sat_variables={stats.sat_variables} "
            f"sat_clauses={stats.sat_clauses}",
            file=sys.stderr,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, render_report

    db = _load_db(args.db)
    formula = parse_formula(args.query)
    out = tuple(args.out or sorted(free_variables(formula)))
    tracer = Tracer()
    options = EvalOptions(
        strategy=FixpointStrategy(args.strategy),
        k_limit=args.k_limit,
        trace=tracer,
        budget=_budget_from_args(args),
        backend=args.backend,
    )
    result = evaluate(formula, db, out, options)
    answer = (
        ("true" if result.as_bool() else "false")
        if not out
        else f"{len(result.relation)} row(s)"
    )
    print(f"answer: {answer}  (language={result.language.value})")
    print()
    print(
        render_report(
            tracer,
            registry=result.stats.registry,
            top_k=args.top,
            max_depth=args.max_depth,
        )
    )
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            handle.write(tracer.export_jsonl() + "\n")
        print(f"\n# wrote {len(tracer.spans)} span(s) to {args.jsonl}")
    return 0


def _domain_value(db, text: str):
    """Resolve a ``--why`` token to a domain value (verbatim, then int)."""
    if text in db.domain:
        return text
    try:
        as_int = int(text)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in db.domain:
        return as_int
    raise ReproError(f"value {text!r} is not in the database domain")


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.logic.variables import variable_width
    from repro.obs.explain import ProgressReporter, annotate_evaluation
    from repro.obs.tracer import Tracer

    if args.trace_file:
        return _explain_trace_file(args.trace_file)
    if args.experiment:
        from repro.perf.experiments import explain_target

        formula, db, out, opts = explain_target(args.experiment, args.size)
        strategy = str(opts.get("strategy", args.strategy))
        backend = opts.get("backend", args.backend)
        k_limit = opts.get("k_limit", args.k_limit)
    else:
        if not (args.db and args.query):
            raise ReproError(
                "explain needs --experiment NAME or --db PATH --query TEXT"
            )
        db = _load_db(args.db)
        formula = parse_formula(args.query)
        out = tuple(args.out or sorted(free_variables(formula)))
        strategy, backend, k_limit = args.strategy, args.backend, args.k_limit
    budget = _budget_from_args(args)
    n = db.size()
    if args.progress:
        from repro.guard.budget import resolve_guard

        # a display guard on the same budget: anchored milliseconds
        # before the engine's own, close enough for heartbeat deadlines
        guard = resolve_guard(budget) if budget is not None else None
        tracer = ProgressReporter(
            interval=args.progress_interval,
            guard=guard,
            rows_bound=n ** max(1, variable_width(formula)),
            domain_size=n,
        )
    else:
        tracer = Tracer()
    options = EvalOptions(
        strategy=FixpointStrategy(strategy),
        k_limit=k_limit,
        trace=tracer,
        budget=budget,
        backend=backend,
    )
    result = evaluate(formula, db, out, options)
    extras = {
        "query": format_formula(formula),
        "language": result.language.value,
        "backend": backend or "sparse",
        "answer": (
            ("true" if result.as_bool() else "false")
            if not out
            else f"{len(result.relation)} row(s)"
        ),
    }
    for name, value in result.stats.registry.snapshot().items():
        if name.startswith("cache."):
            extras[name] = value
    report = annotate_evaluation(
        formula,
        tracer,
        domain_size=n,
        deviation_factor=args.deviation,
        extras=extras,
    )
    text = report.render()
    print(text)
    if args.report_file:
        with open(args.report_file, "w") as handle:
            handle.write(text + "\n")
        print(f"\n# wrote report to {args.report_file}")
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            handle.write(tracer.export_jsonl() + "\n")
        print(f"# wrote {len(tracer.spans)} span(s) to {args.jsonl}")
    if args.why is not None:
        from repro.obs.provenance import check_witness, explain_answer

        values = tuple(_domain_value(db, v) for v in args.why)
        witness = explain_answer(formula, db, out, values)
        print()
        print(f"== why {values!r} ==")
        print(witness.format())
        problems = check_witness(witness, db)
        if problems:
            for problem in problems:
                print(f"# witness problem: {problem}", file=sys.stderr)
            return 1
        print("# witness replayed against the database: ok")
        # the witness is built on the reference semantics: it judges the
        # answer the engine computed above
        in_answer = values in result.relation
        if witness.holds != in_answer:
            print(
                f"# witness disagrees with the engine: {values!r} is an "
                f"answer: {witness.holds} by the reference, {in_answer} by "
                f"the engine",
                file=sys.stderr,
            )
            return 1
        print("# witness agrees with the engine's answer: ok")
    return 0


def _explain_trace_file(path: str) -> int:
    """Render a recorded trace (e.g. a served request's reassembled
    cross-process trace) without re-running any evaluation."""
    from repro.obs.explain import spans_from_dicts
    from repro.obs.profile import parse_trace_jsonl
    from repro.obs.report import render_span_tree

    with open(path, encoding="utf-8") as handle:
        roots = spans_from_dicts(parse_trace_jsonl(handle.read()))
    if not roots:
        raise ReproError(f"no spans in trace file {path!r}")

    class _Recorded:
        # the minimal tracer surface render_span_tree walks
        def roots(self):
            return roots

    request_ids = sorted(
        {
            str(span.attrs["request_id"])
            for span in roots
            if "request_id" in span.attrs
        }
    )
    span_count = sum(1 for root in roots for _ in _walk_spans(root))
    print(f"== recorded trace {path} ==")
    if request_ids:
        print(f"request(s): {', '.join(request_ids)}")
    print(f"{span_count} span(s), {len(roots)} root(s)")
    print()
    print(render_span_tree(_Recorded()))
    return 0


def _walk_spans(span):
    yield span
    for child in span.children:
        for descendant in _walk_spans(child):
            yield descendant


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    import os

    from repro.obs.explain import (
        diff_traces,
        render_trace_diff,
        spans_from_dicts,
    )
    from repro.obs.profile import parse_trace_jsonl

    with open(args.trace_a) as handle:
        roots_a = spans_from_dicts(parse_trace_jsonl(handle.read()))
    with open(args.trace_b) as handle:
        roots_b = spans_from_dicts(parse_trace_jsonl(handle.read()))
    label_a = args.label_a or os.path.basename(args.trace_a)
    label_b = args.label_b or os.path.basename(args.trace_b)
    print(
        render_trace_diff(
            diff_traces(roots_a, roots_b),
            label_a=label_a,
            label_b=label_b,
            top=args.top,
        )
    )
    return 0


def _sweep_database(n: int, seed: int, edge_prob: float):
    """A seeded random labeled digraph over ``{0, …, n-1}``.

    ``E`` holds each ordered pair independently with ``edge_prob``;
    ``P`` marks the even elements and ``Q`` the multiples of three, so
    FO^k corpus queries over the standard test schema run unchanged.
    """
    import random

    from repro.database.database import Database

    rng = random.Random(seed * 1_000_003 + n)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < edge_prob
    ]
    return Database.from_tuples(
        range(n),
        {
            "E": (2, edges),
            "P": (1, [(i,) for i in range(0, n, 2)]),
            "Q": (1, [(i,) for i in range(0, n, 3)]),
        },
    )


def _sweep_workload(
    parameter: float,
    query: str = "",
    out: tuple = (),
    strategy: str = FixpointStrategy.MONOTONE.value,
    cache: bool = False,
    budget: Optional[Budget] = None,
    k_limit: Optional[int] = None,
    seed: int = 0,
    edge_prob: float = 0.3,
    backend: Optional[str] = None,
) -> dict:
    """One sweep point: evaluate the query at database size ``parameter``.

    Module-level so ``functools.partial`` over it stays picklable —
    ``--jobs N`` ships it to worker processes.  The budget's deadline is
    anchored when the evaluation starts, i.e. per point and per worker.
    """
    db = _sweep_database(int(parameter), seed, edge_prob)
    formula = parse_formula(query)
    options = EvalOptions(
        strategy=FixpointStrategy(strategy),
        k_limit=k_limit,
        budget=budget,
        subquery_cache=cache,
        backend=backend,
    )
    result = evaluate(formula, db, out, options)
    counters = {"answer_rows": float(len(result.relation))}
    for key, value in result.stats.as_dict().items():
        counters[key] = float(value)
    return counters


def _cmd_sweep(args: argparse.Namespace) -> int:
    import functools

    from repro.complexity.measure import run_sweep

    formula = parse_formula(args.query)
    out = tuple(args.out or sorted(free_variables(formula)))
    workload = functools.partial(
        _sweep_workload,
        query=args.query,
        out=out,
        strategy=args.strategy,
        cache=args.cache,
        budget=_budget_from_args(args),
        k_limit=args.k_limit,
        seed=args.seed,
        edge_prob=args.edge_prob,
        backend=args.backend,
    )
    result = run_sweep(
        "cli-sweep",
        args.sizes,
        workload,
        repetitions=args.repetitions,
        warmup=args.repetitions > 1,
        parallel=args.jobs,
    )
    print(
        result.format_rows(
            [
                "answer_rows",
                "fixpoint_iterations",
                "max_intermediate_rows",
            ]
        )
    )
    failures = result.failures()
    for point in failures:
        print(
            f"# n={point.parameter:g}: {point.outcome}: {point.error}",
            file=sys.stderr,
        )
    if any(p.outcome == "timeout" for p in failures):
        return EXIT_RESOURCE_EXHAUSTED
    return 1 if failures else 0


def _cmd_info(args: argparse.Namespace) -> int:
    formula = parse_formula(args.query)
    print(f"formula   : {format_formula(formula)}")
    print(f"language  : {classify_language(formula).value}")
    print(f"width (k) : {variable_width(formula)}")
    print(f"free vars : {', '.join(sorted(free_variables(formula))) or '-'}")
    print(f"|e|       : {formula_length(formula)}")
    print(f"alt depth : {alternation_depth(formula)}")
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    from repro.optimize import minimize_variables

    formula = parse_formula(args.query)
    minimized = minimize_variables(formula)
    print(format_formula(minimized))
    print(
        f"# width {variable_width(formula)} -> {variable_width(minimized)}",
        file=sys.stderr,
    )
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    # round-trip/canonicalize a database file
    db = _load_db(args.db)
    print(encode_database(db))
    return 0


def _cmd_datalog(args: argparse.Namespace) -> int:
    from repro.datalog import parse_program, semi_naive
    from repro.guard.budget import resolve_guard

    db = _load_db(args.db)
    with open(args.program) as handle:
        program = parse_program(handle.read())
    guard = resolve_guard(_budget_from_args(args))
    results = semi_naive(program, db, guard=guard)
    predicates = [args.pred] if args.pred else sorted(results)
    for predicate in predicates:
        if predicate not in results:
            raise ReproError(f"program does not define {predicate!r}")
        for row in sorted(results[predicate].tuples, key=repr):
            print(f"{predicate}(" + ", ".join(str(v) for v in row) + ")")
    return 0


#: Default run-store root, relative to the invocation directory: the
#: directory that holds the committed ``BENCH_<id>.json`` baselines.
DEFAULT_STORE = "benchmarks/out/records"


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ReproError(
                f"--set expects KEY=VALUE, got {pair!r}"
            )
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _perf_fresh_record(args: argparse.Namespace, trace: bool = False):
    """Run the named experiment and build its run record."""
    from repro.obs.runstore import record_from_sweep
    from repro.perf.experiments import get_experiment, run_experiment

    experiment = get_experiment(args.experiment)
    overrides = _parse_overrides(getattr(args, "set", None))
    sweep = run_experiment(
        experiment,
        overrides=overrides,
        sizes=getattr(args, "sizes", None),
        deadline=getattr(args, "deadline", None),
        trace=trace or getattr(args, "spans", False),
        jobs=getattr(args, "jobs", 1),
    )
    meta = {"options": dict(experiment.options, **overrides)}
    record = record_from_sweep(
        experiment.experiment_id,
        experiment.title,
        sweep,
        fit_counters=experiment.fit_counters,
        deadline=getattr(args, "deadline", None),
        meta=meta,
        include_spans=getattr(args, "spans", False),
    )
    return experiment, sweep, record


def _cmd_perf_record(args: argparse.Namespace) -> int:
    from repro.obs.runstore import RunStore, format_fingerprint

    experiment, sweep, record = _perf_fresh_record(args)
    store = RunStore(args.store)
    digest, path = store.save(record)
    print(f"[{record.experiment_id}] {record.title}")
    print(f"# env: {format_fingerprint(record.env)}")
    print(sweep.format_rows(experiment.fit_counters))
    for series, fit in sorted(record.fits.items()):
        if fit.get("model") == "polynomial":
            print(f"# fit {series}: degree {fit['coefficient']:.2f}")
        elif fit.get("model") == "exponential":
            print(f"# fit {series}: base {fit['base']:.2f}")
    print(f"# record {digest} -> {path}")
    baseline_path = store.baseline_path(record.experiment_id)
    if args.baseline or store.load_baseline(record.experiment_id) is None:
        store.save_baseline(record)
        print(f"# baseline -> {baseline_path}")
    failures = sweep.failures()
    if any(p.outcome == "timeout" for p in failures):
        return EXIT_RESOURCE_EXHAUSTED
    return 1 if failures else 0


def _cmd_perf_compare(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.regress import compare_records
    from repro.obs.runstore import RunStore
    from repro.perf.experiments import get_experiment

    store = RunStore(args.store)
    experiment_id = get_experiment(args.experiment).experiment_id
    baseline = store.load_baseline(experiment_id)
    if baseline is None:
        raise ReproError(
            f"no baseline {store.baseline_path(experiment_id)!r} — run "
            f"`repro perf record {args.experiment} --baseline` first"
        )
    if args.use_latest:
        fresh = store.latest(experiment_id)
        if fresh is None:
            raise ReproError(
                f"--use-latest: no archived records for {experiment_id!r} "
                f"under {args.store}"
            )
    else:
        _, _, fresh = _perf_fresh_record(args)
        if args.save:
            digest, path = store.save(fresh)
            print(f"# record {digest} -> {path}", file=sys.stderr)
    report = compare_records(baseline, fresh)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _cmd_perf_report(args: argparse.Namespace) -> int:
    from repro.obs.runstore import RunStore
    from repro.perf.experiments import get_experiment

    store = RunStore(args.store)
    if args.experiment is None:
        ids = store.experiments()
        if not ids:
            print(f"(no records under {args.store})")
            return 0
        for experiment_id in ids:
            entries = store.index(experiment_id)
            print(f"{experiment_id}: {len(entries)} record(s)")
        return 0
    experiment_id = get_experiment(args.experiment).experiment_id
    entries = store.index(experiment_id)
    if not entries:
        print(f"(no records for {experiment_id} under {args.store})")
        return 0
    shown = entries[-args.limit :] if args.limit else entries
    print(f"[{experiment_id}] {len(entries)} record(s), newest last:")
    for entry in shown:
        failures = entry.get("failures", 0)
        print(
            f"  {entry.get('created', '?'):20}  "
            f"git={entry.get('git_sha') or '-':10}  "
            f"{entry.get('digest')}  points={entry.get('points')}"
            + (f"  failures={failures}" if failures else "")
        )
    latest = store.latest(experiment_id)
    baseline = store.load_baseline(experiment_id)
    for label, record in (("latest", latest), ("baseline", baseline)):
        if record is None:
            continue
        fits = ", ".join(
            f"{series}: {fit.get('model')} "
            f"{float(fit.get('coefficient', 0.0)):.2f}"
            for series, fit in sorted(record.fits.items())
            if fit.get("model") != "none"
        )
        print(f"  {label}: {fits or '(no fits)'}")
    return 0


def _cmd_perf_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import (
        SpanProfile,
        parse_trace_jsonl,
        profile_sweep,
        render_profile,
    )

    if args.jsonl:
        with open(args.jsonl) as handle:
            spans = parse_trace_jsonl(handle.read())
        profile = SpanProfile().add_spans(args.param, spans)
        print(render_profile(profile, top=args.top))
        return 0
    if args.experiment is None:
        raise ReproError("perf profile needs an EXPERIMENT or --jsonl PATH")
    experiment, sweep, _ = _perf_fresh_record(args, trace=True)
    profile = profile_sweep(sweep)
    print(
        f"[{experiment.experiment_id}] hot-span profile "
        f"(self time per sweep point):"
    )
    print(render_profile(profile, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="bounded-variable query evaluation (Vardi, PODS 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a query against a database")
    p_eval.add_argument("--db", required=True, help="database file (§2.1 encoding)")
    p_eval.add_argument("--query", required=True, help="query text")
    p_eval.add_argument(
        "--out",
        nargs="*",
        help="output variables (default: the free variables, sorted)",
    )
    p_eval.add_argument(
        "--strategy",
        choices=[s.value for s in FixpointStrategy],
        default=FixpointStrategy.MONOTONE.value,
        help="fixpoint strategy for FP queries",
    )
    p_eval.add_argument("--k-limit", type=int, default=None)
    p_eval.add_argument("--stats", action="store_true", help="print audit stats")
    p_eval.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document (answer, stats, full metrics "
        "snapshot) instead of the row table",
    )
    _add_backend_argument(p_eval)
    _add_budget_arguments(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_trace = sub.add_parser(
        "trace",
        help="evaluate a query with span tracing and print the trace report",
    )
    p_trace.add_argument("query", help="query text")
    p_trace.add_argument("db", help="database file (§2.1 encoding)")
    p_trace.add_argument(
        "--out",
        nargs="*",
        help="output variables (default: the free variables, sorted)",
    )
    p_trace.add_argument(
        "--strategy",
        choices=[s.value for s in FixpointStrategy],
        default=FixpointStrategy.MONOTONE.value,
        help="fixpoint strategy for FP queries",
    )
    p_trace.add_argument("--k-limit", type=int, default=None)
    p_trace.add_argument(
        "--top", type=int, default=10, help="how many hot spans to list"
    )
    p_trace.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="truncate the span tree below this depth",
    )
    _add_backend_argument(p_trace)
    p_trace.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="also write the raw spans as JSONL to this file",
    )
    _add_budget_arguments(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_explain = sub.add_parser(
        "explain",
        help="annotated evaluation tree: per-subformula rows, time, "
        "iterations, and predicted n^k cost; optional answer provenance",
    )
    p_explain.add_argument(
        "--db", default=None, help="database file (§2.1 encoding)"
    )
    p_explain.add_argument("--query", default=None, help="query text")
    p_explain.add_argument(
        "--experiment",
        default=None,
        metavar="NAME",
        help="explain a registered perf experiment (T2-FP, T2-FO, ...) "
        "instead of --db/--query",
    )
    p_explain.add_argument(
        "--size",
        type=float,
        default=None,
        metavar="N",
        help="parameter for --experiment (default: its largest)",
    )
    p_explain.add_argument(
        "--out",
        nargs="*",
        help="output variables (default: the free variables, sorted)",
    )
    p_explain.add_argument(
        "--strategy",
        choices=[s.value for s in FixpointStrategy],
        default=FixpointStrategy.MONOTONE.value,
        help="fixpoint strategy for FP queries",
    )
    p_explain.add_argument("--k-limit", type=int, default=None)
    p_explain.add_argument(
        "--why",
        nargs="*",
        default=None,
        metavar="VALUE",
        help="also explain why this answer tuple holds (or fails): "
        "a provenance witness, replayed against the database",
    )
    p_explain.add_argument(
        "--progress",
        action="store_true",
        help="emit heartbeat lines (iteration, delta, ETA) to stderr "
        "while fixpoints iterate",
    )
    p_explain.add_argument(
        "--progress-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="minimum seconds between heartbeat lines (default 1.0)",
    )
    p_explain.add_argument(
        "--deviation",
        type=float,
        default=4.0,
        metavar="X",
        help="flag nodes whose measured share exceeds X times the "
        "predicted share (default 4.0)",
    )
    p_explain.add_argument(
        "--report-file",
        default=None,
        metavar="PATH",
        help="also write the rendered report to this file",
    )
    p_explain.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="also write the raw spans as JSONL to this file",
    )
    p_explain.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="render a recorded trace JSONL instead of evaluating — "
        "e.g. a served request's cross-process trace "
        "(repro serve --smoke --trace-out)",
    )
    _add_backend_argument(p_explain)
    _add_budget_arguments(p_explain)
    p_explain.set_defaults(func=_cmd_explain)

    p_tdiff = sub.add_parser(
        "trace-diff",
        help="align two exported trace JSONL files by subformula path "
        "and report self-time/count deltas (also: repro trace diff A B)",
    )
    p_tdiff.add_argument("trace_a", help="baseline trace JSONL file")
    p_tdiff.add_argument("trace_b", help="comparison trace JSONL file")
    p_tdiff.add_argument(
        "--label-a", default=None, help="display label for the first trace"
    )
    p_tdiff.add_argument(
        "--label-b", default=None, help="display label for the second trace"
    )
    p_tdiff.add_argument(
        "--top",
        type=int,
        default=20,
        metavar="K",
        help="how many paths to show (largest |delta self| first)",
    )
    p_tdiff.set_defaults(func=_cmd_trace_diff)

    p_sweep = sub.add_parser(
        "sweep",
        help="scaling sweep of a query over seeded random databases",
    )
    p_sweep.add_argument("--query", required=True, help="query text")
    p_sweep.add_argument(
        "--sizes",
        nargs="+",
        type=int,
        required=True,
        metavar="N",
        help="database sizes to sweep",
    )
    p_sweep.add_argument(
        "--out",
        nargs="*",
        help="output variables (default: the free variables, sorted)",
    )
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = serial; results are identical)",
    )
    p_sweep.add_argument(
        "--strategy",
        choices=[s.value for s in FixpointStrategy],
        default=FixpointStrategy.MONOTONE.value,
        help="fixpoint strategy for FP queries",
    )
    p_sweep.add_argument(
        "--cache",
        action="store_true",
        help="enable the subquery result cache (per point)",
    )
    p_sweep.add_argument("--k-limit", type=int, default=None)
    _add_backend_argument(p_sweep)
    p_sweep.add_argument(
        "--seed", type=int, default=0, help="random-database seed"
    )
    p_sweep.add_argument(
        "--edge-prob",
        type=float,
        default=0.3,
        metavar="P",
        help="edge probability of the random digraph",
    )
    p_sweep.add_argument(
        "--repetitions",
        type=int,
        default=1,
        metavar="R",
        help="timed runs per point (minimum time is reported)",
    )
    _add_budget_arguments(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_perf = sub.add_parser(
        "perf",
        help="perf observatory: run records, baselines, regression gate",
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    def _add_run_arguments(p, with_jobs=True):
        p.add_argument(
            "--sizes",
            nargs="+",
            type=float,
            default=None,
            metavar="N",
            help="override the experiment's swept parameters",
        )
        p.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-point deadline (0 disables)",
        )
        p.add_argument(
            "--set",
            action="append",
            default=None,
            metavar="KEY=VALUE",
            help="override an experiment option (repeatable)",
        )
        if with_jobs:
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                metavar="N",
                help="worker processes for the sweep",
            )
        p.add_argument(
            "--store",
            default=DEFAULT_STORE,
            metavar="DIR",
            help=f"run-store root (default: {DEFAULT_STORE})",
        )

    p_record = perf_sub.add_parser(
        "record",
        help="run an experiment and archive a machine-readable run record",
    )
    p_record.add_argument("experiment", help="experiment id")
    _add_run_arguments(p_record)
    p_record.add_argument(
        "--baseline",
        action="store_true",
        help="(re)write BENCH_<id>.json from this run "
        "(always written when missing)",
    )
    p_record.add_argument(
        "--spans",
        action="store_true",
        help="embed per-point span traces in the record (for profiling)",
    )
    p_record.set_defaults(func=_cmd_perf_record)

    p_compare = perf_sub.add_parser(
        "compare",
        help="gate a fresh (or the latest archived) run's counters "
        "against the baseline",
    )
    p_compare.add_argument("experiment", help="experiment id")
    _add_run_arguments(p_compare)
    p_compare.add_argument(
        "--use-latest",
        action="store_true",
        help="compare the latest archived record instead of running fresh",
    )
    p_compare.add_argument(
        "--save",
        action="store_true",
        help="also archive the fresh record into the store",
    )
    p_compare.add_argument(
        "--json",
        action="store_true",
        help="print the structured diff report as JSON",
    )
    p_compare.add_argument("--spans", action="store_true", help=argparse.SUPPRESS)
    p_compare.set_defaults(func=_cmd_perf_compare)

    p_report = perf_sub.add_parser(
        "report",
        help="show an experiment's recorded perf trajectory",
    )
    p_report.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (omit to list all recorded experiments)",
    )
    p_report.add_argument(
        "--store",
        default=DEFAULT_STORE,
        metavar="DIR",
        help=f"run-store root (default: {DEFAULT_STORE})",
    )
    p_report.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="show at most the newest N index entries",
    )
    p_report.set_defaults(func=_cmd_perf_report)

    p_profile = perf_sub.add_parser(
        "profile",
        help="cross-run hot-span profile: self time by span name per point",
    )
    p_profile.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (traced sweep)",
    )
    _add_run_arguments(p_profile, with_jobs=False)
    p_profile.add_argument(
        "--jobs", type=int, default=1, help=argparse.SUPPRESS
    )
    p_profile.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="profile an exported trace JSONL file instead of running",
    )
    p_profile.add_argument(
        "--param",
        type=float,
        default=0.0,
        metavar="P",
        help="parameter label for --jsonl input (default 0)",
    )
    p_profile.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="how many span names to list",
    )
    p_profile.set_defaults(func=_cmd_perf_profile)

    p_info = sub.add_parser("info", help="classify and measure a query")
    p_info.add_argument("--query", required=True)
    p_info.set_defaults(func=_cmd_info)

    p_min = sub.add_parser("minimize", help="minimize a query's variables")
    p_min.add_argument("--query", required=True)
    p_min.set_defaults(func=_cmd_minimize)

    p_enc = sub.add_parser("encode", help="canonicalize a database file")
    p_enc.add_argument("--db", required=True)
    p_enc.set_defaults(func=_cmd_encode)

    p_dl = sub.add_parser("datalog", help="run a Datalog program")
    p_dl.add_argument("--db", required=True)
    p_dl.add_argument("--program", required=True)
    p_dl.add_argument("--pred", default=None, help="predicate to print")
    _add_budget_arguments(p_dl)
    p_dl.set_defaults(func=_cmd_datalog)

    from repro.serve.cli import add_serve_parser

    add_serve_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # `repro trace diff A B` is the natural spelling of the trace-diff
    # subcommand; rewrite it before argparse sees a positional "diff"
    if len(argv) >= 2 and argv[0] == "trace" and argv[1] == "diff":
        argv = ["trace-diff"] + list(argv[2:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceExhausted as exc:
        # before the generic ReproError handler: budget exhaustion gets
        # its own exit code so scripts can tell "too big" from "wrong"
        print(f"resource exhausted: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_EXHAUSTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
