"""The eval-* workload process: set up, run closed-loop operations, report.

``run.py`` starts this script with a pinned environment and reads one
JSON object from its standard output.  Each operation is the in-process
``repro eval`` pipeline on a fresh encoded graph: ``decode_database``,
``parse_formula``, ``evaluate`` and sorting the answer rows.

Every mode first times set-up (``import repro`` through the warm-up
operations).  Timed operation ``i`` of the run runs on input ``i``; a
process runs inputs ``--start``, ``--start + 1``, ... until ``--seconds``
have passed or ``--cap`` inputs are done.

Modes:

* ``plain``: time the operations;
* ``traced``: the same operations with the benchmark's spans around each
  public call and the program's spans from ``EvalOptions(trace=...)``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys
import time

import workloads as W
from spans import ROOT, SpanLog

#: Warm-up operations inside set-up; their graphs are not timed inputs.
WARMUP_OPS = 2


def counters(result) -> dict:
    """The per-operation counts the program reports on its result."""
    stats = result.stats.as_dict()
    snap = result.stats.registry.snapshot()

    def ratio(kind: str) -> float:
        hits = snap.get(f"kernel.cache.{kind}_hits", 0)
        total = hits + snap.get(f"kernel.cache.{kind}_misses", 0)
        return hits / total if total else 0.0

    return {
        "core.table_ops": stats["table_ops"],
        "core.fixpoint_iterations": stats["fixpoint_iterations"],
        "core.max_intermediate_rows": stats["max_intermediate_rows"],
        "core.max_intermediate_arity": stats["max_intermediate_arity"],
        "kernel.mask_bits": snap.get("kernel.mask_bits", 0),
        "kernel.tables": snap.get("kernel.tables", 0),
        "kernel.align_hit_ratio": ratio("align"),
        "kernel.atom_hit_ratio": ratio("atom"),
        "perf.seminaive_delta_tuples": stats.get("seminaive_delta_tuples", 0),
        "perf.memo_hits": stats.get("memo_hits", 0),
        "perf.compile_builds": snap.get("compile.builds", 0),
        "perf.compile_hits": snap.get("compile.hits", 0),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"))
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cap", type=int, default=0)
    parser.add_argument("--drop-row-op", type=int, default=-1)
    args = parser.parse_args()
    workload = args.workload
    warmups = [W.eval_input(workload, args.seed, "warmup", i) for i in range(WARMUP_OPS)]
    inputs = [
        W.eval_input(workload, args.seed, "timed", args.start + i)
        for i in range(args.cap)
    ]

    start = time.perf_counter()
    from repro import EvalOptions, FixpointStrategy, Tracer, evaluate, parse_formula
    from repro.database.encoding import decode_database

    if workload == "eval-fo3":
        query, out = W.FO3_QUERY, W.FO3_OUT
        options = EvalOptions(backend="packed", k_limit=3)
    else:
        query, out = W.TC_QUERY, W.TC_OUT
        options = EvalOptions(
            backend="packed", strategy=FixpointStrategy.SEMINAIVE
        )

    def operation(text: str):
        db = decode_database(text)
        formula = parse_formula(query)
        result = evaluate(formula, db, out, options)
        return sorted(result.relation.tuples)

    for text in warmups:
        operation(text)
    report = {"setup_s": time.perf_counter() - start}

    latencies, digests, sizes, per_op = [], [], [], []
    log = SpanLog()
    gc.collect()
    clock = time.perf_counter
    phase_start = clock()
    deadline = phase_start + args.seconds
    for i, text in enumerate(inputs, args.start):
        if clock() >= deadline:
            break
        if args.mode == "plain":
            t0 = clock()
            rows = operation(text)
            latencies.append(clock() - t0)
        else:
            with log.span(ROOT, i) as op:
                with log.span("database.decode", i):
                    db = decode_database(text)
                with log.span("logic.parse", i):
                    formula = parse_formula(query)
                base = clock()
                tracer = Tracer()
                with log.span("core.evaluate", i) as call:
                    result = evaluate(
                        formula, db, out, dataclasses.replace(options, trace=tracer)
                    )
                with log.span("core.materialize", i):
                    rows = sorted(result.relation.tuples)
            latencies.append(op["duration"])
            log.graft(
                (span.to_dict() for span in tracer.spans), call["span_id"], base, i
            )
            per_op.append(counters(result))
        if i == args.drop_row_op:
            rows = rows[1:]
        digests.append(W.digest(rows))
        sizes.append(len(rows))
    report.update(
        wall_s=clock() - phase_start,
        latencies=latencies,
        digests=digests,
        rows=sizes,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        counters=per_op,
        spans=log.spans,
    )
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
