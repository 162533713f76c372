"""T2-FP — Table 2: combined complexity of FP^k (NP ∩ co-NP, Thm 3.5).

What is measurable about an NP∩co-NP bound:

1. certificates are small — the total guessed tuples of the Theorem 3.5
   certificate stay within a fixed polynomial envelope (~ l · n^k) across
   a data sweep, for membership *and* (via the dual query) non-membership;
2. verification is fast — the verifier's work grows polynomially in n.

Both are swept on the ν/µ "P infinitely often on every path" property.

A third bench pits the SEMINAIVE fixpoint strategy against NAIVE on
transitive closure — the workload semi-naive evaluation exists for.
"""

import functools
import time

from repro.core.certificates import (
    certificate_size,
    extract_membership,
    extract_non_membership,
    verify_membership,
    verify_non_membership,
)
from repro.core.fp_eval import FixpointStrategy, solve_query
from repro.core.interp import EvalStats
from repro.core.naive_eval import naive_answer
from repro.complexity.fit import classify_growth
from repro.complexity.measure import run_sweep
from repro.logic.parser import parse_formula
from repro.workloads.graphs import labeled_graph, path_graph, random_graph

from benchmarks._harness import emit, emit_record, series_table, sweep_jobs

SIZES = [3, 4, 5, 6, 7]
FAIR = parse_formula(
    "[gfp S(x). [lfp T(z). forall y. (~E(z, y) | (P(y) & S(y)) | T(y))](x)](u)"
)

#: Path lengths for the transitive-closure strategy shoot-out: a path
#: graph maximizes fixpoint depth (n-1 rounds), the semi-naive sweet spot.
TC_SIZES = [6, 10, 14, 18]
TC_QUERY = "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"

#: The packed-kernel shoot-out runs one size further: the packed
#: advantage grows with the n²-bit mask width, and n=26 is still far
#: inside the per-point deadline on both backends.
PACKED_TC_SIZES = TC_SIZES + [26]


def _tc_workload(
    parameter: float, strategy: str = "naive", backend: str = None
) -> dict:
    """Transitive closure of a path graph under one fixpoint strategy.

    Module-level (picklable) so ``REPRO_BENCH_JOBS`` can parallelize the
    sweep; parses the query per call so no formula objects cross process
    boundaries.
    """
    n = int(parameter)
    stats = EvalStats()
    answer = solve_query(
        parse_formula(TC_QUERY),
        path_graph(n),
        ("u", "v"),
        strategy=FixpointStrategy(strategy),
        stats=stats,
        backend=backend,
    )
    return {
        "answer_rows": float(len(answer)),
        "iterations": float(stats.fixpoint_iterations),
        "body_evals": float(stats.body_evaluations),
        "delta_rounds": float(stats.notes.get("seminaive_delta_rounds", 0)),
    }


def bench_table2_fp_seminaive_vs_naive(benchmark):
    """Semi-naive vs naive LFP ascent on path-graph transitive closure.

    Naive ascent re-joins ``E`` against the whole accumulated closure
    every round (``Θ(n)`` rounds of ``Θ(n²)``-row work); semi-naive joins
    only against the previous round's delta.  The speedup at each ``n``
    is recorded in the bench output — the differential test suite, not
    this bench, owns the equivalence guarantee, but tuple counts are
    cross-checked here too.
    """
    jobs = sweep_jobs()
    sweeps = {
        strategy: run_sweep(
            f"tc-{strategy}",
            TC_SIZES,
            functools.partial(_tc_workload, strategy=strategy),
            repetitions=3,
            parallel=jobs,
        )
        for strategy in ("naive", "seminaive")
    }
    rows = []
    for naive_pt, semi_pt in zip(
        sweeps["naive"].points, sweeps["seminaive"].points
    ):
        assert naive_pt.ok and semi_pt.ok, (naive_pt, semi_pt)
        # same closure, and the semi-naive run really ran delta rounds
        assert naive_pt.counter("answer_rows") == semi_pt.counter(
            "answer_rows"
        )
        assert semi_pt.counter("delta_rounds") >= 1
        rows.append(
            (
                int(naive_pt.parameter),
                int(naive_pt.counter("answer_rows")),
                f"{naive_pt.seconds:.5f}",
                f"{semi_pt.seconds:.5f}",
                f"{naive_pt.seconds / semi_pt.seconds:.2f}x",
            )
        )
    benchmark(functools.partial(_tc_workload, strategy="seminaive"), TC_SIZES[-1])
    largest = rows[-1]
    body = (
        series_table(
            ("n", "closure rows", "naive s", "seminaive s", "speedup"),
            rows,
        )
        + f"\n\nlargest n={largest[0]}: naive {largest[2]}s vs semi-naive "
        f"{largest[3]}s ({largest[4]}) — recorded, not asserted; both "
        f"strategies agree tuple-for-tuple (checked per point)"
        + ("" if jobs == 1 else f"\nsweep ran with {jobs} worker processes")
    )
    emit(
        "T2-FP-SEMINAIVE",
        "semi-naive vs naive LFP ascent on transitive closure",
        body,
    )
    emit_record(
        "T2-FP-SEMINAIVE",
        "semi-naive LFP ascent on transitive closure",
        sweep=sweeps["seminaive"],
        fit_counters=("answer_rows", "iterations"),
        meta={"strategy": "seminaive", "versus": "naive"},
    )


def bench_table2_fp_packed_vs_sparse(benchmark):
    """Packed ``n^k``-bit kernel vs the sparse reference on transitive
    closure (semi-naive ascent both sides).

    The packed backend turns the per-round union/difference/join work
    into whole-integer bit operations, so its advantage grows with the
    ``n²``-bit mask size.  Wall-clock speedup per point is recorded in
    the bench output; the equivalence guarantee is owned by the
    backend-differential test suite, but answer and iteration counters
    are cross-checked here too — they must be representation-independent.
    """
    jobs = sweep_jobs()
    sweeps = {
        backend: run_sweep(
            f"tc-{backend}",
            PACKED_TC_SIZES,
            functools.partial(
                _tc_workload, strategy="seminaive", backend=backend
            ),
            repetitions=5,
            parallel=jobs,
        )
        for backend in ("sparse", "packed")
    }
    rows = []
    for sparse_pt, packed_pt in zip(
        sweeps["sparse"].points, sweeps["packed"].points
    ):
        assert sparse_pt.ok and packed_pt.ok, (sparse_pt, packed_pt)
        # identical answers and identical engine counters: the backend
        # changes the representation, never the computation
        for key in ("answer_rows", "iterations", "body_evals", "delta_rounds"):
            assert sparse_pt.counter(key) == packed_pt.counter(key), key
        rows.append(
            (
                int(sparse_pt.parameter),
                int(sparse_pt.counter("answer_rows")),
                f"{sparse_pt.seconds:.5f}",
                f"{packed_pt.seconds:.5f}",
                f"{sparse_pt.seconds / packed_pt.seconds:.2f}x",
            )
        )
    benchmark(
        functools.partial(_tc_workload, strategy="seminaive", backend="packed"),
        PACKED_TC_SIZES[-1],
    )
    largest = rows[-1]
    body = (
        series_table(
            ("n", "closure rows", "sparse s", "packed s", "speedup"),
            rows,
        )
        + f"\n\nlargest n={largest[0]}: sparse {largest[2]}s vs packed "
        f"{largest[3]}s ({largest[4]}) — recorded, not asserted; both "
        f"backends agree on answers and counters (checked per point)"
        + ("" if jobs == 1 else f"\nsweep ran with {jobs} worker processes")
    )
    emit(
        "T2-FP-PACKED",
        "packed n^k-bit kernel vs sparse tables on transitive closure",
        body,
    )
    # archived under its own id: the registered T2-FP-PACKED experiment
    # (repro perf record) gates a different counter set
    emit_record(
        "T2-FP-PACKED-VS-SPARSE",
        "packed n^k-bit kernel on transitive closure",
        sweep=sweeps["packed"],
        fit_counters=("answer_rows", "iterations"),
        meta={"backend": "packed", "versus": "sparse"},
    )


def _database(n: int):
    return labeled_graph(
        random_graph(n, 0.35, seed=n + 100), {"P": list(range(0, n, 2))}
    )


def _sweep_point(n: int):
    db = _database(n)
    answer = naive_answer(FAIR, db, ("u",))
    member = next(iter(sorted(answer.tuples)), None)
    outside = next(
        ((v,) for v in range(n) if (v,) not in answer), None
    )
    sizes, verify_work = [], []
    if member is not None:
        cert = extract_membership(FAIR, db, ("u",), member)
        sizes.append(certificate_size(cert))
        stats = EvalStats()
        start = time.perf_counter()
        assert verify_membership(cert, FAIR, db, stats=stats)
        verify_work.append(
            (time.perf_counter() - start, stats.table_ops)
        )
    if outside is not None:
        cert = extract_non_membership(FAIR, db, ("u",), outside)
        sizes.append(certificate_size(cert))
        stats = EvalStats()
        start = time.perf_counter()
        assert verify_non_membership(cert, FAIR, db, stats=stats)
        verify_work.append((time.perf_counter() - start, stats.table_ops))
    return sizes, verify_work


def bench_table2_fp_certificates(benchmark):
    rows, max_sizes, verify_ops = [], [], []
    cert_seconds, cert_counters = [], []
    k, fixpoints = 3, 2
    for n in SIZES:
        sizes, verify_work = _sweep_point(n)
        envelope = 2 * fixpoints * n**k
        biggest = max(sizes) if sizes else 0
        ops = max((w for _, w in verify_work), default=0)
        seconds = max((s for s, _ in verify_work), default=0.0)
        max_sizes.append(max(biggest, 1))
        verify_ops.append(max(ops, 1))
        cert_seconds.append(seconds)
        cert_counters.append(
            {
                "cert_tuples": float(biggest),
                "envelope": float(envelope),
                "verify_ops": float(ops),
            }
        )
        rows.append((n, biggest, envelope, ops, f"{seconds:.4f}"))
        assert biggest <= envelope, (n, biggest, envelope)
    benchmark(_sweep_point, SIZES[2])

    from repro.complexity.fit import fit_polynomial

    size_fit = fit_polynomial(SIZES, max_sizes)
    verify_fit = fit_polynomial(SIZES, verify_ops)
    body = (
        series_table(
            ("n", "cert tuples", "l*n^k envelope", "verify ops", "verify s"),
            rows,
        )
        + f"\n\ncertificate size vs n: within the l*n^k envelope at every "
        f"n; fitted degree {size_fit.coefficient:.2f} (claim: poly — NP side)"
        + f"\nverification work vs n: fitted degree "
        f"{verify_fit.coefficient:.2f} (claim: poly-time verifier)"
        + "\nnon-membership certified via the dual query (co-NP side)"
    )
    emit("T2-FP", "FP^k certificates are small and quickly verifiable", body)
    emit_record(
        "T2-FP-CERT",
        "FP^k certificate sizes and verification work",
        parameters=[float(n) for n in SIZES],
        seconds=cert_seconds,
        counters=cert_counters,
        fit_counters=("cert_tuples", "verify_ops"),
        meta={"k": k, "fixpoints": fixpoints},
    )

    # the meaningful bound is the per-point envelope (asserted in the loop);
    # the fitted degrees are reported and loosely sanity-checked — random
    # graph structure makes the series too jagged for model selection
    assert size_fit.coefficient <= k + 2.0
    assert verify_fit.coefficient <= 6.0


def bench_table3_fp_expression(benchmark):
    """Table 3 row FP: expression complexity matches combined (NP∩co-NP).

    Fixed database, growing alternating ν/µ expressions: certificate
    sizes stay within the ``l·n^k`` envelope — linear in the expression's
    alternation depth l, not exponential.
    """
    from repro.core.alternation import alternation_answer_with_trace
    from repro.workloads.formulas import alternating_fixpoint_family

    db = _database(5)
    depth_db = db
    rows = []
    sizes = []
    depths = [1, 2, 3, 4]
    for depth in depths:
        q = alternating_fixpoint_family(depth)
        working_db = depth_db
        # the family needs labels P1..P<depth>
        from repro.workloads.graphs import labeled_graph, random_graph

        working_db = labeled_graph(
            random_graph(5, 0.35, seed=4),
            {f"P{i}": [0, 2] for i in range(1, depth + 1)},
        )
        _, cert = alternation_answer_with_trace(q.formula, working_db, ())
        envelope = 2 * depth * working_db.size() ** 3
        size = cert.total_guessed_tuples()
        sizes.append(max(size, 1))
        rows.append((depth, q.formula.size(), size, envelope))
        assert size <= envelope
    benchmark(
        lambda: alternation_answer_with_trace(
            alternating_fixpoint_family(3).formula,
            _expression_db(),
            (),
        )
    )
    body = (
        series_table(
            ("alt depth l", "|e| nodes", "cert tuples", "l*n^k envelope"),
            rows,
        )
        + "\n\nfixed database, growing expressions: certificate size "
        "scales with l, inside the l*n^k envelope at every depth"
    )
    emit(
        "T3-FP",
        "FP^k expression complexity: certificates stay l*n^k on a fixed B",
        body,
    )
    emit_record(
        "T3-FP",
        "FP^k expression complexity: certificate size vs alternation depth",
        parameters=[float(d) for d in depths],
        seconds=[0.0] * len(depths),
        counters=[
            {
                "expr_nodes": float(expr),
                "cert_tuples": float(size),
                "envelope": float(env),
            }
            for _, expr, size, env in rows
        ],
        fit_counters=("cert_tuples",),
        meta={"database_size": 5},
    )


def _expression_db():
    from repro.workloads.graphs import labeled_graph, random_graph

    return labeled_graph(
        random_graph(5, 0.35, seed=4),
        {f"P{i}": [0, 2] for i in range(1, 4)},
    )
