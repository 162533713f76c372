"""Named, runnable perf experiments for the ``repro perf`` observatory.

Each entry reproduces the sweep at the core of one benchmark module as
a plain picklable workload, so the CLI can run it, record it into the
run store, and gate it against its committed ``BENCH_<id>.json``
baseline without going through pytest.  The seeds are fixed and every
counter the workloads report is deterministic — that is what makes the
tier-1 exact-match policy of :mod:`repro.obs.regress` possible.

Workloads follow the :func:`repro.complexity.run_sweep` convention:
``workload(parameter)`` or ``workload(parameter, tracer)``, returning a
dict of counters.  Experiment options (fixpoint strategy, edge
probability, ...) are keyword arguments bound with ``functools.partial``
so parallel sweeps can ship them to worker processes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.guard.budget import Budget
from repro.obs.tracer import NULL_TRACER

# NOTE: repro.core.engine imports repro.perf.cache, so the engine (and
# anything that pulls it in) is imported lazily inside the workloads to
# keep this module importable from repro.perf's package init.


class ExperimentError(ReproError):
    """Unknown experiment name or a bad option override."""


#: The transitive-closure query of the T2-FP strategy shoot-out.
TC_QUERY = "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"

#: Fagin-style 2-colorability, the T2-ESO grounding workload.
TWO_COLOR_QUERY = (
    "exists2 R/1. forall x. forall y. "
    "(~E(x, y) | (R(x) & ~R(y)) | (~R(x) & R(y)))"
)


def _options(
    strategy: str,
    deadline: Optional[float],
    tracer,
    k_limit: Optional[int] = None,
    backend: Optional[str] = None,
):
    from repro.core.engine import EvalOptions
    from repro.core.fp_eval import FixpointStrategy

    budget = (
        Budget(deadline_seconds=deadline) if deadline and deadline > 0 else None
    )
    return EvalOptions(
        strategy=FixpointStrategy(strategy),
        k_limit=k_limit,
        budget=budget,
        trace=tracer,
        backend=backend,
    )


@functools.lru_cache(maxsize=64)
def _parsed(text: str):
    """Parse a workload query once per process.

    The sweeps measure *evaluation*, and every repetition would otherwise
    re-tokenize the same fixed query string — pure constant overhead that
    dilutes the per-point timings at small n.
    """
    from repro.logic.parser import parse_formula

    return parse_formula(text)


def _counters(result, extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    counters = {
        key: float(value) for key, value in result.stats.as_dict().items()
    }
    counters["answer_rows"] = float(len(result.relation))
    if extra:
        counters.update(extra)
    return counters


def tc_workload(
    parameter: float,
    tracer=NULL_TRACER,
    strategy: str = "seminaive",
    deadline: Optional[float] = None,
    backend: Optional[str] = None,
) -> Dict[str, float]:
    """Transitive closure of a path graph — the T2-FP strategy sweep.

    A path graph maximizes fixpoint depth (n-1 rounds), so the
    iteration/delta counters separate the fixpoint strategies cleanly;
    the whole workload is seed-free and fully deterministic.
    """
    from repro.core.engine import evaluate
    from repro.workloads.graphs import path_graph

    n = int(parameter)
    result = evaluate(
        _parsed(TC_QUERY),
        path_graph(n),
        ("u", "v"),
        _options(strategy, deadline, tracer, backend=backend),
    )
    return _counters(result)


def fo_path_workload(
    parameter: float,
    tracer=NULL_TRACER,
    path_len: int = 4,
    edge_prob: float = 0.3,
    deadline: Optional[float] = None,
) -> Dict[str, float]:
    """The T2-FO data sweep: a fixed FO^3 path query on seeded graphs."""
    from repro.core.engine import evaluate
    from repro.workloads.formulas import path_query_fo3
    from repro.workloads.graphs import random_graph

    n = int(parameter)
    q = path_query_fo3(int(path_len))
    result = evaluate(
        q.formula,
        random_graph(n, edge_prob, seed=n),
        q.output_vars,
        _options("monotone", deadline, tracer, k_limit=3),
    )
    return _counters(result)


def eso_two_color_workload(
    parameter: float,
    tracer=NULL_TRACER,
    edge_prob: float = 0.25,
    deadline: Optional[float] = None,
) -> Dict[str, float]:
    """The T2-ESO grounding sweep: 2-colorability of seeded graphs.

    The CNF sizes (``sat.variables``/``sat.clauses``) are the Lemma 3.6
    quantities; the boolean answer rides along as a counter so a
    satisfiability flip is caught by the gate too.
    """
    from repro.core.engine import evaluate
    from repro.logic.parser import parse_formula
    from repro.workloads.graphs import random_graph

    n = int(parameter)
    result = evaluate(
        parse_formula(TWO_COLOR_QUERY),
        random_graph(n, edge_prob, seed=n),
        (),
        _options("monotone", deadline, tracer),
    )
    return _counters(result, {"satisfiable": float(result.as_bool())})


def serve_workload(
    parameter: float,
    tracer=NULL_TRACER,
    requests: int = 18,
    max_queue: int = 4,
    burst: int = 8,
    deadline: Optional[float] = None,
) -> Dict[str, float]:
    """The SERVE robustness drill: scripted traffic through a full
    :class:`~repro.serve.service.QueryService` at database size ``n``.

    The request mix exercises every robustness path deterministically —
    transient injected faults (retried), a persistently failing tenant
    (retries exhausted, breaker trips), a tenant whose row budget forces
    the degradation ladder, and a shed burst that arrives while every
    concurrency slot is deliberately held, so queue-full shedding is
    decided by counts, never by wall-clock.  Evaluation is inline and
    serial and all chaos is seeded, which makes every reported counter
    exact-reproducible — the property the tier-1 ``counters_only``
    regression gate needs.  ``deadline`` is accepted because the perf
    harness always binds one, but deliberately unused: coupling these
    counters to wall-clock would break the exact-match gate.
    """
    import asyncio

    from repro.errors import Overloaded, ResourceExhausted
    from repro.guard.chaos import ChaosPolicy
    from repro.serve.admission import TenantPolicy
    from repro.serve.retry import RetryPolicy
    from repro.serve.service import QueryService
    from repro.workloads.graphs import random_graph

    n = int(parameter)
    service = QueryService(
        max_concurrency=2,
        max_queue=max_queue,
        workers=0,
        retry=RetryPolicy(base_delay=0.0005, jitter=0.0),
    )
    service.register_database("g", random_graph(n, 0.3, seed=n))
    service.prepare("tc", TC_QUERY, ("u", "v"))
    service.set_tenant("steady", TenantPolicy())
    service.set_tenant(
        "flaky",
        TenantPolicy(max_attempts=2, breaker_threshold=2, breaker_cooldown=1e9),
    )
    service.set_tenant("tight", TenantPolicy(budget=Budget(max_rows=1)))

    async def drive() -> None:
        for i in range(requests):
            tenant, chaos = "steady", None
            if i % 7 == 3:
                # persistent fault: fails every attempt, trips the breaker
                tenant, chaos = "flaky", ChaosPolicy(seed=i, fail_at=1)
            elif i % 5 == 2:
                # transient fault: first attempt fails, the retry is clean
                chaos = [ChaosPolicy(seed=i, fail_at=1), None]
            elif i % 9 == 4:
                # row budget too small: walks the degradation ladder
                tenant = "tight"
            try:
                await service.call(
                    tenant, "tc", "g", request_seed=i, chaos=chaos
                )
            except (Overloaded, ResourceExhausted):
                pass  # structured failures are part of the drill
        gate = asyncio.Event()

        async def blocker() -> None:
            await service.admission.admit("blocker")
            try:
                await gate.wait()
            finally:
                service.admission.release(0.0)

        blockers = [
            asyncio.ensure_future(blocker())
            for _ in range(service.admission.max_concurrency)
        ]
        await asyncio.sleep(0)  # blockers take every concurrency slot
        calls = [
            asyncio.ensure_future(
                service.call("steady", "tc", "g", request_seed=requests + j)
            )
            for j in range(max_queue + burst)
        ]
        await asyncio.sleep(0)  # every burst call reaches admission
        gate.set()
        await asyncio.gather(*calls, return_exceptions=True)
        await asyncio.gather(*blockers)

    asyncio.run(drive())
    service.close()
    snap = service.registry.snapshot()
    return {
        "requests": float(snap["serve.requests"]),
        "ok": float(snap["serve.ok"]),
        "failed": float(snap["serve.failed"]),
        "shed": float(snap["serve.shed"]),
        "retries": float(snap["serve.retries"]),
        "degraded": float(snap["serve.degraded"]),
        "breaker_trips": float(snap["serve.breaker_trips"]),
        "answer_rows": float(snap["serve.answer_rows"]),
    }


@dataclass(frozen=True)
class PerfExperiment:
    """One registry entry: what to run and which counters to fit."""

    experiment_id: str
    title: str
    parameters: Tuple[float, ...]
    workload: Callable[..., Dict[str, float]]
    options: Mapping[str, object] = field(default_factory=dict)
    fit_counters: Tuple[str, ...] = ()
    repetitions: int = 1

    def bind(
        self,
        overrides: Optional[Mapping[str, object]] = None,
        deadline: Optional[float] = None,
    ) -> Callable[..., Dict[str, float]]:
        """The picklable workload with options (and overrides) applied."""
        bound = dict(self.options)
        for key, value in (overrides or {}).items():
            if key not in bound:
                raise ExperimentError(
                    f"experiment {self.experiment_id!r} has no option "
                    f"{key!r} (available: {', '.join(sorted(bound)) or '-'})"
                )
            bound[key] = _coerce(bound[key], value, key)
        if deadline is not None:
            bound["deadline"] = deadline
        return functools.partial(self.workload, **bound)


def _coerce(default: object, value: object, key: str) -> object:
    """Coerce a ``--set key=value`` string to the default's type."""
    if not isinstance(value, str):
        return value
    try:
        if isinstance(default, bool):
            return value.lower() in ("1", "true", "yes", "on")
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float) or default is None:
            return float(value) if default is not None else value
    except ValueError as exc:
        raise ExperimentError(
            f"bad value {value!r} for option {key!r}: {exc}"
        ) from exc
    return value


EXPERIMENTS: Dict[str, PerfExperiment] = {
    "T2-FP": PerfExperiment(
        experiment_id="T2-FP",
        title="FP^k transitive closure: fixpoint strategy counters",
        parameters=(6.0, 10.0, 14.0, 18.0),
        workload=tc_workload,
        options={"strategy": "seminaive", "backend": "sparse"},
        fit_counters=("table_ops", "answer_rows"),
        repetitions=1,
    ),
    "T2-FP-PACKED": PerfExperiment(
        experiment_id="T2-FP-PACKED",
        title="FP^k transitive closure on the packed n^k-bit kernel",
        parameters=(6.0, 10.0, 14.0, 18.0, 26.0),
        workload=tc_workload,
        options={"strategy": "seminaive", "backend": "packed"},
        fit_counters=("table_ops", "answer_rows"),
        # min-of-5 with warmup: the recorded packed-kernel timings then
        # measure steady state, not first-run import and mask-cache fills
        repetitions=5,
    ),
    "T2-FO": PerfExperiment(
        experiment_id="T2-FO",
        title="FO^3 path query: polynomial data-complexity counters",
        parameters=(4.0, 8.0, 12.0, 16.0, 20.0),
        workload=fo_path_workload,
        options={"path_len": 4, "edge_prob": 0.3},
        fit_counters=("table_ops", "max_intermediate_rows"),
        repetitions=1,
    ),
    "T2-ESO": PerfExperiment(
        experiment_id="T2-ESO",
        title="ESO^k 2-colorability: grounded CNF size counters",
        parameters=(4.0, 6.0, 8.0, 10.0),
        workload=eso_two_color_workload,
        options={"edge_prob": 0.25},
        fit_counters=("sat_variables", "sat_clauses"),
        repetitions=1,
    ),
    "SERVE": PerfExperiment(
        experiment_id="SERVE",
        title="Query service robustness drill: deterministic serve counters",
        parameters=(6.0, 8.0, 10.0),
        workload=serve_workload,
        options={"requests": 18, "max_queue": 4, "burst": 8},
        fit_counters=("ok", "answer_rows"),
        repetitions=1,
    ),
}

#: Bench-module spellings accepted by the CLI (``repro perf record
#: bench_table2_fp`` and ``repro perf record T2-FP`` are the same run).
ALIASES: Dict[str, str] = {
    "bench_table2_fp": "T2-FP",
    "bench_table2_fp_packed": "T2-FP-PACKED",
    "bench_table2_fo": "T2-FO",
    "bench_table2_eso": "T2-ESO",
    "bench_serve": "SERVE",
}


def experiment_ids() -> Tuple[str, ...]:
    return tuple(sorted(EXPERIMENTS))


def get_experiment(name: str) -> PerfExperiment:
    canonical = ALIASES.get(name, name)
    try:
        return EXPERIMENTS[canonical]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS) + sorted(ALIASES))
        raise ExperimentError(
            f"unknown perf experiment {name!r} (known: {known})"
        ) from None


def explain_target(
    name: str, parameter: Optional[float] = None
) -> Tuple[object, object, Tuple[str, ...], Dict[str, object]]:
    """One concrete (formula, db, output_vars, eval kwargs) to explain.

    ``repro explain --experiment`` needs a single evaluation, not a
    sweep: this binds the named experiment's query and database at one
    parameter value (default: the experiment's largest registered one).
    T2-ESO is refused — the explain layer annotates the FO/FP span
    convention, and the grounded SAT pipeline does not produce it.
    """
    from repro.logic.parser import parse_formula
    from repro.workloads.formulas import path_query_fo3
    from repro.workloads.graphs import path_graph, random_graph

    experiment = get_experiment(name)
    n = int(
        parameter if parameter is not None else experiment.parameters[-1]
    )
    options: Dict[str, object] = {}
    if experiment.experiment_id in ("T2-FP", "T2-FP-PACKED"):
        options["strategy"] = experiment.options["strategy"]
        options["backend"] = experiment.options["backend"]
        return parse_formula(TC_QUERY), path_graph(n), ("u", "v"), options
    if experiment.experiment_id == "T2-FO":
        q = path_query_fo3(int(experiment.options["path_len"]))
        options["strategy"] = "monotone"
        options["k_limit"] = 3
        db = random_graph(
            n, float(experiment.options["edge_prob"]), seed=n
        )
        return q.formula, db, tuple(q.output_vars), options
    raise ExperimentError(
        f"experiment {experiment.experiment_id!r} cannot be explained: "
        "the explain layer annotates FO/FP evaluation traces"
    )


def run_experiment(
    experiment: PerfExperiment,
    overrides: Optional[Mapping[str, object]] = None,
    sizes: Optional[Sequence[float]] = None,
    deadline: Optional[float] = None,
    repetitions: Optional[int] = None,
    trace: bool = False,
    jobs: int = 1,
):
    """Run one registered experiment's sweep; returns the SweepResult."""
    from repro.complexity.measure import run_sweep
    from repro.obs.tracer import Tracer

    reps = repetitions if repetitions is not None else experiment.repetitions
    return run_sweep(
        experiment.experiment_id,
        list(sizes) if sizes else list(experiment.parameters),
        experiment.bind(overrides, deadline),
        repetitions=reps,
        warmup=reps > 1,
        tracer_factory=Tracer if trace else None,
        parallel=max(1, jobs),
    )
