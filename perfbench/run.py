"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval-fp3 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a separate run that
alternates untraced and traced passes over the same operations.  Every
answer is checked against ``workloads.py``'s references.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable table goes to
standard error.  See ``perfbench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import workloads as W
from serveload import REQUEST_TIMEOUT, ServeWorkload
from spans import (
    LAYERS, concat, per_op_durations, per_op_layers, per_op_self, write_jsonl,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: eval-fo3 and serve-mutate run on request but are not in BENCHMARK.json:
#: their timings swing with the host's CPU contention more than a bound of
#: 0.25 allows (perfbench/README.md, "Steadiness record").
WORKLOADS = ("eval-fo3", "eval-fp3", "serve-read", "serve-mutate")

#: A --trace 0 run splits its timed phase into this many equal segments,
#: each in a fresh eval process or server that is set up first; setup_s
#: is the median of their set-ups, which are thus spread over the whole
#: run as the timed operations are.  A serve set-up takes seconds, an
#: eval set-up a fraction of one.
EVAL_SEGMENTS = 9
SERVE_SEGMENTS = 3
#: A --trace 1 run alternates this many untraced and traced passes.
EVAL_PAIRS = 3
SERVE_PAIRS = 2
#: Eval inputs built per second of timed phase; a process stops early if
#: they run out (about 4x the current operation rate).
EVAL_INPUTS_PER_SECOND = 30
#: A failed operation counts as this slow in the latency percentiles.
FAILED_LATENCY_S = REQUEST_TIMEOUT
#: The traced run fails if more of its operation time than this lies
#: outside every layer span.
MAX_UNATTRIBUTED = 0.05
#: Wall-clock limit for one eval workload process.
CHILD_TIMEOUT = 150

E2E_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_ops_s": "ops/s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
}

COUNTERS = (
    "core.table_ops", "core.fixpoint_iterations", "core.max_intermediate_rows",
    "core.max_intermediate_arity", "kernel.mask_bits", "kernel.tables",
    "kernel.align_hit_ratio", "kernel.atom_hit_ratio",
    "perf.seminaive_delta_tuples", "perf.memo_hits", "perf.compile_builds",
    "perf.compile_hits",
)
SERVE_COUNTERS = ("retries", "shed", "degraded", "worker_crashes")

LAYER_UNITS = {
    "database.decode_ms": "ms", "database.mutate_ms": "ms",
    "logic.parse_ms": "ms",
    "core.evaluate_ms": "ms", "core.materialize_ms": "ms",
    "core.table_ops": "count", "core.fixpoint_iterations": "count",
    "core.max_intermediate_rows": "count", "core.max_intermediate_arity": "count",
    "kernel.mask_bits": "bits", "kernel.tables": "count",
    "kernel.align_hit_ratio": "ratio", "kernel.atom_hit_ratio": "ratio",
    "perf.seminaive_delta_tuples": "count", "perf.memo_hits": "count",
    "perf.compile_builds": "count", "perf.compile_hits": "count",
    "serve.queue_wait_ms": "ms", "serve.service_ms": "ms", "serve.http_ms": "ms",
    "serve.attempt_self_ms": "ms", "serve.worker_evaluate_ms": "ms",
    "serve.payload_kb": "KiB", "serve.response_kb": "KiB",
    "serve.server_cpu_ms": "ms", "serve.worker_cpu_ms": "ms",
    "serve.peak_rows": "count",
    **{f"serve.{name}": "count" for name in SERVE_COUNTERS},
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "obs.trace_overhead_ratio": "ratio",
    "unattributed_ratio": "ratio",
}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def pinned_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts.

    ``REPRO_*`` and ``PYTHON*`` variables are dropped so a CI lane's
    settings cannot change what is measured; hashing is fixed.
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1"
    )
    return env


class Run:
    """One invocation: a workload, a seed, a length and a trace flag."""

    def __init__(self, args: argparse.Namespace):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = args.trace
        self.drop_row_op = args.drop_row_op
        self.env = pinned_env()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: List[str] = []

    # -- accounting ----------------------------------------------------------

    def count(self, oks: Sequence[bool]) -> None:
        self.attempted += len(oks)
        self.failed += sum(1 for ok in oks if not ok)

    def e2e(self, setups: Sequence[float], latencies: Sequence[float],
            oks: Sequence[bool], wall_s: float, rss_kb: float) -> Dict[str, float]:
        penalized = [
            lat if ok else FAILED_LATENCY_S for lat, ok in zip(latencies, oks)
        ]
        return {
            "setup_s": median(setups),
            "latency_ms_p50": 1e3 * statistics.median(penalized),
            "latency_ms_p90": 1e3 * statistics.quantiles(
                penalized, n=10, method="inclusive"
            )[8],
            "throughput_ops_s": len(oks) / wall_s,
            "peak_rss_mb": rss_kb / 1024,
            "success_ratio": 1 - sum(1 for ok in oks if not ok) / len(oks),
        }

    def layered(self, spans: List[dict], plain: Dict[int, float],
                traced: Dict[int, float]) -> Dict[str, float]:
        """Per-layer self times, the unattributed share and the tracing
        overhead, from one traced pass and its untraced twin."""
        write_jsonl(
            str(OUT_DIR / f"{self.workload}-seed{self.seed}-spans.jsonl"), spans
        )
        layers = per_op_layers(spans)
        out = {
            f"{layer}.self_ms": 1e3 * median([row[layer] for row in layers.values()])
            for layer in LAYERS
        }
        total = sum(row["total"] for row in layers.values())
        out["unattributed_ratio"] = (
            sum(row["unattributed"] for row in layers.values()) / total
        )
        if out["unattributed_ratio"] > MAX_UNATTRIBUTED:
            self.correct = False
            self.notes.append(
                f"unattributed_ratio {out['unattributed_ratio']:.4f} exceeds "
                f"{MAX_UNATTRIBUTED}"
            )
        common = sorted(set(plain) & set(traced))
        out["obs.trace_overhead_ratio"] = (
            median([traced[op] for op in common])
            / median([plain[op] for op in common])
        )
        return out

    # -- eval workloads ------------------------------------------------------

    def eval_child(self, mode: str, start: int, seconds: float,
                   count: int = 0) -> dict:
        """One eval process on timed inputs ``start``, ``start + 1``, ...:
        for ``seconds``, or if ``count`` is given for exactly that many."""
        cap = count or math.ceil(seconds * EVAL_INPUTS_PER_SECOND)
        cmd = [
            sys.executable, str(HERE / "evalproc.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--start", str(start),
            "--seconds", repr(float(CHILD_TIMEOUT) if count else seconds),
            "--cap", str(cap), "--drop-row-op", str(self.drop_row_op),
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{mode} process exited {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        result = json.loads(proc.stdout.splitlines()[-1])
        if not count and len(result["digests"]) >= cap:
            self.notes.append(f"{mode} process at {start} used all {cap} inputs")
        result["oks"] = [
            digest == W.digest(W.eval_reference(self.workload, self.seed, i))
            for i, digest in enumerate(result["digests"], start)
        ]
        self.count(result["oks"])
        return result

    def run_eval(self) -> Dict[str, float]:
        if self.trace == 0:
            parts, start = [], 0
            for _ in range(EVAL_SEGMENTS):
                parts.append(
                    self.eval_child("plain", start, self.seconds / EVAL_SEGMENTS)
                )
                start += len(parts[-1]["digests"])
            return self.e2e(
                [part["setup_s"] for part in parts],
                [lat for part in parts for lat in part["latencies"]],
                [ok for part in parts for ok in part["oks"]],
                sum(part["wall_s"] for part in parts),
                max(part["peak_rss_kb"] for part in parts),
            )
        plain: Dict[int, float] = {}
        traced: Dict[int, float] = {}
        span_parts, counters = [], []
        start = 0
        for _ in range(EVAL_PAIRS):
            part = self.eval_child("plain", start, self.seconds / (2 * EVAL_PAIRS))
            twin = self.eval_child("traced", start, 0.0, len(part["digests"]))
            plain.update(enumerate(part["latencies"], start))
            traced.update(enumerate(twin["latencies"], start))
            span_parts.append(twin["spans"])
            counters.extend(twin["counters"])
            start += len(part["digests"])
        spans = concat(span_parts)
        metrics = self.layered(spans, plain, traced)
        for name, span in (
            ("database.decode_ms", "database.decode"),
            ("logic.parse_ms", "logic.parse"),
            ("core.evaluate_ms", "core.evaluate"),
            ("core.materialize_ms", "core.materialize"),
        ):
            metrics[name] = 1e3 * median(list(per_op_durations(spans, span).values()))
        for name in COUNTERS:
            metrics[name] = median([row[name] for row in counters])
        return metrics

    # -- serve workloads -----------------------------------------------------

    def serve_pass(self, work: ServeWorkload, seconds: float, traced: bool,
                   first_op: int) -> dict:
        """Set up a fresh server, run one timed pass on it, stop it."""
        server, setup_s, warm_failed = work.setup()
        try:
            part = work.timed(server, seconds, traced, first_op)
        finally:
            self.stopped(server.stop())
        self.warmed(warm_failed)
        self.count([r["ok"] for r in part["records"]])
        self.report_errors(part["records"])
        part["setup_s"] = setup_s
        part["next_op"] = max((r["op"] for r in part["records"]), default=first_op) + 1
        return part

    def run_serve(self) -> Dict[str, float]:
        work = ServeWorkload(
            self.workload, self.seed, str(ROOT), self.env, str(OUT_DIR),
            self.drop_row_op,
        )
        if self.trace == 0:
            parts, first = [], 0
            for _ in range(SERVE_SEGMENTS):
                parts.append(self.serve_pass(
                    work, self.seconds / SERVE_SEGMENTS, False, first
                ))
                first = parts[-1]["next_op"]
            records = [r for part in parts for r in part["records"]]
            return self.e2e(
                [part["setup_s"] for part in parts],
                [r["latency"] for r in records], [r["ok"] for r in records],
                sum(part["wall_s"] for part in parts),
                max(part["peak_rss_kb"] for part in parts),
            )
        plains, traceds, first = [], [], 0
        for _ in range(SERVE_PAIRS):
            seconds = self.seconds / (2 * SERVE_PAIRS)
            plains.append(self.serve_pass(work, seconds, False, first))
            traceds.append(self.serve_pass(work, seconds, True, first))
            first = max(plains[-1]["next_op"], traceds[-1]["next_op"])
        plain = [r for part in plains for r in part["records"]]
        answered = [r for r in plain if "seconds" in r]
        spans = concat(part["spans"] for part in traceds)
        metrics = self.layered(
            spans,
            {r["op"]: r["latency"] for r in plain},
            {r["op"]: r["latency"] for part in traceds for r in part["records"]},
        )
        ops = len(plain)
        metrics.update({
            "database.mutate_ms": 1e3 * median(
                [r["mutate"] for r in answered if r["mutation"] is not None]
            ),
            "serve.queue_wait_ms": 1e3 * median([r["queue_wait"] for r in answered]),
            "serve.service_ms": 1e3 * median([r["seconds"] for r in answered]),
            "serve.http_ms": 1e3 * median(
                [r["call"] - r["queue_wait"] - r["seconds"] for r in answered]
            ),
            "serve.attempt_self_ms": 1e3 * median(
                list(per_op_self(spans, "serve.attempt").values())
            ),
            "serve.worker_evaluate_ms": 1e3 * median(
                list(per_op_durations(spans, "evaluate").values())
            ),
            "serve.payload_kb": work.payload_kb(),
            "serve.response_kb": median(
                [r["response_bytes"] / 1024 for r in answered]
            ),
            "serve.server_cpu_ms": 1e3 * sum(p["server_cpu_s"] for p in plains) / ops,
            "serve.worker_cpu_ms": 1e3 * sum(p["worker_cpu_s"] for p in plains) / ops,
            "serve.peak_rows": median([r["peak_rows"] for r in answered]),
        })
        for name in SERVE_COUNTERS:
            metrics[f"serve.{name}"] = sum(
                p["stats"].get(f"serve.{name}", 0) for p in plains + traceds
            )
        return metrics

    def stopped(self, clean: bool) -> None:
        if not clean:
            self.correct = False
            self.notes.append("repro serve's session did not exit after SIGINT")

    def warmed(self, failed: int) -> None:
        if failed:
            self.correct = False
            self.notes.append(f"{failed} set-up requests failed")

    def report_errors(self, records: List[dict]) -> None:
        errors = [r for r in records if not r["ok"]]
        for record in errors[:5]:
            self.notes.append(f"op {record['op']}: {record.get('error')}")

    # -- the whole run -------------------------------------------------------

    def execute(self) -> dict:
        OUT_DIR.mkdir(exist_ok=True)
        compileall.compile_dir(str(ROOT / "src"), quiet=1)
        if self.workload.startswith("eval-"):
            metrics = self.run_eval()
        else:
            metrics = self.run_serve()
        units = E2E_UNITS if self.trace == 0 else LAYER_UNITS
        metrics = {name: metrics.get(name, 0.0) for name in units}
        if self.attempted == 0:
            raise RuntimeError("no operation was attempted")
        return {
            "correct": self.correct and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }


def render(run: Run, result: dict) -> str:
    lines = [
        f"{run.workload} seed={run.seed} seconds={run.seconds:g} "
        f"trace={run.trace}: {result['attempted']} operations, "
        f"{result['failed']} failed, fail_ratio="
        f"{result['failed'] / result['attempted']:.4f}, "
        f"correct={result['correct']}"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    lines.extend(f"  note: {note}" for note in run.notes)
    return "\n".join(lines)


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--drop-row-op", type=int, default=-1,
        help="self-test only: drop one answer row of this timed operation",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="check the reference answers and that a wrong answer fails",
    )
    args = parser.parse_args(argv or None)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args)
    result = run.execute()
    print(render(run, result), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
