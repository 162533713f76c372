"""Machine-readable run records and the content-addressed run store.

A **run record** is one ``repro perf`` experiment run as
plain JSON — environment fingerprint, per-point parameters, outcomes,
deterministic counters, fitted growth shapes, and (optionally) the raw
span trace — and a :class:`RunStore` archives records content-addressed
under ``benchmarks/out/records/`` so the perf *trajectory* of the repo
is queryable across runs.

Why counters, not raw milliseconds: the paper's claims bound counted
resources (intermediate rows, certificate tuples, live fixpoint tuples)
as ``n`` and ``|Q|`` sweep, and the reproducible quantity on real
hardware is the deterministic work counter.  The regression gate
(:mod:`repro.obs.regress`) compares counters exactly; growth shapes are
fitted to the counters an experiment declares.  Each point's wall-clock
``seconds`` is kept as a plain reading and is neither fitted nor gated.

Store layout (``root`` is normally ``benchmarks/out/records``)::

    records/
      BENCH_<id>.json          # the committed baseline for experiment <id>
      <id>/<digest>.json       # content-addressed archive, one file per run
      <id>/index.jsonl         # append-only index: digest, created, git sha

A record's digest is the SHA-256 of its canonical JSON, so identical
runs (same counters, same timings, same environment) share one archive
file and the index never lies about what was measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Bump when the record JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: The committed-baseline filename pattern, per experiment.
BASELINE_PREFIX = "BENCH_"


class RunStoreError(ReproError):
    """A malformed record file or an impossible store operation."""


def _git_sha(cwd: Optional[str] = None) -> str:
    """The short commit sha, or ``""`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def env_fingerprint(cwd: Optional[str] = None) -> Dict[str, object]:
    """The environment a record was measured in.

    Deliberately small: just enough to tell "same machine, same
    interpreter" from "numbers not comparable".  The regression gate
    ignores it: deterministic counters are env-independent by
    construction.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()}-{platform.machine()}".lower(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": _git_sha(cwd),
    }


def format_fingerprint(env: Mapping[str, object]) -> str:
    """One human-readable line, printed by ``repro perf record``."""
    sha = env.get("git_sha") or "unknown"
    return (
        f"{env.get('implementation', '?')} {env.get('python', '?')} on "
        f"{env.get('platform', '?')}, cpus={env.get('cpu_count', '?')}, "
        f"git={sha}"
    )


@dataclass(frozen=True)
class PointRecord:
    """One sweep point of a run: parameter, outcome, counters.

    ``counters`` holds the *deterministic* work counters (iterations,
    rows high-water, clauses, decisions, ...) — the quantities the
    regression gate compares.  ``seconds`` is the wall-clock reading,
    which nothing gates.
    ``spans`` optionally carries the point's raw span dicts (the JSONL
    schema of :meth:`repro.obs.tracer.Tracer.export_jsonl`) for the
    cross-run profiler.
    """

    parameter: float
    seconds: float
    outcome: str = "ok"
    error: str = ""
    counters: Tuple[Tuple[str, float], ...] = ()
    spans: Tuple[Mapping[str, object], ...] = ()

    def counter_dict(self) -> Dict[str, float]:
        return dict(self.counters)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "parameter": self.parameter,
            "seconds": self.seconds,
            "outcome": self.outcome,
            "counters": dict(self.counters),
        }
        if self.error:
            out["error"] = self.error
        if self.spans:
            out["spans"] = [dict(s) for s in self.spans]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PointRecord":
        counters = data.get("counters", {}) or {}
        return cls(
            parameter=float(data["parameter"]),  # type: ignore[arg-type]
            seconds=float(data.get("seconds", 0.0)),  # type: ignore[arg-type]
            outcome=str(data.get("outcome", "ok")),
            error=str(data.get("error", "")),
            counters=tuple(
                sorted((str(k), float(v)) for k, v in counters.items())  # type: ignore[union-attr]
            ),
            spans=tuple(data.get("spans", ()) or ()),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class RunRecord:
    """One experiment run, ready to serialize, compare, and archive."""

    experiment_id: str
    title: str
    created: str
    env: Mapping[str, object]
    points: Tuple[PointRecord, ...]
    fits: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    deadline: Optional[float] = None
    meta: Mapping[str, object] = field(default_factory=dict)

    def parameters(self) -> List[float]:
        return [p.parameter for p in self.points]

    def point(self, parameter: float) -> Optional[PointRecord]:
        for p in self.points:
            if p.parameter == parameter:
                return p
        return None

    def counter_names(self) -> List[str]:
        names = set()
        for p in self.points:
            names.update(name for name, _ in p.counters)
        return sorted(names)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "created": self.created,
            "env": dict(self.env),
            "points": [p.to_dict() for p in self.points],
            "fits": {k: dict(v) for k, v in self.fits.items()},
        }
        if self.deadline is not None:
            out["deadline"] = self.deadline
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def digest(self) -> str:
        """Content address: SHA-256 of the canonical (sorted, compact) JSON."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunRecord":
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise RunStoreError(
                f"record schema_version {version!r} is not {SCHEMA_VERSION}"
            )
        try:
            points = tuple(
                PointRecord.from_dict(p)
                for p in data.get("points", ())  # type: ignore[union-attr]
            )
            return cls(
                experiment_id=str(data["experiment_id"]),
                title=str(data.get("title", "")),
                created=str(data.get("created", "")),
                env=dict(data.get("env", {})),  # type: ignore[arg-type]
                points=points,
                fits={
                    str(k): dict(v)
                    for k, v in (data.get("fits", {}) or {}).items()  # type: ignore[union-attr]
                },
                deadline=(
                    float(data["deadline"])  # type: ignore[arg-type]
                    if data.get("deadline") is not None
                    else None
                ),
                meta=dict(data.get("meta", {}) or {}),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RunStoreError(f"malformed run record: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RunStoreError(f"record is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def fit_series(
    parameters: Sequence[float], values: Sequence[float]
) -> Dict[str, object]:
    """Classify one series' growth; the record-side view of a GrowthFit.

    Returns ``{model, coefficient, intercept, residual, degree|base}``;
    ``degree`` is present for the polynomial winner, ``base`` for the
    exponential winner.
    Series too short or degenerate to fit return ``{"model": "none"}``.
    """
    # imported lazily: repro.complexity.measure imports repro.obs.tracer,
    # so a module-level import here would cycle during package init
    from repro.complexity.fit import classify_growth

    cleaned = [(p, v) for p, v in zip(parameters, values) if v > 0]
    if len(cleaned) < 2 or len({p for p, _ in cleaned}) < 2:
        return {"model": "none"}
    ns = [p for p, _ in cleaned]
    ys = [v for _, v in cleaned]
    try:
        winner, poly, expo = classify_growth(ns, ys)
    except (ValueError, OverflowError):
        return {"model": "none"}
    fit = poly if winner == "polynomial" else expo
    out: Dict[str, object] = {
        "model": winner,
        "coefficient": fit.coefficient,
        "intercept": fit.intercept,
        "residual": fit.residual,
    }
    if winner == "polynomial":
        out["degree"] = fit.coefficient
    else:
        out["base"] = fit.base
    return out


def build_record(
    experiment_id: str,
    title: str,
    parameters: Sequence[float],
    seconds: Sequence[float],
    counters: Optional[Sequence[Mapping[str, float]]] = None,
    outcomes: Optional[Sequence[str]] = None,
    errors: Optional[Sequence[str]] = None,
    spans: Optional[Sequence[Sequence[Mapping[str, object]]]] = None,
    fit_counters: Sequence[str] = (),
    deadline: Optional[float] = None,
    meta: Optional[Mapping[str, object]] = None,
    env: Optional[Mapping[str, object]] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from parallel per-point series.

    ``fit_counters`` names the counters whose growth shape should be
    fitted (only points with ``outcome == "ok"`` enter a fit).
    """
    n = len(parameters)
    counters = counters if counters is not None else [{}] * n
    outcomes = outcomes if outcomes is not None else ["ok"] * n
    errors = errors if errors is not None else [""] * n
    spans = spans if spans is not None else [()] * n
    if not (len(seconds) == len(counters) == len(outcomes) == n):
        raise RunStoreError(
            "parameters/seconds/counters/outcomes must be parallel series"
        )
    points = tuple(
        PointRecord(
            parameter=float(parameters[i]),
            seconds=float(seconds[i]),
            outcome=outcomes[i],
            error=errors[i],
            counters=tuple(
                sorted((str(k), float(v)) for k, v in counters[i].items())
            ),
            spans=tuple(spans[i]),
        )
        for i in range(n)
    )
    ok = [p for p in points if p.outcome == "ok"]
    fits: Dict[str, Mapping[str, object]] = {}
    for name in fit_counters:
        series = [
            (p.parameter, p.counter_dict()[name])
            for p in ok
            if name in p.counter_dict()
        ]
        if len(series) >= 2:
            fits[name] = fit_series(
                [s[0] for s in series], [s[1] for s in series]
            )
    return RunRecord(
        experiment_id=experiment_id,
        title=title,
        created=_utc_now(),
        env=env if env is not None else env_fingerprint(),
        points=points,
        fits=fits,
        deadline=deadline,
        meta=meta or {},
    )


def record_from_sweep(
    experiment_id: str,
    title: str,
    sweep,
    fit_counters: Sequence[str] = (),
    deadline: Optional[float] = None,
    meta: Optional[Mapping[str, object]] = None,
    include_spans: bool = False,
) -> RunRecord:
    """Build a record from a :class:`repro.complexity.measure.SweepResult`.

    With ``include_spans``, points that carry a recorded tracer embed
    its span dicts so the record is self-contained for the profiler.
    """
    spans = []
    for point in sweep.points:
        if include_spans and point.trace is not None:
            spans.append([s.to_dict() for s in point.trace.spans])
        else:
            spans.append(())
    return build_record(
        experiment_id,
        title,
        parameters=[p.parameter for p in sweep.points],
        seconds=[p.seconds for p in sweep.points],
        counters=[dict(p.counters) for p in sweep.points],
        outcomes=[p.outcome for p in sweep.points],
        errors=[p.error for p in sweep.points],
        spans=spans,
        fit_counters=fit_counters,
        deadline=deadline,
        meta=meta,
    )


class RunStore:
    """The content-addressed archive of run records plus baselines."""

    def __init__(self, root: str):
        self.root = root

    # -- paths ---------------------------------------------------------

    def record_dir(self, experiment_id: str) -> str:
        return os.path.join(self.root, experiment_id)

    def record_path(self, experiment_id: str, digest: str) -> str:
        return os.path.join(self.record_dir(experiment_id), f"{digest}.json")

    def index_path(self, experiment_id: str) -> str:
        return os.path.join(self.record_dir(experiment_id), "index.jsonl")

    def baseline_path(self, experiment_id: str) -> str:
        return os.path.join(self.root, f"{BASELINE_PREFIX}{experiment_id}.json")

    # -- archive -------------------------------------------------------

    def save(self, record: RunRecord) -> Tuple[str, str]:
        """Archive a record; returns ``(digest, path)``.

        Identical content re-saves to the same file; the index line is
        appended either way so the trajectory shows every run.
        """
        digest = record.digest()
        os.makedirs(self.record_dir(record.experiment_id), exist_ok=True)
        path = self.record_path(record.experiment_id, digest)
        if not os.path.exists(path):
            with open(path, "w") as handle:
                handle.write(record.to_json() + "\n")
        entry = {
            "digest": digest,
            "created": record.created,
            "git_sha": record.env.get("git_sha", ""),
            "points": len(record.points),
            "failures": sum(1 for p in record.points if p.outcome != "ok"),
        }
        with open(self.index_path(record.experiment_id), "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return digest, path

    def load(self, experiment_id: str, digest: str) -> RunRecord:
        path = self.record_path(experiment_id, digest)
        try:
            with open(path) as handle:
                return RunRecord.from_json(handle.read())
        except FileNotFoundError:
            raise RunStoreError(
                f"no record {digest!r} for experiment {experiment_id!r} "
                f"under {self.root}"
            ) from None

    def index(self, experiment_id: str) -> List[Dict[str, object]]:
        """The append-only index, oldest first (empty if never recorded)."""
        try:
            with open(self.index_path(experiment_id)) as handle:
                return [
                    json.loads(line)
                    for line in handle
                    if line.strip()
                ]
        except FileNotFoundError:
            return []

    def latest(self, experiment_id: str) -> Optional[RunRecord]:
        entries = self.index(experiment_id)
        if not entries:
            return None
        return self.load(experiment_id, str(entries[-1]["digest"]))

    def experiments(self) -> List[str]:
        """Experiment ids with at least one archived record."""
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(
            name
            for name in names
            if os.path.isdir(os.path.join(self.root, name))
        )

    # -- baselines -----------------------------------------------------

    def save_baseline(self, record: RunRecord) -> str:
        os.makedirs(self.root, exist_ok=True)
        path = self.baseline_path(record.experiment_id)
        with open(path, "w") as handle:
            handle.write(record.to_json() + "\n")
        return path

    def load_baseline(self, experiment_id: str) -> Optional[RunRecord]:
        try:
            with open(self.baseline_path(experiment_id)) as handle:
                return RunRecord.from_json(handle.read())
        except FileNotFoundError:
            return None

    def __repr__(self) -> str:
        return f"RunStore(root={self.root!r})"
