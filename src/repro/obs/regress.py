"""The regression gate: compare a fresh run record against its baseline.

One policy: the experiment, the swept parameters, every point's
outcome and every deterministic counter (iterations, rows high-water,
clauses, decisions, answer sizes) must match the baseline exactly.
Seeded workloads make these exact, so any drift means the computation
itself changed — a solver taking different steps, a cache no longer
engaging.  Wall-clock is never compared here: a point's ``seconds`` is
a plain reading, and timing claims are measured by the repository
benchmark (``BENCHMARK.json``, ``perfbench/``) in paired runs.

The output is a structured :class:`RegressionReport` — machine-readable
violations naming the drifted counter, the parameter it drifted at, and
both values — rendered as a plain-text diff for humans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.runstore import RunRecord


@dataclass(frozen=True)
class Violation:
    """One gate failure, precise enough to act on without rerunning."""

    kind: str  # 'experiment' | 'parameters' | 'outcome' | 'counter'
    name: str  # counter name, or '' for structural kinds
    parameter: Optional[float]
    baseline: object
    fresh: object
    allowed: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "parameter": self.parameter,
            "baseline": self.baseline,
            "fresh": self.fresh,
            "allowed": self.allowed,
            "message": self.message,
        }


@dataclass(frozen=True)
class RegressionReport:
    """The gate's verdict: violations, notes, and what was checked."""

    experiment_id: str
    violations: Tuple[Violation, ...]
    notes: Tuple[str, ...]
    counters_checked: int
    points_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "notes": list(self.notes),
            "counters_checked": self.counters_checked,
            "points_checked": self.points_checked,
        }

    def format(self) -> str:
        """The human diff: verdict line, then one line per violation."""
        verdict = "PASS" if self.ok else "REGRESSION"
        lines = [
            f"[{self.experiment_id}] {verdict}: "
            f"{self.points_checked} point(s), "
            f"{self.counters_checked} counter comparison(s), "
            f"{len(self.violations)} violation(s)"
        ]
        for v in self.violations:
            where = f" @ param={v.parameter:g}" if v.parameter is not None else ""
            lines.append(
                f"  {v.kind}:{v.name or '-'}{where}  "
                f"baseline={v.baseline!r} fresh={v.fresh!r} "
                f"(allowed: {v.allowed})"
            )
            lines.append(f"    {v.message}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _compare_counters(
    parameter: float,
    base_counters: Mapping[str, float],
    fresh_counters: Mapping[str, float],
    violations: List[Violation],
    notes: List[str],
) -> int:
    checked = 0
    for name in sorted(base_counters):
        base_value = base_counters[name]
        if name not in fresh_counters:
            violations.append(
                Violation(
                    kind="counter",
                    name=name,
                    parameter=parameter,
                    baseline=base_value,
                    fresh=None,
                    allowed="present",
                    message=(
                        f"counter {name!r} present in the baseline is "
                        f"missing from the fresh run"
                    ),
                )
            )
            continue
        checked += 1
        fresh_value = fresh_counters[name]
        if fresh_value != base_value:
            violations.append(
                Violation(
                    kind="counter",
                    name=name,
                    parameter=parameter,
                    baseline=base_value,
                    fresh=fresh_value,
                    allowed="exact",
                    message=(
                        f"deterministic counter {name!r} drifted at "
                        f"param={parameter:g}: {base_value:g} -> "
                        f"{fresh_value:g}"
                    ),
                )
            )
    extra = sorted(set(fresh_counters) - set(base_counters))
    if extra:
        notes.append(
            f"param={parameter:g}: new counter(s) not in baseline: "
            + ", ".join(extra)
        )
    return checked


def compare_records(baseline: RunRecord, fresh: RunRecord) -> RegressionReport:
    """Gate ``fresh`` against ``baseline``.

    Structural drift (different experiment, missing/extra sweep points,
    flipped outcomes) and any counter that differs from its baseline
    value, or is missing, are violations.  Counters only the fresh run
    has are reported as a note.
    """
    violations: List[Violation] = []
    notes: List[str] = []
    counters_checked = 0
    points_checked = 0

    if baseline.experiment_id != fresh.experiment_id:
        violations.append(
            Violation(
                kind="experiment",
                name="",
                parameter=None,
                baseline=baseline.experiment_id,
                fresh=fresh.experiment_id,
                allowed="equal",
                message="records belong to different experiments",
            )
        )
        return RegressionReport(
            experiment_id=baseline.experiment_id,
            violations=tuple(violations),
            notes=tuple(notes),
            counters_checked=0,
            points_checked=0,
        )

    base_params = baseline.parameters()
    fresh_params = fresh.parameters()
    if base_params != fresh_params:
        violations.append(
            Violation(
                kind="parameters",
                name="",
                parameter=None,
                baseline=base_params,
                fresh=fresh_params,
                allowed="equal",
                message="swept parameters differ from the baseline",
            )
        )

    for base_point in baseline.points:
        fresh_point = fresh.point(base_point.parameter)
        if fresh_point is None:
            continue  # already covered by the parameters violation
        points_checked += 1
        if base_point.outcome != fresh_point.outcome:
            violations.append(
                Violation(
                    kind="outcome",
                    name="",
                    parameter=base_point.parameter,
                    baseline=base_point.outcome,
                    fresh=fresh_point.outcome,
                    allowed="equal",
                    message=(
                        f"point outcome flipped at "
                        f"param={base_point.parameter:g}"
                        + (
                            f" ({fresh_point.error})"
                            if fresh_point.error
                            else ""
                        )
                    ),
                )
            )
            continue
        counters_checked += _compare_counters(
            base_point.parameter,
            base_point.counter_dict(),
            fresh_point.counter_dict(),
            violations,
            notes,
        )

    return RegressionReport(
        experiment_id=baseline.experiment_id,
        violations=tuple(violations),
        notes=tuple(notes),
        counters_checked=counters_checked,
        points_checked=points_checked,
    )
