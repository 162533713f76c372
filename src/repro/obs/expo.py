"""Prometheus-style text exposition for the metrics registry.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` (plus any extra
families a caller supplies — rolling windows, SLO burn rates, flight
recorder accounting) in the Prometheus text format, stdlib only:

* every metric gets stable ``# HELP`` / ``# TYPE`` lines;
* names are sanitized and prefixed (``serve.latency_seconds`` →
  ``repro_serve_latency_seconds``); counters get the conventional
  ``_total`` suffix;
* histograms expose cumulative ``_bucket{le="..."}`` series (ending in
  ``le="+Inf"``), plus ``_sum`` and ``_count`` — scrapers compute
  quantiles the standard way;
* families render in sorted name order and label sets in sorted key
  order, so the output is byte-stable for a fixed registry state — the
  property the golden exposition test pins.

:func:`parse_exposition` is the matching reader: it walks an exposition
line by line into ``(name, labels, value)`` triples and raises on any
line that is not well-formed, which makes "the exposition parses" a
one-call test assertion.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Prefix every exposed metric name carries.
NAME_PREFIX = "repro_"

#: One labeled reading inside a family: (suffix, labels, value).  The
#: suffix is appended to the family name ("" for the family itself,
#: "_bucket"/"_sum"/"_count" for histogram series).
Sample = Tuple[str, Dict[str, str], float]

#: One exposition family: (exposed name, type, help text, samples).
Family = Tuple[str, str, str, List[Sample]]

#: Help strings for the well-known metric names; anything else gets a
#: generic line mentioning its registry name.
METRIC_HELP: Dict[str, str] = {
    "serve.requests": "Requests received by the query service.",
    "serve.ok": "Requests answered with a correct relation.",
    "serve.failed": "Requests resolved as structured failures.",
    "serve.retries": "Request attempts retried after transient faults.",
    "serve.degraded": "Degradation-ladder steps taken.",
    "serve.worker_crashes": "Worker processes that died mid-request.",
    "serve.db_ships": "Databases sent to a pool worker lacking that version.",
    "serve.breaker_trips": "Circuit-breaker open transitions.",
    "serve.breaker_short_circuit": "Requests short-circuited past the pool.",
    "serve.answer_rows": "Answer rows returned across all requests.",
    "serve.admitted": "Requests granted a concurrency slot.",
    "serve.shed": "Requests shed by admission control.",
    "serve.shed_expired": "Requests whose deadline passed while queued.",
    "serve.queue_depth": "Requests currently parked in the fair queue.",
    "serve.inflight": "Requests currently being evaluated.",
    "serve.latency_seconds": "End-to-end request latency in seconds.",
    "serve.queue_wait_seconds": "Admission queue wait in seconds.",
}


class ExpositionError(ReproError):
    """An exposition line failed to parse."""


_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>.*)$')


def metric_name(raw: str) -> str:
    """The exposed name for a registry metric (prefixed, sanitized)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", raw)
    name = NAME_PREFIX + cleaned
    if not _NAME_OK.match(name):
        name = NAME_PREFIX + "_" + re.sub(r"[^a-zA-Z0-9_]", "_", cleaned)
    return name


def format_value(value: float) -> str:
    """A stable numeric rendering: integral floats print as integers."""
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _help_for(raw: str) -> str:
    return METRIC_HELP.get(raw, f"repro metric {raw}.")


def registry_families(registry: MetricsRegistry) -> List[Family]:
    """Every registry instrument as an exposition family."""
    families: List[Family] = []
    for raw in registry.names():
        metric = registry.get(raw)
        help_text = _help_for(raw)
        if isinstance(metric, Counter):
            families.append(
                (
                    metric_name(raw) + "_total",
                    "counter",
                    help_text,
                    [("", {}, float(metric.value))],
                )
            )
        elif isinstance(metric, Gauge):
            families.append(
                (
                    metric_name(raw),
                    "gauge",
                    help_text,
                    [("", {}, float(metric.value))],
                )
            )
        elif isinstance(metric, Histogram):
            samples: List[Sample] = []
            cumulative = 0
            for bound, bucket_count in zip(metric.bounds, metric.buckets):
                cumulative += bucket_count
                samples.append(
                    ("_bucket", {"le": format_value(bound)}, float(cumulative))
                )
            samples.append(("_bucket", {"le": "+Inf"}, float(metric.count)))
            samples.append(("_sum", {}, float(metric.total)))
            samples.append(("_count", {}, float(metric.count)))
            families.append(
                (metric_name(raw), "histogram", help_text, samples)
            )
    return families


def gauge_family(
    name: str,
    help_text: str,
    samples: Iterable[Tuple[Dict[str, str], float]],
) -> Family:
    """A labeled gauge family for caller-supplied readings."""
    return (
        metric_name(name),
        "gauge",
        help_text,
        [("", dict(labels), float(value)) for labels, value in samples],
    )


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_families(families: Sequence[Family]) -> str:
    """Families → exposition text, sorted by exposed name."""
    lines: List[str] = []
    for name, mtype, help_text, samples in sorted(
        families, key=lambda f: f[0]
    ):
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {mtype}")
        for suffix, labels, value in samples:
            lines.append(
                f"{name}{suffix}{_render_labels(labels)} "
                f"{format_value(value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def render_exposition(
    registry: MetricsRegistry,
    extra_families: Sequence[Family] = (),
) -> str:
    """The full ``/metrics`` document for a registry plus extras."""
    return render_families(list(registry_families(registry)) + list(extra_families))


def _parse_labels(block: Optional[str]) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    if not block:
        return labels
    rest = block
    while rest:
        match = _LABEL_PAIR.match(rest)
        if not match:
            raise ExpositionError(f"malformed label block at {rest!r}")
        key = match.group("key")
        value_chars: List[str] = []
        tail = match.group("value")
        index = 0
        while index < len(tail):
            ch = tail[index]
            if ch == "\\" and index + 1 < len(tail):
                escape = tail[index + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escape, escape)
                )
                index += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            index += 1
        else:
            raise ExpositionError(f"unterminated label value in {block!r}")
        labels[key] = "".join(value_chars)
        rest = tail[index + 1 :]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise ExpositionError(f"malformed label separator in {block!r}")
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ExpositionError(f"malformed sample value {text!r}") from None


def parse_exposition(
    text: str,
) -> List[Tuple[str, Dict[str, str], float]]:
    """Exposition text → ``(name, labels, value)`` triples, strictly.

    Comment (``# HELP``/``# TYPE``) and blank lines are skipped after a
    shape check; any other line that is not a well-formed sample raises
    :class:`ExpositionError` — so a passing parse *is* the format test.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ExpositionError(
                    f"line {lineno}: malformed comment {line!r}"
                )
            if not _NAME_OK.match(parts[2]):
                raise ExpositionError(
                    f"line {lineno}: bad metric name {parts[2]!r}"
                )
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise ExpositionError(f"line {lineno}: malformed sample {line!r}")
        samples.append(
            (
                match.group("name"),
                _parse_labels(match.group("labels")),
                _parse_value(match.group("value")),
            )
        )
    return samples


__all__ = [
    "ExpositionError",
    "Family",
    "METRIC_HELP",
    "NAME_PREFIX",
    "Sample",
    "format_value",
    "gauge_family",
    "metric_name",
    "parse_exposition",
    "registry_families",
    "render_exposition",
    "render_families",
]
