"""Exposition format tests: golden rendering, parsing, and stability."""

import math

import pytest

from repro.obs.expo import (
    ExpositionError,
    format_value,
    gauge_family,
    metric_name,
    parse_exposition,
    registry_families,
    render_families,
)
from repro.obs.metrics import MetricsRegistry


def small_registry():
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(3)
    registry.gauge("serve.queue_depth").set(2)
    latency = registry.histogram("serve.latency_seconds", bounds=(0.1, 1.0))
    for value in (0.05, 0.5, 2.0):
        latency.observe(value)
    return registry


def exposition(registry):
    """The document ``/metrics`` renders for a registry."""
    return render_families(registry_families(registry))


#: The full exposition for ``small_registry`` — every byte pinned.
GOLDEN = """\
# HELP repro_serve_latency_seconds End-to-end request latency in seconds.
# TYPE repro_serve_latency_seconds histogram
repro_serve_latency_seconds_bucket{le="0.1"} 1
repro_serve_latency_seconds_bucket{le="1"} 2
repro_serve_latency_seconds_bucket{le="+Inf"} 3
repro_serve_latency_seconds_sum 2.55
repro_serve_latency_seconds_count 3
# HELP repro_serve_queue_depth Requests currently parked in the fair queue.
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 2
# HELP repro_serve_requests_total Requests received by the query service.
# TYPE repro_serve_requests_total counter
repro_serve_requests_total 3
"""


class TestGoldenExposition:
    def test_exact_document(self):
        assert exposition(small_registry()) == GOLDEN

    def test_stable_across_renders(self):
        registry = small_registry()
        assert exposition(registry) == exposition(registry)

    def test_parses_line_by_line(self):
        samples = parse_exposition(GOLDEN)
        assert samples == [
            ("repro_serve_latency_seconds_bucket", {"le": "0.1"}, 1.0),
            ("repro_serve_latency_seconds_bucket", {"le": "1"}, 2.0),
            ("repro_serve_latency_seconds_bucket", {"le": "+Inf"}, 3.0),
            ("repro_serve_latency_seconds_sum", {}, 2.55),
            ("repro_serve_latency_seconds_count", {}, 3.0),
            ("repro_serve_queue_depth", {}, 2.0),
            ("repro_serve_requests_total", {}, 3.0),
        ]

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        samples = parse_exposition(exposition(small_registry()))
        buckets = [
            (labels["le"], value)
            for name, labels, value in samples
            if name.endswith("_bucket")
        ]
        values = [value for _, value in buckets]
        assert values == sorted(values)
        assert buckets[-1][0] == "+Inf"
        count = next(
            value for name, _, value in samples if name.endswith("_count")
        )
        assert buckets[-1][1] == count


class TestNamesAndValues:
    def test_metric_name_sanitizes_and_prefixes(self):
        assert metric_name("serve.latency_seconds") == (
            "repro_serve_latency_seconds"
        )
        assert metric_name("cache.hits") == "repro_cache_hits"
        assert metric_name("weird name!") == "repro_weird_name_"

    def test_counter_gets_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter("serve.ok").inc()
        (family,) = registry_families(registry)
        assert family[0] == "repro_serve_ok_total"
        assert family[1] == "counter"

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(math.nan) == "NaN"

    def test_gauge_family_renders_sorted_labels(self):
        family = gauge_family(
            "serve.slo_burn_rate",
            "burn",
            [({"window": "60s", "tenant": "t0"}, 1.5)],
        )
        text = render_families([family])
        assert (
            'repro_serve_slo_burn_rate{tenant="t0",window="60s"} 1.5' in text
        )
        samples = parse_exposition(text)
        assert samples == [
            ("repro_serve_slo_burn_rate", {"tenant": "t0", "window": "60s"}, 1.5)
        ]

    def test_label_escaping_round_trips(self):
        family = gauge_family(
            "serve.test", "help", [({"q": 'a"b\\c\nd'}, 1.0)]
        )
        samples = parse_exposition(render_families([family]))
        assert samples[0][1] == {"q": 'a"b\\c\nd'}


class TestParserStrictness:
    @pytest.mark.parametrize(
        "line",
        [
            "not a metric line at all ###",
            'name{unterminated="x} 1',
            "name{} notanumber",
            "# BOGUS comment kind",
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ExpositionError):
            parse_exposition(line)

    def test_blank_lines_ignored(self):
        assert parse_exposition("\n\nrepro_x 1\n\n") == [("repro_x", {}, 1.0)]
