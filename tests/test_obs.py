"""Unit tests for the repro.obs observability subsystem."""

import json
import multiprocessing

import pytest

from repro import obs
from repro.obs.events import EventLog
from repro.obs.export import chrome_trace, prometheus_text, write_chrome_trace
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    MetricsRegistry,
    empty_snapshot,
    label_key,
    merge_snapshots,
    parse_label_key,
)
from repro.obs.trace import Tracer


def counter(metrics: MetricsRegistry, name: str, **labels: object) -> float:
    """One counter series' value (0.0 if never incremented)."""
    return metrics.snapshot()["counters"].get(name, {}).get(label_key(labels), 0.0)


@pytest.fixture(autouse=True)
def _clean_session():
    """Every test starts and ends with the global session off and empty."""
    obs.reset()
    yield
    obs.reset()


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("msgs", topic="/a")
        reg.inc("msgs", 2.0, topic="/a")
        reg.inc("msgs", topic="/b")
        assert counter(reg, "msgs", topic="/nope") == 0.0
        assert reg.snapshot()["counters"]["msgs"] == {"topic=/a": 3.0, "topic=/b": 1.0}

    def test_label_key_roundtrip_is_sorted(self):
        key = label_key({"b": 2, "a": "x"})
        assert key == "a=x,b=2"
        assert parse_label_key(key) == {"a": "x", "b": "2"}
        assert parse_label_key("") == {}

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        for value in (0.05, 0.5, 0.5, 5.0):
            reg.observe("lat", value)
        hist = reg.snapshot()["histograms"]["lat"][""]
        assert hist["bounds"] == [1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0]
        assert hist["counts"] == [0, 0, 0, 0, 1, 2, 1, 0, 0]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(6.05)
        assert hist["min"] == 0.05 and hist["max"] == 5.0

    @pytest.mark.parametrize("bucket", range(len(DEFAULT_BOUNDS) + 1))
    def test_a_value_on_a_bound_lands_in_that_bound_bucket(self, bucket):
        reg = MetricsRegistry()
        value = DEFAULT_BOUNDS[bucket] if bucket < len(DEFAULT_BOUNDS) else 1e3
        reg.observe("h", value)
        counts = reg.snapshot()["histograms"]["h"][""]["counts"]
        assert counts == [int(i == bucket) for i in range(len(DEFAULT_BOUNDS) + 1)]
        text = prometheus_text(reg.snapshot())
        # Cumulative buckets: zero below the value's bucket, one from it on.
        for i, bound in enumerate(DEFAULT_BOUNDS):
            assert f'h_bucket{{le="{bound:g}"}} {int(i >= bucket)}' in text

    def test_snapshot_is_a_deep_copy(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.5)
        snap = reg.snapshot()
        snap["histograms"]["lat"][""]["counts"][0] = 999
        assert reg.snapshot()["histograms"]["lat"][""]["counts"][0] != 999

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.inc("c", topic="/t", uav="u1")
        reg.observe("h", 0.2, phase="x")
        json.dumps(reg.snapshot())  # must not raise


class TestMergeSnapshots:
    def test_merge_equals_serial_counting(self):
        serial = MetricsRegistry()
        parts = []
        for chunk in ([0.1, 0.2], [5.0], [0.15, 61.0]):
            worker = MetricsRegistry()
            for value in chunk:
                for reg in (worker, serial):
                    reg.inc("n", topic="/t")
                    reg.observe("lat", value)
            parts.append(worker.snapshot())
        assert merge_snapshots(parts) == serial.snapshot()

    def test_bounds_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.5)
        a, b = reg.snapshot(), reg.snapshot()
        b["histograms"]["h"][""]["bounds"][0] = 2e-5
        with pytest.raises(ValueError, match="bounds"):
            merge_snapshots([a, b])

    def test_empty_and_missing_sections_are_fine(self):
        reg = MetricsRegistry()
        reg.inc("c")
        merged = merge_snapshots([{}, empty_snapshot(), reg.snapshot()])
        assert merged["counters"]["c"][""] == 1.0


def _pool_count_worker(n: int) -> dict:
    """Count in an isolated session; return the snapshot (runs in a pool)."""
    with obs.isolated(enabled=True) as session:
        for i in range(n):
            session.metrics.inc("events_total", topic=f"/t{i % 3}")
            session.metrics.observe("latency_s", (i % 7) * 0.001)
        return session.metrics.snapshot()


class TestMultiprocessMerge:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork start method",
    )
    def test_worker_snapshots_fold_to_serial_counts(self):
        chunks = [50, 80, 110]
        with multiprocessing.get_context("fork").Pool(2) as pool:
            snapshots = pool.map(_pool_count_worker, chunks)
        merged = merge_snapshots(snapshots)
        serial = merge_snapshots([_pool_count_worker(n) for n in chunks])
        assert merged == serial
        total = sum(merged["counters"]["events_total"].values())
        assert total == sum(chunks)


class TestTracer:
    def test_nesting_depth_parent_index(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", sim_time=4.0, uav="u1") as inner:
                pass
        assert outer.depth == 0 and outer.parent is None
        assert inner.depth == 1 and inner.parent == outer.index
        spans = tracer.drain()
        # Closed inner-first, both well-formed.
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["labels"] == {"uav": "u1"}
        assert all(s["duration_s"] >= 0.0 for s in spans)
        assert all("pid" in s for s in spans)
        assert tracer.drain() == []

    def test_exception_still_closes_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer._stack == []
        (record,) = tracer.drain()
        assert record["name"] == "doomed"
        assert record["duration_s"] >= 0.0
        # The next span nests at the top level again.
        with tracer.span("after") as after:
            pass
        assert after.depth == 0 and after.parent is None

    def test_timed_span_measures_without_recording(self):
        tracer = Tracer()
        with tracer.timed("quiet") as span:
            pass
        assert span.duration_s >= 0.0
        assert tracer.drain() == []

    def test_capacity_drops_are_counted(self):
        tracer = Tracer(capacity=2)
        for _ in range(4):
            with tracer.span("s"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 2


class TestEventLog:
    def test_emit_and_drain(self):
        log = EventLog()
        log.emit("warning", "security.ids", "rate_anomaly",
                 sim_time=3.5, wall_s=0.1, topic="/t")
        assert len(log) == 1
        assert log.events[0].payload == {"topic": "/t"}
        (record,) = log.drain()
        assert record["severity"] == "warning"
        assert record["sim_time"] == 3.5
        assert len(log) == 0

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            EventLog().emit("fatal", "x", "y")

    def test_capacity_drops_are_counted(self):
        log = EventLog(capacity=1)
        log.emit("info", "a", "b")
        log.emit("info", "a", "c")
        assert len(log) == 1 and log.dropped == 1


class TestGlobalSession:
    def test_disabled_span_is_the_cached_noop(self):
        assert obs.span("x") is obs.span("y")
        with obs.span("x"):
            pass
        obs.event("info", "sub", "name")
        obs.OBS.enabled = True
        assert len(obs.OBS.tracer.spans) == 0
        assert len(obs.OBS.events) == 0

    def test_enabled_records_spans_and_events(self):
        obs.OBS.enabled = True
        with obs.span("work", sim_time=1.0, uav="u1"):
            obs.event("info", "core", "thing", sim_time=1.0, detail=7)
        payload = obs.collect()
        assert [s["name"] for s in payload["spans"]] == ["work"]
        assert payload["events"][0]["payload"] == {"detail": 7}

    def test_isolated_sessions_nest_and_restore(self):
        obs.OBS.enabled = True
        obs.OBS.metrics.inc("outer")
        with obs.isolated(enabled=True) as session:
            session.metrics.inc("inner")
            with obs.isolated(enabled=False):
                assert not obs.OBS.enabled
                obs.event("info", "x", "swallowed")  # disabled: dropped
            assert counter(session.metrics, "inner") == 1.0
            assert counter(session.metrics, "outer") == 0.0
        assert obs.OBS.enabled
        assert counter(obs.OBS.metrics, "outer") == 1.0
        assert counter(obs.OBS.metrics, "inner") == 0.0

    def test_capture_roundtrips_through_jsonl(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        with obs.capture(trace_path=trace, meta={"experiment": "t"}) as captured:
            with obs.span("phase.sim"):
                obs.OBS.metrics.inc("n")
            obs.event("warning", "uav.battery", "fault_activated", sim_time=2.0)
        assert captured["payload"]["metrics"]["counters"]["n"][""] == 1.0
        records = obs.read_trace(trace)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta" and records[0]["experiment"] == "t"
        assert kinds.count("span") == 1
        assert kinds.count("event") == 1
        assert kinds.count("metrics") == 1
        text = obs.summarize_trace(trace)
        assert "phase.sim" in text and "fault_activated" in text

    def test_read_trace_names_the_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            obs.read_trace(path)


class TestChromeExport:
    def _records(self):
        with obs.capture() as captured:
            with obs.span("outer", uav="u1"):
                with obs.span("inner.work", uav="u1"):
                    pass
            obs.event("warning", "security.ids", "alert", sim_time=1.0)
        payload = captured["payload"]
        return (
            [{"kind": "meta"}]
            + [{"kind": "span", **s} for s in payload["spans"]]
            + [{"kind": "event", **e} for e in payload["events"]]
        )

    def test_schema(self):
        doc = chrome_trace(self._records())
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner.work"}
        for entry in complete:
            assert {"pid", "tid", "ts", "dur", "cat"} <= set(entry)
            assert entry["ts"] >= 0 and entry["dur"] >= 0
        instant = [e for e in events if e["ph"] == "i"][0]
        assert instant["name"] == "security.ids:alert"
        names = [e for e in events if e["ph"] == "M"]
        assert all(e["name"] == "thread_name" for e in names)

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        write_chrome_trace(self._records(), path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestPrometheusExport:
    def test_text_format(self):
        reg = MetricsRegistry()
        reg.inc("bus_published_total", 3, topic="/a")
        for value in (0.05, 0.5, 3.0):
            reg.observe("lat_s", value)
        text = prometheus_text(reg.snapshot())
        assert '# TYPE bus_published_total counter' in text
        assert 'bus_published_total{topic="/a"} 3' in text
        # Buckets are cumulative and end at +Inf == count.
        assert 'lat_s_bucket{le="0.1"} 1' in text
        assert 'lat_s_bucket{le="1"} 2' in text
        assert 'lat_s_bucket{le="+Inf"} 3' in text
        assert "lat_s_count 3" in text

    def test_label_values_escaped_for_scrapers(self):
        # A label derived from an error message may carry every character
        # the exposition format treats specially; an unescaped newline
        # would split the sample line and break the scrape.
        reg = MetricsRegistry()
        reg.inc("errs_total", message='path\\tmp "x"\nboom')
        text = prometheus_text(reg.snapshot())
        assert 'message="path\\\\tmp \\"x\\"\\nboom"' in text
        # One physical line per sample: nothing leaked a raw newline.
        for line in text.splitlines():
            assert line.startswith("#") or line.count(" ") >= 1

    def test_every_family_has_help_and_type(self):
        reg = MetricsRegistry()
        reg.inc("campaign_retries_total", experiment="x", kind="crash")
        reg.observe("bus_delivery_latency_s", 0.05, topic="/t")
        reg.inc("made_up_metric_total")
        text = prometheus_text(reg.snapshot())
        assert "# HELP campaign_retries_total Campaign sample attempts" in text
        assert "# TYPE campaign_retries_total counter" in text
        assert "# TYPE bus_delivery_latency_s histogram" in text
        # Unknown families still get the header pair scrapers expect.
        assert "# HELP made_up_metric_total" in text
        assert "# TYPE made_up_metric_total counter" in text
        # Headers precede their family's first sample.
        lines = text.splitlines()
        type_at = lines.index("# TYPE campaign_retries_total counter")
        sample_at = next(
            i for i, l in enumerate(lines)
            if l.startswith("campaign_retries_total{")
        )
        assert type_at < sample_at

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_text(empty_snapshot()) == ""
