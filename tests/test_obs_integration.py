"""Integration tests: obs wired through the bus, EDDI, campaign, and CLI."""

import json
import multiprocessing
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main
from repro.core.adapters import build_uav_eddi
from repro.harness.campaign import (
    CampaignExperiment,
    register_experiment,
    run_campaign,
)
from repro.middleware.degraded import DegradedBus, LinkModel
from repro.middleware.rosbus import RosBus
from repro.obs.metrics import label_key
from repro.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def counter(metrics, name: str, **labels: object) -> float:
    """One counter series' value (0.0 if never incremented)."""
    return metrics.snapshot()["counters"].get(name, {}).get(label_key(labels), 0.0)


@pytest.fixture(autouse=True)
def _clean_session():
    obs.reset()
    yield
    obs.reset()


class TestBusMetricsAgreement:
    """bus_published_total counts exactly what a last interceptor sees."""

    def test_spoofing_scenario_counts_agree_per_topic(self, record_traffic):
        config = json.loads((SCENARIOS / "spoofing_attack.json").read_text())
        with obs.isolated(enabled=True) as session:
            scenario = load_scenario(config)
            traffic = record_traffic(scenario.world.bus)
            while scenario.world.time < 90.0:
                scenario.step()
            counters = session.metrics.snapshot()["counters"]["bus_published_total"]
        by_topic = Counter(m.topic for m in traffic)
        assert counters == {
            f"topic={topic}": float(n) for topic, n in by_topic.items()
        }
        # The attack window (60..90 s at 5 Hz) put forged traffic on the
        # bus, so the agreement covers adversarial publishes too.
        assert any(m.is_forged for m in traffic)

    def test_interceptor_drop_counts_once_and_skips_later_interceptors(
        self, record_traffic
    ):
        bus = RosBus()
        got = []
        bus.subscribe("/blocked", "node", got.append)
        bus.add_interceptor(lambda m: None if m.topic == "/blocked" else m)
        traffic = record_traffic(bus)
        with obs.isolated(enabled=True) as session:
            assert bus.publish("/blocked", 1, sender="a") is None
            bus.publish("/ok", 1, sender="a")
            metrics = session.metrics
            assert counter(metrics, "bus_published_total", topic="/blocked") == 0.0
            assert counter(
                metrics, "bus_dropped_total", topic="/blocked", reason="intercepted"
            ) == 1.0
            assert counter(metrics, "bus_published_total", topic="/ok") == 1.0
        assert [m.topic for m in traffic] == ["/ok"]
        assert got == []

    def test_unsubscribed_inflight_copy_is_a_drop_not_a_delivery(self, record_traffic):
        bus = DegradedBus()
        traffic = record_traffic(bus)
        got = []
        sub = bus.subscribe("/t", "b", got.append)
        bus.set_link("a", "b", LinkModel(latency_s=1.0))
        with obs.isolated(enabled=True) as session:
            bus.publish("/t", 1, sender="a")
            sub.unsubscribe()
            bus.advance_clock(2.0)
            metrics = session.metrics
            assert counter(metrics, "bus_published_total", topic="/t") == 1.0
            assert counter(metrics, "bus_delivered_total", topic="/t") == 0.0
            assert counter(
                metrics, "bus_dropped_total", topic="/t", reason="unsubscribed"
            ) == 1.0
        assert got == []
        assert bus.stats.delivered == 0
        assert bus.stats.dropped_unsubscribed == 1
        assert len(traffic) == 1  # an IDS still sees the transmission

    def test_delayed_delivery_counts_at_drain_time_with_latency(self, record_traffic):
        bus = DegradedBus()
        traffic = record_traffic(bus)
        got = []
        bus.subscribe("/t", "b", got.append)
        bus.set_link("a", "b", LinkModel(latency_s=1.0))
        with obs.isolated(enabled=True) as session:
            bus.publish("/t", 1, sender="a")
            metrics = session.metrics
            assert counter(metrics, "bus_delivered_total", topic="/t") == 0.0
            bus.advance_clock(2.0)
            assert counter(metrics, "bus_delivered_total", topic="/t") == 1.0
            hist = metrics.snapshot()["histograms"]["bus_delivery_latency_s"]
            (series,) = hist.values()
            assert series["count"] == 1
            assert series["min"] >= 1.0  # measured at drain, not at publish
        assert got == [[m for m in traffic if m.topic == "/t"][0]]


class TestEddiTransitionEvents:
    def test_fig5_battery_collapse_emits_guarantee_transitions(self):
        config = json.loads((SCENARIOS / "fig5_battery_fault.json").read_text())
        # Pull the collapse forward and make it severe so the demotion
        # lands inside a short test run.
        config["faults"] = [
            dict(config["faults"][0], at=10.0, soc_drop_to=0.08)
        ]
        with obs.isolated(enabled=True) as session:
            scenario = load_scenario(config)
            uav = scenario.world.uavs["uav1"]
            eddi, _stack = build_uav_eddi(uav, scenario.world)
            steps = 0
            while scenario.world.time < 40.0:
                now = scenario.step()
                eddi.step(now)
                steps += 1
            transitions = [
                e for e in session.events.events if e.name == "guarantee_transition"
            ]
            fault_events = [e for e in session.events.events if e.name == "fault_activated"]
            cycles = counter(session.metrics, "eddi_cycles_total", uav=eddi.name)
            span_names = Counter(s.name for s in session.tracer.spans)

        # Every EddiResponse has exactly one matching event, in order.
        assert len(transitions) == len(eddi.response_log) >= 2
        for evt, response in zip(transitions, eddi.response_log):
            assert evt.sim_time == response.stamp
            assert evt.payload["uav"] == eddi.name
            assert evt.payload["guarantee"] == response.guarantee.value
            expected_previous = (
                response.previous.value if response.previous is not None else None
            )
            assert evt.payload["previous"] == expected_previous
        # The initial None -> X plus at least one fault-driven demotion.
        assert transitions[0].payload["previous"] is None
        assert any(t.payload["previous"] is not None for t in transitions)
        assert any(t.sim_time >= 10.0 for t in transitions)
        # Phase spans and the cycle counter track the loop exactly.
        assert cycles == steps
        assert span_names["eddi.monitor"] == steps
        assert span_names["eddi.diagnose"] == steps
        # The battery fault activation itself is on the event log.
        assert fault_events and fault_events[0].sim_time == pytest.approx(10.0)


# ----------------------------------------------------------- campaign wiring
def _obs_sample(config: dict, seed: int, timer) -> dict:
    bus = RosBus()
    bus.subscribe("/ping", "node", lambda message: None)
    with timer.phase("publish"):
        for i in range(config["n"]):
            bus.publish("/ping", i, sender="node")
    return {"n": config["n"]}


OBS_EXPERIMENT = register_experiment(
    CampaignExperiment(
        name="obs-integration-test",
        sample_fn=_obs_sample,
        grids=lambda name: [{"n": 3}, {"n": 5}],
        describe="test-only: counts bus publishes",
    )
)

GRID = [{"n": 3}, {"n": 5}]


class TestCampaignObservability:
    def test_manifest_gains_merged_metrics(self):
        result = run_campaign(OBS_EXPERIMENT, grid=GRID, observe=True)
        merged = result.manifest["metrics"]
        assert merged["counters"]["bus_published_total"]["topic=/ping"] == 8.0
        assert merged["counters"]["bus_delivered_total"]["topic=/ping"] == 8.0
        assert all(record.metrics is not None for record in result.records)
        # Per-sample snapshots carry their own counts.
        assert result.records[0].metrics["counters"]["bus_published_total"][
            "topic=/ping"
        ] == 3.0

    def test_unobserved_run_is_metric_free_and_fingerprints_match(self):
        observed = run_campaign(OBS_EXPERIMENT, grid=GRID, observe=True)
        plain = run_campaign(OBS_EXPERIMENT, grid=GRID)
        assert "metrics" not in plain.manifest
        assert all(record.metrics is None for record in plain.records)
        assert plain.fingerprint == observed.fingerprint

    def test_trace_file_renders_and_labels_lanes(self, tmp_path):
        trace = tmp_path / "campaign.jsonl"
        run_campaign(OBS_EXPERIMENT, grid=GRID, trace_path=trace)
        records = obs.read_trace(trace)
        kinds = Counter(r["kind"] for r in records)
        assert kinds["meta"] == 1 and kinds["metrics"] == 1
        spans = [r for r in records if r["kind"] == "span"]
        assert {
            s["labels"]["sample"] for s in spans if "sample" in s["labels"]
        } == {0, 1}
        campaign_spans = {
            s["name"] for s in spans if s["labels"].get("scope") == "campaign"
        }
        assert campaign_spans == {
            "campaign.grid", "campaign.cache_scan",
            "campaign.execute", "campaign.finalize",
        }
        text = obs.summarize_trace(trace)
        assert "phase.publish" in text and "/ping" in text

    def test_cache_hits_dont_leak_metrics_into_unobserved_runs(self, tmp_path):
        cache = tmp_path / "cache"
        run_campaign(OBS_EXPERIMENT, grid=GRID, observe=True, cache_dir=cache)
        replay = run_campaign(OBS_EXPERIMENT, grid=GRID, cache_dir=cache)
        assert all(record.cached for record in replay.records)
        assert all(record.metrics is None for record in replay.records)
        assert "metrics" not in replay.manifest
        # An observed replay keeps the cached snapshots.
        observed = run_campaign(
            OBS_EXPERIMENT, grid=GRID, observe=True, cache_dir=cache
        )
        assert all(record.metrics is not None for record in observed.records)
        assert observed.manifest["metrics"]["counters"][
            "bus_published_total"]["topic=/ping"] == 8.0

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_pool_workers_merge_identically(self):
        grid = [{"n": 2}, {"n": 4}, {"n": 6}]
        solo = run_campaign(OBS_EXPERIMENT, grid=grid, observe=True, workers=1)
        pooled = run_campaign(OBS_EXPERIMENT, grid=grid, observe=True, workers=2)
        assert pooled.manifest["metrics"] == solo.manifest["metrics"]
        assert pooled.fingerprint == solo.fingerprint

    def test_observe_leaves_global_session_untouched(self):
        assert not obs.OBS.enabled
        run_campaign(OBS_EXPERIMENT, grid=GRID, observe=True)
        assert not obs.OBS.enabled
        assert "bus_published_total" not in obs.OBS.metrics.snapshot()["counters"]


class TestCli:
    def test_single_experiment_trace_metrics_and_summarize(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        prom = tmp_path / "run.prom"
        code = main(["conserts", "--trace", str(trace), "--metrics", str(prom)])
        assert code == 0
        assert trace.exists() and prom.exists()
        capsys.readouterr()
        assert main(["obs", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out

    def test_campaign_trace_flag_end_to_end(self, tmp_path, capsys):
        trace = tmp_path / "campaign.jsonl"
        code = main([
            "campaign", "obs-integration-test",
            "--no-cache", "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["obs", "chrome", str(trace), "-o",
                     str(tmp_path / "t.json")]) == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["traceEvents"]

    def test_obs_cli_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2
