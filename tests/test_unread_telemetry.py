"""Unread telemetry is never built, and no reader can tell.

A UAV publishes a telemetry sample only when its topic has a reader
(:meth:`RosBus.has_reader`). Otherwise both runtimes skip the sample's
geodesy, records and delivery, but still take every noise event the
sample's measures take and the bus sequence number its publish takes.
So a run must not depend on who listens, or since when:

* no reader, a recording subscriber from t=0, and one attached mid-run
  end with equal UAV state and equal noise-stream positions;
* the mid-run subscriber receives exactly what the t=0 one received from
  its attach time on (``seq`` included);
* other traffic keeps its ``seq``, and obs-enabled runs publish every
  sample.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.common import build_three_uav_world
from repro.middleware.degraded import DegradedBus
from repro.middleware.rosbus import RosBus
from repro.sar.mission import SarMission
from repro.scenario import load_scenario

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))

#: Scenario steps: past every shipped fault onset (the latest is the
#: 250 s battery collapse) at the 0.5 s tick.
SCENARIO_STEPS = 560
#: 10-UAV mission steps, and the step the GPS/IMU faults land on.
FLEET_STEPS = 160
FLEET_FAULT_STEP = 60


def _telemetry_topics(world) -> list[str]:
    return [f"/{uav_id}/telemetry" for uav_id in world.uavs]


def _subscribe(world, node: str) -> list:
    """A recording subscriber on every telemetry topic; returns its list."""
    received: list = []
    for topic in _telemetry_topics(world):
        world.bus.subscribe(topic, node, received.append)
    return received


def _uav_state(world) -> dict:
    return {
        uav_id: (
            uav.dynamics.position,
            uav.dynamics.velocity,
            uav.believed_trajectory[-1],
            uav.battery.soc,
            uav.battery.temp_c,
            uav.mode,
            uav.plan.index,
            uav._last_telemetry,
        )
        for uav_id, uav in world.uavs.items()
    }


def _generator(source):
    """The generator behind a sensor noise source (own or fleet-channel row)."""
    if hasattr(source, "_gen"):
        return source._gen
    return source._channel._gens[source._row]


def _stream_state(world) -> dict:
    """Every noise channel's generator state and next event, per UAV.

    The generator state only moves once per prefetched chunk; the next
    event pins the position inside it. Pops one event per source, so
    call it once, at the end of a run.
    """
    state = {}
    for uav_id, uav in world.uavs.items():
        sensors = uav.sensors
        sources = (
            sensors.gps.noise, sensors.gps.quality, sensors.imu.noise,
            sensors.temperature.noise, sensors.wind.noise,
        )
        state[uav_id] = [
            (_generator(source).bit_generator.state, source.pop())
            for source in sources
        ]
    return state


def _scenario_run(path: Path, reader: str, steps: int = SCENARIO_STEPS):
    """Run ``path`` with ``reader`` in {"none", "t0", "mid"}.

    Returns ``(world, received, attach_time)``.
    """
    scenario = load_scenario(json.loads(path.read_text()))
    world = scenario.world
    received = _subscribe(world, "t0") if reader == "t0" else []
    attach_time = 0.0
    for step in range(steps):
        if reader == "mid" and step == steps // 2:
            received = _subscribe(world, "mid")
            attach_time = world.time
        scenario.step()
    return world, received, attach_time


def _fleet_run(reader: str):
    """A 10-UAV vectorized SAR mission with mid-run GPS denial and IMU loss."""
    scenario = build_three_uav_world(
        seed=5, n_persons=4, n_uavs=10, engine="vectorized"
    )
    world = scenario.world
    assert world.engine == "vectorized"
    mission = SarMission(world=world)
    mission.assign_paths()
    received = _subscribe(world, "t0") if reader == "t0" else []
    attach_time = 0.0
    for step in range(FLEET_STEPS):
        if step == FLEET_FAULT_STEP:
            # Partial takes: one row without a fix, one without an IMU.
            world.uavs["uav2"].sensors.gps.denied = True
            world.uavs["uav7"].sensors.imu.healthy = False
        if reader == "mid" and step == FLEET_STEPS // 2:
            received = _subscribe(world, "mid")
            attach_time = world.time
        mission.step()
    return world, received, attach_time


def _assert_reader_blind(runs: dict) -> None:
    (quiet, _, _), (full, from_t0, _), (late, from_mid, attach_time) = (
        runs["none"], runs["t0"], runs["mid"]
    )
    topics = _telemetry_topics(quiet)
    assert not any(quiet.bus.has_reader(topic) for topic in topics)
    assert from_t0 and from_mid
    assert _uav_state(quiet) == _uav_state(full) == _uav_state(late)
    assert _stream_state(quiet) == _stream_state(full) == _stream_state(late)
    assert from_mid == [m for m in from_t0 if m.stamp > attach_time]
    # Every due sample reached the t=0 reader: one per UAV per tick here.
    assert len(from_t0) == len(topics) * len({m.stamp for m in from_t0})


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_scenario_runs_do_not_depend_on_telemetry_readers(path):
    runs = {reader: _scenario_run(path, reader) for reader in ("none", "t0", "mid")}
    assert runs["none"][0].engine == "scalar"
    _assert_reader_blind(runs)


def test_vectorized_fleet_does_not_depend_on_telemetry_readers():
    runs = {reader: _fleet_run(reader) for reader in ("none", "t0", "mid")}
    _assert_reader_blind(runs)
    # The t=0 reader saw the faulted rows' samples after the faults.
    late = [m.data for m in runs["t0"][1] if m.stamp > FLEET_FAULT_STEP * 0.5]
    assert any(not t.gps.valid for t in late if t.uav_id == "uav2")
    assert any(t.imu_velocity == (0.0, 0.0, 0.0) for t in late if t.uav_id == "uav7")


def test_attacker_messages_keep_their_seq():
    """Skipped telemetry still uses up its sequence numbers."""
    path = SCENARIO_DIR / "spoofing_attack.json"

    def pose_messages(with_telemetry_reader: bool) -> list:
        scenario = load_scenario(json.loads(path.read_text()))
        world = scenario.world
        poses: list = []
        world.bus.subscribe("/uav1/pose", "mapper", poses.append)
        if with_telemetry_reader:
            _subscribe(world, "recorder")
        for _ in range(200):
            scenario.step()
        return poses

    quiet = pose_messages(False)
    assert quiet
    assert [m.seq for m in quiet] == [m.seq for m in pose_messages(True)]
    # The numbers every publish gave them (the same as before any skip).
    assert [m.seq for m in quiet[:3]] == [357, 361, 362]
    assert quiet[-1].seq == 796


@pytest.mark.parametrize("fleet", ["scenario", "vectorized"])
def test_obs_enabled_runs_publish_every_sample(fleet):
    """The metrics registry counts every publish, so every sample is built."""
    with obs.isolated(enabled=True) as session:
        if fleet == "scenario":
            world, _, _ = _scenario_run(
                SCENARIO_DIR / "spoofing_attack.json", "none", steps=200
            )
            expected = 200.0
        else:
            scenario = build_three_uav_world(
                seed=5, n_persons=4, n_uavs=10, engine="vectorized"
            )
            world = scenario.world
            mission = SarMission(world=world)
            mission.assign_paths()
            for _ in range(120):
                mission.step()
            expected = 120.0
        counters = session.metrics.snapshot()["counters"]["bus_published_total"]
    telemetry = {
        key: value for key, value in counters.items() if key.endswith("/telemetry")
    }
    assert telemetry == {f"topic={topic}": expected for topic in _telemetry_topics(world)}


class TestHasReader:
    def test_a_fresh_topic_has_no_reader(self):
        assert not RosBus().has_reader("/uav1/telemetry")

    def test_an_active_subscription_is_a_reader(self):
        bus = RosBus()
        sub = bus.subscribe("/uav1/telemetry", "gcs", lambda m: None)
        assert bus.has_reader("/uav1/telemetry")
        assert not bus.has_reader("/uav2/telemetry")
        sub.unsubscribe()
        assert not bus.has_reader("/uav1/telemetry")

    def test_an_interceptor_reads_every_topic(self):
        bus = RosBus()
        bus.add_interceptor(lambda message: message)
        assert bus.has_reader("/uav1/telemetry")

    def test_a_degraded_bus_reads_every_topic(self):
        assert DegradedBus().has_reader("/uav1/telemetry")

    def test_an_enabled_obs_session_reads_every_topic(self):
        with obs.isolated(enabled=True):
            assert RosBus().has_reader("/uav1/telemetry")
        assert not RosBus().has_reader("/uav1/telemetry")

    def test_skip_uses_up_sequence_numbers(self):
        bus = RosBus()
        assert bus.publish("/a", 0, "n").seq == 0
        bus.skip()
        bus.skip(3)
        assert bus.publish("/a", 0, "n").seq == 5
