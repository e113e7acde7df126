"""Unit tests for the multi-UAV control platform layers."""

import numpy as np
import pytest

from repro.core.uav_network import UavConSertNetwork
from repro.geo import EnuFrame, GeoPoint
from repro.middleware.rosbus import RosBus
from repro.platform.database import AccessDenied, DatabaseManager, DbRequest
from repro.platform.gui import render_fleet_status, render_mission_panel
from repro.platform.task_manager import TaskManager, TaskService
from repro.platform.uav_manager import UavManager
from repro.uav.uav import FlightMode, Uav, UavSpec

FRAME = EnuFrame(origin=GeoPoint(35.0, 33.0, 0.0))


class TestDatabaseManager:
    def test_put_get_roundtrip(self):
        db = DatabaseManager()
        db.put("locations", "uav1", {"east": 1.0})
        assert db.get("locations", "uav1") == {"east": 1.0}

    def test_get_missing_returns_none(self):
        db = DatabaseManager()
        assert db.get("locations", "nope") is None

    def test_query_snapshot(self):
        db = DatabaseManager()
        db.put("c", "a", 1)
        db.put("c", "b", 2)
        assert db.query("c") == {"a": 1, "b": 2}

    def test_delete(self):
        db = DatabaseManager()
        db.put("c", "a", 1)
        assert db.handle(DbRequest("10.0.0.2", "delete", "c", "a")) is True
        assert db.handle(DbRequest("10.0.0.2", "delete", "c", "a")) is False

    def test_rejects_external_origin(self):
        db = DatabaseManager()
        with pytest.raises(AccessDenied):
            db.handle(DbRequest("203.0.113.9", "get", "c", "a"))

    def test_rejects_malformed_origin(self):
        db = DatabaseManager()
        with pytest.raises(AccessDenied):
            db.handle(DbRequest("not-an-ip", "get", "c", "a"))

    def test_rejects_unknown_operation(self):
        db = DatabaseManager()
        with pytest.raises(ValueError):
            db.handle(DbRequest("10.0.0.2", "frobnicate", "c"))

    def test_put_requires_key(self):
        db = DatabaseManager()
        with pytest.raises(ValueError):
            db.handle(DbRequest("10.0.0.2", "put", "c", None, 1))

    def test_audit_log_records_accesses(self):
        db = DatabaseManager()
        db.put("c", "a", 1, origin_ip="10.0.0.7")
        assert db.audit_log == [("10.0.0.7", "put", "c")]

    def test_denied_access_not_logged(self):
        db = DatabaseManager()
        with pytest.raises(AccessDenied):
            db.handle(DbRequest("8.8.8.8", "query", "c"))
        assert db.audit_log == []


def build_platform():
    bus = RosBus()
    db = DatabaseManager()
    manager = UavManager(bus=bus, database=db)
    rng = np.random.default_rng(0)
    uavs = []
    for i in range(3):
        uav = Uav(
            spec=UavSpec(uav_id=f"uav{i + 1}", base_position=(i * 50.0, 0.0, 0.0)),
            frame=FRAME,
            bus=bus,
            rng=rng,
        )
        manager.connect(uav)
        uavs.append(uav)
    return bus, db, manager, uavs


class TestUavManager:
    def test_connect_registers(self):
        _, _, manager, _ = build_platform()
        assert sorted(manager.registry) == ["uav1", "uav2", "uav3"]
        assert manager.registry["uav1"].uav_type == "DJI-M300-RTK"

    def test_duplicate_connect_rejected(self):
        bus, db, manager, uavs = build_platform()
        with pytest.raises(ValueError):
            manager.connect(uavs[0])

    def test_telemetry_updates_registry_and_database(self):
        bus, db, manager, uavs = build_platform()
        uavs[0].start_mission([(200.0, 200.0, 20.0)])
        for i in range(1, 20):
            bus.advance_clock(i * 0.5)
            uavs[0].step(0.5, i * 0.5)
        record = manager.registry["uav1"]
        assert record.last_seen > 0.0
        assert record.mode == "mission"
        assert db.get("uav_locations", "uav1") is not None

    def test_command_translation(self):
        _, _, manager, uavs = build_platform()
        manager.command("uav1", "start_mission", waypoints=[(5.0, 5.0, 10.0)])
        assert uavs[0].mode is FlightMode.MISSION
        manager.command("uav1", "hold")
        assert uavs[0].mode is FlightMode.HOLD
        manager.command("uav1", "return_to_base")
        assert uavs[0].mode is FlightMode.RETURN_TO_BASE
        manager.command("uav1", "emergency_land")
        assert uavs[0].mode is FlightMode.EMERGENCY_LAND
        manager.command("uav1", "goto", setpoint=(1.0, 2.0, 3.0))
        assert uavs[0].mode is FlightMode.GUIDED

    def test_unknown_command_rejected(self):
        _, _, manager, _ = build_platform()
        with pytest.raises(ValueError):
            manager.command("uav1", "teleport")

    def test_unknown_uav_rejected(self):
        _, _, manager, _ = build_platform()
        with pytest.raises(KeyError):
            manager.command("uav9", "hold")

    def test_broadcast(self):
        _, _, manager, uavs = build_platform()
        manager.broadcast("hold")
        assert all(u.mode is FlightMode.HOLD for u in uavs)

    def test_fleet_status_sorted(self):
        _, _, manager, _ = build_platform()
        assert [r.uav_id for r in manager.fleet_status()] == ["uav1", "uav2", "uav3"]


class TestTaskManager:
    def test_builtin_sar_service_available(self):
        _, _, manager, _ = build_platform()
        tasks = TaskManager(uav_manager=manager)
        assert "sar_coverage" in tasks.services

    def test_sar_coverage_starts_all_uavs(self):
        _, _, manager, uavs = build_platform()
        tasks = TaskManager(uav_manager=manager)
        result = tasks.execute("sar_coverage", {"altitude_m": 25.0})
        assert set(result["assignments"]) == {"uav1", "uav2", "uav3"}
        assert all(u.mode is FlightMode.MISSION for u in uavs)

    def test_register_custom_service(self):
        _, _, manager, _ = build_platform()
        tasks = TaskManager(uav_manager=manager)
        tasks.register(
            TaskService("noop", "does nothing", run=lambda m, p: "done")
        )
        assert tasks.execute("noop") == "done"
        assert ("noop", {}) in tasks.run_log

    def test_duplicate_registration_rejected(self):
        _, _, manager, _ = build_platform()
        tasks = TaskManager(uav_manager=manager)
        with pytest.raises(ValueError):
            tasks.register(TaskService("sar_coverage", "dup", run=lambda m, p: None))

    def test_unknown_service_rejected(self):
        _, _, manager, _ = build_platform()
        tasks = TaskManager(uav_manager=manager)
        with pytest.raises(KeyError):
            tasks.execute("nope")


class TestGui:
    def test_fleet_status_renders_all_uavs(self):
        _, _, manager, _ = build_platform()
        text = render_fleet_status(manager.fleet_status())
        for uav_id in ("uav1", "uav2", "uav3"):
            assert uav_id in text
        assert "BATT" in text

    def test_mission_panel_renders_verdict(self):
        from repro.core.decider import MissionDecider

        decider = MissionDecider()
        for i in range(2):
            network = UavConSertNetwork(uav_id=f"uav{i + 1}")
            network.set_reliability_level("high" if i == 0 else "low")
            decider.add_uav(network)
        decision = decider.decide()
        text = render_mission_panel(decision)
        assert decision.verdict.value in text
        assert "uav2" in text
