"""Task manager: multi-UAV algorithms exposed as services.

"Task Manager ... makes UAV and multi-UAV cooperation algorithms
accessible through graphical user interfaces. It provides algorithms as
services and supports extension without system disruption. Algorithms
selected by users receive data from the UAV Manager and other system
components, execute at the ground station, and are translated into
commands for the UAVs." (Sec. IV-A)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.platform.uav_manager import UavManager
from repro.sar.coverage import boustrophedon_path, partition_area


@dataclass
class TaskService:
    """One registered algorithm service.

    ``run(uav_manager, params)`` computes per-UAV commands and returns a
    result payload for the GUI.
    """

    name: str
    description: str
    run: Callable[[UavManager, dict[str, Any]], Any]


@dataclass
class TaskManager:
    """Registry and dispatcher for algorithm services."""

    uav_manager: UavManager
    services: dict[str, TaskService] = field(default_factory=dict)
    run_log: list[tuple[str, dict[str, Any]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.register(
            TaskService(
                name="sar_coverage",
                description="Partition the search area and start coverage scan",
                run=_sar_coverage_service,
            )
        )

    def register(self, service: TaskService) -> None:
        """Add a service; extension never disturbs existing services."""
        if service.name in self.services:
            raise ValueError(f"service {service.name!r} already registered")
        self.services[service.name] = service

    def execute(self, name: str, params: dict[str, Any] | None = None) -> Any:
        """Run a service by name with GUI-supplied parameters."""
        if name not in self.services:
            raise KeyError(f"unknown service {name!r}")
        params = params or {}
        self.run_log.append((name, params))
        return self.services[name].run(self.uav_manager, params)


def _sar_coverage_service(uav_manager: UavManager, params: dict[str, Any]) -> dict[str, Any]:
    """Built-in SAR coverage task: strip partition + boustrophedon start."""
    area = params.get("area_size_m", (400.0, 300.0))
    altitude = params.get("altitude_m", 20.0)
    uav_ids = sorted(uav_manager.uavs)
    if not uav_ids:
        raise RuntimeError("no UAVs connected")
    strips = partition_area(area, len(uav_ids))
    assignments = {}
    for uav_id, bounds in zip(uav_ids, strips):
        path = boustrophedon_path(bounds, altitude)
        uav_manager.command(uav_id, "start_mission", waypoints=path)
        assignments[uav_id] = {"bounds": bounds, "waypoints": len(path)}
    return {"assignments": assignments, "altitude_m": altitude}
