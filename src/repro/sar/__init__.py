"""Search-and-rescue algorithms and mission orchestration (paper Sec. IV).

Implements the SAR workload the paper's platform runs: boustrophedon area
coverage with per-UAV partitioning (the red / light red / green scan lines
of Fig. 4), an altitude-dependent person-detection model whose uncertainty
behaviour drives the Sec. V-B accuracy experiment, and the mission
orchestrator with availability / accuracy / completion-time metrics.
"""

from repro.sar.coverage import boustrophedon_path, partition_area, swath_width_m
from repro.sar.detection import DetectionModel, DetectionOutcome
from repro.sar.mission import SarMission, MissionMetrics
from repro.sar.redistribution import RedistributionAssignment, TaskRedistributor
from repro.sar.patterns import expanding_square, sector_search

__all__ = [
    "boustrophedon_path",
    "partition_area",
    "swath_width_m",
    "DetectionModel",
    "DetectionOutcome",
    "SarMission",
    "MissionMetrics",
    "RedistributionAssignment",
    "TaskRedistributor",
    "expanding_square",
    "sector_search",
]
