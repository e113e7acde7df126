"""SESAME core: ConSerts and the Executable DDI runtime (paper Sec. II-III).

ConSerts (Conditional Safety Certificates) "evaluate dependable UAV
behaviour during operation ... incorporating other SESAME technologies and
combining their results to assure dependable operation up to the SAR
mission level" (Sec. II-B). EDDIs are "composable, executable models
[that] can combine or interact at runtime to adapt and reconfigure
themselves" (Sec. III).

Modules:

- :mod:`repro.core.conserts` — guarantees, demands, runtime evidence,
  boolean gate trees, hierarchical composition, evaluation.
- :mod:`repro.core.eddi` — the runtime monitor/diagnose/respond loop that
  hosts ConSerts plus technology adapters on each UAV and the GCS.
- :mod:`repro.core.decider` — the mission-level decider combining all UAV
  guarantees (the Σ node of Fig. 1).
- :mod:`repro.core.uav_network` — the full Fig. 1 hierarchical ConSert
  network for the SAR use case, ready to wire to live monitors.
- :mod:`repro.core.ode` — Open-Dependability-Exchange-style packaging of
  dependability models (serialisation for design-time interchange).
"""

from repro.core.conserts import (
    AndNode,
    ConSert,
    Demand,
    Guarantee,
    OrNode,
    RuntimeEvidence,
)
from repro.core.decider import MissionDecider, MissionVerdict
from repro.core.eddi import Eddi, EddiResponse, MonitorAdapter
from repro.core.uav_network import UavConSertNetwork, UavGuarantee
from repro.core.ode import OdePackage
from repro.core.adapters import (
    MonitorStack,
    PeerTelemetryMonitor,
    attach_degraded_comm,
    build_fleet_eddis,
    build_uav_eddi,
)
from repro.core.responses import FleetResponseCoordinator, StandardResponsePolicy

__all__ = [
    "AndNode",
    "ConSert",
    "Demand",
    "Guarantee",
    "OrNode",
    "RuntimeEvidence",
    "MissionDecider",
    "MissionVerdict",
    "Eddi",
    "EddiResponse",
    "MonitorAdapter",
    "UavConSertNetwork",
    "UavGuarantee",
    "OdePackage",
    "MonitorStack",
    "PeerTelemetryMonitor",
    "attach_degraded_comm",
    "build_fleet_eddis",
    "build_uav_eddi",
    "FleetResponseCoordinator",
    "StandardResponsePolicy",
]
