"""Standard EDDI wiring: technology monitors → ConSert evidence.

Every example and integration test wires the same adapters by hand:
SafeDrones into the reliability evidence, GPS quality and the spoof
detector into the localization evidence, camera health into the vision
evidence, fleet geometry into collaborator availability. This module
ships that wiring as a factory, so deploying the full Fig. 1 assurance
stack on a simulated UAV is one call::

    eddi, stack = build_uav_eddi(uav, world)
    ...
    guarantee = eddi.step(world.time)   # each cycle

The returned :class:`MonitorStack` exposes the individual monitors for
inspection and for feeding into mission-level components (decider,
co-engineering).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.eddi import Eddi, MonitorAdapter
from repro.core.uav_network import UavConSertNetwork
from repro.middleware.rosbus import Message, RosBus, Subscription
from repro.safedrones.monitor import SafeDronesMonitor
from repro.safeml.monitor import SafeMlMonitor
from repro.security.spoofing import GpsSpoofingDetector
from repro.uav.uav import Uav
from repro.uav.world import World


@dataclass
class PeerTelemetryMonitor:
    """Tracks telemetry actually *received* from each peer over the bus.

    This is the receiver-side view of the mesh: it records the arrival
    time of every peer telemetry message and estimates a per-peer delivery
    ratio against the fleet's nominal telemetry rate. Unlike the fleet
    geometry (which the simulator knows perfectly), this is exactly the
    evidence a real UAV has about its links — so it is what drives the
    ``comm_links_ok`` / ``peer_telemetry_fresh`` ConSert inputs under a
    degraded transport.
    """

    uav_id: str
    peers: tuple[str, ...]
    nominal_rate_hz: float = 2.0
    window_s: float = 6.0
    arrivals: dict[str, list[float]] = field(default_factory=dict)
    _bus: RosBus | None = field(default=None, repr=False)
    _subs: list[Subscription] = field(default_factory=list, repr=False)
    _attached_at: float = field(default=0.0, repr=False)

    def attach(self, bus: RosBus) -> None:
        """Subscribe to every peer's telemetry topic."""
        self._bus = bus
        self._attached_at = bus.clock
        for peer in self.peers:
            self.arrivals.setdefault(peer, [])
            self._subs.append(
                bus.subscribe(
                    f"/{peer}/telemetry",
                    self.uav_id,
                    lambda message, peer=peer: self._record(peer, message),
                )
            )

    def detach(self) -> None:
        """Unsubscribe from all peer telemetry topics."""
        for sub in self._subs:
            sub.unsubscribe()
        self._subs.clear()

    def _record(self, peer: str, message: Message) -> None:
        # Arrival time, not publish stamp: a delayed copy counts when it
        # actually lands at the receiver.
        now = self._bus.clock if self._bus is not None else message.stamp
        self.arrivals[peer].append(now)

    def _prune(self, peer: str, now: float) -> list[float]:
        cutoff = now - self.window_s
        stamps = [t for t in self.arrivals.get(peer, []) if t >= cutoff]
        self.arrivals[peer] = stamps
        return stamps

    def delivery_ratio(self, peer: str, now: float) -> float:
        """Received vs expected telemetry over the sliding window."""
        stamps = self._prune(peer, now)
        span = min(self.window_s, max(now - self._attached_at, 1.0 / max(self.nominal_rate_hz, 1e-9)))
        expected = self.nominal_rate_hz * span
        return min(1.0, len(stamps) / expected) if expected > 0 else 1.0

    def latest_arrival(self) -> float | None:
        """Most recent telemetry arrival from any peer, or None."""
        stamps = [s[-1] for s in self.arrivals.values() if s]
        return max(stamps) if stamps else None

    def fresh(self, now: float, staleness_s: float) -> bool:
        """Whether any peer telemetry arrived within ``staleness_s``."""
        latest = self.latest_arrival()
        return latest is not None and now - latest <= staleness_s


@dataclass
class MonitorStack:
    """The technology monitors behind one UAV's EDDI."""

    network: UavConSertNetwork
    safedrones: SafeDronesMonitor
    spoof_detector: GpsSpoofingDetector
    safeml: SafeMlMonitor | None = None
    cl_range_m: float = 120.0
    telemetry: PeerTelemetryMonitor | None = None


def build_uav_eddi(
    uav: Uav,
    world: World,
    safeml: SafeMlMonitor | None = None,
    cl_range_m: float = 120.0,
) -> tuple[Eddi, MonitorStack]:
    """Wire the full Fig. 1 monitor stack onto one UAV.

    ``safeml``, when provided, must already be fitted; its report gates
    the ``safeml_confidence_ok`` evidence (confidence HIGH or MEDIUM).
    Collaborator availability is derived live from the fleet geometry
    (any peer within ``cl_range_m``).
    """
    uav_id = uav.spec.uav_id
    network = UavConSertNetwork(uav_id=uav_id)
    network.set_reliability_level("high")
    stack = MonitorStack(
        network=network,
        safedrones=SafeDronesMonitor(uav_id=uav_id, rotor_count=uav.spec.rotor_count),
        spoof_detector=GpsSpoofingDetector(),
        safeml=safeml,
        cl_range_m=cl_range_m,
    )

    def update(now: float) -> None:
        # SafeDrones -> reliability level.
        assessment = stack.safedrones.update(
            now,
            uav.battery.soc,
            uav.sensors.temperature.measure(uav.battery.temp_c),
            motors_failed=uav.motors_failed,
        )
        network.set_reliability_level(assessment.level.value)

        # GPS quality + spoof cross-check -> localization/security evidence.
        fix = uav.sensors.gps.measure(uav.dynamics.position, now)
        network.set_gps_quality_ok(fix.quality_ok)
        if fix.valid:
            verdict = stack.spoof_detector.update(
                now,
                world.frame.to_enu(fix.point),
                uav.sensors.imu.measure(uav.dynamics.ground_velocity),
                world.dt,
            )
            network.set_attack_detected(verdict.spoofed)

        # Vision sensor health + SafeML confidence.
        network.set_camera_healthy(uav.sensors.camera.operational)
        network.set_drone_detection_ok(uav.sensors.camera.operational)
        if stack.safeml is not None and stack.safeml.window_full:
            report = stack.safeml.report(now)
            network.set_safeml_confidence_ok(report.level.value != "low")

        # Communication: collaborator availability. Link quality is
        # measured on received traffic only (attach_degraded_comm).
        position = uav.dynamics.position
        cl_range_m = stack.cl_range_m
        neighbors = any(
            peer_id != uav_id
            and _within_range(peer.dynamics.position, position, cl_range_m)
            for peer_id, peer in world.uavs.items()
        )
        network.set_nearby_uavs_available(neighbors)

    eddi = Eddi(name=f"{uav_id}-eddi", network=network)
    eddi.add_adapter(MonitorAdapter("sesame-stack", update))
    return eddi, stack


def _within_range(
    a: tuple[float, float, float], b: tuple[float, float, float], r: float
) -> bool:
    """``_distance(a, b) <= r``, decided on the squared distance.

    Outside a ±1e-9 relative band around ``r²``, which is far wider than
    the rounding error of either form, the squared distance decides;
    inside it, ``_distance`` does.
    """
    ax, ay, az = a
    bx, by, bz = b
    dx = ax - bx
    dy = ay - by
    dz = az - bz
    d2 = dx * dx + dy * dy + dz * dz
    r2 = r * r
    if d2 < r2 * (1.0 - 1e-9):
        return r >= 0.0  # a negative range holds no distance
    if d2 > r2 * (1.0 + 1e-9):
        return False
    return _distance(a, b) <= r


def _distance(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5


def attach_degraded_comm(
    eddi: Eddi,
    stack: MonitorStack,
    bus: RosBus,
    peers: tuple[str, ...],
    staleness_s: float = 3.0,
    ratio_threshold: float = 0.55,
    nominal_rate_hz: float = 2.0,
    window_s: float = 6.0,
) -> PeerTelemetryMonitor:
    """Drive the comm ConSert evidence from *received* mesh traffic.

    Wires a :class:`PeerTelemetryMonitor` onto ``bus`` and registers a
    staleness-tracked adapter on ``eddi``:

    - ``comm_links_ok`` holds while at least one peer's windowed telemetry
      delivery ratio stays at or above ``ratio_threshold`` — sustained
      packet loss demotes the guarantee even though *some* packets arrive;
    - ``peer_telemetry_fresh`` holds while any peer telemetry arrived
      within ``staleness_s``; a partition or blackout trips the adapter's
      staleness watermark and the ``on_stale`` hook forces both evidences
      pessimistic every cycle until traffic resumes.

    The stock adapter writes neither evidence, so without this adapter
    both stay at their optimistic defaults.
    """
    telemetry = PeerTelemetryMonitor(
        uav_id=eddi.network.uav_id,
        peers=tuple(peers),
        nominal_rate_hz=nominal_rate_hz,
        window_s=window_s,
    )
    telemetry.attach(bus)
    stack.telemetry = telemetry
    network = eddi.network

    def update(now: float) -> bool:
        fresh = telemetry.fresh(now, staleness_s)
        peers_ok = [
            peer
            for peer in telemetry.peers
            if telemetry.delivery_ratio(peer, now) >= ratio_threshold
        ]
        network.set_comm_links_ok(bool(peers_ok))
        network.set_peer_telemetry_fresh(fresh)
        return fresh

    def on_stale(stale: bool) -> None:
        if stale:
            network.set_comm_links_ok(False)
            network.set_peer_telemetry_fresh(False)
        else:
            network.set_peer_telemetry_fresh(True)

    eddi.add_adapter(
        MonitorAdapter(
            name="degraded-comm",
            update=update,
            max_staleness_s=staleness_s,
            on_stale=on_stale,
        )
    )
    return telemetry


def build_fleet_eddis(
    world: World, cl_range_m: float = 120.0
) -> dict[str, tuple[Eddi, MonitorStack]]:
    """Build the standard EDDI for every UAV in the world."""
    return {
        uav_id: build_uav_eddi(uav, world, cl_range_m=cl_range_m)
        for uav_id, uav in world.uavs.items()
    }
