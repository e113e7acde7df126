"""Per-layer tracing for the benchmark's traced run.

Each layer of the SESAME stack is named here by the public functions and
methods that enter it. :class:`Tracer` wraps those entry points from the
outside (nothing in ``src/`` is edited), records one span per call —
layer, start, end, parent span — in memory, and folds the spans of each
benchmark operation into per-layer call counts and *self* time: a span's
duration minus the part of it covered by its child spans. The self times
of all layers plus the ``unattributed`` remainder add up to the traced
wall time.

Targets are resolved by dotted path when the tracer is installed. A
target that no longer exists (renamed or deleted by a refactor) is
reported on stderr and its layer reads zero calls; the benchmark keeps
running, so it measures whatever runtime the package ships.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: Layer name -> ``"module:Qualified.name"`` entry points into the layer.
LAYERS: dict[str, tuple[str, ...]] = {
    "uav.world.step": ("repro.uav.world:World.step",),
    "uav.uav.step": ("repro.uav.uav:Uav.step",),
    "uav.battery.step": ("repro.uav.battery:Battery.step",),
    "uav.sensors.measure": (
        "repro.uav.sensors:GpsSensor.measure",
        "repro.uav.sensors:ImuSensor.measure",
        "repro.uav.sensors:TemperatureSensor.measure",
        "repro.uav.sensors:WindSensor.measure",
    ),
    "uav.uav.publish_telemetry": ("repro.uav.uav:Uav.publish_telemetry",),
    "geo.enu": ("repro.geo:EnuFrame.to_enu", "repro.geo:EnuFrame.to_geo"),
    "middleware.rosbus.publish": ("repro.middleware.rosbus:RosBus.publish",),
    "uav.fleet.step": ("repro.uav.fleet:FleetEngine.step",),
    "middleware.rosbus.publish_many": ("repro.middleware.rosbus:RosBus.publish_many",),
    "sar.mission.step": ("repro.sar.mission:SarMission.step",),
    "safedrones.monitor.update": ("repro.safedrones.monitor:SafeDronesMonitor.update",),
    "safedrones.battery.update": (
        "repro.safedrones.battery:BatteryReliabilityModel.update",
    ),
    "safedrones.propulsion.failure_probability": (
        "repro.safedrones.propulsion:PropulsionModel.failure_probability",
    ),
    "safedrones.markov.transient": (
        "repro.safedrones.markov:ContinuousMarkovChain.transient",
    ),
    "core.batch.plane_step": ("repro.core.batch:BatchAssurancePlane.step",),
    "core.batch.safedrones_update": ("repro.core.batch:BatchSafeDrones.update",),
    "core.batch.consert_evaluate": ("repro.core.batch:CompiledConSerts.evaluate",),
    "core.batch.decide": ("repro.core.batch:BatchAssurancePlane.decide",),
    "security.spoofing.update": ("repro.security.spoofing:GpsSpoofingDetector.update",),
    "deepknowledge.network.train": (
        "repro.deepknowledge.network:FeedForwardNetwork.train",
    ),
    "safeml.monitor.fit": ("repro.safeml.monitor:SafeMlMonitor.fit",),
    "safeml.monitor.observe": ("repro.safeml.monitor:SafeMlMonitor.observe",),
    "safeml.monitor.report": ("repro.safeml.monitor:SafeMlMonitor.report",),
    "security.ids.scan": ("repro.security.ids:IntrusionDetectionSystem.scan",),
    "scenario.load_scenario": ("repro.scenario:load_scenario",),
    "plan.grid.build": ("repro.plan.grid:ObstacleField.build",),
    "plan.astar.plan_path": ("repro.plan.astar:plan_path",),
    "plan.astar.route_waypoints": ("repro.plan.astar:route_waypoints",),
    "plan.routing.inspection_points": ("repro.plan.routing:inspection_points",),
    "plan.routing.two_opt": ("repro.plan.routing:two_opt",),
    "plan.routing.plan_inspection_tours": ("repro.plan.routing:plan_inspection_tours",),
    "middleware.degraded.publish": ("repro.middleware.degraded:DegradedBus.publish",),
    "middleware.degraded.advance_clock": (
        "repro.middleware.degraded:DegradedBus.advance_clock",
    ),
    "middleware.reliable.send": ("repro.middleware.reliable:ReliableChannel.send",),
    "middleware.reliable.step": ("repro.middleware.reliable:ReliableChannel.step",),
    "swarm.protocol.leader_step": ("repro.swarm.protocol:LeaderProtocol.step",),
    "swarm.protocol.follower_step": ("repro.swarm.protocol:FollowerProtocol.step",),
    "uav.swarm_kinematics.step": ("repro.uav.swarm_kinematics:SwarmKinematics.step",),
    "core.squad.decide": ("repro.core.squad:SwarmMissionDecider.decide",),
}

#: Pseudo-layer: ``run_campaign`` wall minus the walls of its samples.
HARNESS = "harness.campaign.overhead"

#: Layers whose receiver carries a ``stats`` counter block worth summing:
#: ``LinkStats`` on the degraded bus, ``ReliableChannelStats`` per channel.
STATS_OF = {
    "middleware.degraded.publish": "link",
    "middleware.degraded.advance_clock": "link",
    "middleware.reliable.send": "channel",
    "middleware.reliable.step": "channel",
}


class Tracer:
    """Wraps every layer entry point while installed (a context manager).

    Spans accumulate in :attr:`spans` as ``(layer, start, end, parent)``
    tuples; :meth:`fold` reduces them into :attr:`calls` and
    :attr:`self_s` once an operation finishes and empties the list, so
    memory stays bounded by one operation.
    """

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.missing: list[str] = []
        #: ``id(stats) -> stats`` per bucket; holding the stats object (not
        #: its owner) keeps the id unique without keeping buses alive.
        self.stats: dict[str, dict[int, object]] = {"link": {}, "channel": {}}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn, layer: int, bucket: dict | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if bucket is not None:
                stats = args[0].stats
                bucket[id(stats)] = stats
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _install_target(self, target: str, layer: int, bucket: dict | None) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        if isinstance(owner, type):
            desc = next(
                (vars(k)[attr] for k in owner.__mro__ if attr in vars(k)), raw
            )
            if isinstance(desc, (classmethod, staticmethod)):
                wrapped = type(desc)(self._wrap(desc.__func__, layer, bucket))
            else:
                wrapped = self._wrap(desc, layer, bucket)
            self._patch(owner, attr, wrapped)
            return
        # A module-level function: rebind it in every package module that
        # imported it by name, so callers that did ``from x import f`` see
        # the wrapper too.
        wrapped = self._wrap(raw, layer, bucket)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, key, wrapped)

    def __enter__(self) -> "Tracer":
        for layer, name in enumerate(self.names):
            bucket = self.stats[STATS_OF[name]] if name in STATS_OF else None
            for target in LAYERS[name]:
                self._install_target(target, layer, bucket)
        for target in self.missing:
            print(f"perfbench: trace target not found: {target}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value, had in reversed(self._patches):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------- folding
    def fold(self) -> None:
        """Reduce the recorded spans into per-layer totals; clear them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (layer, start, end, _) in enumerate(spans):
            self.calls[layer] += 1
            self.self_s[layer] += (end - start) - child[index]
        spans.clear()

    def take_stats(self, bucket: str) -> list:
        """The stats blocks seen since the last call, then forget them."""
        seen = list(self.stats[bucket].values())
        self.stats[bucket].clear()
        return seen
