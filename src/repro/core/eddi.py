"""The Executable DDI runtime loop.

An EDDI is a "model-based artefact ... with runtime components for
monitoring, diagnosis, and response" (Sec. III). Concretely, each cycle:

1. **Monitor** — every registered adapter samples its technology
   (SafeDrones, SafeML, Security EDDI, GPS quality, ...) and updates the
   runtime evidence in the UAV's ConSert network.
2. **Diagnose** — the ConSert network is evaluated bottom-up, yielding the
   strongest guarantee the UAV can currently offer.
3. **Respond** — when the offered guarantee changes, the matching response
   hook fires (e.g. command HOLD, trigger collaborative localization,
   initiate emergency landing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.uav_network import UavConSertNetwork, UavGuarantee
from repro.obs import OBS, event, span


@dataclass
class MonitorAdapter:
    """Binds one technology monitor into the EDDI cycle.

    ``update(now)`` must sample the technology and push fresh evidence
    into the ConSert network (typically via the network's setters,
    captured in a closure).

    Adapters fed by telemetry that may stop flowing (anything crossing the
    inter-UAV mesh) additionally declare ``max_staleness_s``: ``update``
    then returns True when it saw fresh data this cycle and False when it
    is re-serving old state. The EDDI keeps a ``last_update`` watermark
    and, once the watermark ages past ``max_staleness_s``, calls
    ``on_stale(True)`` every cycle so the adapter can push pessimistic
    evidence (demoting the ConSert guarantee) instead of silently
    reasoning over stale data; ``on_stale(False)`` fires once on
    recovery. ``update`` returning None (the historical signature) counts
    as fresh, so existing adapters are unaffected.
    """

    name: str
    update: Callable[[float], "bool | None"]
    max_staleness_s: float | None = None
    on_stale: Callable[[bool], None] | None = None
    last_update: float | None = None
    stale: bool = False

    def observe(self, now: float) -> None:
        """Run one cycle: sample, refresh the watermark, police staleness."""
        fresh = self.update(now)
        if fresh is None:
            fresh = True
        if fresh or self.last_update is None:
            # First cycle grants a full staleness window before demotion.
            self.last_update = now
        if self.max_staleness_s is None:
            return
        was_stale = self.stale
        self.stale = now - self.last_update > self.max_staleness_s
        if self.on_stale is not None:
            if self.stale:
                # Re-assert every stale cycle: the pessimistic evidence must
                # win over whatever the regular update path just wrote.
                self.on_stale(True)
            elif was_stale:
                self.on_stale(False)


@dataclass(frozen=True)
class EddiResponse:
    """Record of one dispatched response."""

    stamp: float
    guarantee: UavGuarantee
    previous: UavGuarantee | None


@dataclass
class EddiResponder:
    """The respond half of one UAV's EDDI cycle.

    Records every diagnosed guarantee and, when it changes, logs an
    :class:`EddiResponse` and fires the hook registered for the new
    guarantee. :class:`Eddi` runs it after its own monitor and diagnose
    phases; the batched assurance plane keeps one per UAV row.
    """

    name: str
    responses: dict[UavGuarantee, Callable[[EddiResponse], None]] = field(
        default_factory=dict
    )
    current_guarantee: UavGuarantee | None = None
    response_log: list[EddiResponse] = field(default_factory=list)
    guarantee_trace: list[tuple[float, UavGuarantee]] = field(default_factory=list)

    def on_guarantee(
        self, guarantee: UavGuarantee, callback: Callable[[EddiResponse], None]
    ) -> None:
        """Register a response fired when ``guarantee`` becomes active."""
        self.responses[guarantee] = callback

    def respond(self, now: float, guarantee: UavGuarantee) -> None:
        """Record ``guarantee`` at ``now``; dispatch its response on a change.

        When :mod:`repro.obs` is enabled, every call counts an EDDI cycle,
        a change emits a ``guarantee_transition`` event, and the response
        hook runs inside an ``eddi.respond`` span.
        """
        self.guarantee_trace.append((now, guarantee))
        obs_on = OBS.enabled
        if obs_on:
            OBS.metrics.inc("eddi_cycles_total", uav=self.name)
        if guarantee is self.current_guarantee:
            return
        previous = self.current_guarantee
        response = EddiResponse(stamp=now, guarantee=guarantee, previous=previous)
        self.response_log.append(response)
        self.current_guarantee = guarantee
        if obs_on:
            event(
                "info",
                "core.eddi",
                "guarantee_transition",
                sim_time=now,
                uav=self.name,
                previous=previous.value if previous is not None else None,
                guarantee=guarantee.value,
            )
            OBS.metrics.inc("eddi_guarantee_transitions_total", uav=self.name)
        callback = self.responses.get(guarantee)
        if callback is not None:
            with span("eddi.respond", sim_time=now, uav=self.name,
                      guarantee=guarantee.value):
                callback(response)


@dataclass(kw_only=True)
class Eddi(EddiResponder):
    """Executable DDI for one UAV."""

    network: UavConSertNetwork
    adapters: list[MonitorAdapter] = field(default_factory=list)

    def add_adapter(self, adapter: MonitorAdapter) -> None:
        """Register a monitoring adapter."""
        self.adapters.append(adapter)

    def step(self, now: float) -> UavGuarantee:
        """Run one monitor/diagnose/respond cycle; returns the guarantee.

        When :mod:`repro.obs` is enabled, the monitor and diagnose phases
        run inside ``eddi.monitor`` / ``eddi.diagnose`` spans, adapter
        staleness flips emit ``staleness_demotion`` /
        ``staleness_recovered`` events, and :meth:`EddiResponder.respond`
        adds its own — the audit trail the paper's "automates the logging
        of all actions" GCS requirement asks for.
        """
        obs_on = OBS.enabled
        with span("eddi.monitor", sim_time=now, uav=self.name):
            for adapter in self.adapters:
                was_stale = adapter.stale
                adapter.observe(now)
                if obs_on and adapter.stale != was_stale:
                    event(
                        "warning" if adapter.stale else "info",
                        "core.eddi",
                        "staleness_demotion" if adapter.stale
                        else "staleness_recovered",
                        sim_time=now,
                        uav=self.name,
                        adapter=adapter.name,
                    )
        with span("eddi.diagnose", sim_time=now, uav=self.name):
            guarantee = self.network.evaluate()
        self.respond(now, guarantee)
        return guarantee
