"""``repro.swarm`` — leader–follower swarm tasking over the degraded bus.

PaperID23 (Quispe Arias et al., LAFUSION 2025) sizes heterogeneous SAR
swarms: K explorer leaders patrol assigned sectors and detect points of
interest; each leader commands ρ follower (visiting) UAVs that loiter on
their leader, fly out to service detected PoIs, and report confirmations.
The measured quantities are the latency–coverage trade-offs as K, ρ and
the workload P vary.

This package builds that workload on the repo's existing substrate:

:mod:`repro.swarm.protocol`
    The tasking protocol proper — leader and follower state machines, the
    deterministic task ledger, ACK'd assignment/confirmation over
    :class:`~repro.middleware.reliable.ReliableChannel`, heartbeat-based
    follower liveness, task timeout/retry with bounded backoff, and
    re-homing after leader demotion. Pure protocol: physical motion is
    injected by the caller, so the state machines are unit-testable
    message for message (``tests/test_swarm_protocol.py``).

:mod:`repro.swarm.sim`
    The closed-loop simulation: scalar swarm kinematics
    (:mod:`repro.uav.swarm_kinematics`; Python floats plus one
    ``np.hypot`` over the fleet per tick, cheaper than NumPy arrays at
    swarm sizes), sector patrol sweeps
    (:func:`repro.sar.patterns.sector_sweep`), a comm radius realised as
    per-pair :class:`~repro.middleware.degraded.LinkModel` loss on a
    :class:`~repro.middleware.degraded.DegradedBus` (so link loss and
    partitions degrade the protocol for free), and the hierarchical
    squad ConSert plane (:mod:`repro.core.squad`) driving re-homing.

:mod:`repro.swarm.experiment`
    The registered ``swarm-sizing`` campaign sweeping K × ρ × P through
    :func:`repro.harness.campaign.run_campaign`.

Everything is a pure function of the scenario config and seed — same
inputs, byte-identical task ledger and campaign fingerprint at any
worker count (``tests/test_swarm_properties.py``).
"""
