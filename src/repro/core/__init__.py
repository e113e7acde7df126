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
  hosts ConSerts plus technology adapters on each UAV.
- :mod:`repro.core.decider` — the mission-level decider combining all UAV
  guarantees (the Σ node of Fig. 1).
- :mod:`repro.core.uav_network` — the full Fig. 1 hierarchical ConSert
  network for the SAR use case, ready to wire to live monitors.
"""
