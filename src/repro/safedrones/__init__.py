"""SafeDrones: runtime reliability evaluation of UAVs (paper Sec. III-A1).

SafeDrones "integrates fault tree analysis (FTA) combined with dynamic
Markov-based models (as complex basic events) and real-time monitoring" to
provide "continuous reliability assessments during UAV operations",
covering "the battery, processor, and UAV rotors".

This subpackage implements that stack from scratch:

- :mod:`repro.safedrones.markov` — continuous-time Markov chain engine
  (transient solve, absorbing failure probability).
- :mod:`repro.safedrones.propulsion` — k-out-of-n motor reliability with
  reconfiguration, after Aslansefat et al. (DoCEIS 2019).
- :mod:`repro.safedrones.battery` — battery degradation chain whose rates
  scale with thermal stress (Arrhenius), driving the Fig. 5 experiment.
- :mod:`repro.safedrones.processor` — companion-computer SER/ageing model.
- :mod:`repro.safedrones.fta` — fault trees with *complex basic events*
  (time-dependent, Markov-backed leaves).
- :mod:`repro.safedrones.monitor` — the runtime monitor mapping live
  telemetry to {HIGH, MEDIUM, LOW} reliability guarantees.
"""
