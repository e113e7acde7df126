"""sesame-repro: safe, secure and dependable multi-UAV systems for SAR.

A from-scratch reproduction of the SESAME runtime-assurance stack
presented in "Multi-Partner Project: Safe, Secure and Dependable
Multi-UAV Systems for Search and Rescue Operations" (DATE 2025).

Public API highlights:

- :mod:`repro.core` — ConSerts, the EDDI runtime, the mission decider.
- :mod:`repro.safedrones` — Markov-based runtime reliability monitoring.
- :mod:`repro.safeml` — statistical-distance ML safety monitoring.
- :mod:`repro.deepknowledge` — neuron-level DNN testing and uncertainty.
- :mod:`repro.sinadra` — Bayesian-network dynamic risk assessment.
- :mod:`repro.security` — attack trees, IDS, Security EDDI, spoof detection.
- :mod:`repro.localization` — collaborative localization and safe landing.
- :mod:`repro.uav`, :mod:`repro.middleware`, :mod:`repro.platform`,
  :mod:`repro.sar` — the simulation and platform substrate.
- :mod:`repro.experiments` — drivers reproducing every paper figure.
"""

__version__ = "1.0.0"
