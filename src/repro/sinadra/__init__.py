"""SINADRA: situation-aware dynamic risk assessment (paper Sec. III-A4).

SINADRA "uses Bayesian networks and enables the system to leverage
situation-specific risk factors and causal influences ... to dynamically
determine risk at runtime". In the SAR use case it consumes the SafeML /
DeepKnowledge uncertainty signals: "When person detection uncertainty is
high, SINADRA estimates the risk and criticality of missed persons ...
High criticality prompts immediate re-scanning of an area, whereas low
criticality allows UAVs to proceed to the next task."

This subpackage implements a discrete Bayesian-network engine (exact
inference by variable elimination) and the SAR missed-person risk model
built on it.
"""
