"""Search-and-rescue algorithms and mission orchestration (paper Sec. IV).

Implements the SAR workload the paper's platform runs: boustrophedon area
coverage with per-UAV partitioning (the red / light red / green scan lines
of Fig. 4), an altitude-dependent person-detection model whose uncertainty
behaviour drives the Sec. V-B accuracy experiment, and the mission
orchestrator with availability / accuracy / completion-time metrics.
"""
