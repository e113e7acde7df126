"""Campaign registry aggregator: import this to register every campaign.

Each campaign experiment registers itself as an import side effect of
its defining module (which is also how pool workers rediscover it); this
module just pulls them all in so the CLI — and anything else that wants
the full catalogue — has a single import to make.
"""

from __future__ import annotations

import repro.experiments.comm_availability  # noqa: F401  (registers "comm")
import repro.experiments.fleet_scale  # noqa: F401  (registers "fleet-scale")
import repro.experiments.monte_carlo  # noqa: F401  (registers "monte-carlo")
import repro.harness.chaos  # noqa: F401  (registers "chaos")
import repro.harness.fuzz.campaign  # noqa: F401  (registers "fuzz")
import repro.harness.synthetic  # noqa: F401  (registers "synthetic")
import repro.plan.experiment  # noqa: F401  (registers "planner-ablation")
import repro.swarm.experiment  # noqa: F401  (registers "swarm-sizing")

from repro.harness.campaign import get_experiment, list_experiments

__all__ = ["get_experiment", "list_experiments"]
