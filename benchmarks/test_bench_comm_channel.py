"""Ablation bench: the Gilbert–Elliott channel's delivery under burstiness."""

import numpy as np
from conftest import print_table, run_once

from repro.safedrones.communication import GilbertElliottChannel


def test_comm_channel_delivery_sweep(benchmark):
    """Burstiness sweep: simulated delivery ratio against the closed form."""

    def sweep():
        rows = []
        for p_bad in (0.005, 0.02, 0.08, 0.3):
            channel = GilbertElliottChannel(
                rng=np.random.default_rng(11), p_good_to_bad=p_bad,
                p_bad_to_good=0.2,
            )
            delivered = 0
            steps = 4000
            for _ in range(steps):
                channel.step(0.5)
                delivered += channel.deliver()
            rows.append(
                (p_bad, channel.expected_delivery_ratio(), delivered / steps)
            )
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "Comm channel ablation — burstiness vs packet delivery",
        ["P(good->bad) [1/s]", "expected delivery", "simulated delivery"],
        [[f"{r[0]:.3f}", f"{r[1]:.3f}", f"{r[2]:.3f}"] for r in rows],
    )
    # Delivery degrades with burst pressure and tracks the closed form.
    simulated = [r[2] for r in rows]
    assert simulated[0] > simulated[-1]
    for _, expected, got in rows:
        assert abs(got - expected) < 0.05
