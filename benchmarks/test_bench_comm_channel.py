"""Ablation bench: the communication channel's effect on link guarantees."""

import numpy as np
from conftest import print_table, run_once

from repro.safedrones.communication import CommLinkMonitor, GilbertElliottChannel


def test_comm_channel_link_guarantee_sweep(benchmark):
    """Burstiness sweep: when does the comm-link ConSert guarantee hold?"""

    def sweep():
        rows = []
        for p_bad in (0.005, 0.02, 0.08, 0.3):
            channel = GilbertElliottChannel(
                rng=np.random.default_rng(11), p_good_to_bad=p_bad,
                p_bad_to_good=0.2,
            )
            monitor = CommLinkMonitor()
            ok_time = 0
            steps = 4000
            for _ in range(steps):
                channel.step(0.5)
                monitor.record(channel.deliver())
                if monitor.assess(0.0).link_ok:
                    ok_time += 1
            rows.append(
                (p_bad, channel.expected_delivery_ratio(), ok_time / steps)
            )
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "Comm channel ablation — burstiness vs link-OK availability",
        ["P(good->bad) [1/s]", "expected delivery", "link-OK fraction"],
        [[f"{r[0]:.3f}", f"{r[1]:.3f}", f"{r[2]:.3f}"] for r in rows],
    )
    # Link availability degrades monotonically with burst pressure.
    fractions = [r[2] for r in rows]
    assert fractions[0] > fractions[-1]
    assert fractions[0] > 0.9
