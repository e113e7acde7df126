"""Property-style tests for ReliableChannel under randomized loss.

Fifty seeded, generated loss schedules (random loss rate, message count,
send times, heal time) drive an ``a -> b`` stream over a lossy
:class:`DegradedBus`. Whatever the schedule, three properties must hold
once the link heals and retransmissions drain:

- **no duplicate delivery**: the application callback sees each sequence
  number exactly once (the protocol may re-receive copies; the channel
  absorbs them);
- **in-order delivery**: the callback sees sequence numbers in strictly
  increasing send order, gaps buffered and released in order;
- **eventual delivery**: every queued message is delivered and
  acknowledged (nothing in flight) within bounded time after the loss
  clears.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.middleware.degraded import DegradedBus, LinkModel
from repro.middleware.reliable import ReliableChannel

N_SCHEDULES = 50
DT = 0.25
DRAIN_S = 40.0  # comfortably above link_down_after_s + max backoff


def _run_schedule(seed: int):
    """Drive one randomized schedule; returns (delivered, payloads, a, b)."""
    rng = np.random.default_rng(seed)
    loss = float(rng.uniform(0.2, 0.9))
    n_msgs = int(rng.integers(3, 20))
    # Send times: random spacing over the first ~15 s of the run.
    send_times = np.cumsum(rng.uniform(0.0, 1.5, size=n_msgs))
    heal_time = float(send_times[-1] + rng.uniform(0.0, 5.0))

    bus = DegradedBus()
    link = LinkModel(rng=np.random.default_rng(seed + 1), loss_probability=loss)
    bus.set_link("a", "b", link)

    delivered: list[tuple[int, str]] = []
    alice = ReliableChannel(bus=bus, local="a", peer="b")
    bob = ReliableChannel(
        bus=bus,
        local="b",
        peer="a",
        on_deliver=lambda seq, data: delivered.append((seq, data)),
    )

    payloads = [f"msg-{seed}-{i}" for i in range(n_msgs)]
    to_send = list(zip(send_times, payloads))
    t = 0.0
    end = heal_time + DRAIN_S
    while t < end:
        t += DT
        while to_send and to_send[0][0] <= t:
            alice.send(to_send.pop(0)[1], now=t)
        if t >= heal_time:
            link.loss_probability = 0.0
        bus.advance_clock(t)
        alice.step(t)
        bob.step(t)
    return delivered, payloads, alice, bob


@pytest.fixture(scope="module")
def schedules():
    return [_run_schedule(1000 + i) for i in range(N_SCHEDULES)]


class TestReliableChannelProperties:
    def test_no_duplicate_delivery(self, schedules):
        for delivered, _, _, _ in schedules:
            seqs = [seq for seq, _ in delivered]
            assert len(seqs) == len(set(seqs)), f"duplicates in {seqs}"

    def test_in_order_delivery(self, schedules):
        for delivered, payloads, _, _ in schedules:
            assert [seq for seq, _ in delivered] == sorted(
                seq for seq, _ in delivered
            )
            # Payload order mirrors send order exactly.
            assert [data for _, data in delivered] == payloads[: len(delivered)]

    def test_eventual_delivery_of_every_message(self, schedules):
        for delivered, payloads, alice, _ in schedules:
            assert [data for _, data in delivered] == payloads
            assert not alice._pending
            assert alice.stats.acked == len(payloads)

    def test_loss_actually_exercised_the_protocol(self, schedules):
        # Across 50 schedules at 20-90% loss, retransmission and
        # duplicate absorption must both have fired — otherwise the
        # properties above were tested against a trivially clean link.
        assert sum(a.stats.retries for _, _, a, _ in schedules) > 50
        assert sum(b.stats.duplicates for _, _, _, b in schedules) > 0
        assert sum(b.stats.gaps for _, _, _, b in schedules) > 0

    def test_link_recovers_after_heal(self, schedules):
        for _, _, alice, _ in schedules:
            assert alice.link_up
