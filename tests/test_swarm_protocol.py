"""Conformance suite for the leader–follower tasking protocol.

Table-driven: each case scripts a timeline of external events
(detections, arrivals, follower deaths, leader demotions) against a
lossless in-process bus, then pins the exact data-plane message flow and
the final task ledger — full dicts, no tolerances. The transport is
perfect here on purpose: every reject, retransmission-ignore and
reassignment in the expected flow is the protocol's own doing, not the
link's. (Lossy-transport behaviour is the property suite's job,
``tests/test_swarm_properties.py``.)

The harness steps at 1 Hz: events fire at the start of their tick, then
leaders step in sorted order, then live followers step in sorted order —
the same phase ordering as :class:`repro.swarm.sim.SwarmSim`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest

from repro.middleware.rosbus import RosBus
from repro.swarm.protocol import (
    FollowerProtocol,
    FollowerState,
    LeaderProtocol,
    SwarmLedger,
    SwarmProtocolConfig,
    TaskState,
)


class Harness:
    """One squad (plus optional spare leaders) on a lossless bus."""

    def __init__(
        self,
        followers: tuple[str, ...] = ("f00_00", "f00_01"),
        config: SwarmProtocolConfig | None = None,
        extra_leaders: tuple[str, ...] = (),
        script: dict[int, list[tuple]] | None = None,
    ) -> None:
        self.bus = RosBus()
        self.ledger = SwarmLedger()
        self.config = config or SwarmProtocolConfig()
        self.script = script or {}
        self.trace: list[tuple[float, str, dict]] = []
        self.bus.add_interceptor(self._record)
        self.leaders = {
            "lead00": LeaderProtocol(
                self.bus, "lead00", list(followers), self.ledger,
                config=self.config, now=0.0,
            )
        }
        for name in extra_leaders:
            self.leaders[name] = LeaderProtocol(
                self.bus, name, [], self.ledger, config=self.config, now=0.0
            )
        self.followers = {
            fid: FollowerProtocol(
                self.bus, fid, "lead00", config=self.config, now=0.0
            )
            for fid in followers
        }
        self.paused: set[str] = set()
        self._next_step = 1

    def _record(self, message):
        if message.topic.startswith("/swarm/"):
            self.trace.append(
                (message.stamp, message.topic, json.loads(json.dumps(message.data)))
            )
        return message

    def run(self, until: int) -> None:
        """Step ticks ``[next, until]``; events fire before protocol steps."""
        for step in range(self._next_step, until + 1):
            now = float(step)
            self.bus.advance_clock(now)
            for event in self.script.get(step, ()):
                self._apply(event, now)
            for name in sorted(self.leaders):
                self.leaders[name].step(now)
            for fid in sorted(self.followers):
                if fid not in self.paused:
                    self.followers[fid].step(now)
        self._next_step = until + 1

    def _apply(self, event: tuple, now: float) -> None:
        kind = event[0]
        if kind == "detect":
            _, leader, poi_id, pos = event
            self.leaders[leader].note_task(poi_id, pos, now)
        elif kind == "arrive":
            self.followers[event[1]].arrived(now)
        elif kind == "kill":  # hard loss: silent AND unsubscribed
            self.paused.add(event[1])
            self.followers[event[1]].close()
        elif kind == "pause":  # soft loss: silent but still alive
            self.paused.add(event[1])
        elif kind == "resume":
            self.paused.discard(event[1])
        elif kind == "demote":
            # The mission-layer recovery the sim's ConSert decider runs:
            # demote, transfer released tasks, re-home live followers.
            _, leader, successor = event
            followers, released = self.leaders[leader].demote(now)
            for poi_id in released:
                self.leaders[successor].accept_task(poi_id)
            for fid in followers:
                if fid not in self.paused:
                    self.followers[fid].rehome(successor, now)
        else:  # pragma: no cover - table typo guard
            raise ValueError(f"unknown event {event!r}")


def data_flow(harness: Harness) -> list[tuple]:
    """The data-plane payload sequence: (t, src, dst, type, task, extra).

    ``extra`` is the assign attempt or the confirm ``t_visit`` (``None``
    for rejects) — enough to pin the protocol conversation exactly while
    leaving transport envelopes to :func:`test_happy_path_wire_trace`.
    """
    flow = []
    for stamp, topic, data in harness.trace:
        parts = topic.split("/")
        if len(parts) == 5 and parts[4] == "data":
            payload = data["data"]
            extra = payload.get("attempt", payload.get("t_visit"))
            flow.append(
                (stamp, parts[2], parts[3], payload["type"], payload["task"], extra)
            )
    return flow


def task_dict(
    poi_id: str,
    pos: list[float],
    t_detected: float,
    state: str,
    leader: str | None,
    attempts: int,
    assignments: list[tuple[float, str, float | None, str | None]],
    t_serviced: float | None,
    detected_by: str = "lead00",
    owner: str | None = None,
    orphan_reason: str | None = None,
) -> dict:
    return {
        "poi_id": poi_id,
        "pos": pos,
        "t_detected": t_detected,
        "detected_by": detected_by,
        "state": state,
        "owner": owner,
        "leader": leader,
        "attempts": attempts,
        "assignments": [
            {"t_assign": a, "follower": f, "t_closed": c, "outcome": o}
            for a, f, c, o in assignments
        ],
        "t_serviced": t_serviced,
        "orphan_reason": orphan_reason,
    }


@dataclass
class Case:
    """One scripted conformance scenario and its exact expectations."""

    id: str
    script: dict[int, list[tuple]]
    horizon: int
    flow: list[tuple]
    ledger: dict[str, dict]
    followers: tuple[str, ...] = ("f00_00", "f00_01")
    extra_leaders: tuple[str, ...] = ()
    config: SwarmProtocolConfig | None = None
    #: Leader/follower counter subsets that must match exactly.
    leader_counters: dict[str, dict[str, int]] = field(default_factory=dict)
    follower_counters: dict[str, dict[str, int]] = field(default_factory=dict)


CASES = [
    Case(
        id="assign-ack-visit-confirm",
        script={
            1: [("detect", "lead00", "poi00001", (10.0, 20.0))],
            3: [("arrive", "f00_00")],
        },
        horizon=6,
        flow=[
            (1.0, "lead00", "f00_00", "assign", "poi00001", 1),
            (5.0, "f00_00", "lead00", "confirm", "poi00001", 5.0),
        ],
        ledger={
            "poi00001": task_dict(
                "poi00001", [10.0, 20.0], 1.0, TaskState.SERVICED, "lead00",
                attempts=1,
                assignments=[(1.0, "f00_00", 5.0, "confirmed")],
                t_serviced=5.0,
            ),
        },
        leader_counters={
            "lead00": {
                "assigns": 1, "reassigns": 0, "timeouts": 0, "confirms": 1,
                "rejects": 0, "follower_deaths": 0, "duplicate_confirms": 0,
            }
        },
        follower_counters={
            "f00_00": {"assigns_taken": 1, "confirms_sent": 1, "busy_rejects": 0},
        },
    ),
    Case(
        # A single overloaded follower: task A times out while the
        # follower is still enroute, the backlogged B bounces off it with
        # busy-rejects until A completes, and both land eventually. Pins
        # the timeout outcome, the bounded backoff eligibility, and the
        # retransmitted-assign ignore (A reassigned to its own visitor).
        id="timeout-reassign-and-busy-reject",
        followers=("f00_00",),
        config=SwarmProtocolConfig(
            task_timeout_s=3.0, reassign_backoff_s=2.0, reassign_backoff_max_s=8.0
        ),
        script={
            1: [("detect", "lead00", "poi00001", (10.0, 10.0))],
            2: [("detect", "lead00", "poi00002", (20.0, 20.0))],
            7: [("arrive", "f00_00")],
            11: [("arrive", "f00_00")],
        },
        horizon=14,
        flow=[
            (1.0, "lead00", "f00_00", "assign", "poi00001", 1),
            (5.0, "lead00", "f00_00", "assign", "poi00002", 1),
            (5.0, "f00_00", "lead00", "reject", "poi00002", None),
            (6.0, "lead00", "f00_00", "assign", "poi00002", 2),
            (6.0, "f00_00", "lead00", "reject", "poi00002", None),
            (7.0, "lead00", "f00_00", "assign", "poi00001", 2),
            (9.0, "f00_00", "lead00", "confirm", "poi00001", 9.0),
            (10.0, "lead00", "f00_00", "assign", "poi00002", 3),
            (13.0, "f00_00", "lead00", "confirm", "poi00002", 13.0),
        ],
        ledger={
            "poi00001": task_dict(
                "poi00001", [10.0, 10.0], 1.0, TaskState.SERVICED, "lead00",
                attempts=2,
                assignments=[
                    (1.0, "f00_00", 5.0, "timeout"),
                    (7.0, "f00_00", 9.0, "confirmed"),
                ],
                t_serviced=9.0,
            ),
            "poi00002": task_dict(
                "poi00002", [20.0, 20.0], 2.0, TaskState.SERVICED, "lead00",
                attempts=3,
                assignments=[
                    (5.0, "f00_00", 5.0, "timeout"),
                    (6.0, "f00_00", 6.0, "timeout"),
                    (10.0, "f00_00", 13.0, "confirmed"),
                ],
                t_serviced=13.0,
            ),
        },
        leader_counters={
            "lead00": {
                "assigns": 5, "reassigns": 3, "timeouts": 1, "rejects": 2,
                "confirms": 2, "follower_deaths": 0, "duplicate_confirms": 0,
                "stale_confirms": 0,
            }
        },
        follower_counters={
            "f00_00": {
                "assigns_taken": 2, "busy_rejects": 2, "confirms_sent": 2,
                "aborted_visits": 0,
            },
        },
    ),
    Case(
        # Follower dies mid-visit (after arrival, before the dwell
        # completes): its heartbeat goes silent, the leader declares it
        # dead, and the task returns to the pool and is re-assigned.
        id="follower-death-mid-visit",
        script={
            1: [("detect", "lead00", "poi00001", (10.0, 10.0))],
            2: [("arrive", "f00_00")],
            3: [("kill", "f00_00")],
            18: [("arrive", "f00_01")],
        },
        horizon=21,
        flow=[
            (1.0, "lead00", "f00_00", "assign", "poi00001", 1),
            (17.0, "lead00", "f00_01", "assign", "poi00001", 2),
            (20.0, "f00_01", "lead00", "confirm", "poi00001", 20.0),
        ],
        ledger={
            "poi00001": task_dict(
                "poi00001", [10.0, 10.0], 1.0, TaskState.SERVICED, "lead00",
                attempts=2,
                assignments=[
                    (1.0, "f00_00", 17.0, "follower_lost"),
                    (17.0, "f00_01", 20.0, "confirmed"),
                ],
                t_serviced=20.0,
            ),
        },
        leader_counters={
            "lead00": {
                "assigns": 2, "reassigns": 1, "timeouts": 0,
                "follower_deaths": 1, "confirms": 1,
            }
        },
        follower_counters={
            "f00_01": {"assigns_taken": 1, "confirms_sent": 1},
        },
    ),
    Case(
        # Leader demotion mid-mission: open assignments close as
        # "rehome", every pending task transfers to the successor, the
        # followers abort their visits and re-home, and the successor
        # finishes the whole backlog.
        id="leader-demotion-rehomes-followers",
        extra_leaders=("lead01",),
        script={
            1: [
                ("detect", "lead00", "poi00001", (10.0, 10.0)),
                ("detect", "lead00", "poi00002", (20.0, 20.0)),
            ],
            2: [("detect", "lead00", "poi00003", (30.0, 30.0))],
            3: [("demote", "lead00", "lead01")],
            5: [("arrive", "f00_00"), ("arrive", "f00_01")],
            9: [("arrive", "f00_00")],
        },
        horizon=12,
        flow=[
            (1.0, "lead00", "f00_00", "assign", "poi00001", 1),
            (1.0, "lead00", "f00_01", "assign", "poi00002", 1),
            (3.0, "lead01", "f00_00", "assign", "poi00001", 2),
            (3.0, "lead01", "f00_01", "assign", "poi00002", 2),
            (7.0, "f00_00", "lead01", "confirm", "poi00001", 7.0),
            (7.0, "f00_01", "lead01", "confirm", "poi00002", 7.0),
            (8.0, "lead01", "f00_00", "assign", "poi00003", 1),
            (11.0, "f00_00", "lead01", "confirm", "poi00003", 11.0),
        ],
        ledger={
            "poi00001": task_dict(
                "poi00001", [10.0, 10.0], 1.0, TaskState.SERVICED, "lead01",
                attempts=2,
                assignments=[
                    (1.0, "f00_00", 3.0, "rehome"),
                    (3.0, "f00_00", 7.0, "confirmed"),
                ],
                t_serviced=7.0,
            ),
            "poi00002": task_dict(
                "poi00002", [20.0, 20.0], 1.0, TaskState.SERVICED, "lead01",
                attempts=2,
                assignments=[
                    (1.0, "f00_01", 3.0, "rehome"),
                    (3.0, "f00_01", 7.0, "confirmed"),
                ],
                t_serviced=7.0,
            ),
            "poi00003": task_dict(
                "poi00003", [30.0, 30.0], 2.0, TaskState.SERVICED, "lead01",
                attempts=1,
                assignments=[(8.0, "f00_00", 11.0, "confirmed")],
                t_serviced=11.0,
            ),
        },
        leader_counters={
            "lead00": {"assigns": 2, "confirms": 0},
            "lead01": {"adoptions": 2, "assigns": 3, "reassigns": 2, "confirms": 3},
        },
        follower_counters={
            "f00_00": {
                "rehomes": 1, "aborted_visits": 1,
                "assigns_taken": 3, "confirms_sent": 2,
            },
            "f00_01": {
                "rehomes": 1, "aborted_visits": 1,
                "assigns_taken": 2, "confirms_sent": 1,
            },
        },
    ),
    Case(
        # False-death rejoin: a follower goes silent long enough to be
        # dropped (channel torn down leader-side) but is still alive.
        # Its next heartbeat triggers the rejoin handshake — both
        # endpoints restart their sequence space together, and a later
        # assignment flows normally instead of deadlocking on mismatched
        # stream state.
        id="rejoin-after-false-death",
        followers=("f00_00",),
        script={
            2: [("pause", "f00_00")],
            18: [("resume", "f00_00")],
            19: [("detect", "lead00", "poi00001", (10.0, 10.0))],
            20: [("arrive", "f00_00")],
        },
        horizon=22,
        flow=[
            (19.0, "lead00", "f00_00", "assign", "poi00001", 1),
            (22.0, "f00_00", "lead00", "confirm", "poi00001", 22.0),
        ],
        ledger={
            "poi00001": task_dict(
                "poi00001", [10.0, 10.0], 19.0, TaskState.SERVICED, "lead00",
                attempts=1,
                assignments=[(19.0, "f00_00", 22.0, "confirmed")],
                t_serviced=22.0,
            ),
        },
        leader_counters={
            "lead00": {
                "follower_deaths": 1, "rejoins_sent": 1, "adoptions": 2,
                "assigns": 1, "confirms": 1,
            }
        },
        follower_counters={
            "f00_00": {
                "rejoins": 1, "rehomes": 1, "assigns_taken": 1,
                "confirms_sent": 1, "aborted_visits": 0,
            },
        },
    ),
]


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_conformance(case: Case):
    harness = Harness(
        followers=case.followers,
        config=case.config,
        extra_leaders=case.extra_leaders,
        script=case.script,
    )
    harness.run(case.horizon)
    assert data_flow(harness) == case.flow
    assert harness.ledger.to_dict() == case.ledger
    for leader, expected in case.leader_counters.items():
        actual = {k: harness.leaders[leader].counters[k] for k in expected}
        assert actual == expected, f"{case.id}: {leader} counters"
    for fid, expected in case.follower_counters.items():
        actual = {k: harness.followers[fid].counters[k] for k in expected}
        assert actual == expected, f"{case.id}: {fid} counters"


def test_happy_path_wire_trace():
    """The full transport record — envelopes, acks, heartbeats — exactly."""
    harness = Harness(
        script={
            1: [("detect", "lead00", "poi00001", (10.0, 20.0))],
            3: [("arrive", "f00_00")],
        }
    )
    harness.run(6)
    assign = {
        "type": "assign", "task": "poi00001", "pos": [10.0, 20.0], "attempt": 1
    }
    confirm = {"type": "confirm", "task": "poi00001", "t_visit": 5.0}
    assert harness.trace == [
        (1.0, "/swarm/lead00/f00_00/data", {"seq": 0, "data": assign}),
        (1.0, "/swarm/lead00/f00_00/ack", {"seq": 0}),
        (1.0, "/swarm/hb/lead00", {"from": "f00_00", "t": 1.0}),
        (1.0, "/swarm/hb/lead00", {"from": "f00_01", "t": 1.0}),
        (5.0, "/swarm/f00_00/lead00/data", {"seq": 0, "data": confirm}),
        (5.0, "/swarm/f00_00/lead00/ack", {"seq": 0}),
        (6.0, "/swarm/hb/lead00", {"from": "f00_00", "t": 6.0}),
        (6.0, "/swarm/hb/lead00", {"from": "f00_01", "t": 6.0}),
    ]


def test_duplicate_assign_retransmit_is_idempotent():
    """A replayed assign is re-acked (lost-ack recovery) but not re-taken."""
    harness = Harness(
        script={1: [("detect", "lead00", "poi00001", (10.0, 20.0))]}
    )
    harness.run(2)
    harness.bus.publish(
        "/swarm/lead00/f00_00/data",
        {
            "seq": 0,
            "data": {
                "type": "assign", "task": "poi00001",
                "pos": [10.0, 20.0], "attempt": 1,
            },
        },
        sender="lead00",
    )
    follower = harness.followers["f00_00"]
    assert follower.state == FollowerState.ENROUTE
    assert follower.current_task == "poi00001"
    assert follower.counters["assigns_taken"] == 1
    assert follower.counters["busy_rejects"] == 0
    assert follower.channel.stats.duplicates == 1
    assert harness.ledger.get("poi00001").attempts == 1
    acks = [d for _, t, d in harness.trace if t == "/swarm/lead00/f00_00/ack"]
    assert acks == [{"seq": 0}, {"seq": 0}]


def test_duplicate_confirm_is_idempotent():
    """A second confirm for booked work counts as duplicate, changes nothing."""
    harness = Harness(
        script={
            1: [("detect", "lead00", "poi00001", (10.0, 20.0))],
            3: [("arrive", "f00_00")],
        }
    )
    harness.run(6)
    before = harness.ledger.to_dict()
    harness.followers["f00_00"].channel.send(
        {"type": "confirm", "task": "poi00001", "t_visit": 6.0}, 6.0
    )
    assert harness.leaders["lead00"].counters["duplicate_confirms"] == 1
    assert harness.ledger.to_dict() == before


def test_duplicate_ack_is_ignored():
    harness = Harness(
        script={1: [("detect", "lead00", "poi00001", (10.0, 20.0))]}
    )
    harness.run(2)
    channel = harness.leaders["lead00"]._slots["f00_00"].channel
    assert channel.stats.acked == 1
    assert not channel._pending
    harness.bus.publish("/swarm/lead00/f00_00/ack", {"seq": 0}, sender="f00_00")
    assert channel.stats.acked == 1
    assert not channel._pending


def test_stale_confirm_after_timeout_is_ignored():
    """A confirm racing its own timeout is counted, not double-booked."""
    harness = Harness(
        followers=("f00_00",),
        config=SwarmProtocolConfig(
            task_timeout_s=3.0, reassign_backoff_s=2.0, reassign_backoff_max_s=8.0
        ),
        script={
            1: [("detect", "lead00", "poi00001", (10.0, 10.0))],
            8: [("arrive", "f00_00")],
        },
    )
    harness.run(5)  # assign at t=1, timeout fires at t=5
    task = harness.ledger.get("poi00001")
    assert task.state == TaskState.PENDING
    assert task.owner is None
    harness.followers["f00_00"].channel.send(
        {"type": "confirm", "task": "poi00001", "t_visit": 5.0}, 5.0
    )
    assert harness.leaders["lead00"].counters["stale_confirms"] == 1
    assert task.state == TaskState.PENDING
    assert task.t_serviced is None
    harness.run(10)  # reassigned at t=7, arrival at 8, confirmed at 10
    assert task.state == TaskState.SERVICED
    assert task.attempts == 2
    assert [a.outcome for a in task.assignments] == ["timeout", "confirmed"]
    assert task.t_serviced == 10.0
