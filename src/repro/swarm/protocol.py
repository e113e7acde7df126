"""Leader–follower tasking protocol: state machines + deterministic ledger.

The protocol is deliberately *pure*: leaders and followers exchange
messages over whatever bus they are handed (in production a
:class:`~repro.middleware.degraded.DegradedBus` whose links encode comm
radius and loss) and never touch physics. Motion enters through two
narrow call-ins — the simulation tells a follower :meth:`when it arrived
<FollowerProtocol.arrived>` at its task, and tells a leader :meth:`what
it detected <LeaderProtocol.note_task>`. Everything else — assignment,
ACKs, retransmission, timeout/re-assign with bounded backoff, liveness
via heartbeats, re-homing after demotion — is message-driven, which is
what makes the conformance suite (``tests/test_swarm_protocol.py``) able
to pin the exact message sequences.

Wire format (all payloads are plain JSON-able dicts):

``/swarm/<src>/<dst>/data`` + ``…/ack``
    The per-pair :class:`~repro.middleware.reliable.ReliableChannel`
    streams. Leader→follower carries ``{"type": "assign", "task", "pos",
    "attempt"}``; follower→leader carries ``{"type": "confirm", "task",
    "t_visit"}`` and ``{"type": "reject", "task"}``.
``/swarm/hb/<leader>``
    Fire-and-forget follower heartbeats ``{"from", "t"}`` — loss here is
    a *signal* (sustained silence ⇒ the leader declares the follower
    dead and returns its task to the pool).
``/swarm/ctl/<leader>``
    Adoption control: ``{"type": "hello", "from", "t"}`` published by a
    follower re-homing to a surviving leader; the leader answers by
    opening a fresh reliable channel pair.
``/swarm/ctl/f/<follower>``
    Rejoin control: a leader hearing heartbeats from a follower it does
    not know (it declared the follower dead during an out-of-range
    excursion and tore the channel down) answers ``{"type": "rejoin",
    "leader"}``; the follower resets its channel and re-hellos, so both
    endpoints restart their sequence space together instead of
    deadlocking on mismatched stream state.

Determinism: every iteration over followers or tasks is explicitly
sorted, timeouts fire in poi-id order, and the ledger serializes with
sorted keys — so one seed produces one byte-exact ledger at any worker
count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.middleware.reliable import ReliableChannel
from repro.middleware.rosbus import Message, RosBus, Subscription
from repro.obs import OBS


class TaskState:
    """Ledger states for a visit task (plain strings: JSON-friendly)."""

    PENDING = "pending"
    ASSIGNED = "assigned"
    SERVICED = "serviced"
    ORPHANED = "orphaned"


class FollowerState:
    """Follower behavior states."""

    LOITER = "loiter"
    ENROUTE = "enroute"
    VISITING = "visiting"


@dataclass
class SwarmProtocolConfig:
    """Timing knobs shared by both roles of the tasking protocol."""

    task_timeout_s: float = 20.0
    reassign_backoff_s: float = 5.0
    reassign_backoff_max_s: float = 40.0
    follower_dead_after_s: float = 15.0
    heartbeat_s: float = 5.0
    visit_dwell_s: float = 2.0
    retry_after_s: float = 0.5
    max_backoff_s: float = 4.0
    link_down_after_s: float = 6.0

    def channel(self, bus: RosBus, local: str, peer: str, **kwargs: Any) -> ReliableChannel:
        """A reliable channel endpoint with this config's retransmit knobs."""
        return ReliableChannel(
            bus=bus,
            local=local,
            peer=peer,
            name="swarm",
            retry_after_s=self.retry_after_s,
            max_backoff_s=self.max_backoff_s,
            link_down_after_s=self.link_down_after_s,
            **kwargs,
        )


@dataclass
class Assignment:
    """One open-or-closed interval during which a follower owned a task."""

    t_assign: float
    follower: str
    t_closed: float | None = None
    outcome: str | None = None  # confirmed | timeout | follower_lost | rehome | horizon

    def to_dict(self) -> dict[str, Any]:
        return {
            "t_assign": self.t_assign,
            "follower": self.follower,
            "t_closed": self.t_closed,
            "outcome": self.outcome,
        }


@dataclass
class Task:
    """Ledger entry for one detected point of interest."""

    poi_id: str
    pos: tuple[float, float]
    t_detected: float
    detected_by: str
    state: str = TaskState.PENDING
    owner: str | None = None
    leader: str | None = None
    attempts: int = 0
    next_eligible_s: float = 0.0
    assignments: list[Assignment] = field(default_factory=list)
    t_serviced: float | None = None
    orphan_reason: str | None = None

    @property
    def service_latency_s(self) -> float | None:
        """Detection → confirmed-visit latency; ``None`` until serviced."""
        if self.t_serviced is None:
            return None
        return self.t_serviced - self.t_detected

    def open_assignment(self) -> Assignment | None:
        if self.assignments and self.assignments[-1].t_closed is None:
            return self.assignments[-1]
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "poi_id": self.poi_id,
            "pos": [self.pos[0], self.pos[1]],
            "t_detected": self.t_detected,
            "detected_by": self.detected_by,
            "state": self.state,
            "owner": self.owner,
            "leader": self.leader,
            "attempts": self.attempts,
            "assignments": [a.to_dict() for a in self.assignments],
            "t_serviced": self.t_serviced,
            "orphan_reason": self.orphan_reason,
        }


class SwarmLedger:
    """The shared task ledger — the experiment's measurement surface.

    Leaders mutate it through the protocol; the experiment reads service
    latency, coverage, and orphan accounting out of it. Serialization is
    key-sorted and iteration-order independent, so
    :meth:`fingerprint` is a determinism oracle: same seed ⇒ same hex.
    """

    def __init__(self) -> None:
        self.tasks: dict[str, Task] = {}

    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, poi_id: str) -> bool:
        return poi_id in self.tasks

    def get(self, poi_id: str) -> Task:
        return self.tasks[poi_id]

    def add(self, task: Task) -> None:
        if task.poi_id in self.tasks:
            raise ValueError(f"duplicate task {task.poi_id!r}")
        self.tasks[task.poi_id] = task

    def in_state(self, state: str) -> list[Task]:
        return [self.tasks[k] for k in sorted(self.tasks) if self.tasks[k].state == state]

    def to_dict(self) -> dict[str, Any]:
        return {poi_id: self.tasks[poi_id].to_dict() for poi_id in sorted(self.tasks)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


@dataclass
class _FollowerSlot:
    """Leader-side bookkeeping for one roster member."""

    channel: ReliableChannel
    last_heard: float
    busy_with: str | None = None


class LeaderProtocol:
    """Explorer-leader role: detect, assign, supervise, recover.

    One instance per leader UAV. The leader keeps a roster of followers
    (one reliable channel each), pushes visit tasks to idle followers in
    deterministic order, and claws tasks back when a follower goes
    silent, a visit times out, or the squad is demoted.
    """

    def __init__(
        self,
        bus: RosBus,
        name: str,
        followers: list[str],
        ledger: SwarmLedger,
        config: SwarmProtocolConfig | None = None,
        now: float = 0.0,
    ) -> None:
        self.bus = bus
        self.name = name
        self.ledger = ledger
        self.config = config or SwarmProtocolConfig()
        self.demoted = False
        self.counters = {
            "assigns": 0,
            "reassigns": 0,
            "timeouts": 0,
            "follower_deaths": 0,
            "confirms": 0,
            "duplicate_confirms": 0,
            "stale_confirms": 0,
            "rejects": 0,
            "adoptions": 0,
            "heartbeats": 0,
            "rejoins_sent": 0,
        }
        # poi_ids this leader currently owns (pending or assigned); keeps
        # the per-tick scans O(backlog) instead of O(|ledger|).
        self._active: set[str] = set()
        self._slots: dict[str, _FollowerSlot] = {}
        self._subs: list[Subscription] = [
            bus.subscribe(f"/swarm/hb/{name}", name, self._on_heartbeat),
            bus.subscribe(f"/swarm/ctl/{name}", name, self._on_control),
        ]
        for fid in sorted(followers):
            self._adopt(fid, now)

    # ------------------------------------------------------------ roster
    @property
    def roster(self) -> list[str]:
        return sorted(self._slots)

    def idle_followers(self) -> list[str]:
        return [fid for fid in sorted(self._slots) if self._slots[fid].busy_with is None]

    def _adopt(self, fid: str, now: float) -> None:
        channel = self.config.channel(
            self.bus,
            local=self.name,
            peer=fid,
            on_deliver=lambda seq, data, fid=fid: self._on_deliver(fid, seq, data),
        )
        self._slots[fid] = _FollowerSlot(channel=channel, last_heard=now)
        self.counters["adoptions"] += 1
        if OBS.enabled:
            OBS.metrics.inc("swarm_adoptions_total", leader=self.name)
            obs.event(
                "info", "swarm.leader", "adopt",
                sim_time=now, leader=self.name, follower=fid,
            )

    def _drop_follower(self, fid: str, now: float, reason: str) -> None:
        slot = self._slots.pop(fid)
        slot.channel.close()
        self.counters["follower_deaths"] += 1
        if OBS.enabled:
            OBS.metrics.inc("swarm_follower_deaths_total", leader=self.name)
            obs.event(
                "warning", "swarm.leader", "follower_lost",
                sim_time=now, leader=self.name, follower=fid, reason=reason,
            )
        for task in self._owned_tasks():
            if task.owner == fid:
                self._release(task, now, outcome="follower_lost", eligible_at=now)

    # ------------------------------------------------------------- tasks
    def note_task(self, poi_id: str, pos: tuple[float, float], now: float) -> Task | None:
        """Record a detection; first leader to spot a PoI owns its task."""
        if self.demoted or poi_id in self.ledger:
            return None
        task = Task(
            poi_id=poi_id,
            pos=(float(pos[0]), float(pos[1])),
            t_detected=now,
            detected_by=self.name,
            leader=self.name,
            next_eligible_s=now,
        )
        self.ledger.add(task)
        self._active.add(poi_id)
        if OBS.enabled:
            OBS.metrics.inc("swarm_detections_total", leader=self.name)
            obs.event(
                "info", "swarm.leader", "detect",
                sim_time=now, leader=self.name, poi=poi_id,
            )
        return task

    def accept_task(self, poi_id: str) -> None:
        """Take over a released task (mission-layer transfer after demotion)."""
        task = self.ledger.get(poi_id)
        task.leader = self.name
        self._active.add(poi_id)

    def _owned_tasks(self) -> list[Task]:
        return [self.ledger.tasks[k] for k in sorted(self._active)]

    def _release(
        self, task: Task, now: float, outcome: str, eligible_at: float
    ) -> None:
        opened = task.open_assignment()
        if opened is not None:
            opened.t_closed = now
            opened.outcome = outcome
        fid = task.owner
        if fid is not None and fid in self._slots and self._slots[fid].busy_with == task.poi_id:
            self._slots[fid].busy_with = None
        task.owner = None
        task.state = TaskState.PENDING
        task.next_eligible_s = eligible_at

    def _backoff_for(self, attempts: int) -> float:
        # attempts counts completed assignment attempts; double from the
        # base each retry, capped — so a flapping task converges to a
        # bounded retry rate instead of hammering the pool.
        backoff = self.config.reassign_backoff_s * (2.0 ** max(attempts - 1, 0))
        return min(backoff, self.config.reassign_backoff_max_s)

    # -------------------------------------------------------------- step
    def step(self, now: float) -> None:
        """One protocol tick: retransmits, liveness, timeouts, assignment."""
        if self.demoted:
            return
        for fid in sorted(self._slots):
            self._slots[fid].channel.step(now)
        for fid in sorted(self._slots):
            if now - self._slots[fid].last_heard > self.config.follower_dead_after_s:
                self._drop_follower(fid, now, reason="heartbeat_timeout")
        for task in self._owned_tasks():
            opened = task.open_assignment()
            if (
                task.state == TaskState.ASSIGNED
                and opened is not None
                and now - opened.t_assign > self.config.task_timeout_s
            ):
                self.counters["timeouts"] += 1
                if OBS.enabled:
                    OBS.metrics.inc("swarm_task_timeouts_total", leader=self.name)
                    obs.event(
                        "warning", "swarm.leader", "task_timeout",
                        sim_time=now, leader=self.name, poi=task.poi_id,
                        follower=opened.follower, attempt=task.attempts,
                    )
                self._release(
                    task, now,
                    outcome="timeout",
                    eligible_at=now + self._backoff_for(task.attempts),
                )
        self._assign_pending(now)

    def _assign_pending(self, now: float) -> None:
        pending = [
            t
            for t in self._owned_tasks()
            if t.state == TaskState.PENDING and t.next_eligible_s <= now
        ]
        pending.sort(key=lambda t: (t.t_detected, t.poi_id))
        idle = self.idle_followers()
        for task, fid in zip(pending, idle):
            slot = self._slots[fid]
            task.state = TaskState.ASSIGNED
            task.owner = fid
            task.attempts += 1
            task.assignments.append(Assignment(t_assign=now, follower=fid))
            slot.busy_with = task.poi_id
            slot.channel.send(
                {
                    "type": "assign",
                    "task": task.poi_id,
                    "pos": [task.pos[0], task.pos[1]],
                    "attempt": task.attempts,
                },
                now,
            )
            self.counters["assigns"] += 1
            if task.attempts > 1:
                self.counters["reassigns"] += 1
            if OBS.enabled:
                OBS.metrics.inc("swarm_assigns_total", leader=self.name)
                obs.event(
                    "info", "swarm.leader", "assign",
                    sim_time=now, leader=self.name, poi=task.poi_id,
                    follower=fid, attempt=task.attempts,
                )

    # ----------------------------------------------------------- receive
    def _on_deliver(self, fid: str, seq: int, data: dict[str, Any]) -> None:
        del seq
        slot = self._slots.get(fid)
        if slot is None:
            return
        now = self.bus.clock
        slot.last_heard = now
        kind = data.get("type")
        if kind == "confirm":
            self._on_confirm(fid, data, now)
        elif kind == "reject":
            self.counters["rejects"] += 1
            task = self.ledger.tasks.get(str(data.get("task", "")))
            if task is not None and task.owner == fid and task.state == TaskState.ASSIGNED:
                self._release(task, now, outcome="timeout", eligible_at=now)

    def _on_confirm(self, fid: str, data: dict[str, Any], now: float) -> None:
        poi_id = str(data["task"])
        task = self.ledger.tasks.get(poi_id)
        if task is None:
            return
        if task.state == TaskState.SERVICED:
            # Retransmitted confirm for work already booked: idempotent.
            self.counters["duplicate_confirms"] += 1
            return
        if task.owner != fid:
            # Confirm raced a timeout/re-assign; the visit happened but the
            # ledger has moved on — count it, keep the reassignment.
            self.counters["stale_confirms"] += 1
            if OBS.enabled:
                obs.event(
                    "warning", "swarm.leader", "stale_confirm",
                    sim_time=now, leader=self.name, poi=poi_id, follower=fid,
                )
            return
        opened = task.open_assignment()
        if opened is not None:
            opened.t_closed = now
            opened.outcome = "confirmed"
        task.state = TaskState.SERVICED
        task.owner = None
        task.t_serviced = float(data.get("t_visit", now))
        self._active.discard(poi_id)
        if fid in self._slots and self._slots[fid].busy_with == poi_id:
            self._slots[fid].busy_with = None
        self.counters["confirms"] += 1
        if OBS.enabled:
            OBS.metrics.inc("swarm_confirms_total", leader=self.name)
            OBS.metrics.observe(
                "swarm_service_latency_s", task.t_serviced - task.t_detected
            )
            obs.event(
                "info", "swarm.leader", "confirm",
                sim_time=now, leader=self.name, poi=poi_id, follower=fid,
                latency_s=task.t_serviced - task.t_detected,
            )

    def _on_heartbeat(self, message: Message) -> None:
        fid = str(message.data.get("from", ""))
        slot = self._slots.get(fid)
        if slot is not None:
            slot.last_heard = float(message.data.get("t", self.bus.clock))
            self.counters["heartbeats"] += 1
        elif fid and not self.demoted:
            # A follower we declared dead came back into range. Its old
            # channel is gone on our side — tell it to rejoin so both
            # endpoints restart with fresh sequence state.
            self.counters["rejoins_sent"] += 1
            self.bus.publish(
                f"/swarm/ctl/f/{fid}",
                {"type": "rejoin", "leader": self.name},
                sender=self.name,
            )

    def _on_control(self, message: Message) -> None:
        if self.demoted or message.data.get("type") != "hello":
            return
        fid = str(message.data.get("from", ""))
        now = float(message.data.get("t", self.bus.clock))
        if fid and fid not in self._slots:
            self._adopt(fid, now)
        elif fid in self._slots:
            self._slots[fid].last_heard = now

    # ------------------------------------------------------------ demote
    def demote(self, now: float) -> tuple[list[str], list[str]]:
        """Stand down: release owned tasks, close channels.

        Returns ``(followers, released_poi_ids)`` for the mission layer to
        re-home — the protocol itself never picks a successor; that is a
        squad-ConSert decision (:mod:`repro.core.squad`).
        """
        released: list[str] = []
        for task in self._owned_tasks():
            if task.state == TaskState.ASSIGNED:
                self._release(task, now, outcome="rehome", eligible_at=now)
            if task.state == TaskState.PENDING:
                task.leader = None
                released.append(task.poi_id)
        self._active.clear()
        followers = self.roster
        for fid in followers:
            self._slots[fid].channel.close()
        self._slots.clear()
        for sub in self._subs:
            sub.unsubscribe()
        self._subs.clear()
        self.demoted = True
        if OBS.enabled:
            OBS.metrics.inc("swarm_demotions_total", leader=self.name)
            obs.event(
                "warning", "swarm.leader", "demote",
                sim_time=now, leader=self.name,
                followers=len(followers), released=len(released),
            )
        return followers, released

    def close(self) -> None:
        """Unsubscribe and close every channel; the roster stays readable."""
        for fid in sorted(self._slots):
            self._slots[fid].channel.close()
        for sub in self._subs:
            sub.unsubscribe()
        self._subs.clear()


class FollowerProtocol:
    """Visiting-follower role: loiter, fly out, dwell, confirm.

    The follower is a three-state machine (LOITER → ENROUTE → VISITING →
    LOITER). It never decides anything about tasks beyond "am I free" —
    the leader owns the ledger; the follower owns its legs.
    """

    def __init__(
        self,
        bus: RosBus,
        name: str,
        leader: str,
        config: SwarmProtocolConfig | None = None,
        now: float = 0.0,
    ) -> None:
        self.bus = bus
        self.name = name
        self.leader = leader
        self.config = config or SwarmProtocolConfig()
        self.state = FollowerState.LOITER
        self.current_task: str | None = None
        self.current_pos: tuple[float, float] | None = None
        self.visit_until: float | None = None
        self.counters = {
            "assigns_taken": 0,
            "busy_rejects": 0,
            "confirms_sent": 0,
            "heartbeats_sent": 0,
            "rehomes": 0,
            "rejoins": 0,
            "aborted_visits": 0,
        }
        self._next_heartbeat = now
        self._subs: list[Subscription] = [
            bus.subscribe(f"/swarm/ctl/f/{name}", name, self._on_ctl)
        ]
        self.channel = self.config.channel(
            bus, local=name, peer=leader, on_deliver=self._on_deliver
        )

    # ----------------------------------------------------------- receive
    def _on_deliver(self, seq: int, data: dict[str, Any]) -> None:
        del seq
        if data.get("type") != "assign":
            return
        poi_id = str(data["task"])
        if self.state != FollowerState.LOITER:
            if poi_id == self.current_task:
                return  # retransmitted assign for the task we're already on
            self.counters["busy_rejects"] += 1
            self.channel.send({"type": "reject", "task": poi_id}, self.bus.clock)
            return
        pos = data["pos"]
        self.current_task = poi_id
        self.current_pos = (float(pos[0]), float(pos[1]))
        self.state = FollowerState.ENROUTE
        self.counters["assigns_taken"] += 1
        if OBS.enabled:
            OBS.metrics.inc("swarm_visits_started_total", follower=self.name)
            obs.event(
                "info", "swarm.follower", "enroute",
                sim_time=self.bus.clock, follower=self.name, poi=poi_id,
            )

    # ------------------------------------------------------------ motion
    def arrived(self, now: float) -> None:
        """The simulation says we reached the task position: start dwelling."""
        if self.state != FollowerState.ENROUTE:
            return
        self.state = FollowerState.VISITING
        self.visit_until = now + self.config.visit_dwell_s
        if OBS.enabled:
            obs.event(
                "info", "swarm.follower", "visiting",
                sim_time=now, follower=self.name, poi=self.current_task,
            )

    # -------------------------------------------------------------- step
    def step(self, now: float) -> None:
        """One protocol tick: dwell completion, heartbeat, retransmits."""
        if (
            self.state == FollowerState.VISITING
            and self.visit_until is not None
            and now >= self.visit_until
        ):
            self.channel.send(
                {"type": "confirm", "task": self.current_task, "t_visit": now}, now
            )
            self.counters["confirms_sent"] += 1
            if OBS.enabled:
                OBS.metrics.inc("swarm_visits_done_total", follower=self.name)
                obs.event(
                    "info", "swarm.follower", "confirm",
                    sim_time=now, follower=self.name, poi=self.current_task,
                )
            self.state = FollowerState.LOITER
            self.current_task = None
            self.current_pos = None
            self.visit_until = None
        if now >= self._next_heartbeat:
            self.bus.publish(
                f"/swarm/hb/{self.leader}",
                {"from": self.name, "t": now},
                sender=self.name,
            )
            self.counters["heartbeats_sent"] += 1
            self._next_heartbeat = now + self.config.heartbeat_s
        self.channel.step(now)

    def _on_ctl(self, message: Message) -> None:
        if message.data.get("type") != "rejoin":
            return
        if str(message.data.get("leader", "")) != self.leader:
            return  # stale rejoin from a leader we already moved away from
        self.counters["rejoins"] += 1
        self.rehome(self.leader, self.bus.clock)

    # ------------------------------------------------------------ rehome
    def rehome(self, new_leader: str, now: float) -> None:
        """Abandon the demoted leader and report to a surviving one."""
        if self.state != FollowerState.LOITER:
            self.counters["aborted_visits"] += 1
        self.state = FollowerState.LOITER
        self.current_task = None
        self.current_pos = None
        self.visit_until = None
        self.channel.close()
        self.leader = new_leader
        self.channel = self.config.channel(
            self.bus, local=self.name, peer=new_leader, on_deliver=self._on_deliver
        )
        self.bus.publish(
            f"/swarm/ctl/{new_leader}",
            {"type": "hello", "from": self.name, "t": now},
            sender=self.name,
        )
        self._next_heartbeat = now
        self.counters["rehomes"] += 1
        if OBS.enabled:
            OBS.metrics.inc("swarm_rehomes_total", follower=self.name)
            obs.event(
                "warning", "swarm.follower", "rehome",
                sim_time=now, follower=self.name, leader=new_leader,
            )

    def close(self) -> None:
        self.channel.close()
        for sub in self._subs:
            sub.unsubscribe()
        self._subs.clear()
