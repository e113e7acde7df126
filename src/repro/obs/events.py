"""Structured event log: the discrete, narratable things that happened.

Where metrics answer "how many / how long" and spans answer "where did
the time go", events answer "what happened, when (in sim time), and with
what payload" — guarantee transitions, fault activations, IDS alerts,
staleness demotions. Each event carries a severity, the emitting
subsystem, the simulation time, and a JSON-able payload; the log is a
bounded in-memory list that the session flushes to the JSONL trace sink.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: Accepted severities, mildest first.
SEVERITIES = ("debug", "info", "warning", "error")


@dataclass(frozen=True)
class Event:
    """One structured event."""

    severity: str
    subsystem: str
    name: str
    sim_time: float | None
    wall_s: float  # offset from the session tracer epoch
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "subsystem": self.subsystem,
            "name": self.name,
            "sim_time": self.sim_time,
            "wall_s": round(self.wall_s, 9),
            "payload": dict(self.payload),
        }


class EventLog:
    """Bounded chronological event record."""

    def __init__(self, capacity: int = 200_000) -> None:
        self.capacity = capacity
        self.events: list[Event] = []
        self.dropped = 0

    def emit(self, severity: str, subsystem: str, name: str,
             sim_time: float | None = None, wall_s: float = 0.0,
             **payload: object) -> None:
        """Append one event (oldest-beyond-capacity are counted, not kept)."""
        if severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {severity!r}"
            )
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(
            Event(severity=severity, subsystem=subsystem, name=name,
                  sim_time=sim_time, wall_s=wall_s, payload=dict(payload))
        )

    def drain(self) -> list[dict]:
        """Return all events as dicts and forget them."""
        out = [e.to_dict() for e in self.events]
        for record in out:
            record["pid"] = os.getpid()
        self.events.clear()
        return out

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)
