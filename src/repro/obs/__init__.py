"""``repro.obs`` — unified observability: metrics, spans, structured events.

One process-local session (:data:`OBS`) holds a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.trace.Tracer`, and an
:class:`~repro.obs.events.EventLog` behind a single enable switch.
Instrumented code either guards with ``if OBS.enabled:`` (hot paths —
one attribute load and a branch when off) or calls the module-level
helpers :func:`span` and :func:`event`, which collapse to a cached no-op
when disabled. Nothing is ever recorded unless something turned the
session on, so an uninstrumented-feeling zero-cost default is the normal
state of the world.

Typical use::

    from repro import obs

    with obs.capture(trace_path="run.jsonl"):
        run_experiment()
    # run.jsonl now holds spans, events, and a final metrics snapshot

    text = obs.summarize_trace("run.jsonl")   # human-readable report

Campaign workers each run inside :func:`isolated` sessions; their
snapshots fold back together with
:func:`~repro.obs.metrics.merge_snapshots` (see
:mod:`repro.harness.campaign`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.trace import Tracer

__all__ = [
    "OBS",
    "ObsSession",
    "MetricsRegistry",
    "merge_snapshots",
    "reset",
    "span",
    "timed_span",
    "event",
    "isolated",
    "capture",
    "collect",
    "write_trace",
    "read_trace",
    "summarize_trace",
]

TRACE_SCHEMA_VERSION = 1


class ObsSession:
    """The bundle of instruments behind one enable switch."""

    __slots__ = ("enabled", "metrics", "tracer", "events")

    def __init__(self) -> None:
        self.enabled = False
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.events = EventLog()

    def clear(self) -> None:
        """Forget everything recorded; keeps the enabled flag."""
        self.metrics.clear()
        self.tracer.clear()
        self.events.clear()

    def collect(self) -> dict:
        """Drain spans/events and snapshot metrics into one payload."""
        return {
            "spans": self.tracer.drain(),
            "events": self.events.drain(),
            "metrics": self.metrics.snapshot(),
        }


#: The process-local session every instrumented call site consults.
OBS = ObsSession()


def reset() -> None:
    """Disable and drop everything recorded so far."""
    OBS.enabled = False
    OBS.clear()


class _NullSpan:
    """Reusable, stateless no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, sim_time: float | None = None, **labels: object):
    """A recorded span when the session is on; a cached no-op when off."""
    if not OBS.enabled:
        return _NULL_SPAN
    return OBS.tracer.span(name, sim_time=sim_time, **labels)


def timed_span(name: str, sim_time: float | None = None, **labels: object):
    """A span that always measures its duration.

    It lands in the tracer only when the session is enabled — callers
    that need elapsed time unconditionally (the campaign phase timer)
    use this so timing logic lives in exactly one place.
    """
    if not OBS.enabled:
        return OBS.tracer.timed(name, sim_time=sim_time, **labels)
    return OBS.tracer.span(name, sim_time=sim_time, **labels)


def event(severity: str, subsystem: str, name: str,
          sim_time: float | None = None, **payload: object) -> None:
    """Emit a structured event; no-op when the session is off."""
    if not OBS.enabled:
        return
    OBS.events.emit(
        severity, subsystem, name, sim_time=sim_time,
        wall_s=time.perf_counter() - OBS.tracer.epoch, **payload,
    )


def collect() -> dict:
    """Drain the global session (spans, events, metrics snapshot)."""
    return OBS.collect()


@contextmanager
def isolated(enabled: bool = True):
    """Swap in a fresh session for the duration of the block.

    Everything the block records is private to it; the previous
    session's instruments and enabled flag are restored afterwards.
    Collect the payload *inside* the block (``session.collect()``) or
    keep a reference to the yielded session. Nests cleanly — campaign
    workers use one per sample.
    """
    previous = (OBS.enabled, OBS.metrics, OBS.tracer, OBS.events)
    OBS.metrics = MetricsRegistry()
    OBS.tracer = Tracer()
    OBS.events = EventLog()
    OBS.enabled = enabled
    try:
        yield OBS
    finally:
        OBS.enabled, OBS.metrics, OBS.tracer, OBS.events = previous


@contextmanager
def capture(trace_path: str | Path | None = None, meta: dict | None = None):
    """Record everything in the block; optionally write a JSONL trace.

    Runs in an isolated session, so surrounding state is untouched.
    Yields a dict that gains a ``"payload"`` key (spans, events, metrics
    snapshot) when the block exits; when ``trace_path`` is given the
    payload is also written there as a JSONL trace.
    """
    holder: dict = {}
    with isolated(enabled=True) as session:
        try:
            yield holder
        finally:
            holder["payload"] = session.collect()
    if trace_path is not None:
        write_trace(trace_path, holder["payload"], meta=meta)


# ------------------------------------------------------------ JSONL trace
def write_trace(path: str | Path, payload: dict, meta: dict | None = None,
                append: bool = False) -> Path:
    """Write one obs payload as JSONL (meta, spans, events, metrics)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as handle:
        if not append:
            header = {"kind": "meta", "schema_version": TRACE_SCHEMA_VERSION}
            header.update(meta or {})
            handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in payload.get("spans", ()):
            handle.write(json.dumps({"kind": "span", **record},
                                    sort_keys=True) + "\n")
        for record in payload.get("events", ()):
            handle.write(json.dumps({"kind": "event", **record},
                                    sort_keys=True) + "\n")
        metrics = payload.get("metrics")
        if metrics is not None:
            handle.write(json.dumps({"kind": "metrics", "snapshot": metrics},
                                    sort_keys=True) + "\n")
    return path


def read_trace(path: str | Path) -> list[dict]:
    """Load every record of a JSONL trace file."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not valid JSONL: {exc}"
                ) from exc
    return records


def summarize_trace(path: str | Path) -> str:
    """Human-readable report of a trace file (see :mod:`repro.obs.summary`)."""
    from repro.obs.summary import render_summary

    return render_summary(read_trace(path))
