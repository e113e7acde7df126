"""Trace exporters: Chrome trace-event JSON and Prometheus text format.

The Chrome exporter turns a JSONL trace (see
:func:`repro.obs.write_trace`) into the Trace Event Format consumed by
``chrome://tracing`` and Perfetto: spans become complete ("X") events
with microsecond timestamps, structured events become instant ("i")
marks. Lanes (``tid``) are derived from the labels that matter here —
the sample index for campaign traces, the UAV id for single runs — so a
sharded campaign renders one swim-lane per sample.

The Prometheus exporter renders a metrics snapshot in the plain text
exposition format (``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
series for histograms) so standard tooling can scrape a finished run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.metrics import parse_label_key


def _lane(record: dict) -> str:
    """Human-meaningful swim-lane name for a span/event record."""
    labels = record.get("labels") or record.get("payload") or {}
    if "sample" in labels:
        return f"sample {labels['sample']}"
    if "uav" in labels:
        return str(labels["uav"])
    if "scope" in labels:
        return str(labels["scope"])
    return "main"


def chrome_trace(records: Iterable[dict]) -> dict:
    """Convert JSONL trace records into a Chrome trace-event document."""
    trace_events: list[dict] = []
    lanes: dict[tuple[int, str], int] = {}

    def tid_for(pid: int, lane: str) -> int:
        key = (pid, lane)
        if key not in lanes:
            tid = len([k for k in lanes if k[0] == pid])
            lanes[key] = tid
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": tid, "args": {"name": lane},
            })
        return lanes[key]

    for record in records:
        kind = record.get("kind")
        pid = int(record.get("pid", 0))
        if kind == "span":
            tid = tid_for(pid, _lane(record))
            args = dict(record.get("labels", {}))
            if record.get("sim_time") is not None:
                args["sim_time"] = record["sim_time"]
            trace_events.append({
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "X",
                "ts": record["start_s"] * 1e6,
                "dur": record["duration_s"] * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        elif kind == "event":
            tid = tid_for(pid, _lane(record))
            args = dict(record.get("payload", {}))
            if record.get("sim_time") is not None:
                args["sim_time"] = record["sim_time"]
            trace_events.append({
                "name": f"{record['subsystem']}:{record['name']}",
                "cat": record.get("severity", "info"),
                "ph": "i",
                "s": "p",
                "ts": record.get("wall_s", 0.0) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Iterable[dict], path: str | Path) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(records), handle)
        handle.write("\n")
    return path


# ----------------------------------------------------------- prometheus
def _escape(value: str) -> str:
    # Label-value escaping per the text exposition format: backslash,
    # double quote, and line feed — an unescaped newline would split one
    # sample line in two and break every scraper.
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    # HELP text escaping: only backslash and line feed (quotes are legal).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(key: str) -> str:
    labels = parse_label_key(key)
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


#: HELP strings for the metric families the stack emits; anything not
#: listed falls back to a generic line so every family still carries the
#: ``# HELP``/``# TYPE`` pair scrapers expect.
METRIC_HELP = {
    "bus_dropped_total": "Bus deliveries dropped, by reason.",
    "cache_evictions_total": "Unusable result-cache records evicted.",
    "campaign_retries_total": "Campaign sample attempts retried, by failure kind.",
    "campaign_failures_total": "Campaign samples quarantined after exhausting retries.",
}


def _header(lines: list[str], metric: str, kind: str) -> None:
    help_text = METRIC_HELP.get(metric, f"{kind} recorded by repro.obs")
    lines.append(f"# HELP {metric} {_escape_help(help_text)}")
    lines.append(f"# TYPE {metric} {kind}")


def prometheus_text(snapshot: dict) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Every metric family gets a ``# HELP``/``# TYPE`` header and label
    values are escaped (backslash, quote, newline), so the output is
    scrape-valid even for label values derived from error messages.
    Serve it with content type ``text/plain; version=0.0.4``.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _sanitize(name)
        _header(lines, metric, "counter")
        series = snapshot["counters"][name]
        for key in sorted(series):
            lines.append(f"{metric}{_prom_labels(key)} {series[key]:g}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _sanitize(name)
        _header(lines, metric, "gauge")
        series = snapshot["gauges"][name]
        for key in sorted(series):
            lines.append(f"{metric}{_prom_labels(key)} {series[key]:g}")
    for name in sorted(snapshot.get("histograms", {})):
        metric = _sanitize(name)
        _header(lines, metric, "histogram")
        series = snapshot["histograms"][name]
        for key in sorted(series):
            hist = series[key]
            labels = parse_label_key(key)
            cumulative = 0
            for bound, count in zip(hist["bounds"], hist["counts"]):
                cumulative += count
                lines.append(
                    f"{metric}_bucket"
                    f"{_prom_labels(_join(labels, le=f'{float(bound):g}'))}"
                    f" {cumulative}"
                )
            cumulative += hist["counts"][-1]
            lines.append(
                f"{metric}_bucket{_prom_labels(_join(labels, le='+Inf'))}"
                f" {cumulative}"
            )
            lines.append(f"{metric}_sum{_prom_labels(key)} {hist['sum']:g}")
            lines.append(f"{metric}_count{_prom_labels(key)} {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _join(labels: dict, **extra: str) -> str:
    merged = dict(labels)
    merged.update(extra)
    return ",".join(f"{k}={merged[k]}" for k in sorted(merged))
