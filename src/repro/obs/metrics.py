"""Labelled metrics with cheap snapshots and cross-process merge.

The registry is process-local and lock-free: the simulation is
single-threaded per process, and the campaign engine's parallelism is
process-level, so concurrency is handled by *merging snapshots* instead
of sharing state. Each pool worker accumulates into its own registry,
the sample record carries a :meth:`MetricsRegistry.snapshot`, and the
parent folds all snapshots with :func:`merge_snapshots` — by
construction the merged result equals what a serial run would have
counted.

Two instrument kinds:

``counter``
    Monotonic sum (messages published, alerts raised). Merge: add.
``histogram``
    Fixed-bound bucketed distribution (latencies, tick durations) with
    sum/count/min/max. Merge: element-wise add.

Label sets are flattened to a canonical ``k=v,k=v`` string (sorted by
key) so snapshots are plain JSON and diff stably in manifests.
"""

from __future__ import annotations

from typing import Iterable, Mapping

#: Log-spaced default bounds (seconds) suiting both per-message bus
#: latencies and whole-phase wall times.
DEFAULT_BOUNDS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0
)


def label_key(labels: Mapping[str, object]) -> str:
    """Canonical flat form of a label set: ``"a=1,b=x"`` (sorted, '' if none)."""
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


def parse_label_key(key: str) -> dict[str, str]:
    """Inverse of :func:`label_key` (values come back as strings)."""
    if not key:
        return {}
    return dict(part.split("=", 1) for part in key.split(","))


class MetricsRegistry:
    """Process-local labelled counters and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, dict[str, float]] = {}
        self._histograms: dict[str, dict[str, dict]] = {}

    # ------------------------------------------------------------- write
    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to the counter ``name{labels}``."""
        series = self._counters.setdefault(name, {})
        key = label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record ``value`` into the histogram ``name{labels}``."""
        series = self._histograms.setdefault(name, {})
        key = label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = {
                "bounds": list(DEFAULT_BOUNDS),
                "counts": [0] * (len(DEFAULT_BOUNDS) + 1),
                "sum": 0.0,
                "count": 0,
                "min": None,
                "max": None,
            }
        bucket = len(hist["bounds"])
        for i, bound in enumerate(hist["bounds"]):
            if value <= bound:
                bucket = i
                break
        hist["counts"][bucket] += 1
        hist["sum"] += value
        hist["count"] += 1
        hist["min"] = value if hist["min"] is None else min(hist["min"], value)
        hist["max"] = value if hist["max"] is None else max(hist["max"], value)

    # -------------------------------------------------------------- read
    def snapshot(self) -> dict:
        """JSON-able deep copy of everything recorded so far."""
        return {
            "counters": {n: dict(s) for n, s in self._counters.items()},
            "histograms": {
                n: {k: {**h, "bounds": list(h["bounds"]),
                        "counts": list(h["counts"])}
                    for k, h in s.items()}
                for n, s in self._histograms.items()
            },
        }

    def clear(self) -> None:
        """Drop every recorded series."""
        self._counters.clear()
        self._histograms.clear()


def empty_snapshot() -> dict:
    """The snapshot of a registry that recorded nothing."""
    return {"counters": {}, "histograms": {}}


def _merge_hist(into: dict, hist: dict) -> None:
    if into["bounds"] != hist["bounds"]:
        raise ValueError(
            f"cannot merge histograms with bounds {into['bounds']} "
            f"vs {hist['bounds']}"
        )
    into["counts"] = [a + b for a, b in zip(into["counts"], hist["counts"])]
    into["sum"] += hist["sum"]
    into["count"] += hist["count"]
    for side, fold in (("min", min), ("max", max)):
        if hist[side] is not None:
            into[side] = (
                hist[side] if into[side] is None else fold(into[side], hist[side])
            )


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold worker snapshots into one, as if a single registry had counted.

    Counters and histograms add.
    """
    merged = empty_snapshot()
    for snap in snapshots:
        if not snap:
            continue
        for name, series in snap.get("counters", {}).items():
            out = merged["counters"].setdefault(name, {})
            for key, value in series.items():
                out[key] = out.get(key, 0.0) + value
        for name, series in snap.get("histograms", {}).items():
            out = merged["histograms"].setdefault(name, {})
            for key, hist in series.items():
                if key in out:
                    _merge_hist(out[key], hist)
                else:
                    out[key] = {
                        **hist,
                        "bounds": list(hist["bounds"]),
                        "counts": list(hist["counts"]),
                    }
    return merged
