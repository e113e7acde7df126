"""On-disk result cache for campaign samples.

A sample's cache key is a stable hash of (experiment name, canonical
config JSON, sample seed, code fingerprint). The code fingerprint covers
the source file that defines the sample function plus the experiment's
declared version, so editing the experiment (or bumping its version to
signal a semantic change elsewhere) invalidates exactly that
experiment's entries; re-running an unchanged campaign skips every
completed point.

Layout::

    <cache_dir>/<experiment>/<key>.json   # one completed sample

Each file holds the full sample record (config, seed, result, status,
timings), so a cache hit restores the manifest entry verbatim except for
the ``cached`` flag. Files that fail to parse or that miss a required
record field (foreign files, partial writes, records from an older
schema) are evicted and treated as misses — with an obs counter/event so
silent re-runs are visible — rather than crashing the campaign.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs import OBS, event

# Bump to invalidate every experiment's cache at once (harness semantics
# change, e.g. a different seed-derivation scheme).
HARNESS_CACHE_VERSION = "1"

#: Fields every usable cached sample record must carry. Records written
#: before a field became required (older schema) are treated as misses.
RECORD_REQUIRED_FIELDS = (
    "index",
    "seed",
    "config",
    "result",
    "status",
    "attempts",
    "wall_time_s",
    "worker",
    "cached",
    "timings",
)


def is_complete_record(record: Any) -> bool:
    """Whether ``record`` carries every required sample-record field."""
    return isinstance(record, dict) and all(
        name in record for name in RECORD_REQUIRED_FIELDS
    )


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """Stable short hex digest of any JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:24]


def code_fingerprint(sample_fn: Any, version: str = "1") -> str:
    """Hash of the sample function's defining source file + version.

    Falls back to the function's qualified name when the source is
    unavailable (frozen/interactive definitions) — the cache then only
    invalidates via explicit version bumps.
    """
    hasher = hashlib.sha256()
    hasher.update(HARNESS_CACHE_VERSION.encode())
    hasher.update(version.encode())
    try:
        source_file = inspect.getsourcefile(sample_fn)
        with open(source_file, "rb") as handle:  # type: ignore[arg-type]
            hasher.update(handle.read())
    except (OSError, TypeError):
        hasher.update(f"{sample_fn.__module__}.{sample_fn.__qualname__}".encode())
    return hasher.hexdigest()[:24]


def sample_key(experiment: str, config: dict, seed: int, code: str) -> str:
    """The cache key of one (experiment, config, seed, code) point."""
    return stable_hash(
        {"experiment": experiment, "config": config, "seed": seed, "code": code}
    )


@dataclass
class ResultCache:
    """Directory-backed store of completed sample records."""

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, experiment: str, key: str) -> Path:
        return self.root / experiment / f"{key}.json"

    def _evict(self, path: Path, experiment: str, reason: str) -> None:
        """Drop an unusable cache file; make the silent re-run visible."""
        try:
            path.unlink()
        except OSError:
            pass
        if OBS.enabled:
            OBS.metrics.inc(
                "cache_evictions_total", experiment=experiment, reason=reason
            )
        event(
            "warning", "harness.cache", "cache_evicted",
            experiment=experiment, reason=reason, entry=path.name,
        )

    def get(self, experiment: str, key: str) -> dict | None:
        """The cached record for ``key``, or None on miss.

        Corrupt files and records missing a required field (written by an
        older schema, or not sample records at all) are evicted and
        reported as misses instead of crashing the campaign.
        """
        path = self._path(experiment, key)
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            self._evict(path, experiment, "corrupt")
            return None
        if not is_complete_record(record):
            self._evict(path, experiment, "schema")
            return None
        return record

    def put(self, experiment: str, key: str, record: dict) -> None:
        """Durably persist ``record`` (write-to-temp + fsync + rename).

        The fsync before the rename matters: without it a crash (or
        SIGKILL) shortly after ``put`` returns can leave the *renamed*
        file truncated — the pathological case where the corrupt-record
        eviction path silently discards completed work on resume. With
        it, the rename only ever publishes fully-written bytes.
        """
        path = self._path(experiment, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def count(self, experiment: str) -> int:
        """Number of valid cached sample records for ``experiment``.

        Foreign, partial, or schema-incomplete ``*.json`` files in the
        experiment directory are not counted (and left untouched).
        """
        directory = self.root / experiment
        if not directory.is_dir():
            return 0
        valid = 0
        for path in directory.iterdir():
            if path.suffix != ".json":
                continue
            try:
                with open(path, encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if is_complete_record(record):
                valid += 1
        return valid
