"""Campaign run manifests: the audit trail of a sweep.

A manifest is one JSON document describing everything needed to audit or
reproduce a campaign:

.. code-block:: text

    {
      "schema_version": 3,
      "experiment":  "monte-carlo",
      "grid":        "smoke",
      "root_seed":   17,
      "workers":     4,
      "code":        "<fingerprint>",
      "totals":      {"samples": N, "cached": C, "failed": F, "wall_s": ...},
      "campaign_timings": {"grid": {...}, "execute": {...}, ...},
      "samples": [
        {"index": 0, "seed": ..., "config": {...}, "result": {...},
         "status": "ok", "attempts": 1,
         "wall_time_s": ..., "worker": "...", "cached": false,
         "timings": {"simulate": {"calls": 1, "total_s": ...}}},
        ...
      ]
    }

Schema version 2 added per-sample fault-tolerance fields: ``status``
(``"ok"`` or ``"failed"``), ``attempts`` (retries count), an ``error``
object on quarantined samples (``kind``/``type``/``message``), and the
``failed`` total. Schema version 3 added the optional per-sample
``oracles`` block — the property-oracle verdict
(:mod:`repro.harness.oracles`) lifted out of the sample result by the
runner; absent on samples whose experiment runs no oracles.

``index``, ``seed``, ``config``, ``result``, ``status`` and ``oracles``
are deterministic — identical for the same (experiment, grid, root seed)
at any worker count, with retries re-running on the sample's original
seed. ``wall_time_s``, ``worker``, ``cached``, ``attempts``, ``error``
and the timing counters are provenance, not results;
:func:`manifest_fingerprint` hashes only the deterministic subset, which
is what the serial-vs-parallel equivalence guarantee (and its regression
test) is stated over.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.cache import stable_hash

MANIFEST_SCHEMA_VERSION = 3

#: Per-sample fields that identify the *result*, not the run that made it.
DETERMINISTIC_SAMPLE_FIELDS = (
    "index", "seed", "config", "result", "status", "oracles",
)

#: Defaults for deterministic fields older schemas did not write.
_FIELD_DEFAULTS = {"status": "ok", "oracles": None}


def deterministic_view(manifest: dict) -> dict:
    """The scheduling-independent subset of a manifest.

    Tolerates older-schema manifests (no per-sample ``status`` or
    ``oracles``) by filling the fields' defaults.
    """
    return {
        "schema_version": manifest["schema_version"],
        "experiment": manifest["experiment"],
        "grid": manifest["grid"],
        "root_seed": manifest["root_seed"],
        "samples": [
            {
                field: sample.get(field, _FIELD_DEFAULTS[field])
                if field in _FIELD_DEFAULTS else sample[field]
                for field in DETERMINISTIC_SAMPLE_FIELDS
            }
            for sample in manifest["samples"]
        ],
    }


def manifest_fingerprint(manifest: dict) -> str:
    """Stable hash of the deterministic subset of ``manifest``.

    Two campaigns agree on this fingerprint iff they produced identical
    results sample-for-sample — regardless of worker count, scheduling
    order, cache hits, retries, or how long anything took.
    """
    return stable_hash(deterministic_view(manifest))


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Write ``manifest`` as stable, human-diffable JSON; returns path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

