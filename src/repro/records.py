"""Fast construction of frozen dataclass records on hot paths.

The per-step records (:class:`~repro.geo.GeoPoint`,
:class:`~repro.uav.sensors.GpsFix`, :class:`~repro.uav.uav.Telemetry`,
:class:`~repro.middleware.rosbus.Message`) are frozen dataclasses built
thousands of times per simulated minute. Their generated ``__init__``
funnels every field through ``object.__setattr__``; installing a ready
field dict instead builds the identical object at a fraction of the cost.
"""

from __future__ import annotations

from typing import Any, TypeVar

R = TypeVar("R")

_new = object.__new__
_setattr = object.__setattr__


def frozen_record(cls: type[R], fields: dict[str, Any]) -> R:
    """Build a ``cls`` instance whose attributes are exactly ``fields``.

    Equal to, and hashing like, ``cls(**fields)`` when ``cls`` is a frozen
    dataclass without ``__post_init__`` and ``fields`` names every field
    in declaration order. No defaults are applied and nothing is checked,
    so pass a complete, fresh dict literal: the instance keeps it as its
    attribute dict.
    """
    record = _new(cls)
    _setattr(record, "__dict__", fields)
    return record
