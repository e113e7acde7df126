"""The scenario schema: every key of both scenario kinds, declared once.

A SAR scenario (:func:`repro.scenario.load_scenario`) describes a fleet,
its environment, obstacles, faults and attacks; a swarm scenario
(``"kind": "swarm"``, :class:`repro.swarm.sim.SwarmSim`) sizes a
leader–follower swarm. :data:`SAR` and :data:`SWARM` give each key a
type, a range and a default, and :meth:`Schema.check` is the one routine
that reads a config against them: the loaders build from the values it
returns, and :func:`repro.scenario.lint_scenario` reports the problems
it finds, each naming its field. Rules that span keys (duplicate UAV
ids, fault targets, partition groups, box corners) stay with the
loaders, which know the fleet.

An absent key takes its default; ``null`` stands for "absent" only where
the default is ``None``. Unknown keys: the SAR loader ignores them, so
old files keep loading, and the linter names them; the swarm loader
rejects them.
"""

from __future__ import annotations

import math
import numbers
from typing import Any


class ScenarioError(ValueError):
    """Raised for malformed scenario configurations."""


REQUIRED = object()
"""Default of a key that every config must give."""


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class _Walk:
    """One read of a config against a schema, and the problems found."""

    def __init__(self, schema: Schema, lint: bool) -> None:
        self.schema, self.lint, self.problems = schema, lint, []

    def wrong(self, path: str, key: str, field: Any, value: Any) -> None:
        where = self.schema.key_format.format(path=path, key=key) if path else f"'{key}'"
        self.problems.append(f"{where} must be {field.describe()}, got {value!r}")

    def not_object(self, where: str, value: Any) -> None:
        self.problems.append(f"{where or self.schema.name}: expected an object, got {value!r}")

    def unknown(self, where: str, unknown: list[str], known: dict) -> None:
        where = where or self.schema.name
        if self.schema.strict:
            self.problems.append(f"unknown {where} key(s): {unknown}")
        elif self.lint:
            self.problems.extend(
                f"{where}.{key}: unknown key (known: {sorted(known)})" for key in unknown
            )


class _Scalar:
    """A key holding one value: ``coerce`` converts it or raises."""

    default: Any = None
    note: str = ""

    def describe(self) -> str:
        return f"{self._words()} ({self.note})" if self.note else self._words()

    def read(self, value: Any, path: str, key: str, walk: _Walk) -> Any:
        try:
            return self.coerce(value)
        except (TypeError, ValueError, OverflowError):
            walk.wrong(path, key, self, value)
            return None


class Number(_Scalar):
    """A real number (not a bool), finite unless ``finite=False``, in
    ``[lo, hi]``; ``lo_open``/``hi_open`` exclude an end."""

    def __init__(
        self, default: Any = None, noun: str = "number", *, lo: float | None = None,
        hi: float | None = None, lo_open: bool = False, hi_open: bool = False,
        finite: bool = True,
    ) -> None:
        self.default, self.noun, self.finite = default, noun, finite
        self.lo, self.hi, self.lo_open, self.hi_open = lo, hi, lo_open, hi_open

    def _words(self) -> str:
        words = []
        if self.lo == 0.0 and self.hi is None:
            words.append("positive" if self.lo_open else "non-negative")
        if self.finite and self.hi is None:
            words.append("finite")
        if self.noun:
            words = ["a", *words, self.noun]
        if self.hi is not None:
            words.append(
                f"in {'(' if self.lo_open else '['}{self.lo:g}, "
                f"{self.hi:g}{')' if self.hi_open else ']'}"
            )
        return " ".join(words)

    def coerce(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError
        x = float(value)
        if (
            math.isnan(x)
            or (self.finite and math.isinf(x))
            or (self.lo is not None and (x < self.lo or (self.lo_open and x == self.lo)))
            or (self.hi is not None and (x > self.hi or (self.hi_open and x == self.hi)))
        ):
            raise ValueError
        return x


class Whole(_Scalar):
    """A whole number (an int, or a float with no fraction), ``>= lo``."""

    def __init__(self, default: Any = None, *, lo: int | None = None, note: str = "") -> None:
        self.default, self.lo, self.note = default, lo, note

    def _words(self) -> str:
        return "a whole number" + ("" if self.lo is None else f" >= {self.lo}")

    def coerce(self, value: Any) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError
        if self.lo is not None and value < self.lo:
            raise ValueError
        return int(value)


class Enum(_Scalar):
    """One of a fixed set of values."""

    def __init__(self, choices: tuple, default: Any = None) -> None:
        self.choices, self.default = choices, default

    def _words(self) -> str:
        return f"one of {list(self.choices)}"

    def coerce(self, value: Any) -> Any:
        if isinstance(value, bool) or value not in self.choices:
            raise ValueError
        return self.choices[self.choices.index(value)]


class Text(_Scalar):
    """A non-empty string."""

    def __init__(self, default: Any = None) -> None:
        self.default = default

    def _words(self) -> str:
        return "a non-empty string"

    def coerce(self, value: Any) -> str:
        if not isinstance(value, str) or not value:
            raise TypeError
        return value


class Name(Text):
    """A UAV name, passed through: the loader checks it against the fleet."""

    def coerce(self, value: Any) -> Any:
        return value


class ListOf(_Scalar):
    """A list of ``item`` values: exactly ``size`` of them (read to a
    tuple), or at least ``min_items``.

    Entry ``i`` is named ``item_key.format(key=key, i=i)``, followed by
    ``" (<label>)"`` when it is an object holding a string under ``label``.
    """

    def __init__(
        self, item: Any, default: Any = (), *, size: int = 0, min_items: int = 0,
        item_key: str = "{key}[{i}]", label: str | None = None, note: str = "",
    ) -> None:
        self.item, self.default, self.size, self.min_items = item, default, size, min_items
        self.item_key, self.label, self.note = item_key, label, note

    def _words(self) -> str:
        if self.size:
            return f"a list of {self.size} numbers"
        return "a non-empty list" if self.min_items else "a list"

    def read(self, value: Any, path: str, key: str, walk: _Walk) -> Any:
        if not isinstance(value, (list, tuple)) or (
            len(value) != self.size if self.size else len(value) < self.min_items
        ):
            walk.wrong(path, key, self, value)
            return None
        items = []
        for i, item in enumerate(value):
            name = self.item_key.format(key=key, i=i)
            if isinstance(item, dict) and isinstance(item.get(self.label), str):
                name += f" ({item[self.label]})"
            items.append(self.item.read(item, path, name, walk))
        return tuple(items) if self.size else items


class Obj:
    """An object with declared keys; reads to a dict of every key's value."""

    def __init__(self, keys: dict[str, Any], default: Any = None) -> None:
        self.keys, self.default = keys, default

    def read(self, value: Any, path: str, key: str, walk: _Walk) -> Any:
        here = _join(path, key)
        if not isinstance(value, dict):
            walk.not_object(here, value)
            return None
        unknown = sorted(k for k in value if k not in self.keys)
        if unknown:
            walk.unknown(here, unknown, self.keys)
        out = {}
        for name, field in self.keys.items():
            if name not in value:
                required = field.default is REQUIRED
                out[name] = field.read(None, here, name, walk) if required else field.default
            elif value[name] is None and field.default is None:
                out[name] = None
            else:
                out[name] = field.read(value[name], here, name, walk)
        return out


class Variants:
    """An object whose ``tag`` key picks which keys it declares."""

    def __init__(self, tag: str, options: dict[str, dict[str, Any]]) -> None:
        self.tag = tag
        self.options = {name: Obj({tag: Text(REQUIRED), **keys}) for name, keys in options.items()}

    def describe(self) -> str:
        return f"one of {list(self.options)}"

    def read(self, value: Any, path: str, key: str, walk: _Walk) -> Any:
        if not isinstance(value, dict):
            walk.not_object(_join(path, key), value)
            return None
        tag = value.get(self.tag)
        if not isinstance(tag, str) or tag not in self.options:
            walk.wrong(_join(path, key), self.tag, self, tag)
            return None
        return self.options[tag].read(value, path, key, walk)


class Schema(Obj):
    """One scenario kind's declaration and its unknown-key policy.

    ``key_format`` renders a nested key in messages from its container's
    ``path``; a top-level key renders as ``'key'``.
    """

    def __init__(self, name: str, keys: dict[str, Any], *, strict: bool, key_format: str) -> None:
        super().__init__(keys)
        self.name, self.strict, self.key_format = name, strict, key_format

    def check(self, config: Any, lint: bool = False) -> tuple[dict | None, list[str]]:
        """Every key's checked value (defaults filled in) and the problems
        found; ``lint`` also names unknown keys the loader would ignore."""
        walk = _Walk(self, lint)
        return self.read(config, "", "", walk), walk.problems

    def load(self, config: Any) -> dict:
        """The checked values; :class:`ScenarioError` on the first problem."""
        values, problems = self.check(config)
        if problems:
            raise ScenarioError(problems[0])
        return values

    def summary(self, config: Any) -> str:
        """One line: the kind, its whole-number keys, the values of its
        fixed-size lists (``320x320``) and the lengths of its other lists."""
        values = self.load(config)
        parts = [self.name]
        for name, field in self.keys.items():
            if isinstance(field, ListOf) and field.size:
                parts.append(f"{name}={'x'.join(f'{v:g}' for v in values[name])}")
            elif isinstance(field, ListOf):
                parts.append(f"{name}={len(values[name])}")
            elif isinstance(field, Whole) and values[name] is not None:
                parts.append(f"{name}={values[name]}")
        return ", ".join(parts)


def schema_for(config: dict) -> Schema:
    """The declaration a config follows: its ``"kind"`` picks it."""
    return SWARM if config.get("kind") == "swarm" else SAR


# ---------------------------------------------------------------- SAR kind
_AT = Number(REQUIRED, "time")
_DURATION = Number(None, "time", lo=0.0)
_COORD = Number(noun="coordinate")
_POINT = ListOf(_COORD, REQUIRED, size=3)
_GROUP = ListOf(Name(), REQUIRED, min_items=1)


def _vehicle(**keys: Any) -> dict[str, Any]:
    return {"uav": Name(), "at": _AT, **keys}


#: Faults on one vehicle, in the order the fuzz generator draws them.
_VEHICLE_FAULTS = {
    "battery_collapse": _vehicle(soc_drop_to=Number(0.4, "state of charge", lo=0.0, hi=1.0)),
    "gps_denial": _vehicle(duration=_DURATION),
    "gps_spoof": _vehicle(offset=ListOf(Number(noun="offset"), REQUIRED, size=3)),
    "imu_failure": _vehicle(),
    "motor_failure": _vehicle(),
    "camera_degradation": _vehicle(rate=Number(0.02, "rate", lo=0.0)),
}
#: Faults on the transport: any of them makes the loader build a DegradedBus.
_COMM_FAULTS = {
    "comm_blackout": _vehicle(duration=Number(REQUIRED, "time", lo=0.0)),
    "comm_degradation": _vehicle(
        loss=Number(0.5, "probability", lo=0.0, hi=1.0), duration=_DURATION
    ),
    "network_partition": {"at": _AT, "group_a": _GROUP, "group_b": _GROUP, "duration": _DURATION},
}
VEHICLE_FAULT_TYPES = tuple(_VEHICLE_FAULTS)
COMM_FAULT_TYPES = tuple(_COMM_FAULTS)

SAR = Schema(
    "scenario",
    {
        "description": Text(),
        "seed": Whole(0, lo=0),
        "area_size_m": ListOf(Number(noun="length", lo=0.0, lo_open=True), (400.0, 300.0), size=2),
        "dt": Number(0.5, "step", lo=0.0, lo_open=True),
        # Read by the oracle runner and the fuzzer, not the loader.
        "horizon_s": Number(None, "time", lo=0.0, lo_open=True),
        "persons": Whole(0, lo=0),
        "environment": Obj({
            "wind_mean_mps": Number(3.0, "speed", lo=0.0),
            "wind_direction_deg": Number(270.0, "heading"),
            "ambient_c": Number(25.0, "temperature"),
            "visibility": Enum(("good", "poor"), "good"),
        }),
        "obstacles": Obj({
            "cell_m": Number(4.0, "length", lo=0.0, lo_open=True),
            "inflation_m": Number(3.0, "length", lo=0.0),
            # Absent: above the tallest obstacle (see load_scenario).
            "ceiling_m": Number(None, "height", lo=0.0, lo_open=True),
            "boxes": ListOf(Obj({"min": _POINT, "max": _POINT})),
            "cylinders": ListOf(Obj({
                "center": ListOf(_COORD, REQUIRED, size=2),
                "radius": Number(REQUIRED, "length", lo=0.0, lo_open=True),
                "height": Number(REQUIRED, "height", lo=0.0, lo_open=True),
            })),
        }),
        "camera": Obj({
            "half_fov_deg": Number(35.0, "half-angle", lo=0.0, hi=90.0, lo_open=True, hi_open=True),
            "overlap": Number(0.15, "fraction", lo=0.0, hi=1.0, hi_open=True),
        }),
        "uavs": ListOf(
            Obj({
                "id": Text(REQUIRED),
                "base": ListOf(_COORD, (0.0, 0.0, 0.0), size=3),
                "rotors": Enum((4, 6, 8), 4),
                "max_speed_mps": Number(None, "speed", lo=0.0, lo_open=True),
                "mission": ListOf(ListOf(_COORD, size=3), None, min_items=1),
            }),
            REQUIRED, min_items=1, label="id", note="a scenario needs a non-empty 'uavs' list",
        ),
        "faults": ListOf(Variants("type", {**_VEHICLE_FAULTS, **_COMM_FAULTS})),
        "attacks": ListOf(Variants("type", {"ros_spoofing": {
            "topic": Text("/uav1/pose"),
            "sender": Name("uav1"),
            "start": Number(0.0, "time"),
            "stop": Number(math.inf, "time", finite=False),
            "rate_hz": Number(5.0, "rate", lo=0.0, lo_open=True),
            "name": Text("adversary"),
        }})),
        # Present (even empty): force a DegradedBus; "seed" pins its draws.
        "comms": Obj({"seed": Whole(lo=0)}),
        # A scripted simulator bug for the oracle runner (repro.harness.oracles).
        "chaos": Obj({
            "mode": Enum(("teleport", "soc_jump", "exception"), REQUIRED),
            "uav": Name("uav1"),
            "at": Number(0.0, "time"),
            "magnitude": Number(None, "magnitude"),
            "armed_file": Text(),
        }),
    },
    strict=False,
    key_format="'{path}.{key}'",
)


# -------------------------------------------------------------- swarm kind
FAULT_ROLES = {"follower_loss": "follower", "leader_demotion": "leader"}
"""Each scripted swarm fault type and the role of the UAV it must name."""

_SIZES = {"k_leaders": (2, 1), "rho": (3, 0), "n_pois": (50, 0)}
_SIZE_NOTE = ", ".join(f"{key} >= {lo}" for key, (_, lo) in _SIZES.items()) + " required"


def _knob(default: float, noun: str, positive: bool = True) -> Number:
    return Number(default, noun, lo=0.0, lo_open=positive)


SWARM = Schema(
    "swarm config",
    {
        "kind": Text(),
        "description": Text(),
        "seed": Whole(lo=0),  # absent: the seed the caller passes
        **{key: Whole(default, lo=lo, note=_SIZE_NOTE) for key, (default, lo) in _SIZES.items()},
        "area_m": _knob(600.0, "length"),
        "comm_radius_m": Number(450.0, "", lo=0.0, finite=False),  # inf: always in range
        "leader_speed_mps": _knob(12.0, "speed"),
        "follower_speed_mps": _knob(15.0, "speed"),
        "detect_radius_m": _knob(40.0, "length"),
        "patrol_altitude_m": _knob(60.0, "height", positive=False),
        "dt": _knob(0.5, "step"),
        "horizon_s": _knob(600.0, "time", positive=False),
        "link_loss": Number(0.05, "probability", lo=0.0, hi=1.0),
        "link_latency_s": _knob(0.02, "time", positive=False),
        "link_jitter_s": _knob(0.02, "time", positive=False),
        "task_timeout_s": _knob(90.0, "time"),
        "visit_dwell_s": _knob(2.0, "time", positive=False),
        "reassign_backoff_s": _knob(5.0, "time", positive=False),
        "reassign_backoff_max_s": _knob(40.0, "time", positive=False),
        "follower_dead_after_s": _knob(60.0, "time"),
        "heartbeat_s": _knob(5.0, "period"),
        "consert_period_s": _knob(5.0, "period"),
        "faults": ListOf(
            Variants("type", {kind: {"uav": Name(), "at": _AT} for kind in FAULT_ROLES}),
            item_key="fault {i}",
        ),
    },
    strict=True,
    key_format="{path}: '{key}'",
)
