"""Build-time checks on a swarm scenario config.

``SwarmSim`` rejects a malformed config when it is built, so ``scenario
validate`` catches it instead of the run failing (or silently doing
nothing) when a scripted fault comes due. The rules:

* every top-level key is a :data:`DEFAULTS` knob or one of
  :data:`META_KEYS`;
* ``k_leaders``, ``rho`` and ``n_pois`` are whole numbers with
  ``k_leaders >= 1``, ``rho >= 0`` and ``n_pois >= 0``;
* ``dt`` is positive and finite, ``horizon_s`` non-negative and finite,
  and ``comm_radius_m`` non-negative;
* ``faults`` is a list of objects, each with a known ``type``, a ``uav``
  of the role that type acts on, and a finite ``at``.
"""

from __future__ import annotations

import math

import pytest

from repro.swarm.sim import DEFAULTS, FAULT_ROLES, META_KEYS, SwarmSim

#: Two leaders with two followers each: lead00, lead01, f00_00 .. f01_01.
SMALL = {"k_leaders": 2, "rho": 2, "n_pois": 4}
LEADERS = ["lead00", "lead01"]
FOLLOWERS = ["f00_00", "f00_01", "f01_00", "f01_01"]


def build(**overrides):
    return SwarmSim(dict(SMALL, **overrides))


def with_fault(**fault):
    return build(faults=[fault])


class TestTopLevelKeys:
    @pytest.mark.parametrize(
        "key", ["k_leader", "Faults", "horizon", "link_los", "leaders"]
    )
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"unknown swarm config key.*'{key}'"):
            build(**{key: 1})

    def test_every_unknown_key_is_named_in_order(self):
        with pytest.raises(ValueError) as err:
            build(zeta=1, alpha=2)
        assert "['alpha', 'zeta']" in str(err.value)

    @pytest.mark.parametrize("key", sorted(DEFAULTS))
    def test_every_default_knob_accepted(self, key):
        sim = SwarmSim({key: DEFAULTS[key]})
        assert sim.config[key] == DEFAULTS[key]

    @pytest.mark.parametrize("key", sorted(META_KEYS))
    def test_meta_key_accepted(self, key):
        value = 7 if key == "seed" else "a note"
        sim = build(**{key: value})
        assert sim.config[key] == value

    def test_seed_key_overrides_the_argument(self):
        assert SwarmSim(dict(SMALL, seed=7), seed=3).seed == 7
        assert SwarmSim(dict(SMALL), seed=3).seed == 3


class TestSizing:
    @pytest.mark.parametrize(
        "key, value", [("k_leaders", 0), ("rho", -1), ("n_pois", -1)]
    )
    def test_out_of_range_size_rejected(self, key, value):
        with pytest.raises(ValueError, match="k_leaders >= 1"):
            build(**{key: value})

    @pytest.mark.parametrize("key", ["rho", "n_pois"])
    def test_zero_is_a_valid_size(self, key):
        sim = build(**{key: 0})
        assert getattr(sim, key) == 0


    @pytest.mark.parametrize("key", ["k_leaders", "rho", "n_pois"])
    @pytest.mark.parametrize(
        "value", [2.7, 0.5, "3", None, True, math.nan, math.inf],
        ids=["fraction", "half", "string", "null", "bool", "nan", "inf"],
    )
    def test_non_integer_size_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}' must be a whole number"):
            build(**{key: value})

    @pytest.mark.parametrize("key", ["k_leaders", "rho", "n_pois"])
    def test_whole_float_size_accepted(self, key):
        sim = build(**{key: 3.0})
        assert getattr(sim, "k" if key == "k_leaders" else key) == 3


class TestTiming:
    @pytest.mark.parametrize(
        "dt", [0.0, -0.5, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
    )
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="'dt' must be a positive finite step"):
            build(dt=dt)

    @pytest.mark.parametrize(
        "horizon", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"]
    )
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="'horizon_s' must be a non-negative"):
            build(horizon_s=horizon)

    @pytest.mark.parametrize("radius", [-1.0, math.nan], ids=["negative", "nan"])
    def test_bad_comm_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="'comm_radius_m' must be non-negative"):
            build(comm_radius_m=radius)

    def test_zero_horizon_and_radius_accepted(self):
        sim = build(horizon_s=0.0, comm_radius_m=0.0)
        assert (sim.horizon_s, sim.comm_radius) == (0.0, 0.0)


class TestFaultList:
    @pytest.mark.parametrize(
        "faults",
        [{"type": "follower_loss", "uav": "f00_00", "at": 1.0}, "follower_loss", 3, None],
        ids=["object", "string", "int", "null"],
    )
    def test_faults_must_be_a_list(self, faults):
        with pytest.raises(ValueError, match="'faults' must be a list"):
            build(faults=faults)

    @pytest.mark.parametrize(
        "entry", [["f00_00"], "f00_00", 5, None], ids=["list", "string", "int", "null"]
    )
    def test_each_fault_must_be_an_object(self, entry):
        with pytest.raises(ValueError, match="fault 0: expected an object"):
            build(faults=[entry])

    def test_error_names_the_index_of_the_bad_fault(self):
        good = {"type": "follower_loss", "uav": "f00_00", "at": 1.0}
        with pytest.raises(ValueError, match="fault 1: 'uav'"):
            build(faults=[good, dict(good, uav="nobody")])

    def test_tuple_of_faults_accepted(self):
        fault = {"type": "leader_demotion", "uav": "lead01", "at": 4.0}
        assert build(faults=(fault,))._faults == [fault]

    def test_faults_sorted_into_firing_order_without_touching_the_input(self):
        faults = [
            {"type": "follower_loss", "uav": "f01_00", "at": 9.0},
            {"type": "leader_demotion", "uav": "lead00", "at": 2},
            {"type": "follower_loss", "uav": "f00_01", "at": 9.0},
        ]
        original = [dict(f) for f in faults]
        order = [(f["at"], f["uav"]) for f in build(faults=faults)._faults]
        assert order == [(2, "lead00"), (9.0, "f00_01"), (9.0, "f01_00")]
        assert faults == original


class TestFaultType:
    @pytest.mark.parametrize(
        "kind",
        [None, "motor_failure", "Follower_loss", 1],
        ids=["null", "unknown", "wrong-case", "int"],
    )
    def test_bad_type_rejected(self, kind):
        with pytest.raises(ValueError, match="fault 0: 'type' must be one of"):
            with_fault(type=kind, uav="f00_00", at=1.0)

    def test_missing_type_rejected(self):
        with pytest.raises(ValueError, match="'type' must be one of.*got None"):
            with_fault(uav="f00_00", at=1.0)


class TestFaultUav:
    @pytest.mark.parametrize(
        "kind, uav",
        [
            ("follower_loss", "lead00"),
            ("leader_demotion", "f00_00"),
            ("follower_loss", "f02_00"),
            ("follower_loss", "f00_02"),
            ("leader_demotion", "lead02"),
            ("follower_loss", "nobody"),
            ("follower_loss", 0),
        ],
        ids=[
            "loss-names-a-leader",
            "demotion-names-a-follower",
            "follower-past-k",
            "follower-past-rho",
            "leader-past-k",
            "unknown-name",
            "int",
        ],
    )
    def test_uav_outside_the_role_rejected(self, kind, uav):
        role = FAULT_ROLES[kind]
        with pytest.raises(ValueError, match=f"is not a {role} of this swarm"):
            with_fault(type=kind, uav=uav, at=1.0)

    def test_missing_uav_rejected(self):
        with pytest.raises(ValueError, match="'uav' None is not a follower"):
            with_fault(type="follower_loss", at=1.0)

    @pytest.mark.parametrize(
        "kind, uav",
        [("follower_loss", f) for f in FOLLOWERS]
        + [("leader_demotion", lead) for lead in LEADERS],
    )
    def test_every_member_of_the_role_accepted(self, kind, uav):
        (fault,) = with_fault(type=kind, uav=uav, at=1.0)._faults
        assert fault["uav"] == uav


class TestFaultTime:
    @pytest.mark.parametrize(
        "at",
        [None, math.nan, math.inf, -math.inf, "3", True, [1.0]],
        ids=["null", "nan", "inf", "-inf", "string", "bool", "list"],
    )
    def test_bad_time_rejected(self, at):
        with pytest.raises(ValueError, match="fault 0: 'at' must be a finite time"):
            with_fault(type="follower_loss", uav="f00_00", at=at)

    def test_missing_time_rejected(self):
        with pytest.raises(ValueError, match="'at' must be a finite time, got None"):
            with_fault(type="follower_loss", uav="f00_00")

    @pytest.mark.parametrize("at", [0, 12.5])
    def test_int_or_float_time_accepted(self, at):
        (fault,) = with_fault(type="follower_loss", uav="f00_00", at=at)._faults
        assert fault["at"] == at
