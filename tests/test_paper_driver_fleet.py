"""The Fig. 5 and Fig. 6 drivers fly only the UAV whose results they report.

Both experiments measure ``uav1`` alone; the paper's other two UAVs fly
disjoint strips that share no noise stream (``uav_rng_streams`` keys each
UAV's noise by its position), bus consumer or airspace with it. The
drivers therefore build one-UAV worlds. These tests hold that choice to
its promise:

* **differential** — each driver's result equals, by ``repr``, a run in
  which its module-level ``build_three_uav_world`` is forced to build the
  full three-UAV fleet. A later change that couples ``uav1`` to a wingman
  (shared noise, a consumer of a wingman's topics, an IDS rule over the
  whole fleet) fails here;
* **work pin** — every world either driver builds holds exactly one UAV,
  so the idle wingmen do not creep back in.
"""

from __future__ import annotations

import pytest

from repro.experiments import common, fig5_battery, fig6_spoofing

DRIVERS = {
    "fig5": (fig5_battery, fig5_battery.run_fig5_battery_experiment, 3),
    "fig6": (fig6_spoofing, fig6_spoofing.run_fig6_spoofing_experiment, 9),
}


def _record_builds(monkeypatch, module, n_uavs: int | None = None) -> list[int]:
    """Route ``module``'s world builds through a recorder.

    Returns the list that receives each built world's UAV count. With
    ``n_uavs`` set, every build is forced to that fleet size.
    """
    builds: list[int] = []

    def build(*args, **kwargs):
        if n_uavs is not None:
            kwargs["n_uavs"] = n_uavs
        scenario = common.build_three_uav_world(*args, **kwargs)
        builds.append(len(scenario.world.uavs))
        return scenario

    monkeypatch.setattr(module, "build_three_uav_world", build)
    return builds


@pytest.mark.parametrize("shift", [0, 1, 7])  # 0: the driver's default seed
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_result_equals_the_three_uav_run(monkeypatch, driver, shift):
    module, run, default_seed = DRIVERS[driver]
    seed = default_seed + shift

    lone_builds = _record_builds(monkeypatch, module)
    lone = repr(run(seed=seed))
    fleet_builds = _record_builds(monkeypatch, module, n_uavs=3)
    fleet = repr(run(seed=seed))

    assert lone_builds and fleet_builds == [3] * len(lone_builds)
    assert lone == fleet


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_world_holds_one_uav(monkeypatch, driver):
    module, run, default_seed = DRIVERS[driver]
    builds = _record_builds(monkeypatch, module)
    run(seed=default_seed)
    # Fig. 5: the nominal run and both policies; Fig. 6: clean and attacked.
    assert builds == [1] * {"fig5": 3, "fig6": 2}[driver]
