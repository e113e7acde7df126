"""Unit tests for the environment model."""

import numpy as np
import pytest

from repro.uav.dynamics import UavDynamics
from repro.uav.environment import Environment, GustProcess


class TestEnvironment:
    def make(self, seed=0, **kwargs):
        return Environment(rng=np.random.default_rng(seed), **kwargs)

    def test_gust_stays_near_mean(self):
        gusts = GustProcess(rng=np.random.default_rng(0), mean_mps=5.0)
        values = [gusts.step(0.5) for _ in range(2000)]
        assert np.mean(values) == pytest.approx(5.0, abs=0.5)
        assert np.std(values) > 0.2

    def test_gust_never_negative(self):
        gusts = GustProcess(
            rng=np.random.default_rng(1), mean_mps=0.5, gust_sigma_mps=2.0
        )
        assert all(gusts.step(0.5) >= 0.0 for _ in range(500))

    def test_gust_rejects_bad_dt(self):
        gusts = GustProcess(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            gusts.step(0.0)

    def test_wind_vector_direction_convention(self):
        env = self.make(wind_direction_deg=270.0)  # from the west
        env.current_wind_mps = 5.0
        east, north, up = env.wind_vector()
        assert east == pytest.approx(5.0, abs=1e-9)  # blows toward the east
        assert north == pytest.approx(0.0, abs=1e-9)
        assert up == 0.0

    def test_wind_drift_displaces_airborne_uav(self):
        env = self.make(wind_direction_deg=270.0)
        env.current_wind_mps = 10.0
        dynamics = UavDynamics(position=(0.0, 0.0, 20.0))
        for _ in range(100):
            env.apply_wind_drift(dynamics, dt=0.5, rejection=0.8)
        assert dynamics.position[0] > 50.0  # 10 m/s * 20% * 50 s = 100 m

    def test_no_drift_on_ground(self):
        env = self.make()
        env.current_wind_mps = 10.0
        dynamics = UavDynamics(position=(0.0, 0.0, 0.0))
        env.apply_wind_drift(dynamics, dt=0.5)
        assert dynamics.position == (0.0, 0.0, 0.0)

    def test_rejects_bad_rejection(self):
        env = self.make()
        with pytest.raises(ValueError):
            env.apply_wind_drift(UavDynamics(position=(0, 0, 10)), 0.5, rejection=2.0)

    def test_extra_power_quadratic(self):
        env = self.make()
        env.current_wind_mps = 10.0
        strong = env.extra_power_draw_w(1000.0)
        env.current_wind_mps = 5.0
        weak = env.extra_power_draw_w(1000.0)
        assert strong == pytest.approx(4.0 * weak)
        assert strong == pytest.approx(300.0)

    def test_diurnal_temperature_cycles(self):
        env = self.make()
        env.step(0.5, now=6 * 3600.0)  # a quarter period in
        morning = env.ambient_temperature_c
        env.step(0.5, now=18 * 3600.0)
        evening = env.ambient_temperature_c
        assert morning != evening

    def test_rejects_unknown_visibility(self):
        with pytest.raises(ValueError):
            self.make(visibility="hazy")
