"""Unit tests for the Gilbert–Elliott channel and the fault-injection
framework."""

import numpy as np
import pytest

from repro.experiments.common import build_three_uav_world
from repro.safedrones.communication import GilbertElliottChannel
from repro.safedrones.markov import ContinuousMarkovChain
from repro.uav.faults import (
    FaultSchedule,
    battery_collapse,
    camera_degradation,
    gps_denial,
    gps_spoof,
    imu_failure,
)


def make_channel(seed=0, **kwargs):
    return GilbertElliottChannel(rng=np.random.default_rng(seed), **kwargs)


class TestGilbertElliott:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            make_channel(loss_bad=1.5)

    def test_rejects_bad_dt(self):
        channel = make_channel()
        with pytest.raises(ValueError):
            channel.step(0.0)

    def test_good_state_delivers_mostly(self):
        channel = make_channel(p_good_to_bad=0.0)
        delivered = sum(channel.deliver() for _ in range(2000))
        assert delivered / 2000 == pytest.approx(0.99, abs=0.01)

    def test_bad_state_loses_mostly(self):
        channel = make_channel(p_good_to_bad=0.0)
        channel.in_bad_state = True
        delivered = sum(channel.deliver() for _ in range(2000))
        assert delivered / 2000 == pytest.approx(0.4, abs=0.05)

    def test_stationary_bad_fraction(self):
        channel = make_channel(p_good_to_bad=0.1, p_bad_to_good=0.3)
        assert channel.stationary_bad_fraction == pytest.approx(0.25)

    def test_empirical_delivery_matches_expected(self):
        channel = make_channel(seed=3, p_good_to_bad=0.05, p_bad_to_good=0.3)
        delivered = 0
        n = 20_000
        for _ in range(n):
            channel.step(0.5)
            delivered += channel.deliver()
        assert delivered / n == pytest.approx(
            channel.expected_delivery_ratio(), abs=0.03
        )

    def test_burst_behaviour(self):
        # Losses cluster: consecutive-loss runs are longer than for an
        # independent channel with the same average loss.
        channel = make_channel(seed=5, p_good_to_bad=0.05, p_bad_to_good=0.2,
                               loss_good=0.0, loss_bad=0.9)
        outcomes = []
        for _ in range(20_000):
            channel.step(0.5)
            outcomes.append(channel.deliver())
        loss_rate = 1.0 - sum(outcomes) / len(outcomes)
        # Probability that a loss is followed by another loss.
        follow_loss = [
            not outcomes[i + 1] for i, o in enumerate(outcomes[:-1]) if not o
        ]
        assert sum(follow_loss) / len(follow_loss) > 2.0 * loss_rate

    def test_stationary_fraction_matches_the_ctmc(self):
        channel = make_channel(p_good_to_bad=0.1, p_bad_to_good=0.3)
        chain = ContinuousMarkovChain(
            states=["good", "bad"], q=np.array([[0.0, 0.1], [0.3, 0.0]])
        )
        pt = chain.transient(np.array([1.0, 0.0]), 1000.0)
        assert pt[1] == pytest.approx(channel.stationary_bad_fraction, abs=1e-9)


class TestFaultInjection:
    def setup_world(self):
        scenario = build_three_uav_world(seed=9, n_persons=0)
        return scenario.world

    def test_gps_denial_and_recovery(self):
        world = self.setup_world()
        schedule = FaultSchedule()
        schedule.add(gps_denial("uav1", at_time=5.0, duration_s=10.0))
        uav = world.uavs["uav1"]
        while world.time < 4.0:
            world.step()
            schedule.step(world.time, world.uavs)
        assert not uav.sensors.gps.denied
        while world.time < 8.0:
            world.step()
            schedule.step(world.time, world.uavs)
        assert uav.sensors.gps.denied
        while world.time < 16.0:
            world.step()
            schedule.step(world.time, world.uavs)
        assert not uav.sensors.gps.denied
        assert [entry[1:] for entry in schedule.log] == [
            ("gps_denial", "applied"),
            ("gps_denial", "cleared"),
        ]

    def test_gps_spoof_applied(self):
        world = self.setup_world()
        schedule = FaultSchedule()
        schedule.add(gps_spoof("uav2", at_time=2.0, offset_m=(30.0, 0.0, 0.0)))
        while world.time < 3.0:
            world.step()
            schedule.step(world.time, world.uavs)
        assert world.uavs["uav2"].sensors.gps.spoof_offset_m == (30.0, 0.0, 0.0)

    def test_camera_degradation_progresses(self):
        world = self.setup_world()
        schedule = FaultSchedule()
        schedule.add(camera_degradation("uav1", at_time=1.0, rate_per_s=0.05))
        while world.time < 20.0:
            world.step()
            schedule.step(world.time, world.uavs)
        assert world.uavs["uav1"].sensors.camera.health < 0.5
        assert not world.uavs["uav1"].sensors.camera.operational

    def test_imu_failure(self):
        world = self.setup_world()
        schedule = FaultSchedule()
        schedule.add(imu_failure("uav3", at_time=1.0))
        while world.time < 2.0:
            world.step()
            schedule.step(world.time, world.uavs)
        assert world.uavs["uav3"].sensors.imu.measure((3.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_battery_collapse(self):
        world = self.setup_world()
        uav = world.uavs["uav1"]
        uav.battery.soc = 0.9
        schedule = FaultSchedule()
        schedule.add(battery_collapse("uav1", at_time=5.0, soc_drop_to=0.3))
        while world.time < 7.0:
            world.step()
            schedule.step(world.time, world.uavs)
        assert uav.battery.faulted
        assert uav.battery.soc <= 0.31

    def test_unknown_target_rejected_at_add(self):
        world = self.setup_world()
        schedule = FaultSchedule()
        with pytest.raises(KeyError):
            schedule.add(imu_failure("ghost", at_time=0.0), world.uavs)

    def test_step_tolerates_fleet_changes(self):
        """A fault whose target left the fleet waits instead of crashing."""
        world = self.setup_world()
        schedule = FaultSchedule()
        schedule.add(imu_failure("uav1", at_time=1.0), world.uavs)
        schedule.add(imu_failure("uav2", at_time=50.0), world.uavs)
        while world.time < 3.0:
            world.step()
            schedule.step(world.time, world.uavs)
        assert not world.uavs["uav1"].sensors.imu.healthy
        # uav1's fault is done and uav2 gets decommissioned: neither the
        # done fault nor the now-targetless pending one may crash step().
        removed = world.uavs.pop("uav2")
        schedule.step(60.0, world.uavs)
        assert removed.sensors.imu.healthy
        # The fleet change heals: re-registering the UAV lets it fire.
        world.uavs["uav2"] = removed
        schedule.step(61.0, world.uavs)
        assert not removed.sensors.imu.healthy

    @pytest.mark.parametrize(
        "make",
        [gps_denial, gps_spoof, camera_degradation, imu_failure, battery_collapse],
        ids=lambda make: make.__name__,
    )
    def test_fault_applies_once_at_its_time(self, make):
        extra = {"offset_m": (1.0, 0.0, 0.0)} if make is gps_spoof else {}
        fault = make("uav2", at_time=2.0, **extra)
        # battery_collapse arms the battery's own schedule a second early.
        world = self.setup_world()
        schedule = FaultSchedule()
        schedule.add(fault, world.uavs)
        while world.time < 4.0:
            world.step()
            schedule.step(world.time, world.uavs)
            assert fault.applied is (world.time >= fault.at_time)
        assert schedule.log == [(fault.at_time, fault.name, "applied")]
