"""Property-based tests for task redistribution."""

from hypothesis import given, settings, strategies as st


class TestRedistributionProperties:
    @given(
        n_waypoints=st.integers(min_value=1, max_value=30),
        done=st.integers(min_value=0, max_value=29),
        max_segments=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_plan_partitions_remaining_exactly(self, n_waypoints, done, max_segments):
        from repro.experiments.common import build_three_uav_world
        from repro.sar.redistribution import TaskRedistributor

        scenario = build_three_uav_world(seed=1, n_persons=0)
        world = scenario.world
        dropped = world.uavs["uav1"]
        waypoints = [(float(10 * i), 50.0, 20.0) for i in range(n_waypoints)]
        dropped.start_mission(waypoints)
        dropped.plan.index = min(done, n_waypoints)
        takeover = [world.uavs["uav2"], world.uavs["uav3"]]
        assignments = TaskRedistributor(max_segments=max_segments).plan(
            dropped, takeover
        )
        planned = [wp for a in assignments for wp in a.waypoints]
        assert planned == waypoints[min(done, n_waypoints):]
        assert len(assignments) <= max_segments


