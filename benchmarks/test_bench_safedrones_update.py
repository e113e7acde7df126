"""Speed floor: one SafeDrones monitor update, closed form vs ``expm``.

Replays the Fig. 5 stress profile (the SESAME-monitored UAV's SoC and
measured battery temperature, thermal fault at t=250 s) through
:class:`~repro.safedrones.monitor.SafeDronesMonitor`, and through a
reference monitor whose battery integrates ``battery_chain(rate).scaled(f)``
with the generic ``expm`` transient on every sample and whose propulsion
PoF is solved afresh with ``expm`` on every sample. Both must produce the same PoF
curve; the monitor must be at least ``TARGET_SPEEDUP`` times faster per
update.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_safedrones_update.py -s -q
"""

import gc
import time

import numpy as np

from conftest import print_table, run_once

from repro.experiments.fig5_battery import run_fig5_battery_experiment
from repro.safedrones.battery import BatteryReliabilityModel, battery_chain
from repro.safedrones.markov import ContinuousMarkovChain
from repro.safedrones.monitor import SafeDronesMonitor
from repro.safedrones.propulsion import PropulsionModel

REPEATS = 5
TARGET_SPEEDUP = 10.0


class ExpmBattery(BatteryReliabilityModel):
    """Battery model that solves the scaled chain with ``expm`` per sample."""

    def update(self, now: float, soc: float, temp_c: float) -> float:
        if self.last_time is None:
            self.last_time = now
            return self.failure_probability
        dt = now - self.last_time
        self.last_time = now
        if dt == 0.0:
            return self.failure_probability
        chain = battery_chain(self.base_rate_per_s).scaled(self.stress_factor(soc, temp_c))
        self.distribution = chain.transient(self.distribution, dt)
        return self.failure_probability


class UncachedPropulsion(PropulsionModel):
    """Propulsion model that re-solves its chain with ``expm`` on every query."""

    def failure_probability(self, horizon_s: float) -> float:
        state = self._current_state()
        if state == "failed":
            return 1.0
        p0 = np.zeros(len(self.chain.states))
        p0[self.chain.index(state)] = 1.0
        return float(ContinuousMarkovChain.transient(self.chain, p0, horizon_s)[-1])


def fig5_profile() -> list[tuple[float, float, float]]:
    """(time, SoC, measured temperature) samples of the Fig. 5 SESAME run."""
    trace = run_fig5_battery_experiment().with_sesame
    return list(zip(trace.times, trace.soc, trace.temp_c))


def replay(make_monitor, profile) -> tuple[float, list[float]]:
    """Best-of-REPEATS µs per update, and the PoF curve."""
    best = float("inf")
    for _ in range(REPEATS):
        update = make_monitor().update
        assessments = []
        keep = assessments.append
        gc.disable()
        try:
            start = time.perf_counter()
            for now, soc, temp in profile:
                keep(update(now, soc, temp))
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        best = min(best, elapsed / len(profile) * 1e6)
    return best, [a.failure_probability for a in assessments]


def compare():
    profile = fig5_profile()
    fast_us, fast_pof = replay(lambda: SafeDronesMonitor(uav_id="uav1"), profile)
    ref_us, ref_pof = replay(
        lambda: SafeDronesMonitor(
            uav_id="uav1",
            battery=ExpmBattery(),
            propulsion=UncachedPropulsion(rotor_count=4),
        ),
        profile,
    )
    return len(profile), fast_us, ref_us, fast_pof, ref_pof


def test_bench_safedrones_update_speedup(benchmark):
    samples, fast_us, ref_us, fast_pof, ref_pof = run_once(benchmark, compare)
    speedup = ref_us / fast_us
    print_table(
        f"SafeDrones monitor update on the Fig. 5 profile ({samples} samples)",
        ["path", "µs / update"],
        [
            ["expm chain, uncached propulsion", f"{ref_us:.1f}"],
            ["closed form, memoized propulsion", f"{fast_us:.1f}"],
            ["speedup", f"{speedup:.1f}x"],
        ],
    )
    benchmark.extra_info["safedrones_update_us"] = round(fast_us, 2)
    benchmark.extra_info["safedrones_update_speedup"] = round(speedup, 2)
    np.testing.assert_allclose(fast_pof, ref_pof, rtol=0.0, atol=1e-12)
    assert max(fast_pof) >= 0.9
    assert speedup >= TARGET_SPEEDUP, (
        f"SafeDrones update speedup {speedup:.1f}x is below the "
        f"{TARGET_SPEEDUP:.0f}x floor"
    )
