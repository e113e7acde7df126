"""Bench: observability overhead on the Fig. 5 battery experiment.

Three variants of the same deterministic run:

``baseline``
    Obs call sites stripped (a bare ``RosBus.publish`` without the
    metric hooks is monkeypatched in — the hottest instrumented path).
``disabled``
    The shipped code with the global obs session off (the default).
``enabled``
    Full tracing: spans, events, and metrics recorded in an isolated
    session.

Fig. 5 on its own subscribes to no telemetry, so with obs off its
samples are never built and ``RosBus.publish`` is never reached; every
variant here runs with a no-op subscriber on ``/uav1/telemetry`` of each
bus the experiment builds, so the publish path stays hot in all three.
The variants run interleaved, and each keeps its best of ``REPEATS``.

The contract asserted here is the one the instrumentation was designed
around: disabled-mode cost must be within 5% of the uninstrumented
baseline. The enabled-mode cost is reported (not asserted) so regressions
are visible in the bench log.
"""

import time

from conftest import print_table, run_once

from repro import obs
from repro.experiments.fig5_battery import run_fig5_battery_experiment
from repro.middleware.rosbus import Message, RosBus

REPEATS = 15


def _bare_publish(self, topic, data, sender, origin=None, stamp=None):
    """``RosBus.publish`` with every observability call site stripped."""
    message = Message(
        topic,
        data,
        sender,
        origin if origin is not None else sender,
        next(self._seq),
        stamp if stamp is not None else self.clock,
    )
    for interceptor in self._interceptors:
        replaced = interceptor(message)
        if replaced is None:
            return None
        message = replaced
    subs = self._subs.get(topic)
    if subs:
        for sub in list(subs):
            if sub.active:
                sub.callback(message)
    return message


def _ignore(message):
    """A telemetry reader that keeps nothing."""


def test_obs_overhead_fig5(benchmark, monkeypatch):
    obs.reset()
    real_init = RosBus.__init__

    def reading_init(self):
        real_init(self)
        self.subscribe("/uav1/telemetry", "bench", _ignore)

    monkeypatch.setattr(RosBus, "__init__", reading_init)
    run_fig5_battery_experiment()  # warm-up: imports and allocator caches

    def baseline_run():
        with monkeypatch.context() as patch:
            patch.setattr(RosBus, "publish", _bare_publish)
            run_fig5_battery_experiment()

    def enabled_run():
        with obs.isolated(enabled=True):
            run_fig5_battery_experiment()

    variants = {
        "baseline": baseline_run,
        "disabled": run_fig5_battery_experiment,
        "enabled": enabled_run,
    }
    best = dict.fromkeys(variants, float("inf"))
    order = list(variants)
    for repeat in range(REPEATS):
        # Rotate who goes first so no variant always runs on a cold cache.
        for name in order[repeat % 3:] + order[: repeat % 3]:
            start = time.perf_counter()
            variants[name]()
            best[name] = min(best[name], time.perf_counter() - start)
    baseline_s, disabled_s, enabled_s = (
        best["baseline"], best["disabled"], best["enabled"]
    )

    disabled_pct = 100.0 * (disabled_s / baseline_s - 1.0)
    enabled_pct = 100.0 * (enabled_s / baseline_s - 1.0)
    print_table(
        "Observability overhead — Fig. 5 run with a telemetry reader "
        f"(best of {REPEATS}, interleaved)",
        ["variant", "wall [s]", "vs baseline"],
        [
            ["uninstrumented baseline", f"{baseline_s:.3f}", "--"],
            ["obs disabled (default)", f"{disabled_s:.3f}",
             f"{disabled_pct:+.1f}%"],
            ["obs enabled (tracing)", f"{enabled_s:.3f}",
             f"{enabled_pct:+.1f}%"],
        ],
    )
    benchmark.extra_info["baseline_s"] = round(baseline_s, 4)
    benchmark.extra_info["disabled_s"] = round(disabled_s, 4)
    benchmark.extra_info["enabled_s"] = round(enabled_s, 4)
    benchmark.extra_info["disabled_overhead_pct"] = round(disabled_pct, 2)
    benchmark.extra_info["enabled_overhead_pct"] = round(enabled_pct, 2)

    run_once(benchmark, run_fig5_battery_experiment)

    # The tentpole contract: instrumentation costs ~nothing when off.
    assert disabled_s <= baseline_s * 1.05, (
        f"obs-disabled run {disabled_s:.3f}s exceeds 5% over "
        f"uninstrumented baseline {baseline_s:.3f}s"
    )
