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

REPEATS = 3


def _bare_publish(self, topic, data, sender, origin=None, stamp=None):
    """``RosBus.publish`` with every observability call site stripped."""
    message = Message(
        topic=topic,
        data=data,
        sender=sender,
        origin=origin if origin is not None else sender,
        seq=next(self._seq),
        stamp=stamp if stamp is not None else self.clock,
    )
    for interceptor in self._interceptors:
        replaced = interceptor(message)
        if replaced is None:
            return None
        message = replaced
    for sub in list(self._subs.get(topic, ())):
        if sub.active:
            sub.callback(message)
    return message


def _best_of(fn, repeats=REPEATS):
    """Minimum wall time over ``repeats`` runs (noise-resistant)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_obs_overhead_fig5(benchmark, monkeypatch):
    obs.reset()
    run_fig5_battery_experiment()  # warm-up: imports and allocator caches

    def enabled_run():
        with obs.isolated(enabled=True):
            run_fig5_battery_experiment()

    disabled_s = _best_of(run_fig5_battery_experiment)
    enabled_s = _best_of(enabled_run)
    with monkeypatch.context() as patch:
        patch.setattr(RosBus, "publish", _bare_publish)
        baseline_s = _best_of(run_fig5_battery_experiment)

    disabled_pct = 100.0 * (disabled_s / baseline_s - 1.0)
    enabled_pct = 100.0 * (enabled_s / baseline_s - 1.0)
    print_table(
        "Observability overhead — Fig. 5 run (best of "
        f"{REPEATS})",
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
