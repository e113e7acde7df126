"""The ``BENCH_<pr>.json`` writer's summaries (``tools/bench_json.py``)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"
_SPEC = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)


def run(setup_s, op_s=1.0, calls=10.0, rss=50.0, calls_made=4, failed=0):
    """One perfbench result line, as ``run.py`` prints it."""
    values = {"setup_s": setup_s, "op_s_p50": op_s, "calls_per_s": calls, "peak_rss_mb": rss}
    return {
        "correct": failed == 0, "attempted": calls_made, "failed": failed,
        "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()},
    }


def test_summarize_gives_median_quartiles_and_count():
    summary = bench_json.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert summary == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_json.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_compare_counts_pairs_in_each_metrics_better_direction():
    base = [run(1.0, calls=10.0), run(1.2, calls=10.0), run(0.9, calls=10.0)]
    head = [run(0.3, calls=11.0), run(0.2, calls=9.0), run(1.0, calls=12.0)]
    delta = bench_json.compare(base, head)
    assert delta["setup_s"]["pairs_won"] == 2
    assert delta["setup_s"]["ratio"] == pytest.approx(0.3)
    assert delta["calls_per_s"]["pairs_won"] == 2  # higher is better
    assert delta["op_s_p50"] == {"ratio": 1.0, "pairs_won": 0, "pairs": 3}


def test_workload_entry_drops_idle_layers_and_counts_failures():
    traced = {
        "correct": True,
        "metrics": {
            "plan.grid.build.calls": {"value": 2},
            "plan.grid.build.share": {"value": 40.0},
            "uav.fleet.step.calls": {"value": 0},
            "uav.fleet.step.share": {"value": 0.0},
            "unattributed.share": {"value": 1.5},
        },
    }
    entry = bench_json.workload_entry([run(1.0), run(2.0, failed=1)], traced)
    assert entry["layers"] == {
        "plan.grid.build.calls": 2, "plan.grid.build.share": 40.0, "unattributed.share": 1.5,
    }
    assert (entry["attempted"], entry["failed"], entry["correct"]) == (8, 1, False)
    assert entry["metrics"]["setup_s"]["median"] == 1.5
