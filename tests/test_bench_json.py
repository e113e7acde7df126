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
    assert delta["op_s_p50"] == {
        "ratio": 1.0, "pairs_won": 0, "pairs": 3, "gain": False, "regressed": False,
    }


def _paired(metric, base_values, head_values):
    """Runs whose ``metric`` takes the given values, other metrics equal."""
    def one(value):
        return run(**{"setup_s": 1.0, metric: value})
    return [one(v) for v in base_values], [one(v) for v in head_values]


BASE_OP_S = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    summary = bench_json.summarize(BASE_OP_S)
    base_iqr = summary["q3"] - summary["q1"]
    clear = [v - 0.1 for v in BASE_OP_S]
    delta = bench_json.compare(*_paired("op_s", BASE_OP_S, clear))["op_s_p50"]
    assert (delta["pairs_won"], delta["gain"], delta["regressed"]) == (10, True, False)
    # Nine pairs won still counts; eight does not.
    nine = clear[:9] + [BASE_OP_S[9] + 0.5]
    assert bench_json.compare(*_paired("op_s", BASE_OP_S, nine))["op_s_p50"]["gain"]
    eight = clear[:8] + [v + 0.5 for v in BASE_OP_S[8:]]
    assert not bench_json.compare(*_paired("op_s", BASE_OP_S, eight))["op_s_p50"]["gain"]
    # Every pair won, but the medians differ by less than the parent's IQR.
    close = [v - 0.5 * base_iqr for v in BASE_OP_S]
    delta = bench_json.compare(*_paired("op_s", BASE_OP_S, close))["op_s_p50"]
    assert (delta["pairs_won"], delta["gain"]) == (10, False)


def test_gain_follows_each_metrics_better_direction():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8]
    faster = [v + 1.0 for v in base]
    delta = bench_json.compare(*_paired("calls", base, faster))["calls_per_s"]
    assert (delta["pairs_won"], delta["gain"], delta["regressed"]) == (10, True, False)
    delta = bench_json.compare(*_paired("op_s", base, faster))["op_s_p50"]
    assert (delta["pairs_won"], delta["gain"], delta["regressed"]) == (0, False, False)


def test_regressed_when_median_worse_than_the_metrics_bound():
    bounds = bench_json.BOUNDS
    assert bounds["op_s_p50"] == bounds["calls_per_s"] == 0.2
    # op_s_p50: lower is better; a 30 % slower median regresses, 10 % does not.
    slower = [v * 1.3 for v in BASE_OP_S]
    delta = bench_json.compare(*_paired("op_s", BASE_OP_S, slower))["op_s_p50"]
    assert (delta["regressed"], delta["gain"]) == (True, False)
    slightly = [v * 1.1 for v in BASE_OP_S]
    assert not bench_json.compare(*_paired("op_s", BASE_OP_S, slightly))["op_s_p50"]["regressed"]
    # calls_per_s: higher is better; a 30 % drop regresses, a 30 % rise does not.
    base = [10.0] * 10
    delta = bench_json.compare(*_paired("calls", base, [7.0] * 10))["calls_per_s"]
    assert delta["regressed"]
    delta = bench_json.compare(*_paired("calls", base, [13.0] * 10))["calls_per_s"]
    assert not delta["regressed"]


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


@pytest.mark.parametrize("argv,head", [([], "abc1234"), (["--head", "v2"], "v2")])
def test_head_revision_is_recorded_as_given_or_as_the_short_sha(
    monkeypatch, tmp_path, argv, head
):
    seen = {}
    monkeypatch.setattr(bench_json, "ROOT", tmp_path)
    monkeypatch.setattr(
        bench_json, "git",
        lambda *args: "abc1234" if args == ("rev-parse", "--short", "HEAD") else "?",
    )
    monkeypatch.setattr(bench_json, "export", lambda rev, into: into)
    monkeypatch.setattr(
        bench_json, "measure", lambda pr, revs, checkouts: seen.update(revs) or {}
    )
    assert bench_json.main(["--pr", "7", "--base", "f00", *argv]) == 0
    assert seen == {"base": "f00", "head": head}
    assert (tmp_path / "BENCH_7.json").exists()
