"""Golden assurance-trace regression: one pinned trace, two engines.

The assurance plane promises bit-identical behaviour between its scalar
and batched implementations (see ``tests/test_assurance_equivalence.py``
for the pairwise proof). This file pins the *absolute* behaviour too:
one scenario's full assurance history — guarantee transitions, EDDI
responses, per-cycle mission verdicts, final SafeDrones numbers — is
stored hex-float in ``tests/data/golden_assurance_trace.json`` and both
engines must reproduce it exactly. A refactor that shifts assurance
semantics now fails against the golden even if it shifts both engines
in lockstep (which the differential suite alone would not catch).

If a change is *supposed* to move the trace (ConSert rewiring, monitor
model fix), regenerate and review the diff like any other code:

    PYTHONPATH=src python tests/test_golden_assurance.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.batch import build_assurance
from repro.scenario import load_scenario

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_assurance_trace.json"
SCENARIO_PATH = (
    Path(__file__).parent.parent / "scenarios" / "windy_night_sar.json"
)
#: Long enough to cross both scripted faults (camera 40 s, GPS denial
#: 90 s) with margin for the resulting demotions to land.
HORIZON_S = 120.0
EDDI_PERIOD_S = 2.0


def collect_assurance_trace(engine: str) -> dict:
    """Run the pinned scenario's assurance plane; hex-float history."""
    scenario = load_scenario(json.loads(SCENARIO_PATH.read_text()), engine=engine)
    world = scenario.world
    plane = build_assurance(world)
    dt = world.dt
    steps = int(round(HORIZON_S / dt))
    cycle_every = max(1, int(round(EDDI_PERIOD_S / dt)))
    verdicts: list[str] = []
    for i in range(1, steps + 1):
        now = scenario.step()
        if i % cycle_every == 0:
            plane.step(now)
            verdicts.append(plane.decide().verdict.name)
    uavs = {}
    for uav_id in plane.uav_ids:
        assessment = plane.assessment(uav_id)
        uavs[uav_id] = {
            "guarantee_trace": [
                [t.hex(), g.name] for t, g in plane.guarantee_trace(uav_id)
            ],
            "responses": [
                [
                    r.stamp.hex(),
                    r.previous.name if r.previous is not None else None,
                    r.guarantee.name,
                ]
                for r in plane.response_log(uav_id)
            ],
            "final_evidence": plane.evidence(uav_id),
            "final_offers": plane.consert_offers(uav_id),
            "final_pof": assessment.failure_probability.hex(),
            "final_battery_pof": assessment.battery_pof.hex(),
            "final_processor_pof": assessment.processor_pof.hex(),
            "final_level": assessment.level.name,
        }
    return {
        "scenario": SCENARIO_PATH.name,
        "horizon_s": HORIZON_S,
        "eddi_period_s": EDDI_PERIOD_S,
        "verdicts": verdicts,
        "uavs": uavs,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.is_file(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        "`PYTHONPATH=src python tests/test_golden_assurance.py`"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
def test_assurance_trace_pinned(engine, golden):
    # Hex-float encoding leaves no tolerance to hide behind: both
    # engines must reproduce the golden to the last bit.
    assert collect_assurance_trace(engine) == golden


def test_golden_records_real_transitions(golden):
    # Meta-check: the pinned scenario actually demotes someone (a golden
    # full of CONTINUE_MISSION_EXTRA would pin nothing interesting).
    transitions = sum(
        len(uav["responses"]) for uav in golden["uavs"].values()
    )
    assert transitions >= 2
    assert len(set(golden["verdicts"])) >= 1


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(collect_assurance_trace("scalar"), indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
