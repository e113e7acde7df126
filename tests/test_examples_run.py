"""End-to-end checks: every shipped example runs and prints its headline.

These execute the actual example scripts in subprocesses — the same
commands the README advertises — so a broken public API surface cannot
slip past the suite.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

EXPECTED_OUTPUT = {
    "quickstart.py": ["persons found:", "detection accuracy:"],
    "battery_failure_availability.py": ["availability improvement", "threshold"],
    "sar_accuracy_adaptation.py": ["uncertainty after descent", "99."],
    "spoofing_attack_response.py": ["Security EDDI detection", "landing error"],
    "conserts_playground.py": ["MISSION:", "* uav2: emergency_land"],
    "scenario_driven.py": ["guarantee timeline", "fault campaign log"],
}


@pytest.mark.parametrize("name", sorted(EXPECTED_OUTPUT))
def test_example_runs_and_prints_headlines(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for needle in EXPECTED_OUTPUT[name]:
        assert needle in result.stdout, (
            f"{name}: expected {needle!r} in output;\n{result.stdout[-2000:]}"
        )


def test_every_example_is_covered():
    shipped = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert shipped == set(EXPECTED_OUTPUT), (
        "examples and EXPECTED_OUTPUT out of sync"
    )
