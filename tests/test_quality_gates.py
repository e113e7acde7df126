"""Repository-wide quality gates.

Structural checks a downstream adopter relies on: the ConSert network's
monotonicity (more evidence never yields a weaker guarantee), docstring
coverage on the public API, layering (substrates never import
technologies), and a cold import path that loads no SciPy.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro
from repro.core.uav_network import UavConSertNetwork

EVIDENCE_SETTERS = [
    ("set_gps_quality_ok", True),
    ("set_camera_healthy", True),
    ("set_safeml_confidence_ok", True),
    ("set_comm_links_ok", True),
    ("set_nearby_uavs_available", True),
    ("set_drone_detection_ok", True),
]


def apply_assignment(network, bools, reliability):
    for (setter, _), value in zip(EVIDENCE_SETTERS, bools):
        getattr(network, setter)(value)
    network.set_attack_detected(not bools[-1])
    network.set_reliability_level(reliability)


def guarantee_rank(network) -> int:
    """0 = strongest; larger = weaker."""
    offered = network.uav.evaluate()
    return network.uav.guarantee_names().index(offered.name)


class TestConsertMonotonicity:
    @given(
        bools=st.lists(st.booleans(), min_size=7, max_size=7),
        reliability=st.sampled_from(["high", "medium", "low"]),
        flip=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_more_evidence_never_weakens_guarantee(self, bools, reliability, flip):
        """Flipping any single evidence to True is never worse."""
        network = UavConSertNetwork(uav_id="u")
        apply_assignment(network, bools, reliability)
        base_rank = guarantee_rank(network)
        improved = list(bools)
        improved[flip] = True
        apply_assignment(network, improved, reliability)
        assert guarantee_rank(network) <= base_rank

    @given(bools=st.lists(st.booleans(), min_size=7, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_reliability_ordering_respected(self, bools):
        """For any fixed evidence, better reliability is never worse."""
        ranks = {}
        for reliability in ("low", "medium", "high"):
            network = UavConSertNetwork(uav_id="u")
            apply_assignment(network, bools, reliability)
            ranks[reliability] = guarantee_rank(network)
        assert ranks["high"] <= ranks["medium"] <= ranks["low"]


def iter_public_members():
    """Yield (module, name, object) for the public API surface."""
    prefix = repro.__name__ + "."
    for module_info in pkgutil.walk_packages(repro.__path__, prefix):
        if module_info.name.endswith("__main__"):
            continue
        module = importlib.import_module(module_info.name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield module.__name__, name, obj


class TestDocumentation:
    def test_every_public_item_has_a_docstring(self):
        missing = [
            f"{module}.{name}"
            for module, name, obj in iter_public_members()
            if not (obj.__doc__ or "").strip()
        ]
        assert missing == [], f"undocumented public items: {missing}"

    def test_every_module_has_a_docstring(self):
        prefix = repro.__name__ + "."
        missing = []
        for module_info in pkgutil.walk_packages(repro.__path__, prefix):
            module = importlib.import_module(module_info.name)
            if not (module.__doc__ or "").strip():
                missing.append(module_info.name)
        assert missing == [], f"undocumented modules: {missing}"


class TestLayering:
    SUBSTRATES = ("repro.uav", "repro.middleware", "repro.geo")
    TECHNOLOGIES = (
        "repro.core",
        "repro.safedrones",
        "repro.safeml",
        "repro.deepknowledge",
        "repro.sinadra",
        "repro.security",
        "repro.localization",
        "repro.platform",
        "repro.sar",
        "repro.experiments",
    )

    def test_substrates_never_import_technologies(self):
        violations = []
        prefix = repro.__name__ + "."
        for module_info in pkgutil.walk_packages(repro.__path__, prefix):
            name = module_info.name
            if not name.startswith(self.SUBSTRATES):
                continue
            module = importlib.import_module(name)
            source = inspect.getsource(module)
            for tech in self.TECHNOLOGIES:
                if f"from {tech}" in source or f"import {tech}" in source:
                    violations.append((name, tech))
        assert violations == [], f"layering violations: {violations}"


class TestColdImports:
    """Importing what a command or campaign worker imports loads no SciPy.

    SciPy costs more to import than a paper-suite round takes to run, so
    it loads only inside the solvers that need it (``expm``,
    ``linprog``). The check runs in a fresh interpreter:
    this test process has SciPy loaded already.
    """

    COLD_PATH = (
        "repro",
        "repro.__main__",
        "repro.harness.campaign",
        "repro.plan.experiment",
        "repro.swarm.experiment",
        "repro.core.batch",
    )
    PROBE = """
import importlib, pkgutil, sys
import repro.experiments
names = list(sys.argv[1:]) + [
    m.name for m in pkgutil.walk_packages(
        repro.experiments.__path__, repro.experiments.__name__ + "."
    )
]
for name in names:
    importlib.import_module(name)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

    def test_cold_path_never_imports_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, *self.COLD_PATH],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert proc.stdout.split() == [], "scipy imported on the cold path"

    #: Fig. 5 drives the scalar SafeDrones monitor; ten UAVs take the
    #: batched assurance plane (``BatchSafeDrones``).
    RUN_PROBE = """
import sys
from repro.experiments import run_fig5_battery_experiment
from repro.experiments.fleet_scale import run_assurance_scale_point
run_fig5_battery_experiment()
point = run_assurance_scale_point(n_uavs=10, max_time_s=10.0)
assert point["assurance_engine"] == "vectorized", point["assurance_engine"]
assert point["assurance_cycles"] > 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

    def test_safedrones_runtime_never_imports_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", self.RUN_PROBE],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        assert proc.stdout.split() == [], "scipy imported by a SafeDrones solve"
