"""Interactive tour of the Fig. 1 hierarchical ConSert network.

Walks a fleet of three UAVs through a storyline of degradations —
reliability drops, a cyber attack, camera loss — and shows how each UAV's
top-level guarantee and the mission-level verdict respond.

Run:  python examples/conserts_playground.py
"""

from repro.core.decider import MissionDecider
from repro.core.uav_network import UavConSertNetwork
from repro.platform.gui import render_mission_panel


def show(decider: MissionDecider, title: str) -> None:
    print(f"--- {title} ---")
    print(render_mission_panel(decider.decide()))
    print()


def main() -> None:
    decider = MissionDecider()
    networks = {}
    for i in range(3):
        network = UavConSertNetwork(uav_id=f"uav{i + 1}")
        network.set_reliability_level("high")
        decider.add_uav(network)
        networks[network.uav_id] = network

    show(decider, "all UAVs healthy")

    networks["uav1"].set_reliability_level("medium")
    show(decider, "uav1 reliability degrades to MEDIUM (SafeDrones)")

    networks["uav1"].set_reliability_level("low")
    show(decider, "uav1 reliability drops to LOW -> return to base")
    print()

    networks["uav1"].set_reliability_level("high")
    networks["uav2"].set_attack_detected(True)
    print(
        "uav2 under attack; its navigation ConSert now offers:",
        networks["uav2"].navigation_guarantee(),
    )
    show(decider, "uav2 under cyber attack (Security EDDI) -> collaborative nav")

    networks["uav2"].set_nearby_uavs_available(False)
    networks["uav2"].set_camera_healthy(False)
    show(decider, "uav2 attacked + isolated + camera dead -> emergency land")


if __name__ == "__main__":
    main()
