"""Ablation bench: SafeDrones propulsion reconfiguration.

Sweeps airframe (quad / hexa / octa) x reconfiguration success rate and
reports mission-horizon failure probability — the design-space
view behind the paper's "reconfiguration in the propulsion system"
capability (Sec. III-A1)."""

from conftest import print_table, run_once

from repro.safedrones.propulsion import PropulsionModel


def sweep():
    rows = []
    for rotors in (4, 6, 8):
        for reconfig in (0.5, 0.9, 0.99, 1.0):
            model = PropulsionModel(rotor_count=rotors, reconfig_success=reconfig)
            rows.append(
                (rotors, reconfig,
                 model.failure_probability(1800.0),
                 model.failure_probability(4 * 3600.0))
            )
    return rows


def test_propulsion_reconfiguration_sweep(benchmark):
    rows = run_once(benchmark, sweep)
    print_table(
        "Propulsion ablation — airframe x reconfiguration success",
        ["rotors", "reconfig", "PoF @ 30 min", "PoF @ 4 h"],
        [
            [r[0], f"{r[1]:.2f}", f"{r[2]:.2e}", f"{r[3]:.2e}"]
            for r in rows
        ],
    )
    by_key = {(r[0], r[1]): r for r in rows}
    # With perfect reconfiguration, redundancy strictly helps at 4 h.
    assert by_key[(8, 1.0)][3] < by_key[(6, 1.0)][3] < by_key[(4, 1.0)][3]


def test_markov_transient_solve_cost(benchmark):
    """Cost of one reliability query (the per-cycle SafeDrones load)."""
    model = PropulsionModel(rotor_count=8)
    pof = benchmark(model.failure_probability, 3600.0)
    assert 0.0 <= pof <= 1.0
