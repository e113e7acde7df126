"""Procedural scenario fuzzing: generate, check, shrink.

The dependability claim of the paper is only as strong as the diversity
of inputs the stack has survived. This package turns the three curated
``scenarios/*.json`` into an unbounded supply:

:mod:`~repro.harness.fuzz.generator`
    ``ScenarioGenerator(seed).generate(profile)`` — seeded, profile-
    shaped random scenarios (fleet mix, weather, survivors, fault and
    attack scripts) that round-trip through ``load_scenario_json``.
    Same seed, byte-identical JSON.
:mod:`~repro.harness.fuzz.campaign`
    The registered ``fuzz`` campaign: generated scenarios through the
    fault-tolerant runner with the :mod:`repro.harness.oracles` suite
    as the verdict, plus :func:`~repro.harness.fuzz.campaign.run_fuzz`,
    which shrinks any violation and writes ``artifacts/repro_<seed>.json``.
:mod:`~repro.harness.fuzz.shrink`
    Greedy scenario minimizer: drop UAVs, faults, attacks, weather;
    shorten the horizon; keep only what still reproduces the violation.
"""
