"""Deterministic parallel campaign runner.

The experiment drivers under :mod:`repro.experiments` each answer one
paper question at one scenario point; the studies that back the paper's
sweep-style evidence (Fig. 5 Monte Carlo, comm-availability loss sweep)
run hundreds of points. This package shards any such grid across a
``multiprocessing`` worker pool while keeping the results *bit-identical*
regardless of worker count or scheduling order:

- every sample owns an independent RNG stream derived up-front via
  :meth:`numpy.random.SeedSequence.spawn` (:mod:`repro.harness.seeding`);
- completed points are cached on disk under a stable hash of
  (experiment, config, seed, code version) (:mod:`repro.harness.cache`);
- each run emits a JSON manifest recording per-sample seed, config,
  wall time, worker id and phase timings (:mod:`repro.harness.manifest`),
  so any single sample can be reproduced in isolation and the manifest
  doubles as a coarse profile;
- execution is fault-tolerant: records are checkpointed into the cache
  as they complete, a :class:`~repro.harness.campaign.FaultPolicy`
  bounds samples with timeouts and retries, failed samples are
  quarantined as ``status: "failed"`` manifest records instead of
  killing their siblings, and ``resume=True`` re-runs only failed or
  missing grid points;
- the platform hunts its own bugs: :mod:`repro.harness.oracles` is the
  property-oracle suite every simulation must satisfy, and
  :mod:`repro.harness.fuzz` generates seeded random scenarios, runs
  them through the campaign machinery against the oracles, and shrinks
  any violation to a minimal reproducing scenario file.

Entry points: :func:`repro.harness.campaign.run_campaign` and the
``python -m repro campaign <experiment>`` CLI (including
``campaign fuzz --profile {smoke,default,hostile} --count N``).
"""
