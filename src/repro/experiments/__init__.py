"""Experiment drivers reproducing every figure/result in the paper's Sec. V.

One module per experiment; each exposes a ``run_*`` function returning a
structured result dataclass, shared by the examples, the benchmark
harness, and EXPERIMENTS.md. See DESIGN.md's per-experiment index.
"""
