#!/usr/bin/env python3
"""Run perfbench on every workload and write ``BENCH_<pr>.json``.

    python3 tools/bench_json.py --pr 18 --base <rev> [--head <rev>]

Each revision is exported with ``git archive`` into a scratch directory,
so what is measured is exactly what is committed. For every workload,
``perfbench/run.py`` runs ``RUNS`` times untraced per revision, for
BENCHMARK.json's ``run_seconds`` each, in pairs whose first revision
alternates, so host drift hits both alike; then once traced. The file
holds:

* ``revisions``: per revision, the revision as given (a defaulted
  ``--head`` is recorded as the short sha of ``HEAD``), the git sha and,
  per workload, each end-to-end metric's median, q1, q3 and n over the
  untraced runs, the operation counts, and the traced per-layer table
  (layers idle on the workload are left out);
* ``delta``: per workload and metric, the head/base
  ratio of the medians, how many of the alternating run pairs head
  won, and two verdicts (see :func:`compare`): ``gain`` and
  ``regressed``;
* ``host``: machine, Python and library versions, and the calibration
  kernel's seconds before and after, against the reference CPU's.

The seed is pinned (``SEED``); run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
#: Untraced runs per revision and workload, and the perfbench seed.
RUNS = 10
SEED = 1
#: End-to-end metric -> whether lower is better (perfbench ``--trace 0``),
#: and the relative worsening of its median that counts as a regression.
E2E_LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in BENCHMARK["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
#: Share of run pairs the change must win for a gain to count.
GAIN_PAIRS_SHARE = 0.9
CALIBRATION_PROBE = """
import statistics, sys
sys.path.insert(0, "perfbench")
from run import CAL_REF_S, calibrate
print(statistics.median(calibrate() for _ in range(7)), CAL_REF_S)
"""


def git(*args: str) -> str:
    """Output of a git command run in this repository."""
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """Extract the committed tree of ``rev`` into ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def perfbench(checkout: Path, workload: str, trace: bool) -> dict:
    """The JSON result line of one ``perfbench/run.py`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"perfbench {workload} in {checkout} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibration(checkout: Path) -> dict:
    """Seconds of perfbench's calibration kernel on this host."""
    out = subprocess.run(
        [sys.executable, "-c", CALIBRATION_PROBE], cwd=checkout,
        check=True, capture_output=True, text=True,
    ).stdout.split()
    seconds, reference = float(out[-2]), float(out[-1])
    return {"seconds": seconds, "reference_s": reference, "slowdown": seconds / reference}


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of a sample."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def workload_entry(runs: list[dict], traced: dict) -> dict:
    """One revision's numbers for one workload."""
    metrics = {
        name: summarize([run["metrics"][name]["value"] for run in runs])
        for name in E2E_LOWER_IS_BETTER
    }
    layers = traced["metrics"]
    idle = {
        name.rsplit(".", 1)[0] for name, m in layers.items()
        if name.endswith(".calls") and m["value"] == 0
    }
    return {
        "metrics": metrics,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "correct": all(run["correct"] for run in runs) and traced["correct"],
        "layers": {
            name: m["value"] for name, m in layers.items()
            if name.rsplit(".", 1)[0] not in idle
        },
    }


def compare(base_runs: list[dict], head_runs: list[dict]) -> dict:
    """Per metric: head/base median ratio, run pairs head won, and verdicts.

    ``gain``: head won at least ``GAIN_PAIRS_SHARE`` of the pairs, and its
    median beats the base's by more than the base's q3 - q1.
    ``regressed``: head's median is worse than the base's by more than the
    metric's ``bound`` in BENCHMARK.json, as a share of the base's median.
    """
    delta = {}
    for name, lower in E2E_LOWER_IS_BETTER.items():
        base = [run["metrics"][name]["value"] for run in base_runs]
        head = [run["metrics"][name]["value"] for run in head_runs]
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        base_summary = summarize(base)
        base_median, head_median = base_summary["median"], statistics.median(head)
        better_by = (base_median - head_median) if lower else (head_median - base_median)
        delta[name] = {
            "ratio": head_median / base_median,
            "pairs_won": won,
            "pairs": len(base),
            "gain": won >= GAIN_PAIRS_SHARE * len(base)
            and better_by > base_summary["q3"] - base_summary["q1"],
            "regressed": -better_by > BOUNDS[name] * base_median,
        }
    return delta


def host_info(before: dict, after: dict) -> dict:
    """Where the numbers were taken."""
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.uname().machine,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_before": before,
        "calibration_after": after,
    }


def measure(pr: int, revs: dict[str, str], checkouts: dict[str, Path]) -> dict:
    """Every run of every workload, summarised."""
    before = calibration(checkouts["head"])

    result = {
        "pr": pr,
        "seed": SEED,
        "runs": RUNS,
        "seconds": SECONDS,
        "revisions": {
            label: {"rev": rev, "sha": git("rev-parse", rev), "workloads": {}}
            for label, rev in revs.items()
        },
        "delta": {},
    }
    for workload in WORKLOADS:
        runs: dict[str, list[dict]] = {label: [] for label in revs}
        for i in range(RUNS):
            # Alternate which revision runs first in each pair.
            for label in (list(revs) if i % 2 == 0 else list(reversed(revs))):
                start = time.perf_counter()
                runs[label].append(perfbench(checkouts[label], workload, False))
                print(f"{workload} {label} run {i + 1}/{RUNS} "
                      f"({time.perf_counter() - start:.1f} s)", file=sys.stderr)
        for label in revs:
            traced = perfbench(checkouts[label], workload, True)
            result["revisions"][label]["workloads"][workload] = workload_entry(
                runs[label], traced
            )
        result["delta"][workload] = compare(runs["base"], runs["head"])

    result["host"] = host_info(before, calibration(checkouts["head"]))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--base", required=True, help="revision measured as the parent")
    parser.add_argument("--head", help="revision measured as the change "
                        "(default: the short sha of HEAD)")
    parser.add_argument("--workdir", type=Path, help="where the revisions are exported "
                        "(a temporary directory inside it, removed afterwards)")
    args = parser.parse_args(argv)

    revs = {"base": args.base, "head": args.head or git("rev-parse", "--short", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="bench_json_", dir=args.workdir) as scratch:
        checkouts = {label: export(rev, Path(scratch) / label) for label, rev in revs.items()}
        result = measure(args.pr, revs, checkouts)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0

if __name__ == "__main__":
    sys.exit(main())
