"""Command-line entry point: run any paper experiment from the shell.

Usage::

    python -m repro list
    python -m repro fig4          # platform demonstration panel
    python -m repro fig5          # battery-fault availability
    python -m repro sar-accuracy  # Sec. V-B altitude adaptation
    python -m repro fig6          # spoofing trajectory deviation
    python -m repro fig7          # collaborative safe landing
    python -m repro conserts      # Fig. 1 scenario matrix
    python -m repro comm          # degraded-comm availability sweep
    python -m repro fleet-scale   # SAR coverage time vs fleet size

    python -m repro campaign --list                    # sweep catalogue + presets
    python -m repro campaign monte-carlo --workers 4   # sharded sweep
    python -m repro campaign monte-carlo --resume      # finish a broken run
    python -m repro campaign swarm-sizing --preset smoke
                                  # leader-follower tasking over the degraded
                                  # bus: latency/coverage vs K, rho, P
    python -m repro campaign planner-ablation --preset smoke
                                  # obstacle-aware planning: fixed patterns vs
                                  # planned tours on path length/time-to-find/energy

    python -m repro campaign fuzz --profile smoke --count 200 --workers 4
                                  # generated scenarios vs the oracle suite;
                                  # violations are shrunk to artifacts/repro_<seed>.json

    python -m repro scenario validate scenarios/windy_night_sar.json
    python -m repro scenario replay artifacts/repro_123.json   # re-run a repro
                                  # under the oracles; exits 1 on violation

    python -m repro fig5 --trace fig5.jsonl            # capture an obs trace
    python -m repro obs summarize fig5.jsonl           # render it
    python -m repro obs chrome fig5.jsonl              # chrome://tracing JSON
"""

from __future__ import annotations

import argparse
import sys


def _run_fig4(seed: int) -> None:
    from repro.experiments.fig4_platform import run_fig4_platform_demo

    print(run_fig4_platform_demo(seed=seed).render())


def _run_fig5(seed: int) -> None:
    from repro.experiments.fig5_battery import run_fig5_battery_experiment

    result = run_fig5_battery_experiment(seed=seed)
    print(f"nominal mission:        {result.nominal_mission_s:.0f} s")
    crossing = result.with_sesame.threshold_crossing_time
    print(f"PoF 0.9 crossing:       {crossing:.0f} s" if crossing else "no crossing")
    print(
        f"availability:           {result.availability_with:.3f} with SESAME, "
        f"{result.availability_without:.3f} without (paper: ~0.91 vs ~0.80)"
    )
    print(f"completion improvement: {100 * result.completion_improvement:.1f}%")


def _run_sar_accuracy(seed: int) -> None:
    from repro.experiments.sar_accuracy import run_sar_accuracy_experiment

    result = run_sar_accuracy_experiment(seed=seed)
    print(f"uncertainty high/final: {result.uncertainty_high:.3f} / "
          f"{result.uncertainty_final:.3f} (paper: >0.90 / ~0.75)")
    print(f"accuracy with/without:  {result.accuracy_with_sesame:.4f} / "
          f"{result.accuracy_without_sesame:.4f} (paper: 0.998 / lower)")
    print(f"operating altitude:     {result.final_altitude_m:.0f} m")


def _run_fig6(seed: int) -> None:
    from repro.experiments.fig6_spoofing import run_fig6_spoofing_experiment

    result = run_fig6_spoofing_experiment(seed=seed)
    print(f"max trajectory deviation: {result.max_deviation_m:.1f} m")
    print(f"Security EDDI latency:    {result.eddi_latency_s:.1f} s")
    print(f"IMU cross-check latency:  {result.sensor_latency_s:.1f} s")


def _run_fig7(seed: int) -> None:
    from repro.experiments.fig7_collab_landing import run_fig7_collaborative_landing

    result = run_fig7_collaborative_landing(seed=seed)
    print(f"landed:                {result.cl_report.landed}")
    print(f"landing error:         {result.cl_report.final_error_m:.2f} m")
    print(f"baseline (no CL):      {result.baseline_error_m:.2f} m")


def _run_comm(seed: int) -> None:
    from repro.experiments.comm_availability import run_comm_availability_experiment

    result = run_comm_availability_experiment(seed=seed)
    print("loss    delivery (exp/meas)   availability   demotions")
    for loss, expected, measured, availability, demotions in result.summary_rows():
        print(
            f"{loss:<7.2f} {expected:.3f} / {measured:.3f}"
            f"        {availability:<14.3f} {demotions}"
        )


def _run_conserts(seed: int) -> None:
    from repro.experiments.conserts_network import run_conserts_scenario_matrix

    for result in run_conserts_scenario_matrix():
        degraded = result.conditions[0]
        print(
            f"rel={degraded.reliability:<6} gps={str(degraded.gps_ok):<5} "
            f"attack={str(degraded.attack):<5} cam={str(degraded.camera_ok):<5} "
            f"-> {result.guarantees[0].value:<28} {result.verdict.value}"
        )


def _run_fleet_scale(seed: int) -> None:
    from repro.experiments.fleet_scale import run_fleet_scale_experiment

    result = run_fleet_scale_experiment(seed=seed)
    print(result.render())


COMMANDS = {
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "sar-accuracy": _run_sar_accuracy,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "conserts": _run_conserts,
    "comm": _run_comm,
    "fleet-scale": _run_fleet_scale,
}


def _write_metrics_dump(path: str, snapshot: dict | None) -> None:
    """Write a Prometheus-style text dump of a metrics snapshot."""
    from pathlib import Path

    from repro.obs.export import prometheus_text
    from repro.obs.metrics import empty_snapshot

    text = prometheus_text(snapshot if snapshot is not None else empty_snapshot())
    Path(path).write_text(text, encoding="utf-8")
    print(f"metrics: {path}")


def _run_single(name: str, args: argparse.Namespace) -> int:
    """Run one single-shot experiment, optionally under an obs session."""
    from repro import obs

    if args.trace is None and args.metrics is None:
        COMMANDS[name](args.seed)
        return 0
    with obs.capture(
        trace_path=args.trace,
        meta={"experiment": name, "seed": args.seed},
    ) as captured:
        COMMANDS[name](args.seed)
    if args.trace is not None:
        print(f"trace: {args.trace}")
    if args.metrics is not None:
        _write_metrics_dump(args.metrics, captured["payload"]["metrics"])
    return 0


def _run_fuzz_cli(args: argparse.Namespace, policy) -> int:
    """``python -m repro campaign fuzz``: generate, check, shrink."""
    import json as json_module

    from repro.harness.campaign import CampaignAborted
    from repro.harness.fuzz.campaign import run_fuzz, summarize_fuzz

    if args.count is not None and args.count < 1:
        return _usage_error(f"--count must be >= 1, got {args.count}")
    try:
        chaos = json_module.loads(args.chaos) if args.chaos else None
    except json_module.JSONDecodeError as exc:
        return _usage_error(f"--chaos is not valid JSON: {exc}")
    try:
        outcome = run_fuzz(
            profile=args.profile,
            count=args.count,
            root_seed=args.seed,
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            manifest_path=args.manifest,
            artifacts_dir=args.artifacts,
            chaos=chaos,
            shrink=not args.no_shrink,
            policy=policy,
            resume=args.resume,
        )
    except CampaignAborted as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print(
            "\nfuzzing interrupted — completed scenarios are checkpointed; "
            "rerun to pick up where it left off",
            file=sys.stderr,
        )
        return 130
    result = outcome.campaign
    print(
        f"campaign fuzz grid={result.grid} root_seed={result.root_seed} "
        f"workers={result.workers}"
    )
    totals = result.manifest["totals"]
    print(
        f"samples: {totals['samples']} ({totals['cached']} cached, "
        f"{totals['failed']} failed)  "
        f"wall: {totals['wall_s']:.2f} s  fingerprint: {result.fingerprint}"
    )
    if result.manifest_path is not None:
        print(f"manifest: {result.manifest_path}")
    print(summarize_fuzz(result))
    for seed, path in outcome.repro_paths.items():
        shrunk = outcome.shrink_results.get(seed)
        if shrunk is None:  # swarm reproducers are saved unshrunk
            print(f"repro: {path}")
        else:
            print(
                f"minimized repro ({shrunk.oracle}, {shrunk.checks} shrink "
                f"checks): {path}"
            )
        print(f"  replay with: python -m repro scenario replay {path}")
    if not outcome.ok:
        print(
            f"{len(outcome.violations)} oracle-violating and "
            f"{len(outcome.crashes)} crashed scenario(s) quarantined",
            file=sys.stderr,
        )
        return 1
    return 0


def _print_catalog() -> None:
    """The experiment catalogue with grid presets."""
    from repro.experiments.campaigns import list_experiments

    for experiment in list_experiments():
        presets = ", ".join(experiment.presets)
        print(f"{experiment.name:<14} [{presets}]  {experiment.describe}")


def _usage_error(message: str) -> int:
    """Report a bad command-line value on one stderr line; exit code 2."""
    print(message, file=sys.stderr)
    return 2


def _run_campaign_cli(args: argparse.Namespace) -> int:
    """``python -m repro campaign <experiment>``: a sharded, cached sweep."""
    from repro.experiments.campaigns import get_experiment
    from repro.harness.campaign import CampaignAborted, FaultPolicy, run_campaign

    if args.list or args.campaign_experiment in (None, "list"):
        _print_catalog()
        return 0
    try:
        experiment = get_experiment(args.campaign_experiment)
    except KeyError as exc:
        return _usage_error(exc.args[0])
    if args.workers < 1:
        return _usage_error(f"--workers must be >= 1, got {args.workers}")
    if args.retries < 0:
        return _usage_error(f"--retries must be >= 0, got {args.retries}")
    try:
        policy = FaultPolicy(
            timeout_s=args.timeout,
            max_attempts=args.retries + 1,
            backoff_s=args.backoff,
            max_failures=args.max_failures,
        )
    except ValueError as exc:
        return _usage_error(f"invalid fault policy: {exc}")
    if experiment.name == "fuzz":
        return _run_fuzz_cli(args, policy)
    if args.grid not in experiment.presets:
        return _usage_error(
            f"unknown grid preset {args.grid!r} for {experiment.name}; "
            f"presets: {', '.join(experiment.presets)}"
        )
    try:
        result = run_campaign(
            experiment,
            grid=args.grid,
            root_seed=args.seed,
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            manifest_path=args.manifest,
            observe=args.metrics is not None,
            trace_path=args.trace,
            policy=policy,
            resume=args.resume,
        )
    except CampaignAborted as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        print(
            "fix the experiment, then rerun with --resume to finish the grid",
            file=sys.stderr,
        )
        return 3
    except KeyboardInterrupt:
        print(
            "\ncampaign interrupted — completed samples are checkpointed; "
            "rerun to pick up where it left off (--resume also retries "
            "quarantined failures)",
            file=sys.stderr,
        )
        return 130
    totals = result.manifest["totals"]
    print(
        f"campaign {result.experiment} grid={result.grid} "
        f"root_seed={result.root_seed} workers={result.workers}"
    )
    print(
        f"samples: {totals['samples']} ({totals['cached']} cached, "
        f"{totals['failed']} failed)  "
        f"wall: {totals['wall_s']:.2f} s  fingerprint: {result.fingerprint}"
    )
    if result.manifest_path is not None:
        print(f"manifest: {result.manifest_path}")
    if args.trace is not None:
        print(f"trace: {args.trace}")
    if args.metrics is not None:
        _write_metrics_dump(args.metrics, result.manifest.get("metrics"))
    if experiment.summarize is not None:
        print(experiment.summarize(result))
    if totals["failed"]:
        for record in result.failed_records:
            error = record.error or {}
            print(
                f"sample {record.index} failed after {record.attempts} "
                f"attempt(s): [{error.get('kind', '?')}] "
                f"{error.get('message', '')}",
                file=sys.stderr,
            )
        print(
            f"{totals['failed']} sample(s) quarantined; "
            "rerun with --resume after fixing the experiment",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_scenario_cli(args: argparse.Namespace) -> int:
    """``python -m repro scenario validate|replay <file.json>``."""
    import json
    from pathlib import Path

    path = Path(args.file)
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"{path}: cannot read: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"{path}: not valid JSON: {exc}", file=sys.stderr)
        return 1
    if not isinstance(config, dict):
        print(f"{path}: expected a JSON object at the top level", file=sys.stderr)
        return 1

    from repro.scenario import lint_scenario

    # Both kinds, both commands: lint first, so a file that does not load
    # is reported field by field instead of as a simulator failure.
    problems = lint_scenario(config)
    if problems:
        print(
            f"{path}: does not load: ScenarioError, {len(problems)} problem(s)",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if args.scenario_command == "validate":
        from repro.schema import schema_for

        print(f"{path}: OK — {schema_for(config).summary(config)}")
        return 0

    # replay: run the scenario under its kind's property-oracle suite.
    from repro.harness.oracles import run_scenario_oracles, run_swarm_oracles

    if args.horizon is not None:
        config = {**config, "horizon_s": args.horizon}
    run = run_swarm_oracles if config.get("kind") == "swarm" else run_scenario_oracles
    report = run(config)
    print(
        f"{path}: {report.steps} steps over {report.horizon_s:g} s sim "
        f"time, oracles: {', '.join(report.checked)}"
    )
    if report.passed:
        print("all oracles passed")
        return 0
    for violation in report.violations:
        where = f" uav={violation.uav}" if violation.uav else ""
        when = f" t={violation.time:g}" if violation.time is not None else ""
        print(
            f"VIOLATION [{violation.oracle}]{when}{where}: "
            f"{violation.message}",
            file=sys.stderr,
        )
    if report.suppressed:
        print(
            f"({report.suppressed} further violation(s) suppressed)",
            file=sys.stderr,
        )
    return 1


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a paper experiment from the SESAME reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {"fig4": 42, "fig5": 3, "sar-accuracy": 5, "fig6": 9, "fig7": 13,
                "conserts": 0, "comm": 7, "fleet-scale": 21}
    for name in sorted(COMMANDS):
        single = sub.add_parser(name, help=f"run the {name} experiment")
        single.add_argument(
            "--seed", type=int, default=defaults[name], help="override the seed"
        )
        single.add_argument(
            "--trace", default=None, metavar="PATH",
            help="capture an observability trace (JSONL) to PATH",
        )
        single.add_argument(
            "--metrics", default=None, metavar="PATH",
            help="write a Prometheus-style metrics dump to PATH",
        )
    sub.add_parser("list", help="enumerate the single-run experiments")

    campaign = sub.add_parser(
        "campaign", help="run a sharded, cached experiment sweep"
    )
    campaign.add_argument(
        "campaign_experiment",
        metavar="experiment",
        nargs="?",
        default=None,
        help="campaign name (omit or use --list for the catalogue)",
    )
    campaign.add_argument(
        "--list", action="store_true",
        help="enumerate registered experiments with their grid presets",
    )
    campaign.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )
    campaign.add_argument(
        "--seed", type=int, default=0, help="campaign root seed (default 0)"
    )
    campaign.add_argument(
        "--grid", "--preset", dest="grid", default="default",
        help="grid preset: smoke/default/full (--preset is an alias)",
    )
    campaign.add_argument(
        "--cache-dir", default=".repro-cache", help="result cache directory"
    )
    campaign.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    campaign.add_argument(
        "--manifest", default=None, help="write the run manifest JSON here"
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="re-run only failed or missing grid points against the cache",
    )
    campaign.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-sample wall-clock timeout in seconds (terminates the worker)",
    )
    campaign.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry each failing sample up to N extra times (same seed)",
    )
    campaign.add_argument(
        "--backoff", type=float, default=0.5, metavar="S",
        help="base delay between retries; attempt k waits S*k (default 0.5)",
    )
    campaign.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="abort once more than N samples are quarantined this run",
    )
    campaign.add_argument(
        "--trace", default=None, metavar="PATH",
        help="capture a campaign observability trace (JSONL) to PATH",
    )
    campaign.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the merged Prometheus-style metrics dump to PATH",
    )
    fuzz_opts = campaign.add_argument_group(
        "fuzz options (campaign fuzz only)"
    )
    fuzz_opts.add_argument(
        "--profile", choices=("smoke", "default", "hostile"),
        default="default", help="scenario generator profile",
    )
    fuzz_opts.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="generated scenarios to run (default: profile-specific)",
    )
    fuzz_opts.add_argument(
        "--artifacts", default="artifacts", metavar="DIR",
        help="directory for minimized repro_<seed>.json files",
    )
    fuzz_opts.add_argument(
        "--no-shrink", action="store_true",
        help="report violations without shrinking them",
    )
    fuzz_opts.add_argument(
        "--chaos", default=None, metavar="JSON",
        help="scenario chaos block to arm in every generated scenario "
             '(self-test, e.g. \'{"mode": "teleport", "at": 10}\')',
    )

    scenario = sub.add_parser(
        "scenario", help="validate or replay a scenario JSON file"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    validate = scenario_sub.add_parser(
        "validate",
        help="lint a scenario file; nonzero exit with a readable report",
    )
    validate.add_argument("file", help="scenario JSON file")
    replay = scenario_sub.add_parser(
        "replay",
        help="run a scenario under the property-oracle suite "
             "(exits 1 on any violation)",
    )
    replay.add_argument("file", help="scenario JSON file")
    replay.add_argument(
        "--horizon", type=float, default=None, metavar="S",
        help="override the simulated horizon in seconds",
    )

    from repro.obs.cli import add_obs_parser

    add_obs_parser(sub)

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(COMMANDS):
            print(name)
        return 0
    if args.command == "campaign":
        return _run_campaign_cli(args)
    if args.command == "scenario":
        return _run_scenario_cli(args)
    if args.command == "obs":
        from repro.obs.cli import run_obs_cli

        return run_obs_cli(args)
    return _run_single(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
