"""The campaign engine: shard an experiment grid across a worker pool.

Determinism contract: a campaign's results are a pure function of
(experiment, grid, root seed). Every sample's seed is spawned up front
in grid order (:mod:`repro.harness.seeding`), every sample runs in its
own process-safe function call with no shared mutable state, and records
are re-assembled by grid index — so ``workers=1`` and ``workers=16``
produce byte-identical deterministic manifests (see
:func:`repro.harness.manifest.manifest_fingerprint`). The on-disk cache
and worker pool only change *when* a sample's record materializes, never
*what* it contains. Retries re-run a sample with its original spawned
seed, so a campaign that survived transient failures fingerprints
identically to one that never failed.

Fault tolerance: every finished record is checkpointed into the
:class:`~repro.harness.cache.ResultCache` the moment it completes, so an
interrupted campaign loses at most the in-flight samples. A
:class:`FaultPolicy` bounds each sample with a wall-clock timeout and
retries with linear backoff; samples that still fail are quarantined as
structured ``status: "failed"`` records in the manifest instead of an
exception killing their siblings. ``run_campaign(..., resume=True)``
re-runs only failed or missing grid points against the existing cache,
and ``FaultPolicy.max_failures`` aborts early (:class:`CampaignAborted`)
when the whole grid is broken.

Experiments register a :class:`CampaignExperiment` (usually at module
import, see :mod:`repro.experiments.campaigns`); child processes
re-import the defining module by name, so registration must be an import
side effect of that module.
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
import traceback
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Callable

from repro import obs
from repro.harness.cache import ResultCache, code_fingerprint, sample_key
from repro.harness.manifest import (
    MANIFEST_SCHEMA_VERSION,
    manifest_fingerprint,
    write_manifest,
)
from repro.harness.seeding import spawn_sample_seeds
from repro.harness.timing import PhaseTimer

#: Sample functions take (config, seed, timer) and return a JSON-able dict.
SampleFn = Callable[[dict, int, PhaseTimer], dict]


@dataclass(frozen=True)
class FaultPolicy:
    """Per-sample fault handling for a campaign run.

    ``timeout_s``
        Wall-clock budget for one attempt; a sample still running past it
        is terminated. Setting a timeout runs every attempt in a child
        process, even at ``workers=1``.
    ``max_attempts``
        Total attempts per sample (1 = no retries). Every attempt re-runs
        with the sample's original spawned seed, so a retried success is
        bit-identical to a first-try success.
    ``backoff_s``
        Base delay between attempts; attempt *k* waits ``backoff_s * k``.
    ``max_failures``
        Abort the campaign (:class:`CampaignAborted`) once more than this
        many samples have been quarantined this run; ``None`` never
        aborts. Completed samples stay checkpointed either way.
    """

    timeout_s: float | None = None
    max_attempts: int = 1
    backoff_s: float = 0.0
    max_failures: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.max_failures is not None and self.max_failures < 0:
            raise ValueError(f"max_failures must be >= 0, got {self.max_failures}")


#: Default policy: one attempt, no timeout, quarantine but never abort.
NO_RETRY = FaultPolicy()


class CampaignAborted(RuntimeError):
    """Raised when quarantined failures exceed ``FaultPolicy.max_failures``."""

    def __init__(self, experiment: str, failures: int, max_failures: int) -> None:
        super().__init__(
            f"campaign {experiment!r} aborted after {failures} quarantined "
            f"sample failures (max_failures={max_failures}); completed "
            f"samples remain checkpointed in the result cache"
        )
        self.experiment = experiment
        self.failures = failures
        self.max_failures = max_failures


@dataclass(frozen=True)
class CampaignExperiment:
    """One runnable experiment grid.

    ``grids`` maps a preset name (``"smoke"``, ``"default"``, ``"full"``
    — whatever the experiment defines) to a list of JSON-able config
    dicts, one per sample. ``version`` participates in the cache key;
    bump it when a dependency of the sample function changes semantics
    without touching the defining module's source.
    """

    name: str
    sample_fn: SampleFn
    grids: Callable[[str], list[dict]]
    version: str = "1"
    describe: str = ""
    summarize: Callable[["CampaignResult"], str] | None = None
    #: Grid preset names ``grids`` accepts — the discoverable catalogue
    #: (``python -m repro campaign --list``) and what the campaign CLI
    #: validates ``--grid`` against. Experiments with parameterized
    #: presets (fuzz's ``profile:count``) list the bases.
    presets: tuple[str, ...] = ("smoke", "default", "full")

    @property
    def module(self) -> str:
        """Module whose import registers this experiment (for workers)."""
        return self.sample_fn.__module__


@dataclass(frozen=True)
class SampleRecord:
    """One completed grid point, exactly as it appears in the manifest."""

    index: int
    seed: int
    config: dict
    result: dict | None
    wall_time_s: float
    worker: str
    cached: bool
    timings: dict
    #: ``"ok"`` or ``"failed"`` (quarantined after exhausting attempts).
    status: str = "ok"
    #: How many attempts this record took (retries count).
    attempts: int = 1
    #: Structured error (kind/type/message) for failed records only.
    error: dict | None = None
    #: Per-sample obs metrics snapshot; only present on observed runs.
    metrics: dict | None = None
    #: Property-oracle verdict block (schema v3); present when the
    #: sample function returns an ``"oracles"`` entry in its result.
    oracles: dict | None = None

    def to_dict(self) -> dict:
        data = {
            "index": self.index,
            "seed": self.seed,
            "config": self.config,
            "result": self.result,
            "wall_time_s": self.wall_time_s,
            "worker": self.worker,
            "cached": self.cached,
            "timings": self.timings,
            "status": self.status,
            "attempts": self.attempts,
        }
        if self.error is not None:
            data["error"] = self.error
        if self.metrics is not None:
            data["metrics"] = self.metrics
        if self.oracles is not None:
            data["oracles"] = self.oracles
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SampleRecord":
        """Build from a manifest/cache dict; missing optional fields
        (records written by an older schema) fall back to their defaults
        instead of raising ``KeyError``."""
        kwargs = {}
        for name, spec in cls.__dataclass_fields__.items():
            if name in data:
                kwargs[name] = data[name]
            elif spec.default is not MISSING:
                kwargs[name] = spec.default
            else:
                raise KeyError(name)
        return cls(**kwargs)


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    experiment: str
    grid: str
    root_seed: int
    workers: int
    records: list[SampleRecord]
    manifest: dict
    manifest_path: Path | None = None

    @property
    def results(self) -> list[dict]:
        """Per-sample result dicts, in grid order (None for failures)."""
        return [record.result for record in self.records]

    @property
    def failed_records(self) -> list[SampleRecord]:
        """The quarantined samples, in grid order."""
        return [record for record in self.records if record.status != "ok"]

    @property
    def fingerprint(self) -> str:
        """Scheduling-independent hash of the campaign's results."""
        return manifest_fingerprint(self.manifest)


# --------------------------------------------------------------- registry
_REGISTRY: dict[str, CampaignExperiment] = {}


def register_experiment(experiment: CampaignExperiment) -> CampaignExperiment:
    """Register (or re-register, idempotently) a campaign experiment."""
    _REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> CampaignExperiment:
    """Look up a registered experiment by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown campaign experiment {name!r}; registered: {known}"
        ) from None


def list_experiments() -> list[CampaignExperiment]:
    """All registered experiments, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# --------------------------------------------------------------- execution
def _execute_sample(
    experiment: CampaignExperiment,
    index: int,
    config: dict,
    seed: int,
    observe: bool = False,
) -> dict:
    """Run one grid point (one attempt); returns its record as a dict.

    With ``observe`` the sample runs inside its own isolated obs session:
    the record gains a ``"metrics"`` snapshot (kept in the manifest and
    merged campaign-wide) and a transient ``"obs"`` blob of spans/events
    that :func:`run_campaign` strips into the trace file — it never
    reaches the cache or the manifest.

    A sample function that returns an ``"oracles"`` entry in its result
    (the property-oracle verdict block, see :mod:`repro.harness.oracles`)
    has it lifted to a top-level record field — deterministic, hashed by
    the manifest fingerprint, and queryable without digging into
    experiment-specific result shapes.
    """
    timer = PhaseTimer()
    start = time.perf_counter()
    if observe:
        with obs.isolated(enabled=True) as session:
            result = experiment.sample_fn(dict(config), seed, timer)
            payload = session.collect()
    else:
        result = experiment.sample_fn(dict(config), seed, timer)
        payload = None
    wall = time.perf_counter() - start
    oracles = result.pop("oracles", None) if isinstance(result, dict) else None
    record = {
        "index": index,
        "seed": seed,
        "config": config,
        "result": result,
        "wall_time_s": round(wall, 6),
        "worker": multiprocessing.current_process().name,
        "cached": False,
        "timings": timer.as_dict(),
        "status": "ok",
        "attempts": 1,
    }
    if oracles is not None:
        record["oracles"] = oracles
    if payload is not None:
        record["metrics"] = payload["metrics"]
        record["obs"] = {"spans": payload["spans"], "events": payload["events"]}
    return record


def _describe_error(exc: BaseException, kind: str) -> dict:
    """Structured, JSON-able description of a sample failure."""
    return {
        "kind": kind,
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(limit=20),
    }


def _crash_error(process: multiprocessing.process.BaseProcess) -> dict:
    return {
        "kind": "crash",
        "type": "WorkerCrash",
        "message": (
            f"worker {process.name} exited with code {process.exitcode} "
            "before reporting a result"
        ),
    }


def _timeout_error(timeout_s: float) -> dict:
    return {
        "kind": "timeout",
        "type": "SampleTimeout",
        "message": (
            f"sample exceeded the per-attempt wall-clock timeout of "
            f"{timeout_s} s and was terminated"
        ),
    }


def _failure_record(
    index: int, config: dict, seed: int, error: dict,
    attempts: int, wall_s: float, worker: str,
) -> dict:
    """The quarantined manifest entry for a sample that exhausted retries."""
    return {
        "index": index,
        "seed": seed,
        "config": config,
        "result": None,
        "wall_time_s": round(wall_s, 6),
        "worker": worker,
        "cached": False,
        "timings": {},
        "status": "failed",
        "attempts": attempts,
        "error": error,
    }


def _note_retry(experiment: str, index: int, attempt: int, error: dict) -> None:
    if obs.OBS.enabled:
        obs.OBS.metrics.inc(
            "campaign_retries_total",
            experiment=experiment, kind=error.get("kind", "unknown"),
        )
    obs.event(
        "warning", "harness.campaign", "sample_retry",
        index=index, attempt=attempt, kind=error.get("kind"),
    )


def _child_entry(
    conn, module: str, name: str,
    index: int, config: dict, seed: int, observe: bool,
) -> None:
    """Child process: run one attempt, report through the pipe.

    Sends ``("ok", record)`` or ``("error", error_dict)``; a child that
    dies without sending anything is detected by the parent as a crash.
    """
    try:
        importlib.import_module(module)
        record = _execute_sample(get_experiment(name), index, config, seed, observe)
        conn.send(("ok", record))
    except BaseException as exc:
        try:
            conn.send(("error", _describe_error(exc, "exception")))
        except BaseException:
            pass
    finally:
        conn.close()


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork (where available) inherits the parent's imports, so even
    # experiments registered from non-importable modules (tests, benches)
    # reach the workers; spawn is the portable fallback.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


#: One queued attempt: (grid index, config, seed, attempt number).
_Item = tuple[int, dict, int, int]


@dataclass
class _Attempt:
    """One in-flight attempt in a child process (plus its result pipe)."""

    process: multiprocessing.process.BaseProcess
    conn: object
    item: _Item
    started: float = field(default_factory=time.monotonic)


def _reap(slot: _Attempt) -> tuple[str, dict] | None:
    """Drain a finished/late result from a slot's pipe, if any."""
    if not slot.conn.poll():
        return None
    try:
        kind, payload = slot.conn.recv()
    except (EOFError, OSError):
        return None
    return (kind, payload)


def _poll_attempt(slot: _Attempt, policy: FaultPolicy) -> tuple[str, dict] | None:
    """One scheduler look at an in-flight attempt.

    Returns ``None`` while still running, else ``("ok", record)`` or
    ``("error", error_dict)`` — covering the three failure paths: an
    exception reported by the child, a hard crash (child died without
    reporting), and a wall-clock timeout (child terminated by us).
    """
    outcome = _reap(slot)
    if outcome is not None:
        slot.process.join()
        return outcome
    if not slot.process.is_alive():
        slot.process.join()
        # The result may have landed between the poll and the liveness
        # check — prefer it over declaring a crash.
        return _reap(slot) or ("error", _crash_error(slot.process))
    if (
        policy.timeout_s is not None
        and time.monotonic() - slot.started > policy.timeout_s
    ):
        slot.process.terminate()
        slot.process.join()
        return _reap(slot) or ("error", _timeout_error(policy.timeout_s))
    return None


def _schedule(
    experiment: CampaignExperiment,
    pending: list[tuple[int, dict, int, str]],
    observe: bool,
    policy: FaultPolicy,
    workers: int,
    checkpoint: Callable[[dict], None],
    quarantine: Callable[[dict], None],
) -> None:
    """Run every pending sample under ``policy``; the one executor.

    With one worker and no timeout each attempt runs in this process,
    catching ``Exception`` only, so a ``KeyboardInterrupt`` still stops
    the campaign. Otherwise each attempt gets its own child process (with
    a result pipe), at most ``workers`` alive at once: exceptions come
    back through the pipe, hard crashes are children that died silently,
    and timeouts are terminated. Either way every attempt is settled by
    the same rule — checkpoint a success, queue a failure with attempts
    left for a retry with its original seed after ``backoff_s * attempt``,
    quarantine the rest — and records stream into ``checkpoint`` the
    moment they arrive.
    """
    in_process = workers == 1 and policy.timeout_s is None
    ctx = None if in_process else _pool_context()
    ready: list[_Item] = [(i, config, seed, 1) for i, config, seed, _ in pending]
    ready.reverse()  # pop() from the tail dispatches in grid order
    delayed: list[tuple[float, _Item]] = []
    running: list[_Attempt] = []
    try:
        while ready or delayed or running:
            now = time.monotonic()
            if delayed:
                due = [item for at, item in delayed if at <= now]
                delayed = [(at, item) for at, item in delayed if at > now]
                ready.extend(reversed(due))
            finished: list[tuple[_Item, float, str, tuple[str, dict]]] = []
            if in_process and ready:
                item = ready.pop()
                try:
                    outcome = ("ok", _execute_sample(experiment, *item[:3], observe))
                except Exception as exc:
                    outcome = ("error", _describe_error(exc, "exception"))
                finished.append(
                    (item, now, multiprocessing.current_process().name, outcome)
                )
            while not in_process and ready and len(running) < workers:
                item = ready.pop()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_child_entry,
                    args=(child_conn, experiment.module, experiment.name,
                          *item[:3], observe),
                )
                process.start()
                child_conn.close()
                running.append(_Attempt(process, parent_conn, item))
            for slot in list(running):
                outcome = _poll_attempt(slot, policy)
                if outcome is not None:
                    running.remove(slot)
                    slot.conn.close()
                    finished.append(
                        (slot.item, slot.started, slot.process.name, outcome)
                    )
            for item, started, worker, (kind, payload) in finished:
                index, config, seed, attempt = item
                if kind == "ok":
                    payload["attempts"] = attempt
                    checkpoint(payload)
                elif attempt < policy.max_attempts:
                    _note_retry(experiment.name, index, attempt, payload)
                    delayed.append((
                        time.monotonic() + policy.backoff_s * attempt,
                        (index, config, seed, attempt + 1),
                    ))
                else:
                    quarantine(_failure_record(
                        index, config, seed, payload, attempt,
                        time.monotonic() - started, worker,
                    ))
            if not finished:
                time.sleep(0.005)
    finally:
        for slot in running:
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join()
            slot.conn.close()


def run_campaign(
    experiment: str | CampaignExperiment,
    grid: str | list[dict] = "default",
    root_seed: int = 0,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    manifest_path: str | Path | None = None,
    observe: bool = False,
    trace_path: str | Path | None = None,
    policy: FaultPolicy | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Run every grid point of ``experiment``; return records + manifest.

    ``grid`` is a preset name resolved via the experiment's ``grids``
    hook, or an explicit list of config dicts (recorded as ``"custom"``).
    With one worker and no ``policy.timeout_s`` the non-cached points run
    in this process; otherwise each attempt runs in its own child
    process, at most ``workers`` at once. Results are identical either
    way. ``cache_dir=None`` disables the on-disk cache.

    Fault tolerance: each finished sample is checkpointed into the cache
    immediately (an interrupted campaign keeps all completed work), and
    ``policy`` (a :class:`FaultPolicy`) bounds each sample with a timeout
    and bounded retries; samples that still fail land in the manifest as
    ``status: "failed"`` records with a structured ``error`` instead of
    killing their siblings. ``resume=True`` treats cached failed records
    as misses, re-running only failed or missing grid points. A campaign
    whose quarantined failures exceed ``policy.max_failures`` raises
    :class:`CampaignAborted` (completed samples stay cached).

    ``observe`` (implied by ``trace_path``) runs every sample inside its
    own obs session: samples carry a ``"metrics"`` snapshot, the manifest
    gains the campaign-wide merged snapshot under ``"metrics"``, and —
    when ``trace_path`` is given — a JSONL trace is written combining
    campaign-level phase spans with each sample's spans and events
    (labelled ``sample=<index>``). The deterministic fingerprint covers
    only (index, seed, config, result, status), so observed and
    unobserved runs of the same campaign fingerprint identically.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if isinstance(experiment, str):
        experiment = get_experiment(experiment)
    observe = observe or trace_path is not None
    policy = NO_RETRY if policy is None else policy

    campaign_payload = None
    sample_obs: dict[int, dict] = {}
    with ExitStack() as stack:
        session = stack.enter_context(obs.isolated(enabled=True)) if observe else None
        campaign_timer = PhaseTimer(span_prefix="campaign")
        with campaign_timer.phase("grid"):
            if isinstance(grid, str):
                grid_label, configs = grid, experiment.grids(grid)
            else:
                grid_label, configs = "custom", list(grid)
            seeds = spawn_sample_seeds(root_seed, len(configs))
            code = code_fingerprint(experiment.sample_fn, experiment.version)

        cache = ResultCache(cache_dir) if cache_dir is not None else None
        records: dict[int, dict] = {}
        pending: list[tuple[int, dict, int, str]] = []
        with campaign_timer.phase("cache_scan"):
            for index, (config, seed) in enumerate(zip(configs, seeds)):
                key = sample_key(experiment.name, config, seed, code)
                hit = cache.get(experiment.name, key) if cache is not None else None
                if hit is not None and resume and hit.get("status") != "ok":
                    hit = None  # resume: quarantined points run again
                if hit is not None:
                    hit = dict(hit)
                    hit["cached"] = True
                    if not observe:
                        # Keep unobserved manifests free of stale metrics
                        # from an earlier observed run that warmed the cache.
                        hit.pop("metrics", None)
                    records[index] = hit
                else:
                    pending.append((index, config, seed, key))

        keys = {index: key for index, _, _, key in pending}

        def checkpoint(record: dict) -> None:
            """Stream one finished record into memory and the cache."""
            blob = record.pop("obs", None)
            if blob is not None:
                sample_obs[record["index"]] = blob
            records[record["index"]] = record
            if cache is not None:
                cache.put(experiment.name, keys[record["index"]], record)

        fresh_failures = 0

        def quarantine(record: dict) -> None:
            nonlocal fresh_failures
            fresh_failures += 1
            error = record.get("error") or {}
            if obs.OBS.enabled:
                obs.OBS.metrics.inc(
                    "campaign_failures_total",
                    experiment=experiment.name,
                    kind=error.get("kind", "unknown"),
                )
            obs.event(
                "error", "harness.campaign", "sample_failed",
                index=record["index"], attempts=record["attempts"],
                kind=error.get("kind"),
            )
            checkpoint(record)
            if (
                policy.max_failures is not None
                and fresh_failures > policy.max_failures
            ):
                raise CampaignAborted(
                    experiment.name, fresh_failures, policy.max_failures
                )

        start = time.perf_counter()
        with campaign_timer.phase("execute"):
            _schedule(
                experiment, pending, observe, policy,
                min(workers, len(pending)), checkpoint, quarantine,
            )
        wall_s = time.perf_counter() - start

        with campaign_timer.phase("finalize"):
            ordered = [records[index] for index in range(len(configs))]
            failed = sum(1 for r in ordered if r.get("status") != "ok")
        manifest = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "experiment": experiment.name,
            "grid": grid_label,
            "root_seed": root_seed,
            "workers": workers,
            "code": code,
            "totals": {
                "samples": len(ordered),
                "cached": sum(1 for r in ordered if r["cached"]),
                "failed": failed,
                "wall_s": round(wall_s, 6),
            },
            "campaign_timings": campaign_timer.as_dict(),
            "samples": ordered,
        }
        if observe:
            manifest["metrics"] = obs.merge_snapshots(
                r["metrics"] for r in ordered if r.get("metrics")
            )
        if session is not None:
            campaign_payload = session.collect()

    path = None
    if manifest_path is not None:
        path = write_manifest(manifest_path, manifest)
    if trace_path is not None:
        _write_campaign_trace(
            trace_path, experiment.name, grid_label, root_seed, workers,
            campaign_payload, sample_obs, manifest.get("metrics"),
        )
    return CampaignResult(
        experiment=experiment.name,
        grid=grid_label,
        root_seed=root_seed,
        workers=workers,
        records=[SampleRecord.from_dict(r) for r in ordered],
        manifest=manifest,
        manifest_path=path,
    )


def _write_campaign_trace(
    trace_path: str | Path,
    experiment: str,
    grid_label: str,
    root_seed: int,
    workers: int,
    campaign_payload: dict | None,
    sample_obs: dict[int, dict],
    merged_metrics: dict | None,
) -> Path:
    """Assemble the combined campaign trace and write it as JSONL.

    Campaign-level spans are labelled ``scope=campaign``; each sample's
    spans/events gain a ``sample=<index>`` label, which the Chrome-trace
    exporter maps to one lane per sample. The trace's metrics snapshot
    folds the runner's own counters (retries, quarantines) into the
    merged per-sample metrics.
    """
    metrics = merged_metrics
    if campaign_payload is not None:
        metrics = obs.merge_snapshots(
            snap for snap in (merged_metrics, campaign_payload["metrics"]) if snap
        )
    payload = {"spans": [], "events": [], "metrics": metrics}
    if campaign_payload is not None:
        for span in campaign_payload["spans"]:
            span["labels"] = {**span.get("labels", {}), "scope": "campaign"}
            payload["spans"].append(span)
        payload["events"].extend(campaign_payload["events"])
    for index in sorted(sample_obs):
        blob = sample_obs[index]
        for span in blob["spans"]:
            span["labels"] = {**span.get("labels", {}), "sample": index}
            payload["spans"].append(span)
        for evt in blob["events"]:
            evt["payload"] = {**evt.get("payload", {}), "sample": index}
            payload["events"].append(evt)
    meta = {
        "experiment": experiment,
        "grid": grid_label,
        "root_seed": root_seed,
        "workers": workers,
        "samples_traced": len(sample_obs),
    }
    return obs.write_trace(trace_path, payload, meta=meta)
