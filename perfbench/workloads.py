"""The benchmark's workloads: one unit of work each, plus its checks.

Every workload is a closed loop with one client: the unit submits its
request, waits for the result, and only then checks it.  ``run`` does
the timed work; ``check`` runs afterwards, untraced and untimed.

* ``fuzz_parse``  -- one campaign through the fuzzing service on the
  ASan (``testing``) build of ``fig1_parsing``, ``jobs=1``: thousands
  of guest instructions per exec, so execution dominates.  Run by
  hand: ``BENCHMARK.json`` does not list it.
* ``fuzz_staged`` -- the same service path on ``fig1_staged`` with
  ``jobs=2``, served in interrupt/resume legs: short execs, so restore,
  outcome digests, pool IPC and per-batch store writes dominate, and
  every leg re-reads the checkpoint and restarts the pool.
* ``paper_suite`` -- every deterministic paper experiment in one
  process, ``jobs=1``: cold victim builds and fresh machines.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

# Every unit imports what ``python -m repro.experiments`` imports (the
# CLI that serves both the suite and the fuzzing service).
import repro.experiments.__main__ as cli
from repro.analysis.greybox import (
    SnapshotExecutor,
    VictimFactory,
    outcome_of,
)
from repro.campaign.service import CampaignCoordinator, CampaignSpec
from repro.campaign.store import CampaignStore
from repro.machine.machine import MachineConfig
from repro.observe.coverage import CoverageObserver

import reference
from layers import SUITE

#: At this seed ``e6`` and ``campaign`` keep their recorded seeds and
#: are compared in full; any other seed is passed to both of them.
REFERENCE_SEED = 0
#: Upper bound on interrupt/resume legs, against a campaign that never
#: finishes.
MAX_LEGS = 64


@dataclass(frozen=True)
class FuzzWorkload:
    victim: str
    jobs: int
    max_execs: int
    #: Mutation batches per serve leg (None: one uninterrupted leg).
    max_batches: int | None
    config: str = "testing"


FUZZ = {
    "fuzz_parse": FuzzWorkload("fig1_parsing", jobs=1, max_execs=600,
                               max_batches=None),
    "fuzz_staged": FuzzWorkload("fig1_staged", jobs=2, max_execs=40_000,
                                max_batches=32),
}
WORKLOADS = (*FUZZ, "paper_suite")


@dataclass
class Landing:
    """When the first unit of work landed, and how much work it was."""

    at: float | None = None
    work: int = 0

    def mark(self, work: int) -> None:
        if self.at is None:
            self.at = time.monotonic()
            self.work = work


@dataclass
class Outcome:
    """What one unit did: timestamps, work done, and what to check."""

    first_landed: float
    end: float
    work: int
    context: dict
    fingerprint: str = ""
    campaign: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)


class _ClockedStore(CampaignStore):
    """Notes the first checkpoint: the first batch has landed."""

    def __init__(self, root, landing: Landing) -> None:
        super().__init__(root)
        self._landing = landing

    def save_checkpoint(self, state: dict) -> None:
        super().save_checkpoint(state)
        self._landing.mark(state["execs"])


class _Coordinator(CampaignCoordinator):
    def __init__(self, root, landing: Landing, **options) -> None:
        super().__init__(root, **options)
        self._landing = landing

    def store_for(self, job_id: str) -> CampaignStore:
        return _ClockedStore(self.campaigns_dir / job_id, self._landing)


def dispatch_context() -> dict:
    """The machine dispatch settings every result is recorded with."""
    config = MachineConfig()
    return {name: getattr(config, name) for name in (
        "block_cache", "trace_jit", "max_block_insns",
        "trace_hot_threshold", "trace_max_insns")}


# ---------------------------------------------------------------------------
# Fuzzing service
# ---------------------------------------------------------------------------


def run_fuzz(name: str, seed: int, workdir: Path) -> Outcome:
    workload = FUZZ[name]
    landing = Landing()
    spec = CampaignSpec(job_id=name, victim=workload.victim,
                        config=workload.config, seed=seed,
                        max_execs=workload.max_execs, jobs=workload.jobs)
    _Coordinator(workdir, landing).submit(spec)
    legs = []
    while len(legs) < MAX_LEGS:
        # A fresh coordinator per leg: each leg is a service restart
        # that resumes from the stored checkpoint.
        coordinator = _Coordinator(workdir, landing, concurrency=1,
                                   max_batches=workload.max_batches)
        digest = coordinator.serve()[name]
        legs.append(bool(digest.get("interrupted")))
        if not legs[-1]:
            break
    end = time.monotonic()
    return Outcome(
        first_landed=landing.at if landing.at is not None else end,
        end=end,
        work=digest["execs"] - landing.work,
        context={"victim": workload.victim, "preset": workload.config,
                 "budget": workload.max_execs, "jobs": workload.jobs,
                 "max_batches": workload.max_batches, "legs": len(legs)},
        fingerprint=digest["fingerprint"],
        campaign={"edges": digest["edges"],
                  "unique_crashes": digest["unique_crashes"],
                  "first_crash_exec": digest["first_detected_exec"] or 0},
        artifacts={"spec": spec, "workdir": workdir, "legs": legs,
                   "digest": digest},
    )


def check_fuzz(outcome: Outcome) -> list[tuple[str, str | None]]:
    """``(check, failure or None)`` per operation of a fuzz unit."""
    spec: CampaignSpec = outcome.artifacts["spec"]
    workdir: Path = outcome.artifacts["workdir"]
    digest: dict = outcome.artifacts["digest"]
    legs: list[bool] = outcome.artifacts["legs"]
    coordinator = CampaignCoordinator(workdir)
    checks = []
    for index, interrupted in enumerate(legs):
        last = index == len(legs) - 1
        expected = not last
        checks.append((f"leg {index + 1} ends {'paused' if expected else 'done'}",
                       None if interrupted == expected else
                       f"interrupted={interrupted}"))
    status = [row.status for row in coordinator.status()]
    checks.append(("job ends done",
                   None if status == ["done"] else f"status {status}"))
    store = coordinator.store_for(spec.job_id)
    stored = len(store.corpus_blobs())
    checks.append(("stored corpus equals corpus_size",
                   None if stored == digest["corpus_size"] else
                   f"{stored} blobs, corpus_size {digest['corpus_size']}"))
    baseline = store.load_snapshot()
    for record in store.crash_records():
        observer = CoverageObserver()
        executor = SnapshotExecutor(
            VictimFactory(spec.victim, spec.mitigation_config(),
                          seed=spec.seed),
            observer=observer, invariants=spec.invariants,
            baseline_bytes=baseline)
        replay = outcome_of(observer, executor.run(record.reproducer),
                            executor.monitor)
        checks.append((f"reproducer replays to {record.site}",
                       None if replay.crash_site == record.site else
                       f"replayed to {replay.crash_site}"))
    shutil.rmtree(workdir, ignore_errors=True)
    return checks


# ---------------------------------------------------------------------------
# Paper experiment suite
# ---------------------------------------------------------------------------


def _experiment_calls(seed: int) -> dict:
    experiment_seed = None if seed == REFERENCE_SEED else seed
    calls = {key: runner for key, (_title, runner) in cli.EXPERIMENTS.items()}
    calls["e4"] = lambda: cli.run_e4(jobs=1, invariants=True)
    calls["campaign"] = lambda: cli.run_campaign(jobs=1, seed=experiment_seed)
    calls["e6"] = lambda: cli.run_e6(seed=experiment_seed)
    return calls


def run_paper_suite(seed: int, tracer, *, setup_only: bool = False) -> Outcome:
    calls = _experiment_calls(seed)
    landing = Landing()
    reports = {}
    region = tracer.region if tracer is not None else nullcontext
    for key in SUITE[:1] if setup_only else SUITE:
        with region(f"experiment.{key}"):
            reports[key] = calls[key]()
        landing.mark(1)
    end = time.monotonic()
    return Outcome(
        first_landed=landing.at, end=end, work=len(reports) - landing.work,
        context={"preset": "per experiment", "budget": len(reports),
                 "jobs": 1, "experiment_seed": "recorded"
                 if seed == REFERENCE_SEED else seed},
        artifacts={"reports": reports, "seed": seed},
    )


def check_paper_suite(outcome: Outcome,
                      recording: Path) -> tuple[list, list[str]]:
    """Per-experiment comparison with the recording, plus drift notes."""
    sections = reference.load_sections(recording)
    notes = reference.reference_drift(sections)
    seeded = outcome.artifacts["seed"] != REFERENCE_SEED
    checks = []
    for key, report in outcome.artifacts["reports"].items():
        diff = reference.compare(report, sections[key],
                                 seeded=seeded and key in ("e6", "campaign"))
        checks.append((f"{key} matches recording", diff))
    return checks, notes
