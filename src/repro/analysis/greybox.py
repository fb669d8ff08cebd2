"""Coverage-guided greybox fuzzing on the snapshot fork-server.

Section III-C2 argues that testing for memory-safety bugs "is made
significantly more effective with the use of run-time checks"; the
blind fuzzer in :mod:`repro.analysis.fuzzer` measures the *checks*
half of that claim.  This module supplies the *testing* half at
modern strength: an AFL-style greybox loop that

* derives **edge coverage** from the PR 2 observe bus
  (:class:`~repro.observe.coverage.CoverageObserver` hashes every
  branch/jump/call/ret into a fixed-size bitmap -- no guest
  instrumentation, and the observed run stays byte-identical to an
  unobserved one);
* executes every mutation batch through the **snapshot fork-server**
  (:meth:`CampaignRunner.submit_items
  <repro.campaign.CampaignRunner.submit_items>`: build the victim
  once, copy-on-write restore per input) instead of re-running the
  compile + link + load pipeline -- in the master's warm session at
  ``jobs=1``, fanned out over pool workers at ``jobs > 1``;
* maintains a **corpus queue** seeded-RNG mutation engine:
  deterministic stages (length extensions, then a walking byte cycle
  that solves single-byte comparisons such as a ``"GET"`` method
  check) followed by stacked havoc/splice stages, keeping any input
  that lights up a never-seen coverage bucket;
* **triages crashes** by deduplicating on ``(fault type, faulting PC,
  call-stack hash)`` and minimizing each unique crasher with a
  chunked trimming pass.

The whole loop is deterministic for a fixed ``seed``: mutation
batches are generated up front from a private RNG, executed (in
process or across workers -- same outcomes either way, each trial
starts from the same restored snapshot), and integrated in input
order.  The batch schedule is pipelined with a one-batch lag --
batch N+1 is generated and submitted before batch N is integrated --
and the sequential path follows the same schedule, so parallel and
sequential campaigns produce identical reports.  Every run ships its
packed edge blob back to the master, whose private virgin map is the
only one: workers keep no coverage state between runs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable

from repro.campaign import CampaignRunner, CampaignSession
from repro.machine.machine import MachineSnapshot, RunResult
from repro.minic import compile_source
from repro.minic.compiler import options_from_mitigations
from repro.mitigations.config import MitigationConfig, NONE
from repro.observe.coverage import (
    MAP_SIZE,
    CoverageObserver,
    CrashSite,
    has_new_bits,
    pack_edges,
    unpack_edges,
)
from repro.observe.invariants import InvariantMonitor
from repro.programs.builders import build_victim, libc_object

#: Faults that count as the fuzzer *detecting* a bug.  An execution
#: budget overrun is a hang, not a detection.
_NON_DETECTIONS = frozenset({"ExecutionLimitExceeded"})

#: Default per-input instruction budget.  The victims run a few
#: hundred instructions; a tight budget turns accidental infinite
#: loops into cheap hangs instead of stalls.
DEFAULT_MAX_INSTRUCTIONS = 200_000

#: Default seed corpus: the empty input plus a small all-zero block
#: for the deterministic byte-cycle stage to chew on.
DEFAULT_SEEDS: tuple[bytes, ...] = (b"", bytes(8))


# ---------------------------------------------------------------------------
# Picklable factories (shared with the blind fuzzer and the campaign
# runner's worker processes).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VictimFactory:
    """Builds one of the named :data:`repro.programs.sources.VICTIMS`."""

    name: str
    config: MitigationConfig = NONE
    seed: int = 0

    def __call__(self):
        return build_victim(self.name, self.config, seed=self.seed)


@dataclass(frozen=True)
class SourceFactory:
    """Builds a victim from MinC source (the labelled corpus entries)."""

    source: str
    name: str
    config: MitigationConfig = NONE
    seed: int = 0

    def __call__(self):
        from repro.link import load

        options = options_from_mitigations(self.config)
        obj = compile_source(self.source, self.name, options)
        return load([obj, libc_object()], self.config, seed=self.seed)


def _instrument(target, observer: CoverageObserver | None, invariants: bool,
                baseline_bytes: bytes | None):
    """Attach ``observer`` and (with ``invariants``) a bound
    :class:`InvariantMonitor` to a fresh build; returns the build.  A
    resumed campaign does not trust a rebuild to reproduce the
    original image bit-for-bit, so it restores the stored RSNP
    ``baseline_bytes`` over the build."""
    machine = getattr(target, "machine", target)
    if observer is not None:
        machine.attach_observer(observer)
    if invariants:
        monitor = InvariantMonitor()
        machine.attach_observer(monitor)
        if hasattr(target, "image"):
            monitor.bind_program(target)
    if baseline_bytes is not None:
        machine.restore(MachineSnapshot.from_bytes(baseline_bytes))
    return target


@dataclass(frozen=True)
class InstrumentedFactory:
    """Wraps a target factory to attach a fresh coverage observer
    (and, with ``invariants``, an :class:`InvariantMonitor`) before
    the campaign session takes its baseline snapshot."""

    base: Callable
    invariants: bool = False
    #: Optional RSNP wire bytes; when set, each worker restores this
    #: exact machine image over its freshly built target before the
    #: campaign session snapshots it (resumed service campaigns).
    baseline_bytes: bytes | None = None

    def __call__(self):
        return _instrument(self.base(), CoverageObserver(), self.invariants,
                           self.baseline_bytes)


def _coverage_observer(machine) -> CoverageObserver:
    for observer in machine.observers:
        if isinstance(observer, CoverageObserver):
            return observer
    raise ValueError("machine has no CoverageObserver attached")


def _invariant_monitor(machine) -> InvariantMonitor | None:
    for observer in machine.observers:
        if isinstance(observer, InvariantMonitor):
            return observer
    return None


# ---------------------------------------------------------------------------
# Execution: the snapshot fork-server
# ---------------------------------------------------------------------------


class SnapshotExecutor(CampaignSession):
    """Warm fork-server execution: build once, CoW-restore per input.

    A single-input :class:`~repro.campaign.CampaignSession` for callers
    that drive inputs one at a time: the blind
    :func:`repro.analysis.fuzzer.fuzz_campaign` runs it unobserved, and
    crash replays attach a :class:`CoverageObserver`
    (dispatch-transparent, so both run superblock dispatch with warm
    block caches across restores).  The greybox loop does not use it:
    its batches go through :class:`~repro.campaign.CampaignRunner` with
    :class:`InstrumentedFactory` and :class:`CoverageTrial`.
    """

    def __init__(
        self,
        factory: Callable,
        *,
        observer: CoverageObserver | None = None,
        invariants: bool = False,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        baseline_bytes: bytes | None = None,
    ) -> None:
        #: Reset before every run; callers may attach one later.
        self.observer = observer
        self.max_instructions = max_instructions
        #: Total inputs executed through this executor.
        self.execs = 0
        super().__init__(
            lambda: _instrument(factory(), observer, invariants,
                                baseline_bytes),
            self._feed,
        )
        self.monitor = _invariant_monitor(self.machine)

    def _feed(self, target, data: bytes) -> RunResult:
        if self.observer is not None:
            self.observer.begin_run()
        self.machine.input.feed(data)
        self.execs += 1
        return self.machine.run(self.max_instructions)

    def run(self, data: bytes) -> RunResult:
        """Restore the baseline snapshot, feed ``data``, run."""
        return self.run_trial(data)


@dataclass(frozen=True)
class ExecOutcome:
    """Picklable digest of one fuzz execution (what crosses worker
    process boundaries in ``jobs > 1`` campaigns).

    ``edges`` is the run's full :func:`~repro.observe.coverage.pack_edges`
    blob (3 bytes per edge); the master tests it against its virgin
    map.  Outcomes are never stored: checkpoints hold inputs and crash
    sites only.
    """

    status: str
    fault: str | None
    edges: bytes
    crash_site: CrashSite | None
    instructions: int

    @property
    def is_detection(self) -> bool:
        """True when the run died on a real fault (not a hang)."""
        return self.fault is not None and self.fault not in _NON_DETECTIONS

    def edge_items(self) -> tuple[tuple[int, int], ...]:
        """The run's ``(cell, bucket_mask)`` pairs."""
        return unpack_edges(self.edges)


def outcome_of(observer: CoverageObserver, result: RunResult,
               monitor: InvariantMonitor | None = None) -> ExecOutcome:
    """Reduce one finished run to its picklable digest."""
    crash_site = observer.crash_site
    if monitor is not None and crash_site is not None:
        first = monitor.first_breach
        if first is not None:
            # First-breach attribution extends the dedup key: the same
            # faulting PC reached via a canary clobber and via a plain
            # wild write are different bugs.
            crash_site = replace(crash_site, first_breach=first.invariant)
    return ExecOutcome(
        status=result.status.value,
        fault=type(result.fault).__name__ if result.fault else None,
        edges=pack_edges(observer.edge_items()),
        crash_site=crash_site,
        instructions=result.instructions,
    )


@dataclass(frozen=True)
class CoverageTrial:
    """Campaign trial: feed one mutated input, return its digest.

    Used with :class:`InstrumentedFactory` under a
    :class:`~repro.campaign.CampaignRunner` -- the session restores
    the snapshot, this callable feeds, runs and digests.  The digest
    carries the run's full edge blob wherever it ran, so a worker
    keeps no coverage state and the master alone decides novelty.
    """

    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS

    def __call__(self, target, data: bytes) -> ExecOutcome:
        machine = getattr(target, "machine", target)
        observer = _coverage_observer(machine)
        observer.begin_run()
        machine.input.feed(data)
        result = machine.run(self.max_instructions)
        return outcome_of(observer, result, _invariant_monitor(machine))


# ---------------------------------------------------------------------------
# Crash triage
# ---------------------------------------------------------------------------


@dataclass
class CrashRecord:
    """One deduplicated crash bucket and its best-known reproducer."""

    site: CrashSite
    input: bytes
    found_at_exec: int
    found_at_seconds: float
    minimized: bytes | None = None

    @property
    def reproducer(self) -> bytes:
        """The minimized input when available, else the original."""
        return self.minimized if self.minimized is not None else self.input


def minimize_input(
    run_outcome: Callable[[bytes], ExecOutcome],
    data: bytes,
    site: CrashSite,
    *,
    budget: int = 256,
) -> tuple[bytes, int]:
    """Chunked trimming: drop the largest chunks that keep ``site``.

    Returns ``(minimized, execs_used)``.  Greedy ddmin-style passes
    with halving chunk sizes; every candidate must reproduce the exact
    crash signature (fault type, PC and call-stack hash), so the
    minimized input stays in the same triage bucket.
    """
    current = data
    used = 0
    chunk = max(len(current) // 2, 1)
    while chunk >= 1 and used < budget and current:
        pos = 0
        while pos < len(current) and used < budget:
            candidate = current[:pos] + current[pos + chunk:]
            used += 1
            if run_outcome(candidate).crash_site == site:
                current = candidate
            else:
                pos += chunk
        chunk //= 2
    return current, used


# ---------------------------------------------------------------------------
# The greybox fuzzer
# ---------------------------------------------------------------------------


@dataclass
class QueueEntry:
    """One corpus member: an input that reached new coverage."""

    data: bytes
    found_at_exec: int
    det_done: bool = False


class _DetStage:
    """Resumable deterministic-stage cursor.

    The det stack used to hold raw generators, which cannot be
    checkpointed.  ``(data, consumed)`` fully determines the remaining
    mutants -- the stage is a pure function of the corpus entry -- so
    a resume recreates the generator and fast-forwards ``consumed``
    items to land on the exact next mutant.
    """

    __slots__ = ("data", "consumed", "_iter")

    def __init__(self, stage_fn: Callable, data: bytes,
                 consumed: int = 0) -> None:
        self.data = data
        self.consumed = consumed
        self._iter = stage_fn(data)
        for _ in range(consumed):
            if next(self._iter, None) is None:
                break

    def __iter__(self) -> "_DetStage":
        return self

    def __next__(self) -> bytes:
        mutant = next(self._iter)
        self.consumed += 1
        return mutant


#: Campaign checkpoint wire version (bump on layout changes).
CHECKPOINT_VERSION = 1


def _digest_corpus(queue: list[QueueEntry]) -> str:
    """Order-sensitive digest of the corpus contents."""
    digest = hashlib.sha256()
    for entry in queue:
        digest.update(len(entry.data).to_bytes(4, "little"))
        digest.update(entry.data)
    return digest.hexdigest()


@dataclass
class GreyboxReport:
    """Outcome of one :meth:`GreyboxFuzzer.run` campaign."""

    program: str
    config: str
    execs: int = 0
    duration_seconds: float = 0.0
    #: Distinct coverage-map cells ever hit.
    edges: int = 0
    corpus_size: int = 0
    crashes: list[CrashRecord] = field(default_factory=list)
    first_detected_exec: int | None = None
    first_detected_seconds: float | None = None
    #: ``(execs, edges)`` milestones, appended whenever coverage grew.
    coverage_curve: list[tuple[int, int]] = field(default_factory=list)
    #: Extra executions spent minimizing crashers (not in ``execs``).
    minimization_execs: int = 0
    #: Dirty pages rewound across all fork-server restores.
    restored_pages: int = 0
    #: True when the campaign stopped early on ``stop_after_batches``
    #: (a resumable checkpoint exists; minimization was skipped).
    interrupted: bool = False
    #: Order-sensitive sha256 of the corpus contents.
    corpus_digest: str = ""

    @property
    def unique_crashes(self) -> int:
        return len(self.crashes)

    def fingerprint(self) -> str:
        """sha256 over every seed-deterministic field of the report.

        Wall-clock and restore-cost fields (``duration_seconds``,
        ``first_detected_seconds``, ``found_at_seconds``,
        ``restored_pages``) are excluded; everything the campaign's
        seed determines -- exec count, coverage, corpus contents,
        crash dedup set with first-breach attribution, minimized
        reproducers -- is included.  An interrupted-then-resumed
        campaign must produce the uninterrupted run's fingerprint.
        """
        payload = (
            self.program, self.config, self.execs, self.edges,
            self.corpus_size, self.corpus_digest,
            tuple(self.coverage_curve), self.first_detected_exec,
            tuple(
                (record.site.fault, record.site.ip, record.site.call_hash,
                 record.site.first_breach, record.input, record.minimized,
                 record.found_at_exec)
                for record in self.crashes
            ),
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    @property
    def detected(self) -> bool:
        return self.first_detected_exec is not None

    @property
    def execs_per_second(self) -> float:
        if self.duration_seconds <= 0.0:
            return 0.0
        return self.execs / self.duration_seconds


class GreyboxFuzzer:
    """AFL-style coverage-guided fuzzing of one victim build.

    ``factory`` builds the target (picklable for ``jobs > 1``).  The
    fuzzer owns one sequential :class:`~repro.campaign.CampaignRunner`
    whose warm session runs ``jobs=1`` batches and crash
    minimization; with ``jobs > 1`` each :meth:`run` adds a pooled
    runner whose workers each hold their own warm instrumented
    snapshot and return every run's edges to the master's virgin map.
    """

    #: Mutants per havoc batch (also the parallel fan-out unit).
    batch_size = 64
    #: Deterministic byte-cycle positions per corpus entry.
    det_byte_limit = 16
    #: Entries longer than this skip the byte-cycle stage entirely.
    det_cycle_max_len = 32
    #: Block sizes tried by the deterministic length-extension stage.
    length_extensions = (1, 2, 4, 8, 16, 32, 64)

    def __init__(
        self,
        factory: Callable,
        *,
        seed: int = 0,
        seeds: tuple[bytes, ...] = DEFAULT_SEEDS,
        max_len: int = 96,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        jobs: int | None = None,
        invariants: bool = False,
        program: str = "?",
        config: str = "?",
        snapshot_bytes: bytes | None = None,
    ) -> None:
        self.seeds = tuple(seeds)
        if not self.seeds:
            raise ValueError("GreyboxFuzzer needs at least one seed input")
        self.factory = factory
        self.rng = random.Random(seed)
        self.max_len = max_len
        self.max_instructions = max_instructions
        self.jobs = jobs
        self.invariants = invariants
        self.program = program
        self.config = config
        #: RSNP wire bytes of the baseline image to fuzz (service
        #: resumes); None baselines whatever ``factory`` builds.
        self.snapshot_bytes = snapshot_bytes
        #: The master's sequential runner.  Its warm session runs every
        #: ``jobs=1`` batch, serves :meth:`baseline_snapshot_bytes` and
        #: replays crashers during minimization -- one victim build.
        self._local = self._runner()
        # Campaign state (reset per run()).
        self.queue: list[QueueEntry] = []
        self._virgin = bytearray(MAP_SIZE)
        self._covered: set[int] = set()
        self._det_stack: list = []
        self._cursor = 0

    # -- execution plumbing --------------------------------------------------

    def _runner(self, jobs: int | None = None) -> CampaignRunner:
        """A runner over the instrumented victim."""
        return CampaignRunner(
            InstrumentedFactory(self.factory, invariants=self.invariants,
                                baseline_bytes=self.snapshot_bytes),
            trial=CoverageTrial(self.max_instructions),
            jobs=jobs,
            chunksize=max(1, self.batch_size // max(1, jobs or 1)),
        )

    def baseline_snapshot_bytes(self) -> bytes:
        """RSNP wire bytes of the warm baseline image.  The campaign
        service persists these at campaign start so a resume fuzzes
        the *stored* machine image, not a rebuild's."""
        return self._local.session().baseline.to_bytes()

    # -- mutation stages -----------------------------------------------------

    def _deterministic(self, data: bytes):
        """Deterministic stage: length extensions, then a walking byte
        cycle.  Extensions find length-triggered overflows in a
        handful of executions; the cycle tries every value at each of
        the first :attr:`det_byte_limit` positions, which solves
        single-byte comparison gates one letter at a time (the classic
        coverage-guided win over blind randomness)."""
        for block in self.length_extensions:
            if len(data) + block <= self.max_len:
                yield data + b"A" * block
        if len(data) > self.det_cycle_max_len:
            return
        for pos in range(min(len(data), self.det_byte_limit)):
            head, orig, tail = data[:pos], data[pos], data[pos + 1:]
            for value in range(256):
                if value != orig:
                    yield head + bytes((value,)) + tail

    def _havoc_one(self, data: bytes) -> bytes:
        rng = self.rng
        out = bytearray(data)
        for _ in range(1 << rng.randint(0, 3)):
            op = rng.randrange(8)
            if op == 0 and out:
                bit = rng.randrange(len(out) * 8)
                out[bit >> 3] ^= 1 << (bit & 7)
            elif op == 1 and out:
                out[rng.randrange(len(out))] = rng.randrange(256)
            elif op == 2 and out:
                pos = rng.randrange(len(out))
                out[pos] = (out[pos] + rng.randint(-16, 16)) & 0xFF
            elif op == 3 and out:
                pos = rng.randrange(len(out))
                size = min(rng.randint(1, 8), len(out) - pos)
                del out[pos:pos + size]
            elif op == 4:
                pos = rng.randrange(len(out) + 1)
                block = bytes((rng.randrange(256),)) * rng.randint(1, 16)
                out[pos:pos] = block
            elif op == 5 and out:
                pos = rng.randrange(len(out))
                size = min(rng.randint(1, 16), len(out) - pos)
                out[pos:pos] = out[pos:pos + size]
            elif op == 6 and self.queue:
                other = self.queue[rng.randrange(len(self.queue))].data
                if other:
                    cut = rng.randrange(len(other) + 1)
                    out[rng.randrange(len(out) + 1):] = other[cut:]
            else:
                out += rng.randbytes(rng.randint(1, 16))
        return bytes(out[:self.max_len])

    def _havoc_base(self) -> bytes:
        """The next corpus (or seed) entry the havoc stage mutates."""
        if self.queue:
            entry = self.queue[self._cursor % len(self.queue)]
            self._cursor += 1
            return entry.data
        base = self.seeds[self._cursor % len(self.seeds)]
        self._cursor += 1
        return base

    def _next_batch(self) -> list[bytes]:
        """The next mutation batch: pending deterministic work first
        (newest corpus entry on top), then havoc over the queue.

        Deterministic batches are filled *across* generator boundaries
        and topped up with havoc mutants, so every batch the parallel
        path fans out is exactly ``batch_size * 4`` items -- a
        deterministic generator running dry used to emit a short
        (sometimes single-digit) batch that left most workers idle for
        a whole dispatch round.
        """
        batch: list[bytes] = []
        target = self.batch_size * 4
        while self._det_stack and len(batch) < target:
            generator = self._det_stack[-1]
            for mutant in generator:
                batch.append(mutant)
                if len(batch) >= target:
                    break
            else:
                self._det_stack.pop()
        if not batch:
            return [self._havoc_one(self._havoc_base())
                    for _ in range(self.batch_size)]
        while len(batch) < target:
            batch.append(self._havoc_one(self._havoc_base()))
        return batch

    # -- corpus integration --------------------------------------------------

    def _add_to_queue(self, data: bytes, execs: int) -> None:
        entry = QueueEntry(data, execs)
        self.queue.append(entry)
        self._det_stack.append(_DetStage(self._deterministic, data))

    def _integrate(
        self, data: bytes, outcome: ExecOutcome, execs: int,
        elapsed: float, report: GreyboxReport,
        crashes: dict[CrashSite, CrashRecord], force_add: bool = False,
    ) -> None:
        edges = outcome.edge_items()
        for idx, _ in edges:
            self._covered.add(idx)
        new_coverage = has_new_bits(self._virgin, edges)
        if new_coverage or force_add:
            self._add_to_queue(data, execs)
            report.coverage_curve.append((execs, len(self._covered)))
        if outcome.is_detection:
            if report.first_detected_exec is None:
                report.first_detected_exec = execs
                report.first_detected_seconds = elapsed
            site = outcome.crash_site
            if site is not None and site not in crashes:
                crashes[site] = CrashRecord(site, data, execs, elapsed)

    # -- checkpoint / resume -------------------------------------------------

    def _campaign_state(self, report: GreyboxReport,
                        crashes: dict[CrashSite, CrashRecord],
                        pending: list[bytes]) -> dict:
        """Everything :meth:`run` needs to continue from this exact
        point.  ``pending`` is the already-generated-but-unintegrated
        batch: the pipeline's one-batch lag means the RNG has advanced
        *through* that batch by checkpoint time, so the state must
        carry the batch itself, not regenerate it."""
        return {
            "version": CHECKPOINT_VERSION,
            "rng": self.rng.getstate(),
            "queue": [(entry.data, entry.found_at_exec, entry.det_done)
                      for entry in self.queue],
            "det_stack": [(stage.data, stage.consumed)
                          for stage in self._det_stack],
            "cursor": self._cursor,
            "virgin": bytes(self._virgin),
            "covered": sorted(self._covered),
            "execs": report.execs,
            "coverage_curve": list(report.coverage_curve),
            "first_detected_exec": report.first_detected_exec,
            "first_detected_seconds": report.first_detected_seconds,
            "crashes": [
                (record.site, record.input, record.found_at_exec,
                 record.found_at_seconds)
                for record in crashes.values()
            ],
            "pending": list(pending),
        }

    def _restore_state(self, state: dict, report: GreyboxReport,
                       crashes: dict[CrashSite, CrashRecord]) -> list[bytes]:
        """Inverse of :meth:`_campaign_state`; returns the pending
        batch the resumed loop must execute first."""
        if state.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"campaign checkpoint version {state.get('version')!r} "
                f"(this build reads {CHECKPOINT_VERSION})"
            )
        self.rng.setstate(state["rng"])
        self.queue = [QueueEntry(data, execs, det)
                      for data, execs, det in state["queue"]]
        self._det_stack = [
            _DetStage(self._deterministic, data, consumed)
            for data, consumed in state["det_stack"]
        ]
        self._cursor = state["cursor"]
        self._virgin = bytearray(state["virgin"])
        self._covered = set(state["covered"])
        report.execs = state["execs"]
        report.coverage_curve = [tuple(point)
                                 for point in state["coverage_curve"]]
        report.first_detected_exec = state["first_detected_exec"]
        report.first_detected_seconds = state["first_detected_seconds"]
        for site, data, at_exec, at_seconds in state["crashes"]:
            crashes[site] = CrashRecord(site, data, at_exec, at_seconds)
        return [bytes(item) for item in state["pending"]]

    # -- the campaign --------------------------------------------------------

    def run(
        self,
        max_execs: int = 2000,
        *,
        stop_on_first_crash: bool = False,
        minimize: bool = True,
        minimize_budget: int = 256,
        checkpoint: Callable[[dict], None] | None = None,
        resume: dict | None = None,
        stop_after_batches: int | None = None,
    ) -> GreyboxReport:
        """Fuzz for up to ``max_execs`` executions.

        ``stop_on_first_crash`` ends the campaign after the batch that
        produced the first detection (execs-to-first-detection is
        exact either way -- it is the input's position in the stream,
        not the point the loop noticed it).

        The loop is *pipelined* with a one-batch lag: batch N+1 is
        generated (from the corpus state as of batch N-1) and
        submitted before batch N's outcomes are integrated, so on the
        parallel path mutation generation and corpus triage in the
        master overlap worker execution.  The sequential path follows
        the identical schedule (generation is lazy-submitted, executed
        at resolve time), so sequential and parallel campaigns stay
        report-identical for a fixed seed.

        ``checkpoint`` is called with a resumable state dict after
        every integrated batch; passing that dict back as ``resume``
        continues the campaign from exactly that point -- the final
        report is fingerprint-identical to an uninterrupted run.
        ``stop_after_batches`` interrupts the campaign after that many
        integrated mutation batches (``report.interrupted`` is set and
        minimization is skipped; the last checkpoint resumes it).
        """
        report = GreyboxReport(self.program, self.config)
        crashes: dict[CrashSite, CrashRecord] = {}
        self.queue = []
        self._virgin = bytearray(MAP_SIZE)
        self._covered = set()
        self._det_stack = []
        self._cursor = 0
        started = perf_counter()
        resumed_pending: list[bytes] | None = None
        if resume is not None:
            resumed_pending = self._restore_state(resume, report, crashes)

        runner = self._local
        if self.jobs and self.jobs > 1:
            runner = self._runner(self.jobs).__enter__()
        pages = 0
        batches_done = 0
        interrupted = False
        try:
            if resumed_pending is None:
                # Seed corpus first, synchronously: every seed joins
                # the queue, and the deterministic stages everything
                # else pipelines behind are derived from it.
                seed_batch = list(dict.fromkeys(self.seeds))[:max_execs]
                seeded = runner.submit_items(seed_batch).result()
                pages += seeded.restored_pages
                for data, outcome in zip(seed_batch, seeded.verdicts):
                    report.execs += 1
                    self._integrate(
                        data, outcome, report.execs,
                        perf_counter() - started, report, crashes,
                        force_add=True,
                    )
                current: list[bytes] = []
                if report.execs < max_execs and not (
                        stop_on_first_crash and report.first_detected_exec):
                    current = self._next_batch()[:max_execs - report.execs]
            else:
                # The checkpointed batch was generated (RNG already
                # advanced through it) but never integrated: it is the
                # resumed stream's next batch, verbatim.
                current = resumed_pending[:max(0, max_execs - report.execs)]
            pending = runner.submit_items(current)
            if checkpoint is not None:
                checkpoint(self._campaign_state(report, crashes, current))
            while current:
                # Generate + submit the NEXT batch before integrating
                # the current one (the lag that buys the overlap).
                budget = max_execs - report.execs - len(current)
                upcoming = self._next_batch()[:budget] if budget > 0 else []
                next_pending = runner.submit_items(upcoming)
                done = pending.result()
                pages += done.restored_pages
                for data, outcome in zip(current, done.verdicts):
                    report.execs += 1
                    self._integrate(
                        data, outcome, report.execs,
                        perf_counter() - started, report, crashes,
                    )
                if stop_on_first_crash and report.first_detected_exec:
                    next_pending.cancel()
                    break
                if checkpoint is not None:
                    checkpoint(
                        self._campaign_state(report, crashes, upcoming))
                batches_done += 1
                if (stop_after_batches is not None
                        and batches_done >= stop_after_batches
                        and upcoming):
                    next_pending.cancel()
                    interrupted = True
                    break
                current, pending = upcoming, next_pending
        finally:
            if runner is not self._local:
                runner.close()

        if minimize and crashes and not interrupted:
            session = self._local.session()
            before = session.restored_pages
            for record in crashes.values():
                record.minimized, used = minimize_input(
                    session.run_trial, record.input, record.site,
                    budget=minimize_budget,
                )
                report.minimization_execs += used
            pages += session.restored_pages - before

        report.interrupted = interrupted
        report.duration_seconds = perf_counter() - started
        report.edges = len(self._covered)
        report.corpus_size = len(self.queue)
        report.corpus_digest = _digest_corpus(self.queue)
        report.crashes = sorted(
            crashes.values(), key=lambda record: record.found_at_exec
        )
        report.restored_pages = pages
        return report
