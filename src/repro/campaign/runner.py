"""Fork-server-style trial campaigns over machine snapshots.

The paper's two attacker models are *measured* through repeated trial
campaigns -- an ASLR entropy sweep, a PIN brute force against Figure
2's ``tries_left`` module, the attack x countermeasure matrix.  Before
this module every trial paid the full compile + link + load + cold
start cost.  A :class:`CampaignRunner` instead does what AFL-class
fuzzers call a fork server: build the victim *once*, take one
copy-on-write :meth:`~repro.machine.machine.Machine.snapshot`, then
per trial restore (O(dirty pages)), mutate the input, run, and extract
a verdict.  The PR 3 superblock cache stays warm across restores, so
trial N+1 starts with trial N's hot code.

Three picklable callables describe a campaign:

* ``factory()`` builds the warm target -- a
  :class:`~repro.link.loader.LoadedProgram` or a bare
  :class:`~repro.machine.machine.Machine`;
* ``mutator(target, index)`` injects trial ``index``'s input (stdin
  bytes, a PIN guess, a payload);
* ``verdict(target, result, index)`` reduces the finished
  :class:`~repro.machine.machine.RunResult` to whatever the campaign
  records (must pickle for the parallel path).

For trials that need mid-run interaction (a leak read back before the
smash payload goes in), pass a single ``trial(target, index)``
callable instead; the runner still owns the restore.

With ``jobs > 1`` trials fan out over a ``ProcessPoolExecutor``, one
warm snapshot per worker (the e4 matrix plumbing): the initializer
builds the target and snapshot once per process, and index batches
stream through it.  Results are index-ordered and identical to the
sequential path -- every trial derives its randomness from its index,
never from scheduling.  Like the matrix, the pool is skipped while
``observe_new_machines`` factories are active (observers cannot cross
process boundaries).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.machine.machine import dispatch_defaults


def _machine_of(target):
    """The Machine inside a factory product (LoadedProgram or Machine)."""
    return getattr(target, "machine", target)


@dataclass(frozen=True)
class ComposedTrial:
    """``mutator`` + run + ``verdict`` composed as one trial callable."""

    mutator: Callable
    verdict: Callable
    max_instructions: int = 2_000_000

    def __call__(self, target, index: int):
        self.mutator(target, index)
        result = _machine_of(target).run(self.max_instructions)
        return self.verdict(target, result, index)


class CampaignSession:
    """One warm worker: a built target plus its baseline snapshot.

    Every trial restores the baseline first, so trials are independent
    by construction -- including state the *guest* believes is durable
    (Figure 2's ``tries_left`` lockout), which is exactly the rollback
    attack snapshot/restore models.
    """

    def __init__(self, factory: Callable, trial: Callable) -> None:
        self.target = factory()
        self.machine = _machine_of(self.target)
        self.baseline = self.machine.snapshot()
        self.trial = trial
        #: Total dirty pages rewound across all restores (reset cost).
        self.restored_pages = 0

    def run_trial(self, index: int):
        self.restored_pages += self.machine.restore(self.baseline)
        return self.trial(self.target, index)

    def run_batch(self, indices) -> list:
        begin = getattr(self.trial, "begin_batch", None)
        if begin is not None:
            # Per-batch trial hook: the greybox fuzzer's CoverageTrial
            # refreshes its shared-virgin-map overlay here, once per
            # batch instead of once per trial.
            begin(self.target)
        run_trial = self.run_trial
        return [run_trial(index) for index in indices]


#: Per-worker-process warm session (parallel path), set by _worker_init.
_WORKER_SESSION: CampaignSession | None = None


def _worker_init(factory, trial, defaults) -> None:
    """Pool initializer: build one warm session for this process.

    The parent's dispatch defaults ride along so workers execute down
    the same machine path (the differential suites flip those module
    globals and expect whole pipelines to honour them).
    """
    dispatch_defaults(defaults)
    global _WORKER_SESSION
    _WORKER_SESSION = CampaignSession(factory, trial)


def _worker_batch(indices) -> tuple[list, int]:
    session = _WORKER_SESSION
    before = session.restored_pages
    verdicts = session.run_batch(indices)
    return verdicts, session.restored_pages - before


def _worker_items(items) -> tuple[list, int]:
    """Like :func:`_worker_batch`, but over explicit trial items (the
    greybox fuzzer ships mutated inputs instead of index ranges)."""
    session = _WORKER_SESSION
    before = session.restored_pages
    verdicts = session.run_batch(items)
    return verdicts, session.restored_pages - before


class PendingItems:
    """In-flight work handed out by :meth:`CampaignRunner.submit_items`.

    On the pooled path the items are already executing when this
    object exists; :meth:`result` just collects the chunk futures.  On
    the sequential path execution is *lazy* -- it happens inside
    :meth:`result` -- so a pipelined client (submit batch N+1, then
    integrate batch N) observes the exact same execution order a plain
    ``run_items`` loop would, and the two paths stay verdict-identical.
    """

    def __init__(self, runner: "CampaignRunner", items: list,
                 futures: list | None, workers: int, started: float) -> None:
        self._runner = runner
        self._items = items
        self._futures = futures
        self._workers = workers
        self._started = started
        self._result: CampaignResult | None = None

    def result(self) -> "CampaignResult":
        """Block until every item has run; verdicts in item order."""
        if self._result is None:
            if self._futures is None:
                self._result = self._runner._run_items_now(
                    self._items, self._started)
            else:
                batches = [future.result() for future in self._futures]
                verdicts = [v for batch, _ in batches for v in batch]
                pages = sum(pages for _, pages in batches)
                self._result = CampaignResult(
                    verdicts, len(self._items), self._workers,
                    perf_counter() - self._started, pages,
                )
            self._runner._settle(self)
        return self._result

    def cancel(self) -> None:
        """Best-effort cancel of chunks not yet started (an abandoned
        pipelined batch after ``stop_on_first_crash``).  Chunks already
        running finish and are discarded."""
        if self._futures is not None:
            for future in self._futures:
                future.cancel()
            self._futures = [f for f in self._futures if not f.cancelled()]
        else:
            self._items = []
        if self._result is None:
            self._result = CampaignResult(
                [], 0, 0, perf_counter() - self._started, 0)
        self._runner._settle(self)


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` call."""

    verdicts: list
    trials: int
    workers: int
    duration_seconds: float
    #: Dirty pages rewound across all restores (the total reset cost;
    #: 0 for cold runs, which rebuild instead of restoring).
    restored_pages: int
    #: "snapshot" (restore-per-trial) or "cold" (rebuild-per-trial).
    mode: str = "snapshot"

    @property
    def trials_per_second(self) -> float:
        if self.duration_seconds <= 0.0:
            return 0.0
        return self.trials / self.duration_seconds


class CampaignRunner:
    """Run many mutated trials against one warm machine image."""

    def __init__(
        self,
        factory: Callable,
        mutator: Callable | None = None,
        verdict: Callable | None = None,
        *,
        trial: Callable | None = None,
        max_instructions: int = 2_000_000,
        jobs: int | None = None,
        chunksize: int | None = None,
    ) -> None:
        if trial is None:
            if mutator is None or verdict is None:
                raise ValueError(
                    "CampaignRunner needs mutator+verdict, or a trial callable"
                )
            trial = ComposedTrial(mutator, verdict, max_instructions)
        self.factory = factory
        self.trial = trial
        self.jobs = jobs
        #: Items per submitted work unit on the parallel path.  None
        #: means one contiguous chunk per worker (minimal dispatch
        #: overhead); smaller chunks let a pipelined client overlap a
        #: finishing batch's tail with the next batch's head.
        self.chunksize = chunksize
        #: Persistent worker pool (entered via ``with runner:``); None
        #: means every ``run``/``run_items`` call builds its own.
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        #: Cached warm session for sequential ``run_items`` streams
        #: (the greybox fuzzer calls it once per mutation batch).
        self._session: CampaignSession | None = None
        #: In-flight ``submit_items`` handles not yet resolved or
        #: cancelled; ``close()`` settles them deterministically.
        self._pending: list[PendingItems] = []

    # -- persistent warm pool (batch-streaming clients) ----------------------

    def __enter__(self) -> "CampaignRunner":
        """Start a persistent worker pool: targets are built and
        snapshotted once per worker and then reused across every
        ``run``/``run_items`` call inside the ``with`` block --
        batch-streaming clients (the greybox fuzzer) would otherwise
        pay a full per-worker rebuild on every batch."""
        import repro.machine.machine as machine_module

        jobs = self.jobs or 1
        if jobs > 1:
            if machine_module._DEFAULT_OBSERVER_FACTORIES:
                warnings.warn(
                    f"CampaignRunner(jobs={jobs}) is running sequentially: "
                    "observe_new_machines() default observer factories are "
                    "active, and observers cannot cross worker process "
                    "boundaries",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                self._pool_workers = jobs
                self._pool = ProcessPoolExecutor(
                    max_workers=jobs,
                    initializer=_worker_init,
                    initargs=(self.factory, self.trial,
                              dispatch_defaults()),
                )
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _settle(self, handle: PendingItems) -> None:
        try:
            self._pending.remove(handle)
        except ValueError:
            pass

    def close(self) -> None:
        """Release the persistent pool and the cached warm session.

        Outstanding :meth:`submit_items` handles are settled first,
        deterministically: pooled batches are already executing, so
        they are *drained* (their verdicts stay collectable through
        ``.result()`` after close); lazy sequential batches have not
        started, so they are *cancelled* (resolving them later would
        silently resurrect the warm session this close just dropped).
        """
        for handle in list(self._pending):
            if handle._futures is not None:
                handle.result()
            else:
                handle.cancel()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_workers = 0
        # The sequential warm session pins a built machine plus its
        # baseline snapshot pages; a closed runner must not keep them
        # alive for its own lifetime.
        self._session = None

    def _chunks(self, trials: int, workers: int) -> list[range]:
        """Contiguous index ranges, one per worker (locality + order)."""
        base, extra = divmod(trials, workers)
        chunks, start = [], 0
        for worker in range(workers):
            count = base + (1 if worker < extra else 0)
            if count:
                chunks.append(range(start, start + count))
                start += count
        return chunks

    def run(self, trials: int) -> CampaignResult:
        """Execute ``trials`` snapshot/restore trials (index order)."""
        import repro.machine.machine as machine_module

        jobs = self.jobs or 1
        started = perf_counter()
        sequential = (
            jobs <= 1 or trials <= 1
            or machine_module._DEFAULT_OBSERVER_FACTORIES
        ) and self._pool is None
        if sequential:
            session = CampaignSession(self.factory, self.trial)
            verdicts = session.run_batch(range(trials))
            return CampaignResult(
                verdicts, trials, 1, perf_counter() - started,
                session.restored_pages,
            )
        chunks = self._chunks(trials, min(jobs, trials))
        batches, workers = self._map_chunks(_worker_batch, chunks)
        verdicts = [v for batch, _ in batches for v in batch]
        pages = sum(pages for _, pages in batches)
        return CampaignResult(
            verdicts, trials, workers, perf_counter() - started, pages,
        )

    def run_items(self, items) -> CampaignResult:
        """Run one trial per explicit ``item`` (instead of an index).

        The trial callable receives each item where :meth:`run` would
        pass an index -- the greybox fuzzer ships batches of mutated
        inputs this way.  Results come back in item order and are
        identical to the sequential path (each trial starts from the
        same restored snapshot and sees only its own item).  Inside a
        ``with runner:`` block the warm worker pool (or the warm
        sequential session) is reused across calls.
        """
        return self.submit_items(items).result()

    def submit_items(self, items) -> PendingItems:
        """Dispatch ``items`` without waiting for their verdicts.

        Inside a ``with runner:`` block the items start executing on
        the persistent pool immediately, split into
        :attr:`chunksize`-item work units, and the returned
        :class:`PendingItems` collects them later -- a pipelined
        client generates its next mutation batch while this one runs.
        Outside a pool the work is deferred to ``.result()`` (the
        sequential warm session or a per-call pool), preserving
        run_items semantics exactly.
        """
        items = list(items)
        started = perf_counter()
        if not items or self._pool is None:
            handle = PendingItems(self, items, None, 0, started)
        else:
            workers = min(self._pool_workers, len(items))
            if self.chunksize is not None:
                size = max(1, self.chunksize)
                chunks = [items[pos:pos + size]
                          for pos in range(0, len(items), size)]
            else:
                chunks = [[items[i] for i in chunk]
                          for chunk in self._chunks(len(items), workers)]
            futures = [self._pool.submit(_worker_items, chunk)
                       for chunk in chunks]
            handle = PendingItems(self, items, futures, workers, started)
        self._pending.append(handle)
        return handle

    def _run_items_now(self, items: list, started: float) -> CampaignResult:
        """Synchronous item execution (the non-pooled legs)."""
        import repro.machine.machine as machine_module

        jobs = self.jobs or 1
        if not items:
            return CampaignResult([], 0, 0, perf_counter() - started, 0)
        sequential = (
            jobs <= 1 or len(items) <= 1
            or machine_module._DEFAULT_OBSERVER_FACTORIES
        ) and self._pool is None
        if sequential:
            if self._session is None:
                self._session = CampaignSession(self.factory, self.trial)
            session = self._session
            before = session.restored_pages
            verdicts = session.run_batch(items)
            return CampaignResult(
                verdicts, len(items), 1, perf_counter() - started,
                session.restored_pages - before,
            )
        workers = min(jobs, len(items))
        chunk_ranges = self._chunks(len(items), workers)
        chunks = [[items[i] for i in chunk] for chunk in chunk_ranges]
        batches, workers = self._map_chunks(_worker_items, chunks)
        verdicts = [v for batch, _ in batches for v in batch]
        pages = sum(pages for _, pages in batches)
        return CampaignResult(
            verdicts, len(items), workers, perf_counter() - started, pages,
        )

    def _map_chunks(self, worker_fn, chunks):
        """Map ``worker_fn`` over ``chunks``, reusing the persistent
        pool when one is active (``with runner:``)."""
        if self._pool is not None:
            return (list(self._pool.map(worker_fn, chunks)),
                    self._pool_workers)
        with ProcessPoolExecutor(
            max_workers=len(chunks),
            initializer=_worker_init,
            initargs=(self.factory, self.trial, dispatch_defaults()),
        ) as pool:
            batches = list(pool.map(worker_fn, chunks))
        return batches, len(chunks)

    def run_cold(self, trials: int) -> CampaignResult:
        """The comparison baseline: rebuild the target for every trial.

        What every repeated-trial experiment did before snapshots --
        full compile + link + load per trial.  Used by the benchmark
        suite and the differential tests to prove restore-based trials
        byte-identical (and much faster) than fresh-machine trials.
        """
        started = perf_counter()
        verdicts = []
        for index in range(trials):
            target = self.factory()
            verdicts.append(self.trial(target, index))
        return CampaignResult(
            verdicts, trials, 1, perf_counter() - started, 0, mode="cold",
        )
