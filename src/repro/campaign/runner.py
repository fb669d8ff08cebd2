"""Fork-server-style trial campaigns over machine snapshots.

The paper's two attacker models are *measured* through repeated trial
campaigns -- an ASLR entropy sweep, a PIN brute force against Figure
2's ``tries_left`` module, the attack x countermeasure matrix, the
greybox fuzzer's mutation batches.  Rebuilding the victim per trial
pays the full compile + link + load + cold start cost every time.  A
:class:`CampaignRunner` instead does what AFL-class fuzzers call a
fork server: build the victim *once*, take one copy-on-write
:meth:`~repro.machine.machine.Machine.snapshot`, then per trial
restore (O(dirty pages)), mutate the input, run, and extract a
verdict.  The superblock cache stays warm across restores, so trial
N+1 starts with trial N's hot code.

Three picklable callables describe a campaign:

* ``factory()`` builds the warm target -- a
  :class:`~repro.link.loader.LoadedProgram` or a bare
  :class:`~repro.machine.machine.Machine`;
* ``mutator(target, item)`` injects trial ``item``'s input (stdin
  bytes, a PIN guess, a payload);
* ``verdict(target, result, item)`` reduces the finished
  :class:`~repro.machine.machine.RunResult` to whatever the campaign
  records (must pickle for the parallel path).

For trials that need mid-run interaction (a leak read back before the
smash payload goes in), pass a single ``trial(target, item)``
callable instead; the runner still owns the restore.

Every batch runs through one call, :meth:`CampaignRunner.submit_items`:
``runner.submit_items(range(n)).result()`` runs ``n`` indexed trials.
Outside a pool the batch runs lazily, at ``.result()``, in one cached
warm session (:meth:`CampaignRunner.session`).  Inside ``with runner:``
and ``jobs > 1`` the batch fans out over a persistent
``ProcessPoolExecutor``, one warm snapshot per worker.  Verdicts come
back in item order and are identical either way -- every trial
derives its randomness from its item, never from scheduling.  Like
the E4 matrix, the pool is skipped (with a ``RuntimeWarning``) while
``observe_new_machines`` factories are active, because observers
cannot cross process boundaries.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.machine.machine import dispatch_defaults, pool_allowed


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

    def run_trial(self, item):
        self.restored_pages += self.machine.restore(self.baseline)
        return self.trial(self.target, item)

    def run_counted(self, items) -> tuple[list, int]:
        """One trial per item, in order, plus the dirty pages rewound."""
        before = self.restored_pages
        run_trial = self.run_trial
        verdicts = [run_trial(item) for item in items]
        return verdicts, self.restored_pages - before


#: Per-worker-process warm session (parallel path), set by _worker_init.
_WORKER_SESSION: CampaignSession | None = None


def _worker_init(factory, trial, defaults) -> None:
    """Pool initializer: build one warm session for this process.

    The parent's :func:`~repro.machine.machine.dispatch_defaults`
    value rides along and replaces whatever the worker read from its
    environment, so workers execute down the parent's machine path.
    """
    dispatch_defaults(defaults)
    global _WORKER_SESSION
    _WORKER_SESSION = CampaignSession(factory, trial)


def _worker_items(items) -> tuple[list, int]:
    return _WORKER_SESSION.run_counted(items)


class PendingItems:
    """One batch handed out by :meth:`CampaignRunner.submit_items`.

    On the pooled path the items are already executing when this
    object exists; :meth:`result` just collects the chunk futures.  On
    the sequential path execution is *lazy* -- it happens inside
    :meth:`result`, in the runner's warm :meth:`~CampaignRunner.session`
    -- so a pipelined client (submit batch N+1, then integrate batch
    N) runs its batches in the same order on both paths, and the two
    stay verdict-identical.
    """

    def __init__(self, runner: "CampaignRunner", items: list,
                 futures: list | None, workers: int, started: float) -> None:
        self._runner = runner
        self._items = items
        self._futures = futures
        self._workers = workers
        self._started = started
        self._result: CampaignResult | None = None

    def result(self) -> CampaignResult:
        """Block until every item has run; verdicts in item order."""
        if self._result is None:
            if self._futures is not None:
                batches = [future.result() for future in self._futures]
            elif self._items:
                batches = [self._runner.session().run_counted(self._items)]
            else:
                batches = []
            self._finish(batches)
        return self._result

    def cancel(self) -> None:
        """Best-effort cancel of chunks not yet started (an abandoned
        pipelined batch after ``stop_on_first_crash``).  Chunks already
        running finish and are discarded."""
        for future in self._futures or ():
            future.cancel()
        if self._result is None:
            self._finish([])

    def _finish(self, batches: list[tuple[list, int]]) -> None:
        verdicts = [v for batch, _ in batches for v in batch]
        self._result = CampaignResult(
            verdicts, len(verdicts), self._workers if verdicts else 0,
            perf_counter() - self._started,
            sum(pages for _, pages in batches),
        )
        self._runner._settle(self)


@dataclass
class CampaignResult:
    """Outcome of one batch (:meth:`PendingItems.result`)."""

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
        #: Worker processes for batches submitted inside ``with
        #: runner:``; None or 1 runs every batch in :meth:`session`.
        self.jobs = jobs
        #: Items per submitted work unit on the parallel path.  None
        #: means one contiguous chunk per worker (minimal dispatch
        #: overhead); smaller chunks let a pipelined client overlap a
        #: finishing batch's tail with the next batch's head.
        self.chunksize = chunksize
        #: Persistent worker pool (started by ``with runner:``); None
        #: means batches run in the sequential warm session.
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        self._session: CampaignSession | None = None
        #: In-flight ``submit_items`` handles not yet resolved or
        #: cancelled; ``close()`` settles them deterministically.
        self._pending: list[PendingItems] = []

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "CampaignRunner":
        """Start the persistent worker pool (``jobs > 1``): targets are
        built and snapshotted once per worker and then reused by every
        :meth:`submit_items` batch until :meth:`close`."""
        if pool_allowed(self.jobs, "CampaignRunner"):
            self._pool_workers = self.jobs
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                initargs=(self.factory, self.trial, dispatch_defaults()),
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

    # -- the batch primitive -------------------------------------------------

    def session(self) -> CampaignSession:
        """The warm sequential session, built on first use and kept
        until :meth:`close`.  It runs every batch submitted outside a
        pool; clients may also run single trials against it
        (``session().run_trial(item)``)."""
        if self._session is None:
            self._session = CampaignSession(self.factory, self.trial)
        return self._session

    def submit_items(self, items) -> PendingItems:
        """Dispatch one batch: one trial per item, in item order.

        The trial callable receives each item (an index for
        ``range(n)``, a mutated input for the greybox fuzzer).  Inside
        a live pool the items start executing immediately, split into
        work units by :meth:`_chunks`, and the returned
        :class:`PendingItems` collects them later -- a pipelined client
        generates its next batch while this one runs.  Otherwise the
        batch runs at ``.result()`` in :meth:`session`.
        """
        items = list(items)
        started = perf_counter()
        futures = None
        workers = 1
        if self._pool is not None and items:
            workers = min(self._pool_workers, len(items))
            futures = [self._pool.submit(_worker_items, chunk)
                       for chunk in self._chunks(items, workers)]
        handle = PendingItems(self, items, futures, workers, started)
        if items:
            self._pending.append(handle)
        return handle

    def _chunks(self, items: list, workers: int) -> list[list]:
        """Pool work units: :attr:`chunksize`-item slices, or one
        contiguous, balanced slice per worker (locality + order)."""
        if self.chunksize is not None:
            size = max(1, self.chunksize)
            return [items[pos:pos + size]
                    for pos in range(0, len(items), size)]
        base, extra = divmod(len(items), workers)
        chunks, start = [], 0
        for worker in range(workers):
            end = start + base + (1 if worker < extra else 0)
            chunks.append(items[start:end])
            start = end
        return chunks

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
