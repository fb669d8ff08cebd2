"""Fuzz testing, with and without run-time memory checks.

Section III-C2: testing for memory-safety bugs "is made significantly
more effective with the use of run-time checks" [16][17], because many
illegal accesses are silent -- an overflow into an adjacent local
corrupts data without crashing, so a plain fuzzer never notices.
ASan-style red zones turn every such access into an immediate fault.

:func:`fuzz_campaign` measures exactly that: the fraction of randomly
generated inputs whose memory-safety violation is *detected*, for a
plain build vs an instrumented build of the same program.  It is the
*blind* baseline the coverage-guided loop in
:mod:`repro.analysis.greybox` is compared against.  It runs inputs
through the :class:`~repro.analysis.greybox.SnapshotExecutor`
fork-server (build once, restore per input), the same execution model
as the greybox loop's campaign runner, so the comparison isolates the
search strategy, not the harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.machine.machine import RunStatus
from repro.mitigations.config import MitigationConfig, NONE, TESTING


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign.

    Triggering inputs are split into two ground-truth classes:

    * *silent* -- the overflow corrupts only adjacent data (the
      ``is_admin`` flag), which never crashes a plain build;
    * *smashing* -- the overflow reaches the frame's saved registers,
      which usually crashes sooner or later even without checks.
    """

    program: str
    config: str
    runs: int = 0
    triggering: int = 0
    silent_class: int = 0
    smashing_class: int = 0
    #: Triggering inputs that produced an observable fault, per class.
    detected: int = 0
    detected_silent: int = 0
    detected_smashing: int = 0
    #: Faults by type name.
    faults: dict = field(default_factory=dict)
    #: 1-based index of the first faulting execution (None: never).
    first_detected_exec: int | None = None
    duration_seconds: float = 0.0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.triggering if self.triggering else 0.0

    @property
    def silent_detection_rate(self) -> float:
        return self.detected_silent / self.silent_class if self.silent_class else 0.0


def _random_input(rng: random.Random, max_len: int = 64) -> bytes:
    # randrange upper bound is exclusive; +1 so the boundary-length
    # input (exactly max_len bytes) is actually generated.  The old
    # `randrange(0, max_len)` capped campaigns at max_len - 1 bytes --
    # precisely the frame-smashing lengths the experiment measures.
    return rng.randbytes(rng.randrange(0, max_len + 1))


def fuzz_campaign(
    program_name: str = "data_only",
    config: MitigationConfig = NONE,
    *,
    runs: int = 200,
    seed: int = 1,
    triggers_at: int = 17,
    smashes_at: int = 21,
    max_len: int = 64,
    executor=None,
) -> FuzzReport:
    """Fuzz one victim with blind random inputs.

    ``triggers_at`` is the smallest input length that overflows the
    buffer; ``smashes_at`` the smallest that reaches the saved frame
    registers (ground truth for the victim used).  The interesting
    comparison is ``config=NONE`` (silent corruption) vs
    ``config=TESTING`` (ASan red zones).

    The victim is built **once** and every input runs through a
    snapshot/restore :class:`~repro.analysis.greybox.SnapshotExecutor`
    (pass ``executor`` to reuse an already-warm one); the campaign no
    longer pays a full compile + link + load per input.
    """
    # Imported here, not at module top: greybox imports this module's
    # sibling packages and keeping fuzzer.py import-light preserves the
    # legacy `from repro.analysis.fuzzer import ...` startup cost.
    from repro.analysis.greybox import SnapshotExecutor, VictimFactory

    rng = random.Random(seed)
    report = FuzzReport(program_name, config.describe())
    if executor is None:
        executor = SnapshotExecutor(VictimFactory(program_name, config))
    started = perf_counter()
    for _ in range(runs):
        data = _random_input(rng, max_len)
        result = executor.run(data)
        report.runs += 1
        detected = result.status is RunStatus.FAULT
        if detected and report.first_detected_exec is None:
            report.first_detected_exec = report.runs
        if len(data) < triggers_at:
            continue
        report.triggering += 1
        silent = len(data) < smashes_at
        if silent:
            report.silent_class += 1
        else:
            report.smashing_class += 1
        if detected:
            report.detected += 1
            if silent:
                report.detected_silent += 1
            else:
                report.detected_smashing += 1
            fault_name = type(result.fault).__name__
            report.faults[fault_name] = report.faults.get(fault_name, 0) + 1
    report.duration_seconds = perf_counter() - started
    return report


def compare_detection(
    program_name: str = "data_only",
    *,
    runs: int = 150,
    seed: int = 1,
    triggers_at: int = 17,
    smashes_at: int = 21,
) -> dict:
    """Plain vs ASan detection rates on the same inputs.

    On ``data_only`` the overflow silently flips a neighbouring local,
    so the plain build detects (almost) nothing while the instrumented
    build flags every triggering input with a
    :class:`~repro.errors.RedZoneFault`.
    """
    plain = fuzz_campaign(program_name, NONE, runs=runs, seed=seed,
                          triggers_at=triggers_at, smashes_at=smashes_at)
    checked = fuzz_campaign(program_name, TESTING, runs=runs, seed=seed,
                            triggers_at=triggers_at, smashes_at=smashes_at)
    return {
        "program": program_name,
        "plain": plain,
        "asan": checked,
        "plain_rate": plain.detection_rate,
        "asan_rate": checked.detection_rate,
        "plain_silent_rate": plain.silent_detection_rate,
        "asan_silent_rate": checked.silent_detection_rate,
    }
