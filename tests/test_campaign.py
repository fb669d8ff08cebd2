"""The campaign runner: parity, rollback semantics, and observability.

The snapshot campaign must be a pure performance layer: its verdicts
have to match trial-by-trial rebuilds (``run_cold``) and survive the
process-pool fan-out unchanged.  The Figure 2 suite then checks the
*security* content -- a snapshot attacker brute-forces the PIN that an
in-run attacker is locked out of -- and the observe-layer tests pin
down the snapshot events and metrics.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import pytest

from repro.campaign import (
    CampaignResult,
    CampaignRunner,
    CampaignSession,
    ComposedTrial,
)
from repro.experiments.campaign_exp import (
    Fig1Factory,
    PinGuessTrial,
    Ret2LibcGuessTrial,
    SecretFactory,
    aslr_guess_campaign,
    matrix_campaign,
    pin_bruteforce_campaign,
)
from repro.mitigations.config import MitigationConfig


def _guess_runner(bits: int = 2, jobs: int | None = None) -> CampaignRunner:
    from repro.attacks.study import locate_overflow
    from repro.programs.builders import build_fig1

    config = MitigationConfig(aslr_bits=bits)
    local = build_fig1(config.with_(aslr_bits=0), wide_open=True)
    site = locate_overflow(local, frames_up=1)
    trial = Ret2LibcGuessTrial(
        site.offset_to_return,
        local.symbol("libc_spawn_shell"),
        local.symbol("libc_exit"),
        bits,
        base_seed=42,
    )
    return CampaignRunner(Fig1Factory(config, 42), trial=trial, jobs=jobs)


def _run(runner: CampaignRunner, items) -> CampaignResult:
    """One batch through the runner's pool (when ``jobs`` > 1)."""
    with runner:
        return runner.submit_items(items).result()


class TestRunnerParity:
    def test_snapshot_equals_cold_rebuild(self):
        runner = _guess_runner()
        warm = _run(runner, range(10))
        cold = runner.run_cold(10)
        assert warm.verdicts == cold.verdicts
        assert warm.mode == "snapshot" and cold.mode == "cold"
        assert warm.restored_pages > 0 and cold.restored_pages == 0

    def test_parallel_equals_sequential(self):
        sequential = _run(_guess_runner(jobs=1), range(10))
        parallel = _run(_guess_runner(jobs=2), range(10))
        assert parallel.verdicts == sequential.verdicts
        assert sequential.workers == 1
        assert parallel.workers == 2

    def test_parallel_respects_observer_factories(self):
        from repro.observe import MetricsCollector, observe_new_machines

        with observe_new_machines(lambda machine: MetricsCollector()):
            with pytest.warns(RuntimeWarning, match="observe_new_machines"):
                result = _run(_guess_runner(jobs=2), range(4))
        assert result.workers == 1  # observers force in-process trials

    def test_composed_trial_from_mutator_and_verdict(self):
        def mutator(target, index):
            target.machine.input.feed(struct.pack("<II", 1, 1000 + index))

        def verdict(target, result, index):
            return target.machine.output.getvalue()

        runner = CampaignRunner(SecretFactory(), mutator, verdict,
                                max_instructions=500_000)
        result = _run(runner, range(3))
        assert result.verdicts == [b"0\n"] * 3  # wrong PINs, fresh lockouts

    def test_runner_requires_trial_or_pair(self):
        with pytest.raises(ValueError):
            CampaignRunner(SecretFactory())


class TestRunnerLifecycle:
    def test_close_drops_cached_session(self):
        """close() must release the warm sequential session (a built
        machine plus its snapshot pages), not just the pool."""
        runner = _guess_runner(jobs=1)
        runner.submit_items([0, 1]).result()
        assert runner._session is not None
        runner.close()
        assert runner._session is None

    def test_degrade_to_sequential_warns(self):
        """jobs > 1 with observe_new_machines() factories active used
        to silently run sequentially; now the runner and the E4 matrix
        both say why, with the same warning."""
        from repro.experiments.matrix import run_matrix
        from repro.mitigations.config import NONE
        from repro.observe import MetricsCollector, observe_new_machines

        runner = _guess_runner(jobs=2)
        with observe_new_machines(lambda machine: MetricsCollector()):
            with pytest.warns(RuntimeWarning,
                              match="observe_new_machines"):
                runner.__enter__()
            with pytest.warns(RuntimeWarning,
                              match="observe_new_machines"):
                cells = run_matrix(presets=(("none", NONE),), jobs=2)
        assert runner._pool is None
        assert cells  # the matrix still ran, in process
        runner.close()

    def test_no_warning_without_factories(self):
        import warnings as warnings_module

        with _guess_runner(jobs=2) as runner:
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("error")
                runner.submit_items(range(4)).result()


class TestSubmitItems:
    def trial_runner(self, jobs=None, chunksize=None):
        runner = _guess_runner(jobs=jobs)
        runner.chunksize = chunksize
        return runner

    def test_submit_matches_session_trials(self):
        """A lazy sequential batch yields exactly what running the same
        trials one by one on the warm session does."""
        runner = self.trial_runner()
        direct = [runner.session().run_trial(index) for index in range(4)]
        pending = runner.submit_items([0, 1, 2, 3])
        assert pending.result().verdicts == direct
        assert pending.result() is pending.result()  # cached
        runner.close()

    def test_pipelined_submit_matches_barrier(self):
        """Two batches in flight (submit N+1 before resolving N) must
        produce the same verdicts as strictly sequential batches."""
        with self.trial_runner(jobs=2, chunksize=2) as runner:
            first = runner.submit_items([0, 1, 2, 3])
            second = runner.submit_items([4, 5, 6, 7])
            pipelined = (first.result().verdicts
                         + second.result().verdicts)
        barrier = _run(self.trial_runner(), range(8)).verdicts
        assert pipelined == barrier

    def test_chunksize_splits_work_units(self):
        with self.trial_runner(jobs=2, chunksize=1) as runner:
            pending = runner.submit_items([0, 1, 2, 3])
            assert len(pending._futures) == 4
            assert pending.result().trials == 4

    def test_cancel_abandons_pending_batch(self):
        with self.trial_runner(jobs=2) as runner:
            pending = runner.submit_items([0, 1])
            pending.cancel()
            assert pending.result().trials == 0

    def test_empty_submit(self):
        runner = self.trial_runner()
        assert runner.submit_items([]).result().verdicts == []

    def test_close_drains_pooled_pending(self):
        """Closing the runner with a pooled batch in flight must not
        orphan its futures: the batch is already executing, so close()
        drains it and the verdicts stay collectable afterwards."""
        direct = _run(self.trial_runner(), [0, 1, 2, 3]).verdicts
        runner = self.trial_runner(jobs=2)
        runner.__enter__()
        pending = runner.submit_items([0, 1, 2, 3])
        runner.close()
        assert runner._pending == []
        result = pending.result()  # resolved during close, not re-run
        assert result.verdicts == direct
        assert result.trials == 4

    def test_close_cancels_lazy_pending(self):
        """A lazy (sequential) batch has not started when close() runs;
        resolving it later must not resurrect the warm session."""
        runner = self.trial_runner()
        pending = runner.submit_items([0, 1, 2, 3])
        runner.close()
        assert runner._pending == []
        assert pending.result().trials == 0
        assert runner._session is None  # close() really dropped it

    def test_cancel_then_result_is_empty(self):
        """cancel() before result() yields an empty CampaignResult on
        both the lazy and pooled paths, and settles the handle."""
        lazy = self.trial_runner()
        handle = lazy.submit_items([0, 1])
        handle.cancel()
        empty = handle.result()
        assert empty.verdicts == [] and empty.trials == 0
        assert lazy._pending == []
        with self.trial_runner(jobs=2) as runner:
            pooled = runner.submit_items([0, 1])
            pooled.cancel()
            assert pooled.result().trials == 0
            assert runner._pending == []


class TestRollbackAttack:
    def test_snapshot_attacker_defeats_lockout(self):
        # tries_left locks the in-run attacker out after 3 guesses...
        report = pin_bruteforce_campaign(pin_space=8, first_pin=1230,
                                         lockout_budget=10)
        assert report["in_run_locked_out"]
        # ...but rolling the module state back between guesses finds
        # the PIN (Section IV-C's motivation for hardware counters).
        assert report["rollback_found_pin"] == 1234

    def test_each_trial_sees_fresh_tries_left(self):
        session = CampaignSession(SecretFactory(), PinGuessTrial(1000))
        # Ten consecutive wrong guesses: without the per-trial rewind,
        # guesses 4..10 would hit a locked module and leak no decrement
        # behaviour; with it, every trial answers "0" from a live one.
        for index in range(10):
            assert session.run_trial(index) is None
        # The lockout is really rewound, not merely untriggered: the
        # right PIN still works on trial 11.
        assert session.run_trial(234) == 1234


class TestExperimentPorts:
    def test_guess_sweep_statistics(self):
        points = aslr_guess_campaign(bits_list=(0, 2), trials=16,
                                     base_seed=7)
        by_bits = {point.bits: point for point in points}
        assert by_bits[0].rate == 1.0      # no ASLR: every guess right
        assert by_bits[2].rate < 1.0       # entropy makes guesses miss
        assert by_bits[2].expected_rate == 0.25

    def test_matrix_campaign_row_verdicts(self):
        rows = {row["preset"]: row for row in matrix_campaign(trials=4)}
        assert rows["none"]["success"] == 4
        assert rows["dep"]["success"] == 4      # code reuse beats DEP
        assert rows["deployed"]["success"] == 0
        assert rows["deployed"]["detected"] == 4  # canary catches it


class TestSnapshotObservability:
    def test_metrics_count_snapshot_events(self):
        from repro.observe import MetricsCollector
        from repro.programs.builders import build_fig1

        metrics = MetricsCollector()
        target = build_fig1(MitigationConfig(), seed=1)
        target.machine.attach_observer(metrics)
        snap = target.machine.snapshot()
        writable = next(addr for addr, size
                        in target.machine.memory.mapped_regions()
                        if target.machine.memory.perms_at(addr) & 2)
        target.machine.memory.write_bytes(writable, b"dirty")
        target.machine.restore(snap)
        target.machine.restore(snap)
        counters = metrics.snapshot()["snapshots"]
        assert counters["taken"] == 1
        assert counters["restored"] == 2
        assert counters["dirty_pages_restored"] >= 1

    def test_event_trace_records_snapshot_events(self):
        from repro.observe import EventTrace
        from repro.programs.builders import build_fig1

        trace = EventTrace(include_memory=False)
        target = build_fig1(MitigationConfig(), seed=1)
        target.machine.attach_observer(trace)
        snap = target.machine.snapshot()
        target.machine.restore(snap)
        kinds = [event.kind for event in trace.events]
        assert "snapshot_taken" in kinds
        assert "snapshot_restored" in kinds


class TestCLI:
    def test_campaign_registered_with_seed_threading(self):
        from repro.experiments.__main__ import EXPERIMENTS, run_e6

        assert "campaign" in EXPERIMENTS
        # --seed makes e6 reproducible: same seed, same rendered sweep.
        assert run_e6(seed=3) == run_e6(seed=3)
