"""The durable fuzzing service: store, resume, and convergence.

The acceptance bar for the service layer is *provable convergence*: a
campaign interrupted mid-run and resumed from the persistent store
must produce a report -- corpus contents, crash dedup set with
first-breach attribution, coverage curve -- identical to the
uninterrupted run, on both dispatch legs.  The store itself must
survive a real process restart, and the coordinator must drain
multiple jobs without cross-talk.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.greybox import GreyboxFuzzer, VictimFactory
from repro.campaign.service import (
    CampaignCoordinator,
    CampaignSpec,
    report_digest,
)
from repro.campaign.store import CampaignStore, TriageRecord
from repro.mitigations.config import TESTING
from repro.observe.coverage import CrashSite
from tests.conftest import BLOCK_LEGS

SRC = Path(__file__).resolve().parent.parent / "src"


def _fuzzer(**kwargs) -> GreyboxFuzzer:
    kwargs.setdefault("seed", 3)
    return GreyboxFuzzer(VictimFactory("data_only", TESTING),
                         program="data_only", config="testing",
                         invariants=True, **kwargs)


# ---------------------------------------------------------------------------
# Fuzzer-level checkpoint/resume
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    BUDGET = 800

    @BLOCK_LEGS
    def test_resume_report_identical_to_uninterrupted(self, dispatch):
        """The acceptance criterion, at the fuzzer level: interrupt
        after one batch, resume from the pickled checkpoint, compare
        full-report fingerprints (corpus digest, crash dedup set with
        first_breach, coverage curve, minimized reproducers)."""
        full = _fuzzer().run(self.BUDGET)
        states: list[bytes] = []
        partial = _fuzzer().run(
            self.BUDGET, checkpoint=lambda s: states.append(pickle.dumps(s)),
            stop_after_batches=1)
        assert partial.interrupted
        assert partial.execs < full.execs
        resumed = _fuzzer().run(self.BUDGET,
                                resume=pickle.loads(states[-1]))
        assert not resumed.interrupted
        assert resumed.fingerprint() == full.fingerprint()
        # The fingerprint covers these, but assert the load-bearing
        # fields directly so a fingerprint bug can't mask a drift.
        assert resumed.execs == full.execs
        assert resumed.corpus_digest == full.corpus_digest
        assert ([(c.site, c.input, c.minimized) for c in resumed.crashes]
                == [(c.site, c.input, c.minimized) for c in full.crashes])
        assert resumed.crashes, "campaign should have found the bug"
        assert resumed.crashes[0].site.first_breach is not None

    def test_chained_interrupts_converge(self):
        """Interrupt, resume, interrupt again, resume again: any
        number of restarts converges to the same report."""
        full = _fuzzer().run(self.BUDGET)
        states: list[dict] = []
        _fuzzer().run(self.BUDGET, checkpoint=states.append,
                      stop_after_batches=1)
        states2: list[dict] = []
        mid = _fuzzer().run(self.BUDGET, resume=states[-1],
                            checkpoint=states2.append, stop_after_batches=1)
        assert mid.interrupted
        final = _fuzzer().run(self.BUDGET, resume=states2[-1])
        assert final.fingerprint() == full.fingerprint()

    def test_resume_with_rsnp_snapshot_bytes(self):
        """Resuming against the stored RSNP baseline image (instead of
        trusting a rebuild) produces the same report."""
        full = _fuzzer().run(self.BUDGET)
        snapshot = _fuzzer().baseline_snapshot_bytes()
        assert snapshot.startswith(b"RSNP")
        states: list[dict] = []
        _fuzzer().run(self.BUDGET, checkpoint=states.append,
                      stop_after_batches=1)
        resumed = _fuzzer(snapshot_bytes=snapshot).run(
            self.BUDGET, resume=states[-1])
        assert resumed.fingerprint() == full.fingerprint()

    def test_checkpoint_state_pickles(self):
        """The state dict must survive the wire (the store pickles
        it); generators would not."""
        states: list[dict] = []
        _fuzzer().run(300, checkpoint=states.append, stop_after_batches=1)
        blob = pickle.dumps(states[-1])
        state = pickle.loads(blob)
        assert state["version"] == 1
        assert state["execs"] > 0
        assert state["pending"], "pipelined batch must ride the checkpoint"

    def test_checkpoint_version_gate(self):
        states: list[dict] = []
        _fuzzer().run(300, checkpoint=states.append, stop_after_batches=1)
        state = dict(states[-1], version=99)
        with pytest.raises(ValueError, match="checkpoint version"):
            _fuzzer().run(300, resume=state)


# ---------------------------------------------------------------------------
# The persistent store
# ---------------------------------------------------------------------------


class TestCampaignStore:
    def test_corpus_content_addressed_dedup(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.add_corpus(b"alpha")
        assert not store.add_corpus(b"alpha")  # cross-run dedup
        assert store.add_corpus(b"beta")
        assert sorted(store.corpus_blobs()) == [b"alpha", b"beta"]

    def test_triage_keyed_by_full_site_keeps_earliest(self, tmp_path):
        store = CampaignStore(tmp_path)
        site = CrashSite("RedZoneFault", 0x1040, 0xBEEF, "heap_redzone")
        other = CrashSite("RedZoneFault", 0x1040, 0xBEEF, "stack_canary")
        added = store.record_crashes([
            TriageRecord(site, b"xx", None, 120),
            TriageRecord(other, b"yy", None, 200),
        ])
        assert added == 2  # first_breach extends the dedup key
        # A later run re-reports the same site with a later reproducer.
        assert store.record_crashes([TriageRecord(site, b"zz", None, 500)]) == 0
        records = store.crash_records()
        assert len(records) == 2
        by_breach = {r.site.first_breach: r for r in records}
        assert by_breach["heap_redzone"].input == b"xx"  # earliest kept
        assert by_breach["heap_redzone"].found_at_exec == 120

    def test_store_round_trip_survives_process_restart(self, tmp_path):
        """Write from this process, read from a fresh interpreter:
        nothing in the store may depend on live objects."""
        store = CampaignStore(tmp_path)
        store.save_meta({"status": "paused", "execs": 64})
        store.save_snapshot(b"RSNP\x01fake-snapshot-bytes")
        store.save_checkpoint({"version": 1, "execs": 64, "pending": [b"a"]})
        store.add_corpus(b"seed-entry")
        store.record_crashes([TriageRecord(
            CrashSite("SegFault", 0x2000, 0x1234, None), b"crash", b"c", 7)])
        store.append_progress({"kind": "campaign_progress", "seq": 64})
        script = (
            "from repro.campaign.store import CampaignStore\n"
            f"s = CampaignStore({str(tmp_path)!r})\n"
            "assert s.load_meta()['execs'] == 64\n"
            "assert s.load_snapshot().startswith(b'RSNP')\n"
            "assert s.load_checkpoint()['pending'] == [b'a']\n"
            "assert s.corpus_blobs() == [b'seed-entry']\n"
            "rec, = s.crash_records()\n"
            "assert rec.site.fault == 'SegFault' and rec.minimized == b'c'\n"
            "assert s.progress_events()[0]['seq'] == 64\n"
            "print('RESTART-OK')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
        assert done.returncode == 0, done.stderr
        assert "RESTART-OK" in done.stdout

    def test_checkpoint_magic_rejected(self, tmp_path):
        store = CampaignStore(tmp_path)
        (tmp_path / "checkpoint.bin").write_bytes(b"garbage")
        with pytest.raises(ValueError, match="not a campaign checkpoint"):
            store.load_checkpoint()
        store.clear_checkpoint()
        assert store.load_checkpoint() is None


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


class TestCoordinator:
    def _spec(self, job_id="job", **kwargs):
        kwargs.setdefault("victim", "data_only")
        kwargs.setdefault("config", "testing")
        kwargs.setdefault("seed", 3)
        kwargs.setdefault("max_execs", 600)
        return CampaignSpec(job_id=job_id, **kwargs)

    @BLOCK_LEGS
    def test_interrupt_resume_converges_to_direct_run(self, tmp_path,
                                                      dispatch):
        """The full service path: bounded serve (interrupt), then an
        unbounded serve (resume); the sealed report must carry the
        fingerprint of a direct uninterrupted campaign."""
        direct = _fuzzer().run(600)
        coordinator = CampaignCoordinator(tmp_path, max_batches=1)
        coordinator.submit(self._spec())
        partial = coordinator.serve()["job"]
        assert partial["interrupted"]
        assert coordinator.status()[0].status == "paused"
        final = CampaignCoordinator(tmp_path).serve()["job"]
        assert final["fingerprint"] == direct.fingerprint()
        assert final == report_digest(direct)
        store = coordinator.store_for("job")
        assert store.load_checkpoint() is None  # sealed
        assert store.crash_records(), "triage store must be non-empty"
        assert len(store.corpus_blobs()) == final["corpus_size"]

    def test_serve_is_idempotent_once_done(self, tmp_path):
        coordinator = CampaignCoordinator(tmp_path)
        coordinator.submit(self._spec(max_execs=300))
        first = coordinator.serve()["job"]
        again = CampaignCoordinator(tmp_path).serve()["job"]
        assert again == first

    def test_multiple_jobs_isolated(self, tmp_path):
        """Two jobs drain concurrently into separate stores; each
        matches its own direct run."""
        coordinator = CampaignCoordinator(tmp_path, concurrency=2)
        coordinator.submit(self._spec("a", seed=3, max_execs=300))
        coordinator.submit(self._spec("b", seed=4, max_execs=300))
        reports = coordinator.serve()
        assert set(reports) == {"a", "b"}
        assert reports["a"]["fingerprint"] == _fuzzer(seed=3).run(
            300).fingerprint()
        assert reports["b"]["fingerprint"] == _fuzzer(seed=4).run(
            300).fingerprint()

    def test_submit_validates_spec(self, tmp_path):
        coordinator = CampaignCoordinator(tmp_path)
        with pytest.raises(ValueError, match="unknown victim"):
            coordinator.submit(self._spec(victim="no_such_program"))
        with pytest.raises(ValueError, match="unknown config preset"):
            coordinator.submit(self._spec(config="no_such_preset"))

    def test_progress_stream_is_jsonl(self, tmp_path):
        coordinator = CampaignCoordinator(tmp_path)
        coordinator.submit(self._spec(max_execs=300))
        coordinator.serve()
        lines = (coordinator.store_for("job").root
                 / "progress.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert events, "every integrated batch streams one event"
        assert all(e["kind"] == "campaign_progress" for e in events)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert events[-1]["unique_crashes"] >= 1


# ---------------------------------------------------------------------------
# The CLI front end
# ---------------------------------------------------------------------------


class TestServiceCLI:
    def test_submit_serve_status_round_trip(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        root = str(tmp_path / "svc")
        assert main(["submit", "--store", root, "--victim", "data_only",
                     "--seed", "3", "--max-execs", "300"]) == 0
        assert main(["serve", "--store", root, "--max-batches", "1"]) == 0
        assert main(["status", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "queued 'data_only-3'" in out
        assert "paused" in out
        assert main(["serve", "--store", root]) == 0
        assert main(["status", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "done execs=300" in out
