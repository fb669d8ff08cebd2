"""Tests for the coverage-guided greybox fuzzer (and the blind
fuzzer's shared fork-server plumbing).

Four proof obligations:

* **determinism** -- same seed + same input => identical coverage
  bitmap, on both dispatch legs (block cache on and off), and across
  snapshot restores;
* **non-perturbation** -- an instrumented run is byte-identical to an
  unobserved run of the same input (the observe layer's zero-cost
  contract extended to the fuzzer's harness);
* **triage** -- crashes deduplicate on (fault type, faulting PC,
  call-stack hash) and minimization preserves the signature;
* **effectiveness** -- the acceptance criterion: greybox finds the
  staged Figure 1 overflow under TESTING in fewer executions than
  blind random fuzzing ever does within the same budget.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.greybox import (
    GreyboxFuzzer,
    SnapshotExecutor,
    VictimFactory,
    minimize_input,
    outcome_of,
)
from repro.analysis.fuzzer import _random_input, compare_detection, fuzz_campaign
from repro.machine.machine import RunStatus
from repro.mitigations.config import NONE, TESTING
from repro.observe.coverage import (
    MAP_SIZE,
    CoverageObserver,
    CrashSite,
    bucket_mask,
    edge_index,
    has_new_bits,
    pack_edges,
    stack_hash,
    unpack_edges,
)
from tests.conftest import BLOCK_LEGS, run_python
from tests.test_differential_cache import summarize

#: A crashing input for the staged Figure 1 victim: the "GET" method
#: gate plus enough payload to cross buf[16]'s red zone.
GET_SMASH = b"GET " + b"A" * 32


def instrumented_executor(name: str, config, *, block_cache: bool = True):
    observer = CoverageObserver()
    executor = SnapshotExecutor(VictimFactory(name, config),
                                observer=observer)
    executor.machine.config.block_cache = block_cache
    return executor, observer


# ---------------------------------------------------------------------------
# Coverage map mechanics
# ---------------------------------------------------------------------------


class TestCoverageMap:
    def test_edge_index_deterministic_and_bounded(self):
        assert edge_index(0x1000, 0x2000, 1) == edge_index(0x1000, 0x2000, 1)
        assert edge_index(0x1000, 0x2000, 1) != edge_index(0x2000, 0x1000, 1)
        assert edge_index(0x1000, 0x2000, 1) != edge_index(0x1000, 0x2000, 2)
        assert all(0 <= edge_index(s, t, 3) < MAP_SIZE
                   for s in range(0, 4096, 37) for t in range(0, 4096, 41))

    def test_bucket_mask_afl_buckets(self):
        assert bucket_mask(1) == 1
        assert bucket_mask(2) == 2
        assert bucket_mask(3) == 4
        assert bucket_mask(4) == bucket_mask(7) == 8
        assert bucket_mask(8) == bucket_mask(15) == 16
        assert bucket_mask(16) == bucket_mask(31) == 32
        assert bucket_mask(32) == bucket_mask(127) == 64
        assert bucket_mask(128) == bucket_mask(255) == 128

    def test_stack_hash_order_sensitive(self):
        assert stack_hash([1, 2]) != stack_hash([2, 1])
        assert stack_hash([]) == stack_hash(())
        assert stack_hash((0x1000, 0x2000)) == stack_hash([0x1000, 0x2000])

    def test_has_new_bits_accumulates(self):
        virgin = bytearray(MAP_SIZE)
        assert has_new_bits(virgin, ((5, 1), (9, 2)))
        assert not has_new_bits(virgin, ((5, 1),))          # seen
        assert has_new_bits(virgin, ((5, 2),))              # new bucket
        assert not has_new_bits(virgin, ((5, 3), (9, 2)))   # union of seen


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestCoverageDeterminism:
    @pytest.mark.parametrize("block_cache", [True, False])
    def test_same_input_same_bitmap_across_restores(self, block_cache):
        executor, observer = instrumented_executor(
            "fig1_staged", TESTING, block_cache=block_cache)
        executor.run(GET_SMASH)
        first = (observer.snapshot_counts(), observer.edge_items(),
                 observer.crash_site)
        executor.run(b"unrelated")          # dirty the map in between
        executor.run(GET_SMASH)
        second = (observer.snapshot_counts(), observer.edge_items(),
                  observer.crash_site)
        assert first == second

    def test_bitmap_identical_across_block_cache_legs(self):
        items = []
        for block_cache in (True, False):
            executor, observer = instrumented_executor(
                "fig1_staged", TESTING, block_cache=block_cache)
            executor.run(GET_SMASH)
            items.append((observer.snapshot_counts(), observer.edge_items(),
                          observer.crash_site))
        assert items[0] == items[1]

    def test_campaign_deterministic_by_seed(self):
        reports = [
            GreyboxFuzzer(VictimFactory("data_only", TESTING),
                          seed=11).run(max_execs=200)
            for _ in range(2)
        ]
        first, second = reports
        assert first.execs == second.execs
        assert first.edges == second.edges
        assert first.corpus_size == second.corpus_size
        assert first.coverage_curve == second.coverage_curve
        assert first.first_detected_exec == second.first_detected_exec
        assert ([c.site for c in first.crashes]
                == [c.site for c in second.crashes])
        assert ([c.reproducer for c in first.crashes]
                == [c.reproducer for c in second.crashes])


# ---------------------------------------------------------------------------
# Non-perturbation: instrumentation must not change the run
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("data", [b"", b"GET", GET_SMASH, b"A" * 64])
    def test_instrumented_run_identical_to_unobserved(self, data):
        executor, _ = instrumented_executor("fig1_staged", TESTING)
        instrumented = executor.run(data)

        program = VictimFactory("fig1_staged", TESTING)()
        program.feed(data)
        plain = program.run()
        assert summarize(instrumented) == summarize(plain)

    def test_blind_campaign_unchanged_by_fork_server(self):
        """The hoisted one-build executor reproduces the per-input
        rebuild semantics: same seed => same classification counts."""
        report = fuzz_campaign("data_only", TESTING, runs=80, seed=5)
        assert report.silent_class > 0
        assert report.detected_silent == report.silent_class
        assert "RedZoneFault" in report.faults

    def test_blind_campaign_reuses_one_executor(self):
        executor = SnapshotExecutor(VictimFactory("data_only", TESTING))
        report = fuzz_campaign("data_only", TESTING, runs=40, seed=5,
                               executor=executor)
        assert executor.execs == report.runs == 40
        # Same executor, same seed: identical campaign.
        rerun = fuzz_campaign("data_only", TESTING, runs=40, seed=5,
                              executor=executor)
        assert rerun.detected == report.detected
        assert rerun.faults == report.faults


# ---------------------------------------------------------------------------
# Legacy fuzzer regressions (the two satellite bugfixes)
# ---------------------------------------------------------------------------


class TestBlindFuzzerRegressions:
    def test_random_input_reaches_max_len(self):
        """Off-by-one regression: randrange's exclusive bound used to
        cap inputs at max_len - 1 bytes."""
        import random

        rng = random.Random(0)
        lengths = {len(_random_input(rng, 16)) for _ in range(2000)}
        assert max(lengths) == 16
        assert min(lengths) == 0

    def test_compare_detection_forwards_smashes_at(self):
        """compare_detection used to drop smashes_at, so any victim
        with a non-default frame layout got the default class split."""
        default = compare_detection("data_only", runs=60, seed=9)
        shifted = compare_detection("data_only", runs=60, seed=9,
                                    smashes_at=40)
        direct = fuzz_campaign("data_only", TESTING, runs=60, seed=9,
                               smashes_at=40)
        assert shifted["asan"].silent_class == direct.silent_class
        assert shifted["asan"].smashing_class == direct.smashing_class
        # The shifted boundary reclassifies inputs in [21, 40).
        assert (shifted["asan"].silent_class
                > default["asan"].silent_class)
        assert (shifted["asan"].smashing_class
                < default["asan"].smashing_class)


class TestGreyboxRegressions:
    def test_havoc_ops_guard_empty_input(self):
        """Every byte-indexed havoc op must skip a zero-length buffer:
        ``rng.randrange(0)`` raises ValueError, and truncation/delete
        ops routinely produce empty intermediates mid-stack."""
        fuzzer = GreyboxFuzzer(VictimFactory("data_only", TESTING), seed=11)
        for _ in range(3000):
            mutant = fuzzer._havoc_one(b"")
            assert len(mutant) <= fuzzer.max_len
        # max_len=0 forces *every* op's output back to empty, so each
        # mutation round re-enters the guards with len(out) == 0.
        fuzzer.max_len = 0
        assert all(fuzzer._havoc_one(b"") == b"" for _ in range(500))

    def test_campaign_from_empty_seed(self):
        """A campaign seeded with only b'' must run to its exec budget
        (deterministic length extensions grow the corpus from nothing)
        instead of dying in the havoc stage."""
        report = GreyboxFuzzer(VictimFactory("data_only", TESTING),
                               seed=3, seeds=(b"",), program="data_only",
                               config="testing").run(400, minimize=False)
        assert report.execs == 400
        assert report.corpus_size >= 1
        assert report.edges > 0

    def test_empty_seed_corpus_is_rejected(self):
        """With no seed at all the havoc stage has nothing to mutate
        (it used to die on ``len(self.seeds) == 0`` mid-campaign)."""
        with pytest.raises(ValueError, match="at least one seed"):
            GreyboxFuzzer(VictimFactory("data_only", TESTING), seeds=())

    def test_report_counts_restored_pages_on_both_paths(self):
        """restored_pages sums every batch's restores, pooled or not
        (a jobs=2 report used to read 0)."""
        pages = {}
        for jobs in (1, 2):
            pages[jobs] = GreyboxFuzzer(
                VictimFactory("fig1_staged", TESTING), seed=7, jobs=jobs,
            ).run(600, minimize=False).restored_pages
        assert pages[1] == 599
        assert pages[2] > 0

    def test_sequential_fuzzer_builds_victim_once(self):
        """At jobs=1 the baseline bytes, every mutation batch and crash
        minimization share one warm session: one victim build."""
        base = VictimFactory("data_only", TESTING)
        builds = []

        def factory():
            builds.append(1)
            return base()

        fuzzer = GreyboxFuzzer(factory, seed=3, invariants=True)
        fuzzer.baseline_snapshot_bytes()
        report = fuzzer.run(800)
        assert report.execs == 800
        assert report.minimization_execs > 0
        assert len(builds) == 1


# ---------------------------------------------------------------------------
# Crash triage
# ---------------------------------------------------------------------------


class TestCrashTriage:
    def test_same_bug_same_site(self):
        executor, observer = instrumented_executor("fig1_staged", TESTING)
        sites = []
        for data in (GET_SMASH, b"GET " + b"B" * 40, b"GETX" + b"C" * 25):
            result = executor.run(data)
            assert result.status is RunStatus.FAULT
            sites.append(outcome_of(observer, result).crash_site)
        assert sites[0] is not None
        assert len(set(sites)) == 1     # one bucket for one bug

    def test_different_faults_different_sites(self):
        executor, observer = instrumented_executor("fig1_staged", TESTING)
        smash = outcome_of(observer, executor.run(GET_SMASH)).crash_site

        other_exec, other_obs = instrumented_executor("data_only", TESTING)
        other = outcome_of(other_obs, other_exec.run(b"Z" * 40)).crash_site
        assert smash != other

    def test_sites_are_hashable_dedup_keys(self):
        a = CrashSite("RedZoneFault", 0x1000, 123)
        b = CrashSite("RedZoneFault", 0x1000, 123)
        c = CrashSite("RedZoneFault", 0x1004, 123)
        assert len({a, b, c}) == 2

    def test_minimize_keeps_signature_and_shrinks(self):
        executor, observer = instrumented_executor("fig1_staged", TESTING)

        def run_outcome(data):
            return outcome_of(observer, executor.run(data))

        original = b"GET " + b"A" * 60
        site = run_outcome(original).crash_site
        assert site is not None
        minimized, used = minimize_input(run_outcome, original, site)
        assert used > 0
        assert len(minimized) < len(original)
        assert run_outcome(minimized).crash_site == site
        # Cannot shrink past the method gate + red-zone reach.
        assert minimized.startswith(b"GET")
        assert len(minimized) >= 21


# ---------------------------------------------------------------------------
# Effectiveness (the acceptance criterion) + CI smoke
# ---------------------------------------------------------------------------


class TestEffectiveness:
    def test_fig1_smoke_greybox_beats_blind(self):
        """CI fuzz smoke: small budget, fixed seed, the greybox loop
        must find the staged Figure 1 overflow under TESTING while
        blind random fuzzing finds nothing in the same budget."""
        budget = 2500
        factory = VictimFactory("fig1_staged", TESTING)
        grey = GreyboxFuzzer(factory, seed=7, program="fig1_staged",
                             config="TESTING").run(
            budget, stop_on_first_crash=True)
        assert grey.first_detected_exec is not None
        assert grey.unique_crashes >= 1
        assert all(c.site.fault == "RedZoneFault" for c in grey.crashes)

        blind = fuzz_campaign("fig1_staged", TESTING, runs=budget, seed=7,
                              executor=SnapshotExecutor(factory))
        assert (blind.first_detected_exec is None
                or blind.first_detected_exec > grey.first_detected_exec)

    def test_data_only_detected_quickly(self):
        """The shallow overflow: the deterministic length-extension
        stage reaches it within the first corpus cycle."""
        report = GreyboxFuzzer(VictimFactory("data_only", TESTING),
                               seed=3).run(200, stop_on_first_crash=True)
        assert report.first_detected_exec is not None
        assert report.first_detected_exec <= 50
        assert report.crashes[0].site.fault == "RedZoneFault"

    def test_coverage_curve_monotonic(self):
        report = GreyboxFuzzer(VictimFactory("fig1_staged", TESTING),
                               seed=7).run(800)
        execs = [e for e, _ in report.coverage_curve]
        edges = [c for _, c in report.coverage_curve]
        assert execs == sorted(execs)
        assert edges == sorted(edges)
        assert report.edges >= edges[-1]

    def test_parallel_matches_sequential(self):
        """jobs > 1 fans batches over CampaignRunner workers; corpus
        decisions and crash triage must not depend on the fan-out."""
        results = []
        for jobs in (None, 2):
            report = GreyboxFuzzer(
                VictimFactory("fig1_staged", TESTING), seed=5, jobs=jobs,
            ).run(max_execs=400, minimize=False)
            results.append((
                report.execs, report.edges, report.corpus_size,
                report.coverage_curve, report.first_detected_exec,
                [c.site for c in report.crashes],
                [c.input for c in report.crashes],
            ))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Wire format + the parallel campaign
# ---------------------------------------------------------------------------


class TestWireCompat:
    def test_pack_unpack_round_trip(self):
        edges = ((0, 1), (5, 128), (4095, 64), (300, 3))
        blob = pack_edges(edges)
        assert len(blob) == 3 * len(edges)
        assert unpack_edges(blob) == edges
        assert pack_edges(()) == b""
        assert unpack_edges(b"") == ()

    def test_three_field_crash_site_fixture(self):
        """Old CrashSite pickles (pre-first_breach) construct and
        compare exactly as before."""
        site = CrashSite("RedZoneFault", 0x1000, 123)
        assert site.first_breach is None
        assert site == pickle.loads(pickle.dumps(site))
        assert site == CrashSite("RedZoneFault", 0x1000, 123, None)

    def test_packed_blob_is_compact(self):
        executor, observer = instrumented_executor("fig1_staged", TESTING)
        result = executor.run(GET_SMASH)
        outcome = outcome_of(observer, result)
        assert isinstance(outcome.edges, bytes)
        assert len(outcome.edges) == 3 * len(outcome.edge_items())
        tuple_pickle = pickle.dumps(outcome.edge_items())
        assert len(pickle.dumps(outcome.edges)) < len(tuple_pickle)


class TestParallelCampaign:
    def test_parallel_campaign_leaves_stderr_clean(self):
        """A jobs=2 campaign leaves stderr free of tracebacks, from
        pool start to shutdown."""
        script = (
            "from repro.analysis.greybox import GreyboxFuzzer, VictimFactory\n"
            "from repro.mitigations.config import TESTING\n"
            "GreyboxFuzzer(VictimFactory('fig1_staged', TESTING), seed=5,\n"
            "              jobs=2).run(max_execs=120, minimize=False)\n"
            "print('CAMPAIGN-OK')\n"
        )
        done = run_python(script)
        assert done.returncode == 0, done.stderr
        assert "CAMPAIGN-OK" in done.stdout
        assert "Traceback" not in done.stderr, done.stderr

    @BLOCK_LEGS
    def test_parallel_matches_sequential_both_legs(self, dispatch):
        """The pooled, pipelined path must stay report-identical to
        sequential under either dispatch leg, first-breach attribution
        included."""
        fingerprints = [
            GreyboxFuzzer(
                VictimFactory("fig1_staged", TESTING), seed=5, jobs=jobs,
                invariants=True,
            ).run(max_execs=300, minimize=False).fingerprint()
            for jobs in (None, 2)
        ]
        assert fingerprints[0] == fingerprints[1]
