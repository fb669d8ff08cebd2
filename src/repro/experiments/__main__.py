"""Run every experiment and print the paper-artefact reports.

Usage::

    python -m repro.experiments                 # everything
    python -m repro.experiments e4 e10          # selected experiment ids
    python -m repro.experiments --metrics cfi   # + aggregate metrics
    python -m repro.experiments --trace-out fig1.json fig1
                                                # + Chrome trace of the runs

``--trace-out`` / ``--jsonl-out`` / ``--metrics`` attach repro.observe
collectors to every machine the selected experiments build, then
export/print what was gathered.  ``fig1`` is an alias for ``e1``
(``fig4`` for ``e10``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from repro.experiments import (
    analysis_exp,
    aslr,
    attestation_exp,
    campaign_exp,
    cfi_exp,
    fig1,
    fuzz_exp,
    heap_exp,
    fig4_exp,
    matrix,
    modules_exp,
    multimodule_exp,
    overhead,
    securecomp_exp,
    sfi_exp,
)
from repro.experiments.reporting import render_kv, render_metrics


def run_e1() -> str:
    return (fig1.generate_fig1().render()
            + "\n\n" + fig1.attack_provenance().render())


def run_e4(jobs: int | None = None, invariants: bool = False) -> str:
    return matrix.render_matrix(
        matrix.run_matrix(jobs=jobs, invariants=invariants),
        invariants=invariants,
    )


def run_e5() -> str:
    return "\n\n".join([
        overhead.render_overhead(overhead.overhead_table()),
        overhead.render_overhead(overhead.overhead_table(optimize=True),
                                 optimized=True),
        overhead.render_scaling(overhead.scaling_table()),
    ])


def run_campaign(jobs: int | None = None, seed: int | None = None) -> str:
    return campaign_exp.run_campaign(jobs=jobs, seed=seed)


def run_fuzz(jobs: int | None = None, seed: int | None = None) -> str:
    return fuzz_exp.run_fuzz(jobs=jobs, seed=seed)


def run_e6(seed: int | None = None) -> str:
    import random

    # Two independent streams so the sweep's draws don't shift the
    # comparison's when trial counts change.
    sweep_rng = random.Random(seed) if seed is not None else None
    cmp_rng = random.Random(seed + 1) if seed is not None else None
    comparison = aslr.partial_overwrite_comparison(trials=48, rng=cmp_rng)
    return (aslr.render_sweep(aslr.sweep(trials=16, rng=sweep_rng))
            + "\n\n" + render_kv(
                "E6b: eroding ASLR with a partial overwrite (16-bit ASLR)",
                {
                    "full-address guess": f"{comparison['full_rate']:.4f} "
                    f"(expected ~{comparison['expected_full_rate']:.5f})",
                    "2-byte partial overwrite": f"{comparison['partial_rate']:.4f} "
                    f"(expected ~{comparison['expected_partial_rate']:.4f})",
                }))


def run_e7() -> str:
    return "\n\n".join([
        analysis_exp.render_safe_language(analysis_exp.safe_language_report()),
        analysis_exp.static_analysis_report(),
        analysis_exp.fuzzing_report(),
    ])


def run_e8_e9() -> str:
    lockout = modules_exp.io_attacker_lockout()
    parts = [
        render_kv("E8a: I/O attacker vs the bug-free module", lockout),
        modules_exp.render_scrapers(modules_exp.scraper_table()),
        modules_exp.render_census(modules_exp.sweep_census()),
        render_kv("E9c: functionality preserved under protection",
                  modules_exp.functionality_preserved()),
        modules_exp.render_residue(modules_exp.residue_table()),
    ]
    return "\n\n".join(parts)


def run_e10() -> str:
    return (fig4_exp.render_scenarios(fig4_exp.scenario_table())
            + "\n\n" + fig4_exp.render_brute_force())


def run_e11() -> str:
    parts = [
        render_kv("E11: attestation", attestation_exp.attestation_report()),
        render_kv("E11: sealing", attestation_exp.sealing_report()),
        attestation_exp.render_rollback(attestation_exp.rollback_table()),
        attestation_exp.render_crash_matrix(),
    ]
    return "\n\n".join(parts)


def run_e12() -> str:
    return (overhead.render_crossing(overhead.boundary_crossing_table())
            + "\n\n" + securecomp_exp.render_ablation(
                securecomp_exp.ablation_table()))


def run_cfi() -> str:
    return (cfi_exp.render_cfi(cfi_exp.cfi_table())
            + "\n\n" + cfi_exp.render_indirect_transfers(
                cfi_exp.indirect_transfer_table()))


def run_heap() -> str:
    return heap_exp.render_heap(heap_exp.heap_table())


def run_multimodule() -> str:
    return multimodule_exp.render_multimodule(
        multimodule_exp.multimodule_report())


def run_sfi() -> str:
    from repro.experiments.reporting import render_kv

    return (sfi_exp.render_sfi(sfi_exp.sfi_table())
            + "\n\n" + render_kv("SFI asymmetry (the paper's criticism)",
                                 sfi_exp.asymmetry_report()))


EXPERIMENTS = {
    "e1": ("Figure 1: source / machine code / run-time state", run_e1),
    "e4": ("attack x countermeasure matrix", run_e4),
    "campaign": ("snapshot campaigns: ASLR guesses / PIN rollback / matrix",
                 run_campaign),
    "fuzz": ("greybox vs blind fuzzing on the snapshot fork-server",
             run_fuzz),
    "cfi": ("extension: coarse vs typed CFI precision", run_cfi),
    "heap": ("extension: heap attacks vs defences", run_heap),
    "multi": ("extension: mutually distrustful modules", run_multimodule),
    "sfi": ("extension: software fault isolation", run_sfi),
    "e5": ("countermeasure overhead", run_e5),
    "e6": ("ASLR entropy sweep", run_e6),
    "e7": ("safe language / static analysis / fuzzing", run_e7),
    "e8": ("Figures 2-3: scraping vs the PMA", run_e8_e9),
    "e10": ("Figure 4: secure compilation", run_e10),
    "e11": ("attestation / sealing / continuity", run_e11),
    "e12": ("secure-compilation cost and ablation", run_e12),
}


#: Friendly names for the experiments people know by figure number.
ALIASES = {"fig1": "e1", "fig4": "e10"}


# ---------------------------------------------------------------------------
# The fuzzing-service front end (submit / serve / status)
# ---------------------------------------------------------------------------


def _service_main(command: str, argv: list[str]) -> int:
    """``python -m repro.experiments submit|serve|status`` -- the
    durable campaign service (repro.campaign.service)."""
    from repro.campaign.service import CampaignCoordinator, CampaignSpec

    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments {command}")
    parser.add_argument("--store", required=True, metavar="DIR",
                        help="service root (job spool + campaign stores)")
    if command == "submit":
        parser.add_argument("--victim", required=True,
                            help="victim program name (repro.programs)")
        parser.add_argument("--job-id", default=None,
                            help="job name (default: derived from victim)")
        parser.add_argument("--config", default="testing",
                            help="mitigation preset (default: testing)")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--max-execs", type=int, default=2000,
                            metavar="N", help="per-job execution budget")
        parser.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="worker processes inside the campaign")
        parser.add_argument("--max-len", type=int, default=96)
        options = parser.parse_args(argv)
        coordinator = CampaignCoordinator(options.store)
        job_id = options.job_id or f"{options.victim}-{options.seed}"
        store_root = coordinator.submit(CampaignSpec(
            job_id=job_id, victim=options.victim, config=options.config,
            seed=options.seed, max_execs=options.max_execs,
            jobs=options.jobs, max_len=options.max_len,
        ))
        print(f"[service] queued {job_id!r} -> {store_root}")
        return 0
    if command == "serve":
        parser.add_argument("--concurrency", type=int, default=2, metavar="N",
                            help="campaigns drained at once (default: 2)")
        parser.add_argument("--max-batches", type=int, default=None,
                            metavar="N",
                            help="interrupt each campaign after N mutation "
                                 "batches, leaving a resumable checkpoint "
                                 "(default: drain to completion)")
        options = parser.parse_args(argv)
        coordinator = CampaignCoordinator(
            options.store, concurrency=options.concurrency,
            max_batches=options.max_batches)
        reports = coordinator.serve()
        for job_id in sorted(reports):
            digest = reports[job_id]
            state = "paused" if digest.get("interrupted") else "done"
            print(f"[service] {job_id}: {state} execs={digest.get('execs')} "
                  f"edges={digest.get('edges')} "
                  f"crashes={digest.get('unique_crashes')}")
        return 0
    # status
    options = parser.parse_args(argv)
    rows = CampaignCoordinator(options.store).status()
    if not rows:
        print("[service] no jobs spooled")
        return 0
    for row in rows:
        print(f"[service] {row.job_id}: {row.status} "
              f"execs={row.execs}/{row.max_execs} "
              f"corpus={row.corpus_size} crashes={row.unique_crashes}")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("submit", "serve", "status"):
        return _service_main(argv[0], argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run paper-artefact experiments, optionally under "
                    "the repro.observe event bus.",
    )
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiment ids (default: all); "
                             f"have {', '.join(EXPERIMENTS)}")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write a Chrome trace-event JSON of every "
                             "machine the experiments run")
    parser.add_argument("--jsonl-out", metavar="FILE",
                        help="write the raw event stream as JSON lines")
    parser.add_argument("--metrics", action="store_true",
                        help="print aggregate execution metrics at the end")
    parser.add_argument("--jobs", type=int, default=os.cpu_count(),
                        metavar="N",
                        help="worker processes for the attack matrix (e4); "
                             "1 forces the sequential in-process path "
                             "(default: cpu count; observed runs via "
                             "--trace-out/--jsonl-out/--metrics are always "
                             "sequential)")
    parser.add_argument("--invariants", action="store_true",
                        help="ride an InvariantMonitor on every machine "
                             "the attack matrix (e4) builds and print the "
                             "first-invariant-broken attribution table")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="base seed for the randomised experiments "
                             "(e6 sweep seeds, campaign trial streams); "
                             "default keeps each experiment's recorded "
                             "deterministic seeds")
    options = parser.parse_args(argv)

    selected = [ALIASES.get(arg.lower(), arg.lower())
                for arg in options.experiments] or list(EXPERIMENTS)
    for key in selected:
        if key not in EXPERIMENTS:
            print(f"unknown experiment {key!r}; have {', '.join(EXPERIMENTS)}")
            return 1

    from repro.observe import (
        EventTrace,
        MetricsCollector,
        export_chrome_trace,
        export_jsonl,
        observe_new_machines,
    )

    trace = metrics = None
    factories = []
    if options.trace_out or options.jsonl_out:
        trace = EventTrace()
        factories.append(lambda machine: trace)
    if options.metrics:
        metrics = MetricsCollector()
        factories.append(lambda machine: metrics)
    scope = observe_new_machines(*factories) if factories else nullcontext()
    # Observed runs are sequential (observers cannot cross worker
    # processes); asking for the pool would only earn a warning.
    jobs = 1 if factories else options.jobs

    with scope:
        for key in selected:
            title, runner = EXPERIMENTS[key]
            banner = f"==== {key.upper()} :: {title} "
            print(banner + "=" * max(0, 78 - len(banner)))
            if key == "e4":
                print(run_e4(jobs=jobs,
                             invariants=options.invariants))
            elif key == "campaign":
                print(run_campaign(jobs=jobs, seed=options.seed))
            elif key == "fuzz":
                # Sequential by default: the greybox loop's warm
                # in-process session beats pool spin-up at these
                # budgets, and observed runs can't cross processes.
                print(run_fuzz(jobs=None, seed=options.seed))
            elif key == "e6":
                print(run_e6(seed=options.seed))
            else:
                print(runner())
            print()

    if trace is not None:
        if options.trace_out:
            export_chrome_trace(trace, options.trace_out)
            print(f"[observe] Chrome trace ({len(trace.events)} events, "
                  f"{trace.dropped} dropped) -> {options.trace_out}")
        if options.jsonl_out:
            lines = export_jsonl(trace, options.jsonl_out)
            print(f"[observe] {lines} JSONL events -> {options.jsonl_out}")
    if metrics is not None:
        print(render_metrics(metrics.snapshot(),
                             title="Aggregate metrics (all machines run)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
