"""Which layer entry points the traced run wraps, and the per-layer
metrics computed from their spans and counters.

Each metric says which end-to-end metric it should move, on which
workload (see README.md for the full map):

* ``minic``/``asm``/``link`` -- ``wall_s`` on paper_suite; only
  ``setup_s`` on the fuzz workloads.
* ``machine`` execution -- ``execs_per_s`` on fuzz_parse, ``wall_s``
  on paper_suite; ``machine`` snapshots -- ``execs_per_s`` on
  fuzz_staged.
* ``greybox``, ``runner``, ``store``, ``service`` -- ``execs_per_s``
  (and, for the store, ``setup_s``) on fuzz_staged.
* ``experiments`` -- ``wall_s`` on paper_suite.
"""

from __future__ import annotations

from spans import durations, self_times

#: The paper_suite experiments, in the order ``python -m
#: repro.experiments`` runs them (E7d ``fuzz`` is left to the two fuzz
#: workloads).
SUITE = ("e1", "e4", "campaign", "cfi", "heap", "multi", "sfi", "e5",
         "e6", "e7", "e8", "e10", "e11", "e12")

#: Metrics that partition the traced wall time: each is the self time
#: of the listed spans.  Together with ``unattributed_s`` they add up
#: to ``trace.wall_s``.
SELF_TIME_METRICS: dict[str, tuple[str, ...]] = {
    "minic.compile_s": ("minic.compile",),
    "asm.assemble_s": ("asm.assemble",),
    "link.link_s": ("link.link",),
    "link.load_s": ("link.load",),
    "machine.run_s": ("machine.run",),
    "machine.snapshot_s": ("machine.snapshot",),
    "machine.restore_s": ("machine.restore",),
    "machine.rsnp_encode_s": ("machine.rsnp_encode",),
    "machine.rsnp_decode_s": ("machine.rsnp_decode",),
    "greybox.outcome_s": ("greybox.outcome",),
    "greybox.master_s": ("greybox.master",),
    "greybox.minimize_s": ("greybox.minimize",),
    "runner.spawn_s": ("runner.spawn",),
    "runner.submit_s": ("runner.submit",),
    "runner.wait_s": ("runner.wait",),
    "runner.shutdown_s": ("runner.shutdown",),
    "store.checkpoint_s": ("store.checkpoint",),
    "store.corpus_s": ("store.corpus",),
    "store.triage_s": ("store.triage",),
    "store.resume_load_s": ("store.resume_load",),
    "store.meta_s": ("store.meta",),
    "service.self_s": ("service.serve", "service.submit", "service.run_job"),
    "experiments.self_s": tuple(f"experiment.{key}" for key in SUITE),
}

#: Counters summed over a unit, recorded by the wrappers' hooks.
COUNT_METRICS = (
    "minic.compiles", "asm.assembles", "link.loads",
    "machine.runs", "machine.insns", "machine.faults", "machine.blocks",
    "machine.traces", "machine.trace_refusals", "machine.restores",
    "machine.restored_pages", "machine.rsnp_bytes",
    "greybox.edge_bytes", "greybox.minimize_execs",
    "runner.batches", "runner.worker_s",
    "store.checkpoints", "store.checkpoint_bytes", "store.corpus_calls",
)

#: Campaign outcome of the traced unit (0 on paper_suite).
CAMPAIGN_METRICS = ("greybox.edges", "greybox.unique_crashes",
                    "greybox.first_crash_exec")

#: Inclusive time of each suite experiment (0 on the fuzz workloads).
EXPERIMENT_METRICS = tuple(f"experiments.{key}_s" for key in SUITE)


def _count(name):
    def after(counts, _state, _result, _args):
        counts[name] += 1
    return after


def _cache_sizes(args):
    machine = args[0]
    blocks = machine.block_cache_stats()
    traces = machine.trace_cache_stats()
    return blocks["blocks"], traces["traces"], traces["failed"]


def _after_run(counts, before, result, args):
    after = _cache_sizes(args)
    counts["machine.runs"] += 1
    counts["machine.insns"] += result.instructions
    counts["machine.faults"] += result.fault is not None
    counts["machine.blocks"] += after[0] - before[0]
    counts["machine.traces"] += after[1] - before[1]
    counts["machine.trace_refusals"] += after[2] - before[2]


def _after_restore(counts, _state, pages, _args):
    counts["machine.restores"] += 1
    counts["machine.restored_pages"] += pages


def _after_encode(counts, _state, blob, _args):
    counts["machine.rsnp_bytes"] += len(blob)


def _after_outcome(counts, _state, outcome, _args):
    if isinstance(outcome.edges, (bytes, bytearray)):
        counts["greybox.edge_bytes"] += len(outcome.edges)


def _after_minimize(counts, _state, result, _args):
    counts["greybox.minimize_execs"] += result[1]


def _unresolved(args):
    return args[0]._result is None


def _after_wait(counts, unresolved, result, _args):
    if unresolved:
        counts["runner.worker_s"] += result.duration_seconds


def _after_checkpoint(counts, _state, _result, args):
    counts["store.checkpoints"] += 1
    counts["store.checkpoint_bytes"] += (
        args[0].root / "checkpoint.bin").stat().st_size


def _after_corpus(counts, _state, added, _args):
    counts["store.corpus_calls"] += 1
    counts["store.corpus_new"] += bool(added)


def targets() -> list:
    """``(kind, owner, attribute, span name, hooks)`` for every wrapped
    entry point."""
    from repro.analysis import greybox
    from repro.asm import assembler
    from repro.campaign import runner, service, store
    from repro.link import linker, loader
    from repro.machine.machine import Machine, MachineSnapshot
    from repro.minic import compiler

    store_reads = ("load_checkpoint", "load_snapshot", "load_meta",
                   "load_report")
    store_meta = ("save_meta", "append_progress", "save_snapshot",
                  "save_report", "clear_checkpoint")
    return [
        ("function", compiler, "compile_source", "minic.compile",
         {"after": _count("minic.compiles")}),
        ("function", assembler, "assemble", "asm.assemble",
         {"after": _count("asm.assembles")}),
        ("function", linker, "link", "link.link", {}),
        ("function", loader, "load", "link.load",
         {"after": _count("link.loads")}),
        ("method", Machine, "run", "machine.run",
         {"before": _cache_sizes, "after": _after_run}),
        ("method", Machine, "snapshot", "machine.snapshot", {}),
        ("method", Machine, "restore", "machine.restore",
         {"after": _after_restore}),
        ("method", MachineSnapshot, "to_bytes", "machine.rsnp_encode",
         {"after": _after_encode}),
        ("method", MachineSnapshot, "from_bytes", "machine.rsnp_decode", {}),
        ("function", greybox, "outcome_of", "greybox.outcome",
         {"after": _after_outcome}),
        ("function", greybox, "minimize_input", "greybox.minimize",
         {"after": _after_minimize}),
        ("method", greybox.GreyboxFuzzer, "run", "greybox.master", {}),
        ("method", runner.CampaignRunner, "__enter__", "runner.spawn", {}),
        ("method", runner.CampaignRunner, "submit_items", "runner.submit",
         {"after": _count("runner.batches")}),
        ("method", runner.PendingItems, "result", "runner.wait",
         {"before": _unresolved, "after": _after_wait}),
        ("method", runner.CampaignRunner, "close", "runner.shutdown", {}),
        ("method", store.CampaignStore, "save_checkpoint", "store.checkpoint",
         {"after": _after_checkpoint}),
        ("method", store.CampaignStore, "add_corpus", "store.corpus",
         {"after": _after_corpus}),
        ("method", store.CampaignStore, "record_crashes", "store.triage", {}),
        *[("method", store.CampaignStore, attr, "store.resume_load", {})
          for attr in store_reads],
        *[("method", store.CampaignStore, attr, "store.meta", {})
          for attr in store_meta],
        ("method", service.CampaignCoordinator, "serve", "service.serve", {}),
        ("method", service.CampaignCoordinator, "submit", "service.submit",
         {}),
        ("method", service.CampaignCoordinator, "run_job", "service.run_job",
         {}),
    ]


def wrapped_classes() -> list[type]:
    """Classes :func:`targets` patches (for ``installed_wrappers``)."""
    return list(dict.fromkeys(owner for kind, owner, *_ in targets()
                              if kind == "method"))


def unit_layers(spans, counts, wall: float) -> dict[str, float]:
    """Additive per-layer figures of one traced unit."""
    own = self_times(spans)
    figures = {metric: sum(own.get(name, 0.0) for name in names)
               for metric, names in SELF_TIME_METRICS.items()}
    figures["trace.wall_s"] = wall
    figures["unattributed_s"] = wall - sum(
        figures[metric] for metric in SELF_TIME_METRICS)
    for name in (*COUNT_METRICS, "store.corpus_new"):
        figures[name] = float(counts.get(name, 0.0))
    inclusive = durations(spans)
    for key, metric in zip(SUITE, EXPERIMENT_METRICS):
        figures[metric] = inclusive.get(f"experiment.{key}", 0.0)
    return figures


def derived(totals: dict[str, float]) -> dict[str, float]:
    """Ratios computed from additive totals (any number of units)."""
    run_s = totals["machine.run_s"]
    calls = totals["store.corpus_calls"]
    return {
        "machine.insns_per_s": totals["machine.insns"] / run_s
        if run_s else 0.0,
        "store.corpus_new_ratio": totals["store.corpus_new"] / calls
        if calls else 0.0,
    }
