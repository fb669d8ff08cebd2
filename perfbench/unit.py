"""One unit of a benchmark workload, in a fresh process.

    python3 perfbench/unit.py --workload NAME --seed N --index I
                              --trace 0|1 [--setup-only]

Runs the unit, checks its output, and prints one JSON line: the
``first_landed`` and ``end`` timestamps (``time.monotonic``, which is
system-wide on Linux, so the launching process can subtract its own
launch time), the work done after the first landing, the checks, the
peak RSS of this process and its waited-for children and, with
``--trace 1``, the unit's per-layer figures.  Spans go to
``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
RECORDING = ROOT / "EXPERIMENTS_OUTPUT.txt"

sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, installed_wrappers  # noqa: E402


def _import_all_repro() -> None:
    """Load every ``repro`` module, so each one that holds a wrapped
    function by name is rebound by the tracer."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _refuse_wrappers() -> None:
    """The untraced run must execute the program as shipped."""
    stray = installed_wrappers(layers.wrapped_classes())
    if stray:
        raise RuntimeError(f"untraced unit has wrappers: {stray}")


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for descendant, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/unit.py")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the first unit of work landed "
                             "(paper_suite only)")
    options = parser.parse_args(argv)
    name = f"{options.workload}-s{options.seed}-u{options.index}"

    tracer = None
    if options.trace:
        _import_all_repro()
        tracer = Tracer()
        tracer.install(layers.targets())
        tracer.run_id = options.index
    else:
        _refuse_wrappers()

    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    started = time.perf_counter()
    if options.workload == "paper_suite":
        outcome = workloads.run_paper_suite(
            options.seed, tracer, setup_only=options.setup_only)
    else:
        if options.setup_only:
            parser.error("--setup-only applies to paper_suite only")
        outcome = workloads.run_fuzz(options.workload, options.seed, workdir)
    wall = time.perf_counter() - started

    figures = None
    if tracer is None:
        _refuse_wrappers()
    else:
        tracer.enabled = False
        tracer.uninstall()
        figures = layers.unit_layers(tracer.spans, tracer.counts, wall)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{name}.jsonl")

    notes: list[str] = []
    if options.workload == "paper_suite":
        checks, notes = workloads.check_paper_suite(outcome, RECORDING)
    else:
        checks = workloads.check_fuzz(outcome)

    print(json.dumps({
        "first_landed": outcome.first_landed,
        "end": outcome.end,
        "in_process_wall": wall,
        "work": outcome.work,
        "fingerprint": outcome.fingerprint,
        "campaign": outcome.campaign,
        "checks": [[check, failure] for check, failure in checks],
        "notes": notes,
        "peak_rss_mb": peak_rss_mb(),
        "layers": figures,
        "context": {
            **outcome.context,
            **workloads.dispatch_context(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
