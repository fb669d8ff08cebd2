"""End-to-end benchmark of the fuzzing service and the paper suite.

    python3 perfbench/run.py --workload fuzz_parse|fuzz_staged|paper_suite|all
                             --seed N --seconds S --trace 0|1

Closed loop, one client: each unit of the workload runs in a fresh
process (``perfbench/unit.py``) and the next starts only after it has
ended, for about ``--seconds`` seconds and at least two units.  With
``--trace 0`` nothing is wrapped and the end-to-end metrics are
taken over the units (timings averaged over the whole run and scaled
to a reference host speed by ``probe.py``, set-up and memory as
medians); with ``--trace 1`` units alternate
untraced and traced, the per-layer metrics come from the traced ones
and the untraced ones give the tracing overhead.  Every unit's output
is checked; the last line of standard output is the JSON result, and a
fuller record (context, checks, metrics) is appended to
``.perfbench_out/results.jsonl``.  Metric names, units and directions
are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import probe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
UNIT = Path(__file__).resolve().parent / "unit.py"
#: ``BENCHMARK.json`` lists fuzz_staged and paper_suite; fuzz_parse
#: is run by hand (or with ``--workload all``).
WORKLOADS = ("fuzz_parse", "fuzz_staged", "paper_suite")
#: Units per run, whatever ``--seconds`` says (traced runs need one
#: untraced and one traced unit).
MIN_UNITS = 2
#: ``setup_s`` is the median of at least this many set-ups; paper_suite
#: tops its full units up with set-up-only units.
SETUP_SAMPLES = 5
#: A unit that runs longer is killed and counted as failed.
UNIT_TIMEOUT_S = 120.0
TRACEBACK = "Traceback (most recent call last):"


class Unit:
    """One finished unit process: its report, or why it has none."""

    def __init__(self, index: int, traced: bool, setup_only: bool,
                 launched: float, finished: float, returncode: int,
                 stdout: str, stderr: str) -> None:
        self.index = index
        self.traced = traced
        self.setup_only = setup_only
        self.launched = launched
        self.finished = finished
        self.stderr = stderr
        self.tracebacks = stderr.count(TRACEBACK)
        self.report: dict | None = None
        #: Host-speed factor for this unit's timings (set by run_units).
        self.scale = 1.0
        self.error: str | None = None
        lines = stdout.strip().splitlines()
        if returncode != 0:
            self.error = f"exit code {returncode}"
        elif not lines:
            self.error = "no report"
        else:
            try:
                self.report = json.loads(lines[-1])
            except json.JSONDecodeError:
                self.error = "report is not JSON"

    @property
    def wall(self) -> float:
        return self.report["end"] - self.launched

    @property
    def setup(self) -> float:
        return self.report["first_landed"] - self.launched

    @property
    def busy(self) -> float:
        """Time after set-up, in which ``report["work"]`` was done."""
        return self.report["end"] - self.report["first_landed"]


def run_unit(workload: str, seed: int, index: int, traced: bool,
             setup_only: bool = False) -> Unit:
    command = [sys.executable, str(UNIT), "--workload", workload,
               "--seed", str(seed), "--index", str(index),
               "--trace", "1" if traced else "0"]
    if setup_only:
        command.append("--setup-only")
    launched = time.monotonic()
    # Its own session, so a timeout can stop the unit's pool workers
    # too; reading both pipes to their end waits for every descendant
    # that inherited them (pool workers, the resource tracker).
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
        stderr += f"\nunit killed after {UNIT_TIMEOUT_S:.0f} s\n"
    return Unit(index, traced, setup_only, launched, time.monotonic(),
                process.returncode, stdout, stderr)


def run_units(workload: str, seed: int, seconds: float,
              trace: bool) -> list[Unit]:
    units: list[Unit] = []
    probes = [probe.measure()]
    started = time.monotonic()
    while True:
        units.append(run_unit(workload, seed, len(units),
                              traced=trace and len(units) % 2 == 1))
        probes.append(probe.measure())
        if units[-1].report is None:
            break
        elapsed = time.monotonic() - started
        typical = statistics.median(u.finished - u.launched for u in units)
        if len(units) >= MIN_UNITS and elapsed + typical > seconds:
            break
    if not trace and workload == "paper_suite":
        while len(units) < SETUP_SAMPLES and units[-1].report is not None:
            units.append(run_unit(workload, seed, len(units), traced=False,
                                  setup_only=True))
            probes.append(probe.measure())
    for unit, before, after in zip(units, probes, probes[1:]):
        unit.scale = probe.REFERENCE_S / ((before + after) / 2)
    return units


def checks_of(units: list[Unit]) -> list[tuple[str, str | None]]:
    """``(operation, failure or None)`` for every checked operation."""
    checks = []
    reference = None
    for unit in units:
        tag = f"unit {unit.index}"
        if unit.report is None:
            checks.append((f"{tag} runs", unit.error))
            continue
        checks.extend((f"{tag}: {name}", failure)
                      for name, failure in unit.report["checks"])
        fingerprint = unit.report["fingerprint"]
        if not fingerprint or unit.setup_only:
            continue
        if reference is None:
            reference = fingerprint
        else:
            checks.append((f"{tag}: report fingerprint repeats",
                           None if fingerprint == reference else
                           f"{fingerprint[:16]} != {reference[:16]}"))
    return checks


def end_to_end(units: list[Unit]) -> dict[str, float]:
    """Timings scaled by each unit's host-speed factor (see probe.py)."""
    full = [u for u in units if u.report is not None and not u.setup_only]
    landed = [u for u in units if u.report is not None]
    # Host slow-downs last tens of seconds, longer than a unit, so the
    # timings average over every unit of the run rather than take the
    # middle one.
    return {
        "wall_s": statistics.fmean(u.wall * u.scale for u in full),
        "setup_s": statistics.median(u.setup * u.scale for u in landed),
        "execs_per_s": sum(u.report["work"] for u in full) / sum(
            u.busy * u.scale for u in full),
        "peak_rss_mb": statistics.median(u.report["peak_rss_mb"]
                                         for u in full),
    }


def unscaled(units: list[Unit]) -> dict[str, float]:
    """The same timings as measured, and the mean host-speed factor."""
    full = [u for u in units if u.report is not None and not u.setup_only]
    return {
        "unscaled_wall_s": statistics.fmean(u.wall for u in full),
        "unscaled_execs_per_s": sum(u.report["work"] for u in full)
        / sum(u.busy for u in full),
        "host_scale": statistics.fmean(u.scale for u in full),
    }


def per_layer(units: list[Unit]) -> dict[str, float]:
    done = [u for u in units if u.report is not None]
    traced = [u for u in done if u.traced]
    plain = [u for u in done if not u.traced]
    totals: dict[str, float] = {}
    for unit in traced:
        for name, value in unit.report["layers"].items():
            totals[name] = totals.get(name, 0.0) + value
    metrics = {name: value / len(traced) for name, value in totals.items()}
    metrics.update(layers.derived(totals))
    campaign = traced[-1].report["campaign"]
    for name in layers.CAMPAIGN_METRICS:
        metrics[name] = float(campaign.get(name.split(".", 1)[1], 0))
    metrics["trace_overhead_frac"] = (
        statistics.median(u.report["in_process_wall"] for u in traced)
        / statistics.median(u.report["in_process_wall"] for u in plain)
        - 1.0)
    metrics["harness.stderr_tracebacks"] = (
        sum(u.tracebacks for u in units) / len(units))
    return metrics


def git_commit() -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def measure(workload: str, options, declared: list[dict]) -> dict | None:
    """Run one workload, print its report lines and return its result
    (None when no unit finished)."""
    units = run_units(workload, options.seed, options.seconds,
                      bool(options.trace))
    for unit in units:
        if unit.stderr.strip():
            name = f"{workload}-s{options.seed}-u{unit.index}.stderr"
            (OUT / "logs" / name).write_text(unit.stderr)
        if unit.error:
            print(f"perfbench: {workload} unit {unit.index} failed "
                  f"({unit.error}):\n" + unit.stderr[-2000:], file=sys.stderr)
    if not any(u.report is not None and not u.setup_only for u in units) or (
            options.trace and not any(u.traced and u.report for u in units)):
        print(f"perfbench: no {workload} unit finished", file=sys.stderr)
        return None

    checks = checks_of(units)
    failed = [(name, failure) for name, failure in checks if failure]
    measured = per_layer(units) if options.trace else end_to_end(units)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}

    first = next(u.report for u in units if u.report is not None)
    context = {
        "workload": workload, "seed": options.seed,
        "seconds": options.seconds, "trace": options.trace,
        "units": len(units), "git_commit": git_commit(),
        "python": platform.python_version(), **first["context"],
    }
    if not options.trace:
        context.update(unscaled(units))
    tag = f"perfbench {workload}"
    print(f"{tag} context: {json.dumps(context, sort_keys=True)}")
    for note in first["notes"]:
        print(f"{tag} reference drift: {note}")
    tracebacks = sum(u.tracebacks for u in units)
    print(f"{tag} stderr: {tracebacks} traceback(s) in {len(units)} "
          f"unit(s); logs in {OUT / 'logs'}")
    for name, failure in failed:
        print(f"{tag} FAILED {name}: {failure}")
    print(f"{tag} failed_frac: {len(failed)}/{len(checks)} = "
          f"{len(failed) / len(checks):.4f}")
    for name, entry in metrics.items():
        print(f"{tag} {name}: {entry['value']:.6g} {entry['unit']}")

    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed), "metrics": metrics}
    with open(OUT / "results.jsonl", "a") as log:
        log.write(json.dumps({**result, "context": context,
                              "failures": failed}) + "\n")
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"),
                        help="one workload, or all three in turn (metrics "
                             "then read <workload>.<metric>)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    options = parser.parse_args(argv)

    missing = [path for path in ("src/repro/__init__.py",
                                 "EXPERIMENTS_OUTPUT.txt", "BENCHMARK.json")
               if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not a repro checkout, missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if options.trace else "end_to_end"]

    compileall.compile_dir(ROOT / "src", quiet=1)
    for stale in ("spans", "work", "logs"):
        shutil.rmtree(OUT / stale, ignore_errors=True)
    (OUT / "logs").mkdir(parents=True, exist_ok=True)

    if options.workload != "all":
        result = measure(options.workload, options, declared)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = measure(workload, options, declared)
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
