"""E7d -- greybox vs blind fuzzing (Section III-C2, measured).

The paper's claim is qualitative: testing for memory-safety bugs "is
made significantly more effective with the use of run-time checks".
E7c (``analysis_exp.fuzzing_report``) measures the *run-time checks*
axis with a blind random fuzzer.  This experiment adds the *testing
strength* axis: the same victims, the same snapshot fork-server, but
coverage-guided input generation (:mod:`repro.analysis.greybox`)
against blind randomness -- reporting executions-to-first-detection,
wall-clock time, and the coverage curve each strategy climbs.

Two victim families:

* ``fig1_staged`` -- the Figure 1 overflow gated behind a
  byte-at-a-time ``"GET"`` method check.  A blind fuzzer reaches the
  vulnerable ``read`` only when three random bytes spell the method
  (~2^-24 per input); the greybox loop solves the gates one branch
  edge at a time.
* ``data_only`` and the labelled corpus entries -- shallow overflows
  both strategies can trigger, where the comparison shows greybox's
  deterministic length-extension stage finding the boundary in a
  handful of executions.

Both strategies build the victim once and restore a warm snapshot
per input -- the blind fuzzer through
:class:`~repro.analysis.greybox.SnapshotExecutor`, the greybox loop
through :meth:`~repro.campaign.CampaignRunner.submit_items` -- so the
comparison isolates the search strategy, not the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.fuzzer import FuzzReport, fuzz_campaign
from repro.analysis.greybox import (
    GreyboxFuzzer,
    GreyboxReport,
    SnapshotExecutor,
    SourceFactory,
    VictimFactory,
)
from repro.analysis.corpus import CORPUS
from repro.experiments.reporting import render_table
from repro.mitigations.config import NONE, TESTING

#: Default execution budget per (victim, config, strategy) cell.  The
#: staged victim needs ~1.5k greybox execs to solve the method gate;
#: blind random realistically never will inside any budget we can run.
DEFAULT_MAX_EXECS = 4000

#: Corpus entries fuzzed alongside the named victims (the shallow
#: overflow shapes the static analyzer is graded on in E7b).
CORPUS_TARGETS = ("overflow_read", "off_by_one_loop")


@dataclass
class FuzzCell:
    """One (victim, config) comparison: blind vs greybox."""

    program: str
    config_name: str
    blind: FuzzReport
    grey: GreyboxReport


def _corpus_source(name: str) -> str:
    for entry in CORPUS:
        if entry.name == name:
            return entry.source
    raise KeyError(name)


def _targets(victims, corpus):
    """``(label, factory-maker)`` pairs; the maker takes a config."""
    targets = []
    for name in victims:
        targets.append((name, lambda config, name=name:
                        VictimFactory(name, config)))
    for name in corpus:
        source = _corpus_source(name)
        targets.append((f"corpus:{name}",
                        lambda config, source=source, name=name:
                        SourceFactory(source, name, config)))
    return targets


def fuzz_comparison(
    max_execs: int = DEFAULT_MAX_EXECS,
    seed: int = 7,
    jobs: int | None = None,
    victims: tuple[str, ...] = ("fig1_staged", "data_only"),
    corpus: tuple[str, ...] = CORPUS_TARGETS,
) -> list[FuzzCell]:
    """Blind vs greybox over ``victims`` + ``corpus``, NONE vs TESTING.

    Both strategies get the same execution budget and stop at the
    first detection (execs-to-first-detection is the headline metric;
    a cell that never detects reports the full budget spent).
    """
    cells = []
    for label, make_factory in _targets(victims, corpus):
        for config, config_name in ((NONE, "NONE"), (TESTING, "TESTING")):
            factory = make_factory(config)
            blind = fuzz_campaign(
                label, config, runs=max_execs, seed=seed,
                executor=SnapshotExecutor(factory),
            )
            grey = GreyboxFuzzer(
                factory, seed=seed, jobs=jobs,
                program=label, config=config_name,
            ).run(max_execs, stop_on_first_crash=True)
            cells.append(FuzzCell(label, config_name, blind, grey))
    return cells


def _first(value) -> str:
    return str(value) if value is not None else "never"


def render_comparison(cells: list[FuzzCell]) -> str:
    rows = []
    for cell in cells:
        blind_first = cell.blind.first_detected_exec
        grey_first = cell.grey.first_detected_exec
        if grey_first and blind_first:
            advantage = f"{blind_first / grey_first:.1f}x"
        elif grey_first:
            advantage = f">{cell.blind.runs / grey_first:.1f}x"
        elif blind_first:
            advantage = "blind only"
        else:
            advantage = "-"
        rows.append([
            cell.program, cell.config_name,
            _first(blind_first), _first(grey_first),
            advantage, cell.grey.edges, cell.grey.unique_crashes,
            f"{cell.grey.execs_per_second:,.0f}",
        ])
    return render_table(
        ["victim", "build", "blind: first detect (execs)",
         "greybox: first detect (execs)", "greybox advantage",
         "edges", "uniq crashes", "execs/s"],
        rows,
        title="E7d: execs-to-first-detection, blind vs coverage-guided "
              "(same budget, same fork-server)",
    )


def render_curve(report: GreyboxReport, width: int = 60) -> str:
    """The coverage curve as a text plot: edges found vs executions."""
    lines = [f"coverage curve: {report.program} [{report.config}] "
             f"({report.execs} execs, {report.edges} edges)"]
    if not report.coverage_curve:
        return lines[0] + "\n  (no coverage recorded)"
    max_edges = max(edges for _, edges in report.coverage_curve)
    for execs, edges in report.coverage_curve:
        bar = "#" * max(1, round(width * edges / max_edges))
        marker = ""
        if report.first_detected_exec and execs >= report.first_detected_exec:
            marker = "  <- after first detection"
        lines.append(f"  {execs:>6} execs | {bar} {edges}{marker}")
    return "\n".join(lines)


def run_fuzz(jobs: int | None = None, seed: int | None = None,
             max_execs: int = DEFAULT_MAX_EXECS) -> str:
    """The ``python -m repro.experiments fuzz`` entry point."""
    cells = fuzz_comparison(max_execs=max_execs,
                            seed=7 if seed is None else seed, jobs=jobs)
    parts = [render_comparison(cells)]
    # The curve that tells the story: the staged victim under TESTING,
    # where each solved comparison byte is a visible coverage step.
    for cell in cells:
        if cell.program == "fig1_staged" and cell.config_name == "TESTING":
            parts.append(render_curve(cell.grey))
            break
    detected = sum(1 for cell in cells if cell.grey.detected)
    blind_detected = sum(1 for cell in cells if cell.blind.first_detected_exec)
    parts.append(
        f"greybox detected {detected}/{len(cells)} cells; "
        f"blind detected {blind_detected}/{len(cells)} "
        f"(budget {max_execs} execs per cell)"
    )
    return "\n\n".join(parts)
