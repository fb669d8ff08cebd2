"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
from spans import Tracer, installed_wrappers, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDING = ROOT / "EXPERIMENTS_OUTPUT.txt"


class FakeClock:
    """Each reading is one later than the previous one."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# -- spans and self time -----------------------------------------------------


def test_self_time_nested():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    # Clock readings: outer 1..6, inner 2..3 and 4..5.
    own = self_times(tracer.spans)
    assert own == {"inner": 2.0, "outer": 3.0}
    parents = {name: parent for _id, name, _s, _e, parent, _r in tracer.spans}
    assert parents["outer"] == 0
    assert parents["inner"] != 0


def test_self_time_recursive():
    clock = FakeClock()
    tracer = Tracer(clock)

    def countdown(n):
        if n:
            wrapped(n - 1)

    wrapped = tracer.wrap("rec", countdown)
    wrapped(3)
    # Four nested spans over readings 1..8 (durations 7, 5, 3, 1): the
    # self times partition the outermost span.
    assert self_times(tracer.spans) == {"rec": 7.0}
    outermost = max(end - start for _i, _n, start, end, _p, _r in tracer.spans)
    assert outermost == 7.0


def test_self_times_add_up_to_the_traced_wall():
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        from repro.analysis.greybox import SnapshotExecutor, VictimFactory
        from repro.mitigations.config import TESTING

        started = tracer.clock()
        executor = SnapshotExecutor(VictimFactory("fig1_staged", TESTING))
        for data in (b"", b"GET /", b"A" * 40):
            executor.run(data)
        wall = tracer.clock() - started
    finally:
        tracer.uninstall()
    figures = layers.unit_layers(tracer.spans, tracer.counts, wall)
    parts = sum(figures[m] for m in layers.SELF_TIME_METRICS)
    assert parts + figures["unattributed_s"] == pytest.approx(wall)
    assert figures["unattributed_s"] >= 0.0
    assert all(figures[m] >= 0.0 for m in layers.SELF_TIME_METRICS)
    assert figures["machine.runs"] == 3
    assert figures["machine.restores"] == 3
    assert figures["minic.compiles"] == 1
    assert figures["link.loads"] == 1
    # Every recorded span belongs to a layer metric.
    named = {n for names in layers.SELF_TIME_METRICS.values() for n in names}
    assert {name for _i, name, *_rest in tracer.spans} <= named


# -- wrappers ----------------------------------------------------------------


def test_install_rebinds_every_holder_and_uninstall_restores():
    import repro.analysis.greybox as greybox
    import repro.link as link
    import repro.link.loader as loader
    import repro.programs.builders as builders
    from repro.machine.machine import Machine, MachineSnapshot

    classes = layers.wrapped_classes()
    assert installed_wrappers(classes) == []
    original_load = loader.load
    original_run = Machine.__dict__["run"]
    original_decode = MachineSnapshot.__dict__["from_bytes"]
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        found = set(installed_wrappers(classes))
        for name in ("repro.link.loader.load", "repro.link.load",
                     "repro.programs.builders.load",
                     "repro.programs.builders.compile_source",
                     "repro.analysis.greybox.compile_source",
                     "repro.analysis.greybox.outcome_of",
                     "repro.analysis.greybox.minimize_input",
                     "repro.minic.compiler.assemble",
                     "Machine.run", "MachineSnapshot.from_bytes"):
            assert name in found
        assert builders.load is link.load is loader.load
        assert builders.load is not original_load
        assert isinstance(MachineSnapshot.__dict__["from_bytes"], classmethod)
        assert greybox.outcome_of is not None
    finally:
        tracer.uninstall()
    assert installed_wrappers(classes) == []
    assert loader.load is original_load and builders.load is original_load
    assert Machine.__dict__["run"] is original_run
    assert MachineSnapshot.__dict__["from_bytes"] is original_decode


def test_wrapper_is_transparent_for_results_and_errors():
    tracer = Tracer()

    def fails():
        raise KeyError("x")

    wrapped = tracer.wrap("f", fails)
    with pytest.raises(KeyError):
        wrapped()
    assert [name for _i, name, *_rest in tracer.spans] == ["f"]
    assert tracer.wrap("g", lambda a, b=2: a + b)(1, b=5) == 6


def test_untraced_unit_installs_no_wrapper():
    # The unit refuses to run untraced with a wrapper bound, before and
    # after its workload.
    result = subprocess.run(
        [sys.executable, str(HERE / "unit.py"), "--workload", "paper_suite",
         "--seed", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["layers"] is None
    assert report["checks"] == [["e1 matches recording", None]]


# -- comparing with the recording --------------------------------------------


def _timing_spans(section: str) -> set[int]:
    """Offsets of characters that belong to a timing figure, found
    independently of :mod:`reference`: ``trials/s`` table cells,
    ``<n> trials/s`` values and the ``speedup`` value."""
    offsets: set[int] = set()
    position = 0
    header = None
    for line in section.splitlines(keepends=True):
        if line.startswith("|"):
            bars = [i for i, ch in enumerate(line) if ch == "|"]
            cells = [line[a + 1:b] for a, b in zip(bars, bars[1:])]
            if header is None:
                header = [cell.strip() for cell in cells]
            else:
                for column, (a, b) in zip(header, zip(bars, bars[1:])):
                    if column == "trials/s":
                        offsets.update(range(position + a + 1,
                                             position + b))
        elif not line.startswith("+"):
            header = None
            for match in re.finditer(r"[0-9.]+(?= trials/s)", line):
                offsets.update(range(position + match.start(),
                                     position + match.end()))
            if line.lstrip().startswith("speedup"):
                match = re.search(r"[0-9.]+x", line)
                offsets.update(range(position + match.start(),
                                     position + match.end()))
        position += len(line)
    return offsets


@pytest.mark.parametrize("key", ["campaign", "e4", "e5", "e6"])
def test_masking_touches_only_timing_columns(key):
    section = reference.load_sections(RECORDING)[key]
    timing = _timing_spans(section)
    if key == "campaign":
        assert len(timing) > 40
    for offset, char in enumerate(section):
        if not char.isdigit():
            continue
        changed = (section[:offset] + str((int(char) + 1) % 10)
                   + section[offset + 1:])
        diff = reference.compare(changed, section)
        if offset in timing:
            assert diff is None, (key, offset)
        else:
            assert diff is not None, (key, offset, section[offset - 20:offset])


def test_seeded_masking_keeps_seed_independent_fields():
    sections = reference.load_sections(RECORDING)
    e6 = sections["e6"]
    # The expected-probability column stays compared at any seed...
    doctored = e6.replace("| 1.000             |", "| 0.999             |", 1)
    assert reference.compare(doctored, e6, seeded=True) is not None
    # ...while the blind success rate is masked only when seeded.
    doctored = e6.replace("| 0.562         |", "| 0.250         |", 1)
    assert doctored != e6
    assert reference.compare(doctored, e6, seeded=True) is None
    assert reference.compare(doctored, e6) is not None


def test_recording_drift_is_applied_once_and_reported():
    sections = reference.load_sections(RECORDING)
    before = sections["e7"]
    notes = reference.reference_drift(sections)
    assert "fig1_parsing" not in before or notes == []
    if notes:
        assert sections["e7"].count("fig1_parsing") == 1
        assert reference.reference_drift(sections) == []


# -- metric declarations -----------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_every_metric_has_a_name_unit_and_direction():
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [metric["name"] for metric in declared]
    assert len(names) == len(set(names))
    for metric in declared:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_per_layer_declarations_match_what_the_harness_computes():
    computed = {*layers.SELF_TIME_METRICS, *layers.COUNT_METRICS,
                *layers.CAMPAIGN_METRICS, *layers.EXPERIMENT_METRICS,
                "machine.insns_per_s", "store.corpus_new_ratio",
                "trace.wall_s", "unattributed_s", "trace_overhead_frac",
                "harness.stderr_tracebacks"}
    assert {metric["name"] for metric in SPEC["per_layer"]} == computed


# -- host-speed scaling -------------------------------------------------------


def _finished_unit(index, launched, first_landed, end, scale):
    import run

    report = {"first_landed": first_landed, "end": end, "work": 100,
              "peak_rss_mb": 30.0}
    unit = run.Unit(index, False, False, launched, end, 0,
                    json.dumps(report), "")
    unit.scale = scale
    return unit


def test_end_to_end_timings_are_scaled_by_the_host_probe():
    import run

    # The second unit took twice as long on a host running at half the
    # reference speed: scaled, both units read the same.
    units = [_finished_unit(0, 0.0, 1.0, 11.0, scale=1.0),
             _finished_unit(1, 20.0, 22.0, 42.0, scale=0.5)]
    figures = run.end_to_end(units)
    assert figures["wall_s"] == pytest.approx(11.0)
    assert figures["setup_s"] == pytest.approx(1.0)
    assert figures["execs_per_s"] == pytest.approx(10.0)
    raw = run.unscaled(units)
    assert raw["unscaled_wall_s"] == pytest.approx(16.5)
    assert raw["unscaled_execs_per_s"] == pytest.approx(200 / 30)
    assert raw["host_scale"] == pytest.approx(0.75)


def test_probe_runs_apart_from_the_program():
    import probe

    assert "repro" not in (HERE / "probe.py").read_text()
    assert 0 < probe.measure() < 60
