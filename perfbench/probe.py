"""Host-speed probe: a fixed pure-Python kernel timed between units.

On a shared host the speed a process gets drifts by tens of percent
over minutes, longer than a 60-second run, and the workloads (a
machine simulator written in Python) slow down with it.  The probe
runs a fixed loop of the same kind of code -- object and dict lookups,
byte loads and stores spread over a working set of tens of MB -- but
none of the program under test, so a change to the program cannot move
it.  ``run.py`` times the probe before and after every unit and scales
the unit's timings by ``REFERENCE_S`` / (mean probe time around it).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Probe time on the host the benchmark was sized on (2-core VM,
#: Python 3.11.7).  Scaled timings read as seconds on a host where the
#: probe takes this long.
REFERENCE_S = 0.15
#: Loop steps per probe, and probes per measurement (median taken).
STEPS = 100_000
REPEATS = 3
#: Working set: a byte array and a dict of small objects.
MEMORY_BYTES = 1 << 24
OBJECTS = 300_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


_working_set: tuple | None = None


def _state() -> tuple:
    global _working_set
    if _working_set is None:
        cells = {key * 7919: _Cell(key) for key in range(OBJECTS)}
        _working_set = (bytearray(MEMORY_BYTES), cells, list(cells))
    return _working_set


def kernel(steps: int = STEPS) -> int:
    memory, cells, keys = _state()
    count = len(keys)
    state, total = 12345, 0
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        address = state & (MEMORY_BYTES - 1)
        memory[address] = (memory[address] + cells[keys[state % count]].value) & 0xFF
        total += memory[address ^ 0x5555]
    return total


def _median_time() -> float:
    _state()
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def measure() -> float:
    """Median time of ``REPEATS`` kernel runs, in seconds.

    Runs in a child process: a unit inherits its parent's peak RSS
    through ``fork``/``exec``, so the working set must not live in the
    process that launches the units."""
    result = subprocess.run([sys.executable, __file__], check=True,
                            capture_output=True, text=True, timeout=60)
    return float(result.stdout)


if __name__ == "__main__":
    print(repr(_median_time()))
