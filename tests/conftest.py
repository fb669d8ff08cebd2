"""Shared test helpers: compile/assemble/run one-liners."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.link import LoadedProgram, load
from repro.machine import Machine, MachineConfig, RunResult
from repro.machine.machine import DispatchPolicy, dispatch_defaults
from repro.minic import CompileOptions, compile_source
from repro.mitigations import MitigationConfig, NONE

SRC = Path(__file__).resolve().parent.parent / "src"


def asm_program(source: str, config: MitigationConfig = NONE,
                name: str = "test", **load_kwargs) -> LoadedProgram:
    """Assemble one module and load it (needs a global ``main``)."""
    return load([assemble(source, name)], config, **load_kwargs)


def run_asm(source: str, stdin: bytes = b"", config: MitigationConfig = NONE,
            **load_kwargs) -> RunResult:
    """Assemble, load, feed input, run."""
    program = asm_program(source, config, **load_kwargs)
    program.feed(stdin)
    return program.run()


def c_program(source: str, config: MitigationConfig = NONE,
              options: CompileOptions | None = None, name: str = "test",
              **load_kwargs) -> LoadedProgram:
    """Compile one MinC module and load it."""
    if options is None:
        from repro.minic.compiler import options_from_mitigations

        options = options_from_mitigations(config)
    return load([compile_source(source, name, options)], config, **load_kwargs)


def run_c(source: str, stdin: bytes = b"", config: MitigationConfig = NONE,
          options: CompileOptions | None = None, **load_kwargs) -> RunResult:
    """Compile, load, feed input, run."""
    program = c_program(source, config, options, **load_kwargs)
    program.feed(stdin)
    return program.run()


@pytest.fixture
def bare_machine() -> Machine:
    """A machine with one RWX page of code space and a stack."""
    machine = Machine(MachineConfig())
    # Everything RWX: the historical no-DEP platform.
    machine.memory.map_region(0x1000, 0x1000, 7)
    machine.memory.map_region(0x00200000, 0x10000, 7)
    machine.cpu.ip = 0x1000
    machine.cpu.sp = 0x0020F000
    return machine


@pytest.fixture
def dispatch(request):
    """Setter for the process-wide dispatch value, undone after the
    test: ``dispatch(block_cache=False)`` replaces that one field and
    returns the new value (``dispatch()`` just reads it).

    Pipelines that build their own machines follow it, and so do pool
    workers, which receive the value through their initializer.
    Indirect parametrization (:data:`BLOCK_LEGS`) applies its fields
    before the test starts.
    """
    previous = dispatch_defaults()
    request.addfinalizer(lambda: dispatch_defaults(previous))

    def apply(**fields) -> DispatchPolicy:
        return dispatch_defaults(dispatch_defaults()._replace(**fields))

    apply(**getattr(request, "param", {}))
    return apply


#: Run a test under both superblock dispatch legs, whatever leg the
#: environment selected.
BLOCK_LEGS = pytest.mark.parametrize(
    "dispatch", [{"block_cache": True}, {"block_cache": False}],
    ids=["blocks", "stepped"], indirect=True)


def run_python(script: str, *args: str, **env: str | None,
               ) -> subprocess.CompletedProcess:
    """Run ``script`` (with ``args``) in a fresh interpreter whose
    environment adds ``env`` (a ``None`` value removes that variable).
    The dispatch switches are read once, when the machine module is
    imported, so only a new process sees a changed
    ``REPRO_BLOCK_CACHE``/``REPRO_TRACE``.  The repository root is on
    the child's path, so test modules import there too."""
    child_env = {**os.environ,
                 "PYTHONPATH": os.pathsep.join((str(SRC), str(SRC.parent)))}
    for name, value in env.items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=child_env)


def child_dispatch(**env: str | None) -> subprocess.CompletedProcess:
    """Print ``decode_cache block_cache trace_jit`` of a ``Machine()``
    built in a fresh interpreter whose environment adds ``env`` (a
    ``None`` value removes that variable)."""
    return run_python("from repro.machine import Machine\n"
                      "config = Machine().config\n"
                      "print(config.decode_cache, config.block_cache, "
                      "config.trace_jit)\n", **env)
