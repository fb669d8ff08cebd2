"""White-box tests for the tier-2 trace JIT (repro.machine.trace).

Behavioural identity with the interpreter lives in
tests/test_differential_trace.py; this file pins the mechanics: when
traces are recorded and installed, which events tear them down, which
machines refuse to trace, and that the dispatcher's hand-off between
the block tier and the trace tier stays exact.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionLimitExceeded
from repro.isa import Mem, R0, R1, R2, R3, build, encode_many
from repro.machine import Machine, MachineConfig
from repro.machine.memory import PERM_RW, PERM_RWX
from repro.observe import MetricsCollector
from tests.conftest import child_dispatch, run_python

CODE = 0x1000
STACK_BASE = 0x00200000
STACK_TOP = 0x0020F000

LOOP_HEAD = 0x100C

#: 50 iterations: far past the default hotness threshold of 20.
HOT_LOOP = [
    build.mov_ri(R0, 0),                # 0x1000
    build.mov_ri(R1, 0),                # 0x1006
    build.add_ri(R0, 3),                # 0x100C  <- loop head
    build.add_ri(R1, 1),                # 0x1012
    build.cmp_ri(R1, 50),               # 0x1018
    build.jnz(LOOP_HEAD),               # 0x101E
    build.sys(3),                       # 0x1023
]


def traced_machine(**config_kwargs) -> Machine:
    config_kwargs.setdefault("block_cache", True)
    config_kwargs.setdefault("trace_jit", True)
    machine = Machine(MachineConfig(**config_kwargs))
    machine.memory.map_region(CODE, 0x1000, PERM_RWX)
    machine.memory.map_region(STACK_BASE, 0x10000, PERM_RW)
    machine.cpu.ip = CODE
    machine.cpu.sp = STACK_TOP
    return machine


def load(machine: Machine, insns) -> bytes:
    program = encode_many(insns)
    machine.memory.write_bytes(CODE, program)
    return program


def run_hot(machine: Machine):
    load(machine, HOT_LOOP)
    result = machine.run()
    assert result.exit_code == 150
    return result


class TestInstallation:
    def test_hot_loop_installs_a_trace(self):
        machine = traced_machine()
        run_hot(machine)
        stats = machine.trace_cache_stats()
        assert stats["traces"] == 1
        assert stats["failed"] == 0
        assert LOOP_HEAD in machine._trace_cache

    def test_trace_metadata(self):
        machine = traced_machine()
        run_hot(machine)
        trace = machine._trace_cache[LOOP_HEAD]
        assert trace.head == LOOP_HEAD
        assert trace.pages == (CODE >> 12,)
        assert trace.count == 4            # add, add, cmp, jnz
        assert "def _trace" in trace.source

    def test_trace_supersedes_loop_head_block(self):
        machine = traced_machine()
        run_hot(machine)
        # Installing the trace evicts the loop head's block and nulls
        # chain cells pointing at it, so block dispatch cannot bypass
        # the trace.
        assert LOOP_HEAD not in machine._block_cache
        for cell in machine._chain_registry.get(LOOP_HEAD, ()):
            assert cell[0] is None

    def test_cold_loop_never_traces(self):
        machine = traced_machine(trace_hot_threshold=1000)
        run_hot(machine)
        assert machine.trace_cache_stats()["traces"] == 0

    def test_trace_is_reused_across_runs(self):
        machine = traced_machine()
        run_hot(machine)
        trace = machine._trace_cache[LOOP_HEAD]
        machine.cpu.ip = CODE
        machine.run()
        assert machine._trace_cache[LOOP_HEAD] is trace


class TestRefusals:
    def test_config_disables_tracing(self):
        machine = traced_machine(trace_jit=False)
        run_hot(machine)
        assert machine.trace_cache_stats()["traces"] == 0

    def test_env_var_flips_default(self):
        for value, expected in (("0", "False"), ("1", "True"),
                                (None, "True")):
            child = child_dispatch(REPRO_TRACE=value)
            assert child.returncode == 0, child.stderr
            assert child.stdout.split()[2] == expected

    def test_env_var_typo_fails_loudly(self):
        child = child_dispatch(REPRO_TRACE="of")
        assert child.returncode != 0
        assert "REPRO_TRACE='of'" in child.stderr

    def test_interpreter_mode_never_traces(self):
        machine = traced_machine(block_cache=False)
        run_hot(machine)
        assert machine.trace_cache_stats()["traces"] == 0

    def test_observed_machine_never_traces(self):
        machine = traced_machine()
        load(machine, HOT_LOOP)
        machine.attach_observer(MetricsCollector())
        result = machine.run()
        assert result.exit_code == 150
        assert machine.trace_cache_stats()["traces"] == 0

    def test_pma_machine_blacklists_instead_of_tracing(self):
        from repro.pma.module import ProtectedModule

        machine = traced_machine()
        machine.memory.map_region(0x00300000, 0x2000, PERM_RWX)
        machine.pma.register(ProtectedModule(
            name="m", text_start=0x00300000, text_end=0x00300010,
            data_start=0x00301000, data_end=0x00301010,
            entry_points=frozenset({0x00300000})), b"\x00" * 16)
        run_hot(machine)
        stats = machine.trace_cache_stats()
        assert stats["traces"] == 0
        assert stats["failed"] >= 1

    def test_loop_through_syscall_is_blacklisted_once(self):
        # print_int syscall inside the loop: recording always reaches
        # SYS and aborts.  The head lands on the failed list so the
        # recorder is not re-entered every iteration afterwards.
        loop = [
            build.mov_ri(R1, 0),            # 0x1000
            build.mov_ri(R0, 0),            # 0x1006  <- loop head
            build.sys(6),                   # 0x100C  (print_int)
            build.add_ri(R1, 1),            # 0x1011
            build.cmp_ri(R1, 50),           # 0x1017
            build.jnz(0x1006),              # 0x101D
            build.sys(3),                   # 0x1022
        ]
        machine = traced_machine()
        load(machine, loop)
        machine.run()
        assert machine.trace_cache_stats()["traces"] == 0
        assert 0x1006 in machine._trace_failed


class TestInvalidation:
    def test_guest_store_to_trace_page_drops_trace(self):
        machine = traced_machine()
        run_hot(machine)
        epoch = machine._block_epoch
        program = encode_many([
            build.mov_ri(R1, CODE + 0x800),
            build.mov_ri(R2, 0x99),
            build.storeb(R2, Mem(R1, 0)),
            build.sys(3),
        ])
        machine.memory.write_bytes(CODE + 0x400, program)
        machine.cpu.ip = CODE + 0x400
        machine.run()
        assert machine.trace_cache_stats()["traces"] == 0
        assert machine._block_epoch > epoch

    def test_raw_memory_write_drops_trace(self):
        machine = traced_machine()
        run_hot(machine)
        machine.memory.write_bytes(LOOP_HEAD, b"\x00")
        assert machine.trace_cache_stats()["traces"] == 0

    def test_invalidation_also_clears_hotness_counters(self):
        machine = traced_machine()
        run_hot(machine)
        machine.memory.write_bytes(LOOP_HEAD, b"\x00")
        assert all(head >> 12 != CODE >> 12
                   for head in machine._trace_counts)

    def test_flush_decode_cache_drops_traces(self):
        machine = traced_machine()
        run_hot(machine)
        machine.flush_decode_cache()
        stats = machine.trace_cache_stats()
        assert stats["traces"] == 0 and stats["pages"] == 0

    def test_set_perms_drops_traces(self):
        machine = traced_machine()
        run_hot(machine)
        machine.memory.set_perms(CODE, 0x1000, PERM_RWX)
        assert machine.trace_cache_stats()["traces"] == 0

    def test_rerun_after_invalidation_retraces(self):
        machine = traced_machine()
        run_hot(machine)
        machine.memory.write_bytes(CODE, encode_many(HOT_LOOP))
        assert machine.trace_cache_stats()["traces"] == 0
        machine.cpu.ip = CODE
        machine.run()
        assert machine.trace_cache_stats()["traces"] == 1


class TestBudgetExactness:
    def exhaust(self, budget, **config_kwargs):
        machine = traced_machine(**config_kwargs)
        load(machine, HOT_LOOP)
        result = machine.run(max_instructions=budget)
        assert isinstance(result.fault, ExecutionLimitExceeded)
        return machine.instructions_executed, machine.cpu.ip

    @pytest.mark.parametrize("budget", [21, 100, 150, 151, 152, 199])
    def test_limit_lands_on_interpreter_instruction(self, budget):
        # Budgets chosen to exhaust while the trace is looping: the
        # trace must retire exactly the interpreter's count and park
        # the IP on the same instruction.
        traced = self.exhaust(budget)
        stepped = self.exhaust(budget, block_cache=False)
        assert traced == stepped
        assert traced[0] == budget


def _bare_machine() -> Machine:
    return Machine()


def _block_cache_trial(machine: Machine, item) -> bool:
    return machine.config.block_cache


def _trace_jit_attack(preset, seed) -> bool:
    return MachineConfig().trace_jit


class TestPoolWorkersInheritDefaults:
    """Pool workers run the parent's dispatch value, whatever leg the
    environment they inherited names: under ``spawn``/``forkserver`` a
    worker re-imports the machine module and reads the environment
    afresh, so the parent's value survives only because the pool
    initializer forwards it.  Each case runs in a child interpreter
    whose environment selects the opposite leg."""

    def test_campaign_worker_init(self):
        script = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "from repro.campaign import CampaignRunner\n"
            "from repro.machine.machine import dispatch_defaults\n"
            "from tests.test_trace_jit import _bare_machine, "
            "_block_cache_trial\n"
            "dispatch_defaults((True, False, True))\n"
            "with CampaignRunner(_bare_machine, trial=_block_cache_trial,\n"
            "                    jobs=2) as runner:\n"
            "    print(*runner.submit_items(range(4)).result().verdicts)\n"
        )
        for method in ("fork", "spawn"):
            child = run_python(script, method, REPRO_BLOCK_CACHE="1")
            assert child.returncode == 0, child.stderr
            assert child.stdout.split() == ["False"] * 4, method

    def test_matrix_cell(self):
        script = (
            "from repro.experiments.matrix import _run_cell\n"
            "from tests.test_trace_jit import _trace_jit_attack\n"
            "cell = _run_cell((_trace_jit_attack, 'probe', 'none', None, 0,\n"
            "                  (True, True, False), False))\n"
            "print(cell.result)\n"
        )
        child = run_python(script, REPRO_TRACE="1")
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["False"]
