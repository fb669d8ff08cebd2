"""White-box tests for the basic-block translation cache.

The behavioural guarantee (block mode is observationally identical to
the interpreter) lives in tests/test_differential_blocks.py; this file
pins the *mechanics*: when blocks are built, which events tear them
down, and which configurations opt out of translation entirely.
"""

from __future__ import annotations

import pytest

from repro.isa import Mem, R0, R1, R2, R3, build, encode_many
from repro.machine import Machine, MachineConfig
from repro.machine import machine as machine_module
from repro.machine.memory import PERM_R, PERM_RW, PERM_RWX, PERM_RX
from repro.observe import MetricsCollector
from tests.conftest import child_dispatch

CODE = 0x1000
STACK_BASE = 0x00200000
STACK_TOP = 0x0020F000


def rwx_machine(**config_kwargs) -> Machine:
    # White-box suite: force translation on (explicit config beats the
    # REPRO_BLOCK_CACHE env leg CI runs) unless a test opts out.  The
    # trace tier is pinned off so block mechanics stay observable --
    # installing a trace deliberately drops the loop head's block
    # (tests/test_trace_jit.py covers that hand-off).
    config_kwargs.setdefault("block_cache", True)
    config_kwargs.setdefault("trace_jit", False)
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


HOT_LOOP = [
    build.mov_ri(R0, 0),                # 0x1000
    build.mov_ri(R1, 0),                # 0x1006
    build.add_ri(R0, 3),                # 0x100C  <- loop head
    build.add_ri(R1, 1),                # 0x1012
    build.cmp_ri(R1, 50),               # 0x1018
    build.jnz(0x100C),                  # 0x101E
    build.sys(3),                       # 0x1023
]


class TestPopulation:
    def test_run_builds_blocks(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        result = machine.run()
        assert result.exit_code == 150
        stats = machine.block_cache_stats()
        # One block per distinct head: the program entry, the loop
        # head, and the loop's fall-through exit.
        assert stats["blocks"] == 3
        assert stats["pages"] == 1
        assert set(machine._block_cache) == {0x1000, 0x100C, 0x1023}

    def test_blocks_are_reused_not_rebuilt(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.run()
        before = dict(machine._block_cache)
        machine.cpu.ip = CODE
        machine.run()
        # The same closure objects serve the second run.
        assert all(machine._block_cache[head] is block
                   for head, block in before.items())

    def test_block_metadata(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.run()
        entry = machine._block_cache[0x1000]
        # Entry block: straight-line prefix ends at the conditional
        # branch (a control transfer always terminates a block).
        assert entry.head == 0x1000
        assert entry.page == 1
        assert entry.count == 6
        loop = machine._block_cache[0x100C]
        assert loop.count == 4

    def test_single_step_never_translates(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        for _ in range(10):
            machine.step()
        assert machine.block_cache_stats()["blocks"] == 0


class TestInvalidation:
    def test_guest_write_to_block_page_invalidates(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.run()
        assert machine.block_cache_stats()["blocks"] == 3
        epoch = machine.block_cache_stats()["epoch"]
        machine.write_word(CODE + 0x800, 0x90909090)
        stats = machine.block_cache_stats()
        assert stats["blocks"] == 0
        assert stats["epoch"] == epoch + 1

    def test_raw_memory_write_invalidates(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.run()
        machine.memory.write_bytes(CODE, b"\x00")
        assert machine.block_cache_stats()["blocks"] == 0

    def test_write_to_unrelated_page_keeps_blocks(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.run()
        machine.memory.write_bytes(STACK_BASE, b"\x41" * 64)
        assert machine.block_cache_stats()["blocks"] == 3

    def test_set_perms_flushes(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.run()
        machine.memory.set_perms(CODE, 0x1000, PERM_RX)
        assert machine.block_cache_stats()["blocks"] == 0

    def test_pma_registration_flushes(self):
        from repro.pma.module import ProtectedModule

        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.memory.map_region(0x00300000, 0x2000, PERM_RX)
        machine.run()
        assert machine.block_cache_stats()["blocks"] == 3
        machine.pma.register(ProtectedModule(
            name="m", text_start=0x00300000, text_end=0x00300010,
            data_start=0x00301000, data_end=0x00301010,
            entry_points=frozenset({0x00300000})), b"\x00" * 16)
        # Registration changes fetch semantics machine-wide; cached
        # closures compiled without PMA checks must not survive.
        assert machine.block_cache_stats()["blocks"] == 0

    def test_flush_decode_cache_drops_blocks_too(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.run()
        epoch = machine.block_cache_stats()["epoch"]
        machine.flush_decode_cache()
        stats = machine.block_cache_stats()
        assert stats["blocks"] == 0
        assert stats["pages"] == 0
        assert stats["epoch"] == epoch + 1


class TestOptOut:
    def test_config_disables_translation(self):
        machine = rwx_machine(block_cache=False)
        load(machine, HOT_LOOP)
        result = machine.run()
        assert result.exit_code == 150
        assert machine.block_cache_stats()["blocks"] == 0

    def test_env_var_disables_default(self):
        for value, expected in (("0", "False"), ("1", "True"),
                                (None, "True")):
            child = child_dispatch(REPRO_BLOCK_CACHE=value)
            assert child.returncode == 0, child.stderr
            assert child.stdout.split()[1] == expected

    def test_env_var_typo_fails_loudly(self):
        child = child_dispatch(REPRO_BLOCK_CACHE="flase")
        assert child.returncode != 0
        assert "REPRO_BLOCK_CACHE='flase'" in child.stderr

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("true", True), ("yes", True), ("on", True),
        (" Yes ", True), ("0", False), ("false", False), ("no", False),
        ("off", False), ("OFF", False), ("", False),
    ])
    def test_env_switch_spellings(self, monkeypatch, value, expected):
        monkeypatch.setenv("VN32_SWITCH_PROBE", value)
        assert machine_module._env_switch("VN32_SWITCH_PROBE") is expected

    def test_env_switch_unset_is_on(self, monkeypatch):
        monkeypatch.delenv("VN32_SWITCH_PROBE", raising=False)
        assert machine_module._env_switch("VN32_SWITCH_PROBE") is True

    @pytest.mark.parametrize("value", ["flase", "2", "enabled"])
    def test_env_switch_rejects_other_values(self, monkeypatch, value):
        monkeypatch.setenv("VN32_SWITCH_PROBE", value)
        with pytest.raises(ValueError, match="VN32_SWITCH_PROBE"):
            machine_module._env_switch("VN32_SWITCH_PROBE")

    def test_observed_machine_falls_back_to_interpreter(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.attach_observer(MetricsCollector())
        result = machine.run()
        assert result.exit_code == 150
        # Observers need per-instruction events; the dispatcher must
        # never enter a translated block while any are attached.
        assert machine.block_cache_stats()["blocks"] == 0

    def test_detaching_observer_restores_translation(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        collector = machine.attach_observer(MetricsCollector())
        machine.run()
        machine.detach_observer(collector)
        machine.cpu.ip = CODE
        machine.run()
        assert machine.block_cache_stats()["blocks"] > 0


class TestTranslationLimits:
    def test_non_executable_head_is_not_translated(self):
        machine = rwx_machine()
        load(machine, HOT_LOOP)
        machine.memory.map_region(0x00400000, 0x1000, PERM_RW)
        assert machine._translate_block(0x00400000) is None

    def test_unmapped_head_is_not_translated(self):
        machine = rwx_machine()
        assert machine._translate_block(0x7FFF0000) is None

    def test_undecodable_head_is_not_translated(self):
        machine = rwx_machine()
        machine.memory.write_bytes(CODE, b"\xff\xff")
        assert machine._translate_block(CODE) is None

    def test_blocks_stop_at_page_boundary(self):
        machine = rwx_machine()
        machine.memory.map_region(0x2000, 0x1000, PERM_RWX)
        # nops to the page edge, then a sys on the next page.
        tail = encode_many([build.sys(3)])
        machine.memory.write_bytes(CODE, b"\x00" * 0x1000)
        machine.memory.write_bytes(0x2000, tail)
        machine.run()
        for block in machine._block_cache.values():
            assert block.page in (1, 2)
            # No block spans pages: every block's last byte stays on
            # its head page.
            assert block.head >> 12 == block.page
