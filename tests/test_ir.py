"""Unit tests for the decoded IR layer (repro.machine.ir).

The IR's def/use and control metadata drive both translation tiers:
the superblock builder consumes ``ends_block``/``lift_block`` and the
trace compiler consumes register effects and FLAGS liveness.  A wrong
``reads``/``writes`` set silently miscompiles, so the effects are
pinned per instruction class here.
"""

from __future__ import annotations

import pytest

from repro.isa import Instruction, Mem, OPCODE_TABLE, R0, R1, R2, R3, build, encode_many
from repro.isa.opcodes import COMPARE_FLAGS, RESULT_FLAGS, OperandFormat
from repro.machine import Machine, MachineConfig
from repro.machine.ir import (
    ControlKind,
    lift,
    lift_at,
    lift_block,
)
from repro.machine.memory import PERM_RWX

CODE = 0x1000


def lift_one(insn, addr=CODE):
    return lift(insn, addr)


class TestRegisterEffects:
    def test_mov_ri_writes_only(self):
        irx = lift_one(build.mov_ri(R2, 7))
        assert irx.reads == frozenset()
        assert irx.writes == {R2}

    def test_mov_rr_reads_source(self):
        irx = lift_one(build.mov_rr(R2, R3))
        assert irx.reads == {R3}
        assert irx.writes == {R2}

    def test_load_reads_base_writes_dest(self):
        irx = lift_one(build.load(R0, Mem(R1, 8)))
        assert irx.reads == {R1}
        assert irx.writes == {R0}

    def test_store_reads_both_writes_none(self):
        irx = lift_one(build.store(R0, Mem(R1, 8)))
        assert irx.reads == {R0, R1}
        assert irx.writes == frozenset()

    def test_push_reads_source_and_sp_writes_sp(self):
        irx = lift_one(build.push(R3))
        assert irx.reads == {R3, 8}
        assert irx.writes == {8}

    def test_pop_reads_sp_writes_dest_and_sp(self):
        irx = lift_one(build.pop(R3))
        assert irx.reads == {8}
        assert irx.writes == {R3, 8}

    def test_alu_rr_reads_both_writes_dest(self):
        irx = lift_one(build.add_rr(R0, R1))
        assert irx.reads == {R0, R1}
        assert irx.writes == {R0}

    def test_call_touches_sp(self):
        irx = lift_one(build.call_abs(0x2000))
        assert 8 in irx.reads and 8 in irx.writes

    def test_ret_touches_sp(self):
        irx = lift_one(build.ret())
        assert 8 in irx.reads and 8 in irx.writes


class TestFlagEffects:
    def test_arith_writes_result_flags(self):
        assert lift_one(build.add_ri(R0, 1)).flags_written == RESULT_FLAGS

    def test_cmp_writes_all_flags(self):
        assert lift_one(build.cmp_ri(R0, 5)).flags_written == COMPARE_FLAGS

    def test_mov_writes_no_flags(self):
        assert lift_one(build.mov_ri(R0, 5)).flags_written == frozenset()

    def test_branches_read_their_predicate(self):
        assert lift_one(build.jz(0x2000)).flags_read == {"zf"}
        assert lift_one(build.jle(0x2000)).flags_read == {"zf", "lt"}
        assert lift_one(build.jb(0x2000)).flags_read == {"ult"}
        # The predicates drive the trace compiler's lazy-flag
        # decisions: every conditional branch opcode must carry one.
        assert sum(spec.cond is not None for spec in OPCODE_TABLE) == 8


#: One operand tuple per encoding format: distinct registers (r1, r2,
#: base r3) so every read/write set below names its operand's role.
_OPERANDS = {
    OperandFormat.NONE: (),
    OperandFormat.REG: (R1,),
    OperandFormat.REGREG: (R1, R2),
    OperandFormat.REGIMM32: (R1, 5),
    OperandFormat.REGIMM8: (R1, 3),
    OperandFormat.REGMEM: (R1, Mem(R3, 8)),
    OperandFormat.IMM32: (0x2000,),
    OperandFormat.IMM8: (3,),
}

_SP = 8
_ALL = frozenset(range(10))
_RES = {"zf", "lt"}
_CMP = {"zf", "lt", "ult"}
_F, _J, _JR, _B = (ControlKind.FALL, ControlKind.JUMP, ControlKind.JUMP_REG,
                   ControlKind.BRANCH)

#: opcode -> (reads, writes, flags_written, flags_read, can_fault, kind),
#: written out by hand for every row of OPCODE_TABLE.
_EFFECTS = {
    0x00: (set(), set(), set(), set(), False, _F),                # nop
    0x01: (set(), set(), set(), set(), False, ControlKind.HALT),  # halt
    0x02: ({R2}, {R1}, set(), set(), False, _F),                  # mov rr
    0x03: (set(), {R1}, set(), set(), False, _F),                 # mov ri
    0x04: ({R3}, {R1}, set(), set(), True, _F),                   # load
    0x05: ({R1, R3}, set(), set(), set(), True, _F),              # store
    0x06: ({R3}, {R1}, set(), set(), True, _F),                   # loadb
    0x07: ({R1, R3}, set(), set(), set(), True, _F),              # storeb
    0x08: ({R1, _SP}, {_SP}, set(), set(), True, _F),             # push
    0x09: ({_SP}, {R1, _SP}, set(), set(), True, _F),             # pop
    0x0A: ({R1, R2}, {R1}, _RES, set(), False, _F),               # add rr
    0x0B: ({R1}, {R1}, _RES, set(), False, _F),                   # add ri
    0x0C: ({R1, R2}, {R1}, _RES, set(), False, _F),               # sub rr
    0x0D: ({R1}, {R1}, _RES, set(), False, _F),                   # sub ri
    0x0E: ({R1, R2}, {R1}, _RES, set(), False, _F),               # mul
    0x0F: ({R1, R2}, {R1}, _RES, set(), True, _F),                # div
    0x10: ({R1, R2}, {R1}, _RES, set(), True, _F),                # mod
    0x11: ({R1, R2}, {R1}, _RES, set(), False, _F),               # and
    0x12: ({R1, R2}, {R1}, _RES, set(), False, _F),               # or
    0x13: ({R1, R2}, {R1}, _RES, set(), False, _F),               # xor
    0x14: ({R1}, {R1}, _RES, set(), False, _F),                   # not
    0x15: ({R1}, {R1}, _RES, set(), False, _F),                   # shl
    0x16: ({R1}, {R1}, _RES, set(), False, _F),                   # shr
    0x17: ({R1, R2}, set(), _CMP, set(), False, _F),              # cmp rr
    0x18: ({R1}, set(), _CMP, set(), False, _F),                  # cmp ri
    0x19: (set(), set(), set(), set(), False, _J),                # jmp abs
    0x1A: ({R1}, set(), set(), set(), True, _JR),                 # jmp reg
    0x1B: (set(), set(), set(), {"zf"}, False, _B),               # jz
    0x1C: (set(), set(), set(), {"zf"}, False, _B),               # jnz
    0x1D: (set(), set(), set(), {"lt"}, False, _B),               # jl
    0x1E: (set(), set(), set(), {"lt", "zf"}, False, _B),         # jg
    0x1F: (set(), set(), set(), {"lt", "zf"}, False, _B),         # jle
    0x20: (set(), set(), set(), {"lt"}, False, _B),               # jge
    0x21: (set(), set(), set(), {"ult"}, False, _B),              # jb
    0x22: (set(), set(), set(), {"ult"}, False, _B),              # jae
    0x23: ({_SP}, {_SP}, set(), set(), True, ControlKind.CALL),   # call abs
    0x24: ({R1, _SP}, {_SP}, set(), set(), True,
           ControlKind.CALL_REG),                                 # call reg
    0x25: ({_SP}, {_SP}, set(), set(), True, ControlKind.RET),    # ret
    0x26: (_ALL, _ALL, set(), set(), True, ControlKind.SYS),      # sys
    0x27: ({R3}, {R1}, set(), set(), False, _F),                  # lea
    0x28: ({R1}, set(), set(), set(), True, _F),                  # chk
    0x29: (set(), set(), set(), set(), False, _F),                # land
}


class TestEveryOpcode:
    def test_table_is_fully_pinned(self):
        assert sorted(_EFFECTS) == [spec.opcode for spec in OPCODE_TABLE]

    @pytest.mark.parametrize(
        "spec", OPCODE_TABLE, ids=lambda s: f"{s.mnemonic}_{s.opcode:02x}")
    def test_effects(self, spec):
        irx = lift_one(Instruction(spec.opcode, _OPERANDS[spec.fmt]))
        reads, writes, flags_written, flags_read, can_fault, kind = (
            _EFFECTS[spec.opcode])
        assert irx.reads == reads
        assert irx.writes == writes
        assert irx.flags_written == flags_written
        assert irx.flags_read == flags_read
        assert irx.can_fault is can_fault
        assert irx.kind is kind


class TestControlKinds:
    def test_straight_line(self):
        irx = lift_one(build.add_ri(R0, 1))
        assert irx.kind is ControlKind.FALL
        assert not irx.ends_block
        assert irx.next_addr == CODE + irx.length

    def test_branch_has_both_edges(self):
        irx = lift_one(build.jnz(0x2000))
        assert irx.kind is ControlKind.BRANCH
        assert irx.target == 0x2000
        assert irx.next_addr == CODE + irx.length
        assert irx.ends_block

    def test_call_is_a_block_end_with_target(self):
        irx = lift_one(build.call_abs(0x2000))
        assert irx.kind is ControlKind.CALL
        assert irx.target == 0x2000

    def test_indirect_kinds(self):
        assert lift_one(build.jmp_reg(R1)).kind is ControlKind.JUMP_REG
        assert lift_one(build.call_reg(R1)).kind is ControlKind.CALL_REG
        assert lift_one(build.ret()).kind is ControlKind.RET
        assert lift_one(build.sys(3)).kind is ControlKind.SYS
        assert lift_one(build.halt()).kind is ControlKind.HALT


class TestLiftingFromMemory:
    def machine(self, insns):
        machine = Machine(MachineConfig(block_cache=False))
        machine.memory.map_region(CODE, 0x1000, PERM_RWX)
        machine.memory.write_bytes(CODE, encode_many(insns))
        return machine

    def test_lift_at_roundtrips_encoding(self):
        machine = self.machine([build.mov_ri(R0, 42)])
        irx = lift_at(machine.memory, CODE)
        assert irx.opcode == 0x03
        assert irx.operands == (R0, 42)

    def test_lift_at_unmapped_returns_none(self):
        machine = self.machine([build.nop()])
        assert lift_at(machine.memory, 0x9000) is None

    def test_lift_at_undecodable_returns_none(self):
        machine = self.machine([build.nop()])
        machine.memory.write_bytes(CODE, b"\xff")
        assert lift_at(machine.memory, CODE) is None

    def test_lift_block_stops_at_terminator(self):
        machine = self.machine([
            build.mov_ri(R0, 1),
            build.add_ri(R0, 2),
            build.jmp_abs(CODE),
            build.nop(),                    # unreachable: not lifted
        ])
        insns = lift_block(machine.memory, CODE, 64, set())
        assert [irx.opcode for irx in insns] == [0x03, 0x0B, 0x19]

    def test_lift_block_respects_cap(self):
        machine = self.machine([build.nop()] * 32 + [build.halt()])
        insns = lift_block(machine.memory, CODE, 8, set())
        assert len(insns) == 8
