"""The VN32 CPU: registers, flags, and the execute stage.

The CPU holds architectural state and knows how to execute one decoded
instruction against a :class:`~repro.machine.machine.Machine` (which
provides checked memory access and platform services).  Keeping the
execute stage here and all policy (page permissions, PMA rules, shadow
stack, CFI) in the machine mirrors the paper's layering: the attacks
live entirely in the semantics below; the countermeasures are hooks
around them.

The ALU, compare and conditional-branch handlers are built from their
rows of :data:`~repro.isa.opcodes.OPCODE_TABLE` (fold functions and
branch predicates), the semantics every execution tier shares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.isa.instructions import Instruction, Mem, WORD_MASK, to_signed
from repro.isa.opcodes import COMPARE_FLAGS, OPCODE_TABLE, OpcodeSpec, OperandFormat
from repro.isa.registers import NUM_REGISTERS, REGISTER_NAMES, SP

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine


class CPU:
    """Architectural state: R0-R7, SP, BP, IP and comparison flags.

    Flags are stored as the *outcomes* of the last comparison
    (``zf``/``lt``/``ult``) rather than as raw carry/overflow bits;
    this keeps signed/unsigned branching exact without modelling
    two's-complement overflow flags.
    """

    def __init__(self) -> None:
        self.regs: list[int] = [0] * NUM_REGISTERS
        self.ip: int = 0
        #: Last comparison: equal?
        self.zf: bool = False
        #: Last comparison: signed less-than?
        self.lt: bool = False
        #: Last comparison: unsigned less-than (below)?
        self.ult: bool = False

    # -- register access ----------------------------------------------------

    def get(self, reg: int) -> int:
        return self.regs[reg]

    def set(self, reg: int, value: int) -> None:
        self.regs[reg] = value & WORD_MASK

    @property
    def sp(self) -> int:
        return self.regs[SP]

    @sp.setter
    def sp(self, value: int) -> None:
        self.regs[SP] = value & WORD_MASK

    def snapshot(self) -> dict[str, int]:
        """A copy of the register file for tracing and register-leak
        experiments (machine-code attackers can read registers)."""
        state = {name: self.regs[number] for number, name in enumerate(REGISTER_NAMES)}
        state["ip"] = self.ip
        return state

    # -- flag helpers ---------------------------------------------------------

    def _set_flags_compare(self, a: int, b: int) -> None:
        a &= WORD_MASK
        b &= WORD_MASK
        self.zf = a == b
        self.lt = to_signed(a) < to_signed(b)
        self.ult = a < b

    # -- execution -------------------------------------------------------------

    def execute(self, insn: Instruction, machine: "Machine", next_ip: int) -> None:
        """Execute one decoded instruction.

        ``next_ip`` is the address of the following instruction; the
        handler either leaves ``self.ip`` at ``next_ip`` (already set
        by the machine) or overwrites it for control transfers.
        """
        _DISPATCH[insn.opcode](self, insn, machine)


def _mem_addr(cpu: CPU, mem: Mem) -> int:
    return (cpu.regs[mem.base] + mem.disp) & WORD_MASK


# Handler functions, one per opcode. Each receives (cpu, insn, machine).


def _nop(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    pass


def _halt(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    machine.halt()


def _mov_rr(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    dst, src = insn.operands
    cpu.regs[dst] = cpu.regs[src]


def _mov_ri(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    dst, imm = insn.operands
    cpu.regs[dst] = imm & WORD_MASK


def _load(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    dst, mem = insn.operands
    cpu.regs[dst] = machine.read_word(_mem_addr(cpu, mem))


def _store(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    src, mem = insn.operands
    machine.write_word(_mem_addr(cpu, mem), cpu.regs[src])


def _loadb(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    dst, mem = insn.operands
    cpu.regs[dst] = machine.read_byte(_mem_addr(cpu, mem))


def _storeb(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    src, mem = insn.operands
    machine.write_byte(_mem_addr(cpu, mem), cpu.regs[src] & 0xFF)


def _push(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    (reg,) = insn.operands
    machine.push_word(cpu.regs[reg])


def _pop(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    (reg,) = insn.operands
    cpu.regs[reg] = machine.pop_word()


def _jmp_abs(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    cpu.ip = insn.operands[0] & WORD_MASK


def _jmp_reg(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    target = cpu.regs[insn.operands[0]]
    machine.check_indirect_target(target)
    cpu.ip = target


def _call_abs(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    machine.push_return_address(cpu.ip)
    cpu.ip = insn.operands[0] & WORD_MASK


def _call_reg(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    target = cpu.regs[insn.operands[0]]
    machine.check_indirect_target(target)
    machine.push_return_address(cpu.ip)
    cpu.ip = target


def _ret(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    cpu.ip = machine.pop_return_address()


def _sys(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    machine.do_syscall(insn.operands[0])


def _lea(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    dst, mem = insn.operands
    cpu.regs[dst] = _mem_addr(cpu, mem)


def _chk(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    reg, limit = insn.operands
    machine.bounds_check(cpu.regs[reg], limit)


#: Handlers for the rows whose semantics are not a table template:
#: moves, memory traffic, control transfers and platform services.
_HANDLERS: dict[int, Callable] = {
    0x00: _nop,
    0x01: _halt,
    0x02: _mov_rr,
    0x03: _mov_ri,
    0x04: _load,
    0x05: _store,
    0x06: _loadb,
    0x07: _storeb,
    0x08: _push,
    0x09: _pop,
    0x19: _jmp_abs,
    0x1A: _jmp_reg,
    0x23: _call_abs,
    0x24: _call_reg,
    0x25: _ret,
    0x26: _sys,
    0x27: _lea,
    0x28: _chk,
    0x29: _nop,  # land: a typed-CFI landing pad, inert when executed
}


# Handlers derived from the opcode table: ALU results, compares and
# conditional branches.


def _second_operand(spec: OpcodeSpec) -> Callable[[CPU, tuple], int]:
    """Reader for the ``{b}`` value of an ALU or compare row."""
    if spec.fmt is OperandFormat.REGREG:
        return lambda cpu, ops: cpu.regs[ops[1]]
    if spec.fmt is OperandFormat.REG:
        return lambda cpu, ops: 0
    mask = spec.imm_mask
    return lambda cpu, ops: ops[1] & mask


def _alu(spec: OpcodeSpec) -> Callable:
    fold = spec.fold
    operand = _second_operand(spec)

    def handler(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
        ops = insn.operands
        result = fold(cpu.regs[ops[0]], operand(cpu, ops))
        cpu.regs[ops[0]] = result
        cpu.zf = result == 0
        cpu.lt = result > 0x7FFFFFFF

    return handler


def _compare(spec: OpcodeSpec) -> Callable:
    operand = _second_operand(spec)

    def handler(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
        ops = insn.operands
        cpu._set_flags_compare(cpu.regs[ops[0]], operand(cpu, ops))

    return handler


def _branch(spec: OpcodeSpec) -> Callable:
    predicate = spec.predicate

    def handler(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
        if predicate(cpu.zf, cpu.lt, cpu.ult):
            cpu.ip = insn.operands[0] & WORD_MASK

    return handler


def _undefined(cpu: CPU, insn: Instruction, machine: "Machine") -> None:
    # Decoded instructions always carry a valid opcode; this only fires
    # for hand-built Instruction objects with a bogus opcode byte.
    from repro.errors import InvalidInstructionFault

    raise InvalidInstructionFault(f"invalid opcode 0x{insn.opcode:02x}", cpu.ip)


#: Flat 256-entry dispatch table indexed by opcode byte -- one list
#: index instead of a dict hash on the interpreter's hottest line.
_DISPATCH: list[Callable] = [_undefined] * 256
for _spec in OPCODE_TABLE:
    if _spec.expr is not None:
        _DISPATCH[_spec.opcode] = _alu(_spec)
    elif _spec.flags_written == COMPARE_FLAGS:
        _DISPATCH[_spec.opcode] = _compare(_spec)
    elif _spec.cond is not None:
        _DISPATCH[_spec.opcode] = _branch(_spec)
    else:
        _DISPATCH[_spec.opcode] = _HANDLERS[_spec.opcode]
