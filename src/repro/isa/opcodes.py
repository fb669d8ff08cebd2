"""Opcode table and operand formats for the VN32 instruction set.

Like the x86 code shown in Figure 1 of the paper, VN32 instructions are
*variable length* (1 to 6 bytes).  This is a deliberate design choice:
variable-length encodings mean the same bytes decode differently at
different offsets, which is what gives Return-Oriented Programming its
supply of *unintended* gadgets (Section III-B).  The gadget-census
ablation in the benchmarks quantifies this.

Each mnemonic maps to one or more encodings, distinguished by operand
format (e.g. ``mov r0, r1`` and ``mov r0, 42`` use different opcodes,
exactly like x86 ModRM vs immediate forms).

:data:`OPCODE_TABLE` is also the one definition of opcode *semantics*:
each row states its register roles, FLAGS effects, memory class,
execute-time fault capability and control kind, plus the result
expression of an ALU op and the predicate of a conditional branch.
The interpreter (:mod:`repro.machine.cpu`), the decoded IR
(:mod:`repro.machine.ir`), the block translator
(:mod:`repro.machine.blocks`) and the trace JIT
(:mod:`repro.machine.trace`) all derive their per-opcode behaviour
from these rows; what stays hand-written in each tier is execution
policy, not semantics.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, Final, NamedTuple

from repro.errors import DivisionFault
from repro.isa.registers import NUM_REGISTERS, SP


class OperandFormat(enum.Enum):
    """How an instruction's operands are laid out after the opcode byte."""

    #: No operands.  Total length 1.
    NONE = "none"
    #: One register byte.  Total length 2.
    REG = "reg"
    #: One packed register byte: high nibble = first operand, low
    #: nibble = second operand.  Total length 2.
    REGREG = "regreg"
    #: Register byte followed by a 32-bit little-endian immediate.
    #: Total length 6.
    REGIMM32 = "regimm32"
    #: Register byte followed by an 8-bit immediate.  Total length 3.
    REGIMM8 = "regimm8"
    #: Packed register byte (value register, base register) followed by
    #: a 32-bit displacement.  Total length 6.
    REGMEM = "regmem"
    #: A 32-bit little-endian immediate.  Total length 5.
    IMM32 = "imm32"
    #: An 8-bit immediate.  Total length 2.
    IMM8 = "imm8"


#: Encoded length in bytes for each operand format (including opcode).
FORMAT_LENGTHS: Final[dict[OperandFormat, int]] = {
    OperandFormat.NONE: 1,
    OperandFormat.REG: 2,
    OperandFormat.REGREG: 2,
    OperandFormat.REGIMM32: 6,
    OperandFormat.REGIMM8: 3,
    OperandFormat.REGMEM: 6,
    OperandFormat.IMM32: 5,
    OperandFormat.IMM8: 2,
}

#: Longest encoded instruction, used by linear-sweep decoders.
MAX_INSTRUCTION_LENGTH: Final[int] = max(FORMAT_LENGTHS.values())


class ControlKind(enum.Enum):
    """How an instruction affects control flow."""

    #: Straight-line: execution falls through to the next instruction.
    FALL = "fall"
    #: Unconditional direct jump to the immediate target.
    JUMP = "jump"
    #: Indirect jump through a register.
    JUMP_REG = "jump_reg"
    #: Conditional branch: the target if taken, else fall through.
    BRANCH = "branch"
    #: Direct call (pushes the return address).
    CALL = "call"
    #: Indirect call through a register.
    CALL_REG = "call_reg"
    #: Return through the architectural stack.
    RET = "ret"
    #: Syscall: the handler may halt, exit, or rewrite the machine.
    SYS = "sys"
    #: Halt.
    HALT = "halt"


#: FLAGS defined by arithmetic/logic results: zero and sign of the result.
RESULT_FLAGS: Final[frozenset[str]] = frozenset({"zf", "lt"})
#: FLAGS defined by comparisons: equal, signed-below, unsigned-below.
COMPARE_FLAGS: Final[frozenset[str]] = frozenset({"zf", "lt", "ult"})


def c_div(a: int, b: int) -> int:
    """C-style signed 32-bit division (truncation toward zero)."""
    sa = ((a & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000
    sb = ((b & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000
    if sb == 0:
        raise DivisionFault("division by zero")
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & 0xFFFFFFFF


def c_mod(a: int, b: int) -> int:
    """C-style signed 32-bit remainder (sign follows the dividend)."""
    sa = ((a & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000
    sb = ((b & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000
    if sb == 0:
        raise DivisionFault("modulo by zero")
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return remainder & 0xFFFFFFFF


class OpcodeSpec(NamedTuple):
    """One encoding of one mnemonic, and its semantics."""

    opcode: int
    mnemonic: str
    fmt: OperandFormat
    #: Register role of each operand, in operand order: ``"r"`` read,
    #: ``"w"`` written, ``"rw"`` both, ``"m"`` a memory reference
    #: (its base register is read), ``""`` an immediate or target.
    roles: tuple[str, ...] = ()
    #: Registers implicitly read *and* written: SP for stack traffic,
    #: every register for ``sys`` (handlers may touch any of them).
    implicit: frozenset[int] = frozenset()
    #: ALU result as a Python expression over ``{a}`` (the destination's
    #: value) and ``{b}`` (the second operand's value), already reduced
    #: to 32 bits; ``_div``/``_mod`` name :func:`c_div`/:func:`c_mod`.
    expr: str | None = None
    #: Mask applied to an immediate ``{b}`` (shift counts use 5 bits).
    imm_mask: int = 0xFFFFFFFF
    #: Conditional-branch predicate over ``{zf}``, ``{lt}``, ``{ult}``.
    cond: str | None = None
    #: FLAGS defined (:data:`RESULT_FLAGS` or :data:`COMPARE_FLAGS`).
    flags_written: frozenset[str] = frozenset()
    #: Guest-data traffic through the machine's checked accessors:
    #: ``"read"`` (load class), ``"write"`` (store class -- may hit a
    #: watched code page), or ``""``.  Call/ret stack traffic goes
    #: through the return-address helpers instead.
    mem: str = ""
    #: Can this instruction fault at execute time on the baseline
    #: machine (memory access, div/mod by zero, CFI and shadow-stack
    #: checks, bounds checks, syscalls)?
    can_fault: bool = False
    control: ControlKind = ControlKind.FALL
    #: Derived from ``expr``: ``fold(a, b)`` computes the result.
    fold: Callable[[int, int], int] | None = None
    #: Derived from ``cond``: ``predicate(zf, lt, ult)`` -> taken?
    predicate: Callable[[bool, bool, bool], bool] | None = None
    #: Derived from ``cond``: the FLAGS the predicate tests.
    flags_read: frozenset[str] = frozenset()

    def operand_b(self, operands: tuple, register: Callable,
                  immediate: Callable = int):
        """The ``{b}`` operand of an ALU or compare row, in a tier's
        terms: ``register(reg)`` for a register operand, else
        ``immediate(value)`` of the masked immediate (0 for ``not``)."""
        if self.fmt is OperandFormat.REGREG:
            return register(operands[1])
        if self.fmt is OperandFormat.REG:
            return immediate(0)
        return immediate(operands[1] & self.imm_mask)


def _op(opcode: int, mnemonic: str, fmt: OperandFormat,
        roles: tuple[str, ...] = (), **semantics) -> OpcodeSpec:
    """One table row; compiles ``expr``/``cond`` into their callables."""
    expr = semantics.get("expr")
    if expr is not None:
        semantics["fold"] = eval(
            f"lambda a, b: {expr.format(a='a', b='b')}",
            {"_div": c_div, "_mod": c_mod},
        )
    cond = semantics.get("cond")
    if cond is not None:
        semantics["predicate"] = eval(
            f"lambda zf, lt, ult: {cond.format(zf='zf', lt='lt', ult='ult')}")
        semantics["flags_read"] = frozenset(re.findall(r"\{(\w+)\}", cond))
    return OpcodeSpec(opcode, mnemonic, fmt, roles, **semantics)


#: The full opcode table, and the one definition of opcode semantics.
#: Opcode bytes not listed here are invalid and raise
#: :class:`~repro.errors.DecodeError` /
#: :class:`~repro.errors.InvalidInstructionFault`.
OPCODE_TABLE: Final[tuple[OpcodeSpec, ...]] = (
    _op(0x00, "nop", OperandFormat.NONE),
    _op(0x01, "halt", OperandFormat.NONE, control=ControlKind.HALT),
    _op(0x02, "mov", OperandFormat.REGREG, ("w", "r")),
    _op(0x03, "mov", OperandFormat.REGIMM32, ("w", "")),
    _op(0x04, "load", OperandFormat.REGMEM, ("w", "m"),
        mem="read", can_fault=True),
    _op(0x05, "store", OperandFormat.REGMEM, ("r", "m"),
        mem="write", can_fault=True),
    _op(0x06, "loadb", OperandFormat.REGMEM, ("w", "m"),
        mem="read", can_fault=True),
    _op(0x07, "storeb", OperandFormat.REGMEM, ("r", "m"),
        mem="write", can_fault=True),
    _op(0x08, "push", OperandFormat.REG, ("r",), implicit=frozenset({SP}),
        mem="write", can_fault=True),
    _op(0x09, "pop", OperandFormat.REG, ("w",), implicit=frozenset({SP}),
        mem="read", can_fault=True),
    _op(0x0A, "add", OperandFormat.REGREG, ("rw", "r"),
        expr="({a} + {b}) & 4294967295", flags_written=RESULT_FLAGS),
    _op(0x0B, "add", OperandFormat.REGIMM32, ("rw", ""),
        expr="({a} + {b}) & 4294967295", flags_written=RESULT_FLAGS),
    _op(0x0C, "sub", OperandFormat.REGREG, ("rw", "r"),
        expr="({a} - {b}) & 4294967295", flags_written=RESULT_FLAGS),
    _op(0x0D, "sub", OperandFormat.REGIMM32, ("rw", ""),
        expr="({a} - {b}) & 4294967295", flags_written=RESULT_FLAGS),
    _op(0x0E, "mul", OperandFormat.REGREG, ("rw", "r"),
        expr="({a} * {b}) & 4294967295", flags_written=RESULT_FLAGS),
    _op(0x0F, "div", OperandFormat.REGREG, ("rw", "r"),
        expr="_div({a}, {b})", flags_written=RESULT_FLAGS, can_fault=True),
    _op(0x10, "mod", OperandFormat.REGREG, ("rw", "r"),
        expr="_mod({a}, {b})", flags_written=RESULT_FLAGS, can_fault=True),
    _op(0x11, "and", OperandFormat.REGREG, ("rw", "r"),
        expr="{a} & {b}", flags_written=RESULT_FLAGS),
    _op(0x12, "or", OperandFormat.REGREG, ("rw", "r"),
        expr="{a} | {b}", flags_written=RESULT_FLAGS),
    _op(0x13, "xor", OperandFormat.REGREG, ("rw", "r"),
        expr="{a} ^ {b}", flags_written=RESULT_FLAGS),
    _op(0x14, "not", OperandFormat.REG, ("rw",),
        expr="{a} ^ 4294967295", flags_written=RESULT_FLAGS),
    _op(0x15, "shl", OperandFormat.REGIMM8, ("rw", ""),
        expr="({a} << {b}) & 4294967295", imm_mask=31,
        flags_written=RESULT_FLAGS),
    _op(0x16, "shr", OperandFormat.REGIMM8, ("rw", ""),
        expr="{a} >> {b}", imm_mask=31, flags_written=RESULT_FLAGS),
    _op(0x17, "cmp", OperandFormat.REGREG, ("r", "r"),
        flags_written=COMPARE_FLAGS),
    _op(0x18, "cmp", OperandFormat.REGIMM32, ("r", ""),
        flags_written=COMPARE_FLAGS),
    _op(0x19, "jmp", OperandFormat.IMM32, ("",), control=ControlKind.JUMP),
    _op(0x1A, "jmp", OperandFormat.REG, ("r",),
        control=ControlKind.JUMP_REG, can_fault=True),
    _op(0x1B, "jz", OperandFormat.IMM32, ("",),
        cond="{zf}", control=ControlKind.BRANCH),
    _op(0x1C, "jnz", OperandFormat.IMM32, ("",),
        cond="not {zf}", control=ControlKind.BRANCH),
    _op(0x1D, "jl", OperandFormat.IMM32, ("",),
        cond="{lt}", control=ControlKind.BRANCH),
    _op(0x1E, "jg", OperandFormat.IMM32, ("",),
        cond="not {lt} and not {zf}", control=ControlKind.BRANCH),
    _op(0x1F, "jle", OperandFormat.IMM32, ("",),
        cond="{lt} or {zf}", control=ControlKind.BRANCH),
    _op(0x20, "jge", OperandFormat.IMM32, ("",),
        cond="not {lt}", control=ControlKind.BRANCH),
    _op(0x21, "jb", OperandFormat.IMM32, ("",),
        cond="{ult}", control=ControlKind.BRANCH),
    _op(0x22, "jae", OperandFormat.IMM32, ("",),
        cond="not {ult}", control=ControlKind.BRANCH),
    _op(0x23, "call", OperandFormat.IMM32, ("",), implicit=frozenset({SP}),
        control=ControlKind.CALL, can_fault=True),
    _op(0x24, "call", OperandFormat.REG, ("r",), implicit=frozenset({SP}),
        control=ControlKind.CALL_REG, can_fault=True),
    _op(0x25, "ret", OperandFormat.NONE, implicit=frozenset({SP}),
        control=ControlKind.RET, can_fault=True),
    _op(0x26, "sys", OperandFormat.IMM8, ("",),
        implicit=frozenset(range(NUM_REGISTERS)),
        control=ControlKind.SYS, can_fault=True),
    _op(0x27, "lea", OperandFormat.REGMEM, ("w", "m")),
    _op(0x28, "chk", OperandFormat.REGIMM32, ("r", ""), can_fault=True),
    _op(0x29, "land", OperandFormat.IMM8, ("",)),
)

#: The landing-pad opcode used by typed CFI (executes as a no-op).
LAND_OPCODE: Final[int] = 0x29

#: Opcode byte -> spec.
BY_OPCODE: Final[dict[int, OpcodeSpec]] = {spec.opcode: spec for spec in OPCODE_TABLE}

#: Flat 256-entry opcode byte -> spec (or None for invalid bytes).
#: The decoder and the interpreter fast path index this directly,
#: avoiding a dict hash per decoded byte.
OPCODE_SPECS: Final[tuple[OpcodeSpec | None, ...]] = tuple(
    BY_OPCODE.get(opcode) for opcode in range(256)
)

#: Flat 256-entry opcode byte -> encoded length (0 for invalid bytes).
OPCODE_LENGTHS: Final[tuple[int, ...]] = tuple(
    FORMAT_LENGTHS[spec.fmt] if spec is not None else 0 for spec in OPCODE_SPECS
)

#: Mnemonic -> list of encodings (in table order).
BY_MNEMONIC: Final[dict[str, list[OpcodeSpec]]] = {}
for _spec in OPCODE_TABLE:
    BY_MNEMONIC.setdefault(_spec.mnemonic, []).append(_spec)

#: The single-byte ``ret`` opcode, of special interest to the ROP
#: gadget finder (it plays the role of x86's ``0xC3``).
RET_OPCODE: Final[int] = 0x25

#: Conditional branch mnemonics.
CONDITIONAL_BRANCHES: Final[frozenset[str]] = frozenset(
    spec.mnemonic for spec in OPCODE_TABLE if spec.cond is not None
)

#: Opcode bytes that end a basic block for the block translator:
#: every control transfer, plus ``halt`` (stops the run loop) and
#: ``sys`` (syscall handlers may halt/exit the machine, attach
#: observers, or rewrite memory -- the translator re-dispatches after
#: each one rather than speculating through it).
BLOCK_END_OPCODES: Final[frozenset[int]] = frozenset(
    spec.opcode for spec in OPCODE_TABLE if spec.control is not ControlKind.FALL
)
