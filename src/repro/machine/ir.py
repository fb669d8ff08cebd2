"""Decoded intermediate representation for VN32 instructions.

The execution tiers share one explicit instruction-record layer
between ``repro.isa`` decode and code generation: an :class:`IRInst`
pins down, per instruction, everything a compiler pass needs without
re-deriving it from opcode bytes --

* which architectural registers it reads and writes (``push``/``pop``/
  ``call``/``ret`` include SP, since the interpreter's handlers move it
  through ``machine.push_word``/``pop_word``);
* which FLAGS it defines and uses (``add``-family results define
  zf/lt only; ``cmp`` defines zf/lt/ult; conditional branches read the
  subset their predicate tests) -- the def/use sets that let the trace
  compiler elide flag materialisation when a later instruction
  overwrites FLAGS before any use;
* whether it can fault at execute time (memory access, div/mod, CFI
  checks, shadow-stack checks, bounds checks, syscalls);
* its control-flow kind and static target/fall-through addresses.

Every per-opcode fact here is derived from the instruction's row of
:data:`~repro.isa.opcodes.OPCODE_TABLE`, the one definition of VN32
opcode semantics; :attr:`IRInst.spec` carries that row to the code
generators.

Consumers today are the superblock compiler
(:mod:`repro.machine.blocks`) and the trace JIT
(:mod:`repro.machine.trace`); the layer is deliberately free of any
machine/codegen imports so the SFI rewriter and static analyses can
lift the same records without touching the execution engine.

Note the fault-capability flag describes the *baseline* machine: with
protected modules (PMA) registered, every instruction can additionally
fault at fetch time, and with red zones every data access gains a
poison check.  Those are machine-wide modes the consumers account for
themselves (blocks embed the PMA fetch check; the trace JIT refuses to
trace under either).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import DecodeError, MemoryFault
from repro.isa.encoding import decode
from repro.isa.instructions import Instruction, WORD_MASK
from repro.isa.opcodes import (
    BLOCK_END_OPCODES,
    OPCODE_LENGTHS,
    OPCODE_SPECS,
    ControlKind,
    OpcodeSpec,
)


class IRInst(NamedTuple):
    """One decoded, effect-annotated VN32 instruction."""

    #: Masked address of the first encoded byte.
    addr: int
    #: Encoded length in bytes.
    length: int
    #: The decoded instruction (operands live here).
    insn: Instruction
    #: The opcode's table row: its semantics and code templates.
    spec: OpcodeSpec
    #: Architectural registers read at execute time.
    reads: frozenset[int]
    #: Architectural registers written at execute time.
    writes: frozenset[int]
    #: Static transfer target (JUMP/BRANCH/CALL), else None.
    target: int | None
    #: Address of the next sequential instruction.
    next_addr: int

    @property
    def opcode(self) -> int:
        return self.insn.opcode

    @property
    def operands(self) -> tuple:
        return self.insn.operands

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def flags_written(self) -> frozenset[str]:
        """FLAGS defined ({"zf","lt"} for results, +"ult" for compares)."""
        return self.spec.flags_written

    @property
    def flags_read(self) -> frozenset[str]:
        """FLAGS read (conditional-branch predicates)."""
        return self.spec.flags_read

    @property
    def can_fault(self) -> bool:
        """Can this instruction fault during execution (baseline machine)?"""
        return self.spec.can_fault

    @property
    def kind(self) -> ControlKind:
        """Control-flow classification."""
        return self.spec.control

    @property
    def ends_block(self) -> bool:
        """True when the superblock compiler must stop after this."""
        return self.opcode in BLOCK_END_OPCODES


def lift(insn: Instruction, addr: int) -> IRInst:
    """Lift one decoded instruction at ``addr`` into an :class:`IRInst`."""
    spec = OPCODE_SPECS[insn.opcode]
    masked = addr & WORD_MASK
    reads = set(spec.implicit)
    writes = set(spec.implicit)
    for role, operand in zip(spec.roles, insn.operands):
        if role == "m":
            reads.add(operand.base)
            continue
        if "r" in role:
            reads.add(operand)
        if "w" in role:
            writes.add(operand)
    target: int | None = None
    if spec.control in (ControlKind.JUMP, ControlKind.BRANCH, ControlKind.CALL):
        target = insn.operands[0] & WORD_MASK
    length = OPCODE_LENGTHS[insn.opcode]
    return IRInst(
        addr=masked,
        length=length,
        insn=insn,
        spec=spec,
        reads=frozenset(reads),
        writes=frozenset(writes),
        target=target,
        next_addr=(masked + length) & WORD_MASK,
    )


def lift_at(memory, addr: int) -> IRInst | None:
    """Lift the instruction whose first byte is at ``addr``.

    Reads raw bytes (no permission checks -- callers validate fetch
    legality themselves, e.g. by actually stepping the machine).
    Returns None for unmapped addresses and undecodable bytes.
    """
    masked = addr & WORD_MASK
    try:
        opcode = memory.read_byte(masked)
        length = OPCODE_LENGTHS[opcode]
        if length == 0:
            return None
        insn, _ = decode(memory.read_bytes(masked, length))
    except (MemoryFault, DecodeError):
        return None
    return lift(insn, masked)


def lift_block(
    memory,
    head: int,
    max_insns: int,
    entry_points: frozenset[int] = frozenset(),
) -> list[IRInst]:
    """Lift the superblock starting at ``head``.

    Decodes forward until a control transfer (:data:`BLOCK_END_OPCODES`),
    a page boundary (no block spans pages -- one page watch covers the
    whole block), a PMA ``entry_points`` hit past the head (block heads
    must stay aligned with legitimate entry addresses), an instruction
    whose encoding straddles the page edge, undecodable bytes, or
    ``max_insns``.  May return an empty list (head undecodable): the
    interpreter owns that address.
    """
    from repro.machine.memory import PAGE_SIZE, _PAGE_SHIFT

    page_mask = PAGE_SIZE - 1
    masked = head & WORD_MASK
    page = masked >> _PAGE_SHIFT
    out: list[IRInst] = []
    addr = masked
    while len(out) < max_insns:
        if addr >> _PAGE_SHIFT != page:
            break  # next instruction starts on another page
        if out and addr in entry_points:
            break  # never extend across a PMA entry point
        opcode = memory.read_byte(addr)
        length = OPCODE_LENGTHS[opcode]
        if length == 0 or (addr & page_mask) + length > PAGE_SIZE:
            break  # invalid or page-straddling encoding: interpreter's job
        try:
            insn, _ = decode(memory.read_bytes(addr, length))
        except DecodeError:
            break
        irx = lift(insn, addr)
        out.append(irx)
        addr = irx.next_addr
        if irx.ends_block:
            break
    return out
