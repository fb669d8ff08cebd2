"""Basic-block translation: fuse decoded instructions into closures.

PR 1's decode cache removed the per-instruction *decode* cost but kept
the per-instruction *dispatch* cost: every retired instruction still
pays ``Machine.step`` -> cache probe -> ``cpu.execute`` -> handler.
This module removes that too.  On a block-cache miss the machine calls
:func:`compile_block`, which decodes forward from the miss address to
the next control transfer (or page boundary / PMA entry point /
:data:`MAX_BLOCK_INSNS`) and compiles the whole run into one Python
function: registers aliased to a local, flags threaded through locals,
immediates and effective-address arithmetic baked in as literals, the
instruction counter bumped once per block, and ``cpu.ip`` committed
once at the block end.

Opcode semantics come from :data:`~repro.isa.opcodes.OPCODE_TABLE`,
their one definition: every ALU instruction is emitted from its row's
result template and every conditional branch from its row's
predicate template, and the memory/store classes that decide the
inline fast paths and epoch checks are row facts too.  What this
module writes by hand is translation policy.

Fidelity rules (the attacker model makes these load-bearing -- an
exploit's machine state is part of the semantics):

* **Fetch checks per block, not per instruction.**  A block is only
  built on a PERM_X page and dies on any ``set_perms``/``map_region``
  (the machine's permission-change listener flushes the block cache),
  so a cached block implies every per-instruction fetch-permission
  check would pass -- the same invariant the decode cache relies on.
* **Exact fault states.**  Every site that can fault records the
  retired-instruction count (``n``) and the interpreter's fault-time
  IP (``eip``: the instruction's own address for pre-execute PMA
  faults, the *next* address for execute-phase faults, matching
  ``step()`` setting ``cpu.ip = next_ip`` before ``cpu.execute``).
  The shared ``except`` handler writes flags/IP/count back before
  re-raising, so a fault mid-block leaves the machine byte-identical
  to the interpreter faulting on the same instruction.
* **Memory accesses stay policy-checked.**  On machines with no PMA
  modules and no red zones, loads/stores inline the single-page
  permission fast path (mirroring ``Machine._check``) and fall back to
  the machine's checked accessor for anything unusual -- page
  straddles, permission denials (which kernel mode may still allow),
  unmapped pages, writes to watched code pages, and writes to
  snapshot-frozen pages (whose copy-on-write break must run before
  bytes move) -- so every fault message, kernel-mode bypass,
  copy-on-write break, and invalidation notification is the
  interpreter's own.  With PMA or red zones active the generated code
  always calls the checked accessors.
* **Self-modifying code.**  A store onto a watched code page
  invalidates that page's blocks mid-flight -- including, possibly,
  the block doing the writing.  Such writes take the slow path (the
  watched-page test is part of the inline fast path), and after each
  one the block compares the machine's block epoch: if any block died,
  the function writes back exact architectural state and returns, and
  the dispatch loop re-translates from the bytes just written
  (tests/test_differential_blocks.py holds this to the interpreter's
  behaviour byte for byte).
* **PMA.**  When protected modules exist at translation time the block
  embeds the interpreter's per-instruction ``check_fetch`` (module
  tracking, entry-point rule, no-execute-data rule); module-table
  changes flush the block cache, so the embedded checks can never be
  stale.  Blocks additionally never extend *across* a module entry
  point, keeping block heads aligned with legitimate entry addresses.

* **Block chaining.**  A block whose exit target is statically known
  (direct jump, either edge of a conditional branch, a direct call, or
  a fall-through end) returns its successor's :class:`CompiledBlock`
  through a *chain cell* -- a one-element list, shared with the
  machine's chain registry -- so the dispatch loop carries execution
  straight into the next block without re-probing the block cache.
  Cells are filled when the target block is compiled and nulled when
  it is invalidated (page write, perm/PMA flush, trace installation),
  so a chained hop can never reach a stale block: a nulled cell simply
  drops control back to the dispatcher, which re-translates.  Python
  has no tail calls, so chaining is trampoline-style (return the
  successor, let the dispatcher call it) rather than a direct call --
  a direct call would grow the host stack without bound on loops.

* **Observers.**  A machine whose hub is *dispatch-transparent* (see
  ``Observer.dispatch_transparent``: per-event subscribers only -- the
  invariant monitors) keeps executing blocks: the hub's subscriber
  tuples are baked into the generated code, transfer events are
  emitted at the terminators after the instruction-count bump (the
  interpreter's exact ordering), memory events on the inline
  single-page fast paths are emitted by generated code (exact IP
  committed first; slow-path accesses go through the observed
  accessors, which emit themselves), and the fault handler emits
  ``on_fault`` after writing back exact state.  Attach/detach flushes
  translations whenever the baked-in hub would change, so compiled
  emission can never go stale.  PMA-active machines refuse to compile
  blocks under a hub (the per-instruction path emits their
  enter/exit events).  Any *non*-transparent hub makes ``Machine.run``
  fall back to the per-instruction path, as before, so the event
  stream keeps its per-instruction exactness (``on_instruction``
  and the decode-cache hooks are inherently per-tier).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.errors import MachineFault
from repro.isa.instructions import WORD_MASK
from repro.isa.opcodes import BLOCK_END_OPCODES, c_div, c_mod
from repro.machine.ir import IRInst, lift_block
from repro.machine.memory import PAGE_SIZE, PERM_X, _PAGE_SHIFT, _U32

_PAGE_MASK = PAGE_SIZE - 1

#: Default for :attr:`MachineConfig.max_block_insns`: the longest run
#: of instructions fused into one block.  Long enough to swallow any
#: realistic straight-line run on a 4 KiB page, small enough to keep
#: translation latency negligible.
MAX_BLOCK_INSNS = 64

class CompiledBlock(NamedTuple):
    """One translated basic block, keyed by its head address."""

    #: The generated function; called as ``fn(machine, machine.cpu)``
    #: and returning the chained successor block (or None to drop back
    #: to the dispatcher's cache probe).
    fn: Callable
    #: Masked address of the first instruction (the cache key).
    head: int
    #: Page the whole block lives on (the invalidation-index key).
    page: int
    #: Instructions retired by one complete execution of the block.
    count: int
    #: The generated Python source, kept for debugging and tests.
    source: str
    #: Static-exit chain cells as ``(target_head, cell)`` pairs; each
    #: cell is a one-element list the generated code returns from, and
    #: the machine fills/nulls as the target is compiled/invalidated.
    exits: tuple = ()


def compile_block(machine, head: int) -> CompiledBlock | None:
    """Translate the basic block starting at ``head``, or None.

    Returns None when the head is not on an executable page or its
    first instruction cannot be decoded -- the caller falls back to the
    interpreter, which reproduces the exact fault.
    """
    memory = machine.memory
    masked = head & WORD_MASK
    page = masked >> _PAGE_SHIFT
    if not memory.page_perms(page) & PERM_X:
        return None
    pma_active = bool(machine.pma.modules)
    hub = machine._blocks_hub
    if hub is not None and pma_active:
        # The per-instruction path owns PMA enter/exit event emission;
        # blocks with both module tracking and a hub baked in are not
        # worth their complexity.  Dispatch falls back to step().
        return None
    entry_points: frozenset[int] = frozenset()
    if pma_active:
        entry_points = frozenset().union(
            *(module.entry_points for module in machine.pma.modules)
        )
    insns = lift_block(memory, masked, machine.config.max_block_insns,
                       entry_points)
    if not insns:
        return None
    inline_mem = not pma_active and not machine.config.redzones
    source, exit_targets = _emit(insns, masked, pma_active, inline_mem, hub)
    cells = [[None] for _ in exit_targets]
    namespace = {
        "_MF": MachineFault,
        "_div": c_div,
        "_mod": c_mod,
        "_u32": _U32,
    }
    if hub is not None:
        namespace.update(_hj=hub.jump, _hb=hub.branch, _hc=hub.call,
                         _hr=hub.ret, _hf=hub.fault,
                         _hmr=hub.read, _hmw=hub.write)
    for index, cell in enumerate(cells):
        namespace[f"_x{index}"] = cell
    exec(compile(source, f"<block 0x{masked:08x}>", "exec"), namespace)
    exits = tuple(zip(exit_targets, cells))
    return CompiledBlock(namespace["_block"], masked, page, len(insns),
                         source, exits)


def _emit(insns: list[IRInst], head: int, pma_active: bool,
          inline_mem: bool, hub=None) -> tuple[str, list[int]]:
    """Generate the block function source and its static-exit targets.

    With a (dispatch-transparent) ``hub``, transfer and fault event
    emission is compiled in, matching ``Machine._step_observed``'s
    ordering exactly: events fire after the instruction-count bump,
    and ``on_fault`` fires after exact-state writeback.  Emission
    loops are only generated for hooks that have subscribers -- safe
    because any hub change flushes the block cache.
    """
    last_index = len(insns) - 1
    ev_jump = hub is not None and bool(hub.jump)
    ev_branch = hub is not None and bool(hub.branch)
    ev_call = hub is not None and bool(hub.call)
    ev_ret = hub is not None and bool(hub.ret)
    ev_fault = hub is not None and bool(hub.fault)
    # Memory events on the inline fast path are emitted by generated
    # code (with the exact IP committed first); slow-path accesses go
    # through the observed instance accessors, which emit themselves.
    ev_read = hub is not None and bool(hub.read)
    ev_write = hub is not None and bool(hub.write)
    #: Emission appended after the shared count-bump tail (reg-target
    #: terminators commit ``cpu.ip`` inside the try and fall through).
    tail_events: list[str] = []
    uses_epoch = any(
        irx.spec.mem == "write" and k != last_index
        for k, irx in enumerate(insns)
    )
    uses_mem = inline_mem and any(irx.spec.mem for irx in insns)
    exit_targets: list[int] = []

    def chain_cell(target: int) -> str:
        exit_targets.append(target)
        return f"_x{len(exit_targets) - 1}[0]"
    lines = [
        "def _block(m, cpu):",
        "    regs = cpu.regs",
        "    zf = cpu.zf; lt = cpu.lt; ult = cpu.ult",
        f"    n = 0; eip = {head}",
    ]
    if uses_epoch:
        lines.append("    _e = m._block_epoch")
    if uses_mem:
        # Stable aliases: these containers are mutated, never replaced.
        lines.append("    _mem = m.memory._pages; _pg = m.memory._perms")
        lines.append("    _wp = m.memory._watched_pages")
        # Snapshot-frozen pages must not be written in place: the
        # slow path below performs the copy-on-write break.
        lines.append("    _cw = m.memory._cow_pages")
    if pma_active:
        lines.append("    _cf = m.pma.check_fetch")
    lines.append("    try:")
    emit = lines.append
    for k, irx in enumerate(insns):
        ip = irx.addr
        nxt = irx.next_addr
        op = irx.opcode
        spec = irx.spec
        ops = irx.operands
        last = k == last_index

        if pma_active:
            # Pre-execute module check: a PMA fault here leaves the
            # interpreter's cpu.ip at the *instruction's* address.
            emit(f"        m.current_ip = {ip}; n = {k}; eip = {ip}")
            emit(f"        m.current_module = _cf(m.current_module, {ip})")

        #: Execute-phase fault markers: the interpreter has already
        #: advanced cpu.ip to next_ip when a handler faults.
        markers = f"m.current_ip = {ip}; n = {k}; eip = {nxt}"

        def flags() -> None:
            emit("        zf = _t == 0; lt = _t > 2147483647")

        def writeback() -> None:
            emit("        cpu.zf = zf; cpu.lt = lt; cpu.ult = ult")
            emit(f"        m.current_ip = {ip}")

        def slow_write(call: str, pad: str = "        ") -> None:
            # The checked-accessor path for a store: exact faults,
            # kernel-mode bypass, watched-page invalidation -- and,
            # since the write may have killed this very block, an
            # epoch check that bails out with exact state and lets
            # the dispatcher re-translate the just-written bytes.
            emit(pad + markers)
            emit(pad + call)
            if uses_epoch and not last:
                emit(pad + "if m._block_epoch != _e:")
                emit(pad + "    cpu.zf = zf; cpu.lt = lt; cpu.ult = ult")
                emit(pad + f"    cpu.ip = {nxt}")
                emit(pad + f"    m.instructions_executed += {k + 1}")
                emit(pad + "    return")

        if op in (0x00, 0x29):  # nop / land
            if not pma_active:
                emit("        pass")
        elif op == 0x02:  # mov rr
            emit(f"        regs[{ops[0]}] = regs[{ops[1]}]")
        elif op == 0x03:  # mov ri
            emit(f"        regs[{ops[0]}] = {ops[1] & WORD_MASK}")
        elif op == 0x04:  # load
            reg, mem = ops
            emit(f"        _a = (regs[{mem.base}] + {mem.disp}) & 4294967295")
            if inline_mem:
                emit("        _o = _a & 4095")
                emit("        if _o <= 4092 and _pg.get(_a >> 12, 0) & 1:")
                emit(f"            regs[{reg}] = "
                     "_u32.unpack_from(_mem[_a >> 12], _o)[0]")
                if ev_read:
                    emit(f"            m.current_ip = {ip}")
                    emit(f"            for _ob in _hmr: "
                         f"_ob.on_read(m, _a, 4, regs[{reg}])")
                emit("        else:")
                emit(f"            {markers}")
                emit(f"            regs[{reg}] = m.read_word(_a)")
            else:
                emit(f"        {markers}")
                emit(f"        regs[{reg}] = m.read_word(_a)")
        elif op == 0x05:  # store
            reg, mem = ops
            emit(f"        _a = (regs[{mem.base}] + {mem.disp}) & 4294967295")
            if inline_mem:
                emit("        _o = _a & 4095; _pn = _a >> 12")
                emit("        if _o <= 4092 and _pg.get(_pn, 0) & 2 "
                     "and _pn not in _wp and _pn not in _cw:")
                emit(f"            _u32.pack_into(_mem[_pn], _o, regs[{reg}])")
                if ev_write:
                    emit(f"            m.current_ip = {ip}")
                    emit(f"            for _ob in _hmw: "
                         f"_ob.on_write(m, _a, 4, regs[{reg}])")
                emit("        else:")
                slow_write(f"m.write_word(_a, regs[{reg}])", "            ")
            else:
                slow_write(f"m.write_word(_a, regs[{reg}])")
        elif op == 0x06:  # loadb
            reg, mem = ops
            emit(f"        _a = (regs[{mem.base}] + {mem.disp}) & 4294967295")
            if inline_mem:
                emit("        if _pg.get(_a >> 12, 0) & 1:")
                emit(f"            regs[{reg}] = _mem[_a >> 12][_a & 4095]")
                if ev_read:
                    emit(f"            m.current_ip = {ip}")
                    emit(f"            for _ob in _hmr: "
                         f"_ob.on_read(m, _a, 1, regs[{reg}])")
                emit("        else:")
                emit(f"            {markers}")
                emit(f"            regs[{reg}] = m.read_byte(_a)")
            else:
                emit(f"        {markers}")
                emit(f"        regs[{reg}] = m.read_byte(_a)")
        elif op == 0x07:  # storeb
            reg, mem = ops
            emit(f"        _a = (regs[{mem.base}] + {mem.disp}) & 4294967295")
            if inline_mem:
                emit("        _pn = _a >> 12")
                emit("        if _pg.get(_pn, 0) & 2 and _pn not in _wp "
                     "and _pn not in _cw:")
                emit(f"            _mem[_pn][_a & 4095] = regs[{reg}] & 255")
                if ev_write:
                    emit(f"            m.current_ip = {ip}")
                    emit(f"            for _ob in _hmw: "
                         f"_ob.on_write(m, _a, 1, regs[{reg}] & 255)")
                emit("        else:")
                slow_write(f"m.write_byte(_a, regs[{reg}] & 255)",
                           "            ")
            else:
                slow_write(f"m.write_byte(_a, regs[{reg}] & 255)")
        elif op == 0x08:  # push: value read before SP moves (like the
            # interpreter); SP stays decremented if the write faults.
            emit(f"        _v = regs[{ops[0]}]")
            emit("        _sp = (regs[8] - 4) & 4294967295")
            emit("        regs[8] = _sp")
            if inline_mem:
                emit("        _o = _sp & 4095; _pn = _sp >> 12")
                emit("        if _o <= 4092 and _pg.get(_pn, 0) & 2 "
                     "and _pn not in _wp and _pn not in _cw:")
                emit("            _u32.pack_into(_mem[_pn], _o, _v)")
                if ev_write:
                    emit(f"            m.current_ip = {ip}")
                    emit("            for _ob in _hmw: "
                         "_ob.on_write(m, _sp, 4, _v)")
                emit("        else:")
                slow_write("m.write_word(_sp, _v)", "            ")
            else:
                slow_write("m.write_word(_sp, _v)")
        elif op == 0x09:  # pop: SP unchanged if the read faults
            emit("        _sp = regs[8]")
            if inline_mem:
                emit("        _o = _sp & 4095")
                emit("        if _o <= 4092 and _pg.get(_sp >> 12, 0) & 1:")
                emit("            _v = _u32.unpack_from(_mem[_sp >> 12], "
                     "_o)[0]")
                if ev_read:
                    emit(f"            m.current_ip = {ip}")
                    emit("            for _ob in _hmr: "
                         "_ob.on_read(m, _sp, 4, _v)")
                emit("        else:")
                emit(f"            {markers}")
                emit("            _v = m.read_word(_sp)")
            else:
                emit(f"        {markers}")
                emit("        _v = m.read_word(_sp)")
            emit("        regs[8] = (_sp + 4) & 4294967295")
            emit(f"        regs[{ops[0]}] = _v")
        elif spec.expr is not None:  # ALU: the table's result template
            b = spec.operand_b(ops, "regs[{}]".format)
            if spec.can_fault:  # div/mod: DivisionFault possible
                emit(f"        {markers}")
            emit(f"        _t = {spec.expr.format(a=f'regs[{ops[0]}]', b=b)}")
            emit(f"        regs[{ops[0]}] = _t")
            flags()
        elif op == 0x17:  # cmp rr (signed compare via sign-bit flip)
            emit(f"        _a = regs[{ops[0]}]; _b = regs[{ops[1]}]")
            emit("        zf = _a == _b; "
                 "lt = (_a ^ 2147483648) < (_b ^ 2147483648); ult = _a < _b")
        elif op == 0x18:  # cmp ri
            imm = ops[1] & WORD_MASK
            emit(f"        _a = regs[{ops[0]}]")
            emit(f"        zf = _a == {imm}; "
                 f"lt = (_a ^ 2147483648) < {imm ^ 0x80000000}; ult = _a < {imm}")
        elif op == 0x27:  # lea
            reg, mem = ops
            emit(f"        regs[{reg}] = (regs[{mem.base}] + {mem.disp})"
                 " & 4294967295")
        elif op == 0x28:  # chk
            emit(f"        {markers}")
            emit(f"        m.bounds_check(regs[{ops[0]}], {ops[1] & WORD_MASK})")
        elif op == 0x19:  # jmp imm (terminator, chained)
            writeback()
            target = ops[0] & WORD_MASK
            emit(f"        cpu.ip = {target}")
            emit(f"        m.instructions_executed += {len(insns)}")
            if ev_jump:
                emit(f"        for _o in _hj: _o.on_jump(m, {ip}, "
                     f"{target}, False)")
            emit(f"        return {chain_cell(target)}")
        elif spec.cond is not None:  # jcc (terminator, both edges chained)
            writeback()
            target = ops[0] & WORD_MASK
            emit(f"        if {spec.cond.format(zf='zf', lt='lt', ult='ult')}:")
            emit(f"            cpu.ip = {target}")
            emit(f"            m.instructions_executed += {len(insns)}")
            if ev_branch:
                # The interpreter derives "taken" from new_ip !=
                # next_ip, so a branch whose target *is* the next
                # instruction never reads as taken.
                emit(f"            for _o in _hb: _o.on_branch(m, {ip}, "
                     f"{target}, {target != nxt})")
            emit(f"            return {chain_cell(target)}")
            emit(f"        cpu.ip = {nxt}")
            emit(f"        m.instructions_executed += {len(insns)}")
            if ev_branch:
                emit(f"        for _o in _hb: _o.on_branch(m, {ip}, "
                     f"{target}, False)")
            emit(f"        return {chain_cell(nxt)}")
        elif op == 0x1A:  # jmp reg (terminator, CFI check may fault)
            writeback()
            emit(f"        n = {k}; eip = {nxt}")
            emit(f"        _t = regs[{ops[0]}]")
            emit("        m.check_indirect_target(_t)")
            emit("        cpu.ip = _t")
            if ev_jump:
                tail_events.append(
                    f"    for _o in _hj: _o.on_jump(m, {ip}, cpu.ip, True)")
        elif op == 0x23:  # call imm (terminator, stack push may fault;
            # chained -- any fault raises before the successor return)
            writeback()
            target = ops[0] & WORD_MASK
            emit(f"        n = {k}; eip = {nxt}")
            emit(f"        m.push_return_address({nxt})")
            emit(f"        cpu.ip = {target}")
            emit(f"        m.instructions_executed += {len(insns)}")
            if ev_call:
                emit(f"        for _o in _hc: _o.on_call(m, {ip}, "
                     f"{target}, {nxt}, False)")
            emit(f"        return {chain_cell(target)}")
        elif op == 0x24:  # call reg (terminator)
            writeback()
            emit(f"        n = {k}; eip = {nxt}")
            emit(f"        _t = regs[{ops[0]}]")
            emit("        m.check_indirect_target(_t)")
            emit(f"        m.push_return_address({nxt})")
            emit("        cpu.ip = _t")
            if ev_call:
                tail_events.append(
                    f"    for _o in _hc: _o.on_call(m, {ip}, cpu.ip, "
                    f"{nxt}, True)")
        elif op == 0x25:  # ret (terminator, pop/shadow check may fault)
            writeback()
            emit(f"        n = {k}; eip = {nxt}")
            emit("        cpu.ip = m.pop_return_address()")
            if ev_ret:
                tail_events.append(
                    f"    for _o in _hr: _o.on_ret(m, {ip}, cpu.ip)")
        elif op == 0x01:  # halt (terminator)
            writeback()
            emit(f"        cpu.ip = {nxt}")
            emit("        m.halt()")
        elif op == 0x26:  # sys (terminator; the handler must see the
            # same committed state the interpreter gives it)
            writeback()
            emit(f"        n = {k}; eip = {nxt}")
            emit(f"        cpu.ip = {nxt}")
            emit(f"        m.do_syscall({ops[0]})")
        else:  # pragma: no cover - decode() only yields table opcodes
            raise AssertionError(f"untranslatable opcode 0x{op:02x}")

    last_insn = insns[last_index]
    if last_insn.opcode not in BLOCK_END_OPCODES:
        # Fall-through end (page boundary / entry point / size limit):
        # the successor head is static, so this edge chains too.
        emit("        cpu.zf = zf; cpu.lt = lt; cpu.ult = ult")
        emit(f"        m.current_ip = {last_insn.addr}")
        emit(f"        cpu.ip = {last_insn.next_addr}")
        emit(f"        m.instructions_executed += {len(insns)}")
        emit(f"        return {chain_cell(last_insn.next_addr)}")
    if ev_fault:
        # State is written back *before* on_fault, so the observers
        # see the interpreter's exact fault-time machine (current_ip
        # was set by the faulting site's markers).
        lines += [
            "    except _MF as _exc:",
            "        cpu.zf = zf; cpu.lt = lt; cpu.ult = ult",
            "        cpu.ip = eip",
            "        m.instructions_executed += n",
            "        for _o in _hf: _o.on_fault(m, _exc, m.current_ip)",
            "        raise",
        ]
    else:
        lines += [
            "    except _MF:",
            "        cpu.zf = zf; cpu.lt = lt; cpu.ult = ult",
            "        cpu.ip = eip",
            "        m.instructions_executed += n",
            "        raise",
        ]
    lines.append(f"    m.instructions_executed += {len(insns)}")
    lines.extend(tail_events)
    return "\n".join(lines) + "\n", exit_targets
