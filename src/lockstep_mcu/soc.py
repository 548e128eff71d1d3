"""System assembly: cores, lockstep wrapper, crossbar, memory, devices.

One ``Soc`` owns everything reachable in a run and is advanced by a
single deterministic per-cycle loop, split into two half-cycles:

* H1: the crossbar grants at most one request per bank (voted ports
  beat core ports beat the scrubber), executes the memory or device
  operation and latches the response on the winning port.
* H2: each active core consumes responses and advances its pipeline
  state machine, posting new requests that become visible in the next
  cycle's H1.

In lockstep mode with converged cores only core 0 is stepped against
the voted ports; the three cores are bit-identical by construction so
this is an exact shortcut, not an approximation.  A state injection
splits the group, at once or, with ``dormant_opt``, when an instruction
first reads the flipped location: until then the deviation is carried
beside core 0 as a dormant fault, and a write to the location erases
it.  Once split, all three cores step against private shadow ports
whose request bundles are majority-voted into the real ports each
cycle, until the resynchronization flow (or plain overwriting of the
flipped bit) makes the cores bit-identical again.

With ``fast_loop`` on, one fused loop, ``_event_burst``, stands in for
this engine where it can: for one active core (entered through
``_fast_burst``) and for several cores in performance mode.  It stops
at cycle boundaries and gives exactly the reference engine's results.
It decides nothing about a dormant fault: an instruction that touches
one is handed to the reference helpers, which alone split, replay or
erase it.
``snapshot()`` records a carried fault without splitting the group, and
``restore()`` reinstates exactly the snapshot's (none, for a fault-free
one).

Address map (the device register table below states each register;
all register accesses are word-sized):

    0x1A00_0000  boot ROM (8 KiB)
    0x1B10_0000  lockstep wrapper registers
    0x1B20_0000  memory control (write-disable masks, ECC counters,
                 scrubber)
    0x1B30_0000  UART (output capture)
    0x1B40_0000  sim control (exit register, result register)
    0x1C00_0000  SRAM (256 KiB, 8 word-interleaved banks)
"""

from __future__ import annotations

import hashlib
import struct
import weakref
from dataclasses import dataclass, field
from operator import attrgetter, getitem, setitem

from . import memory as mem
from .asm import Program, assemble, entry_address
from .core import (
    Core, M32, PH_F0, PH_F1, PH_EX, PH_LD, PH_DW,
    EXC_IACCESS_FAULT, EXC_LACCESS_FAULT, EXC_SACCESS_FAULT,
    MSTATUS_MIE, MIE_MEIE, MIE_MSIE, CSR_LOCS, LOC_BITS,
    decode16, decode32, load_lanes, EXTRA, F3, SEMANTICS, TEMPLATE_NS,
)
from .interconnect import (
    Crossbar, Port, R_DEV, R_NONE, R_ROM, R_SRAM,
    RS_FAULT, RS_OK, RS_UNCORRECTABLE, VOTED,
)
from .odrg import (
    ALL_DIFFER, CLEAR, MODE_LOCKSTEP, MODE_PERFORMANCE, ODRG_REGS, STORE,
    OdrgUnit, REG_MSIP0, REG_RESYNC_DONE, REG_RESYNC_STATE,
    REG_RESYNC_TRIGGER, REG_SAVED_SP, RESYNC_DONE, RESYNC_HEALTHY_GAP,
    RESYNC_IDLE, RESYNC_IN_PROGRESS, RESYNC_REQUESTED, RESYNC_STREAK_LIMIT,
    reg, vote,
)

SRAM_BASE = 0x1C000000
SRAM_SIZE = mem.TOTAL_BYTES
SRAM_END = SRAM_BASE + SRAM_SIZE
ROM_BASE = 0x1A000000
ROM_SIZE = 0x2000
ROM_END = ROM_BASE + ROM_SIZE
ODRG_BASE = 0x1B100000
MEMCTL_BASE = 0x1B200000
UART_BASE = 0x1B300000
SIMCTL_BASE = 0x1B400000
DEV_PAGE = 0xFFF00000

# The other three device pages of the register table (``odrg.reg``
# explains the rows).  The memory controller's per-bank registers are
# write-disable bits 31:0 and 38:32, then the ECC counters.
MEMCTL_REGS = {
    **{off: row for b in range(8) for off, row in (
        (8 * b, reg(f"write_disable{b}_lo", f"banks.banks.{b}.write_disable",
                    write=STORE, ecc=True)),
        (8 * b + 4, reg(f"write_disable{b}_hi",
                        f"banks.banks.{b}.write_disable", mask=0x7F,
                        shift=32, write=STORE, ecc=True)),
        (0x40 + 4 * b, reg(f"correctable{b}",
                           f"banks.banks.{b}.correctable_count",
                           write=CLEAR, ecc=True)),
        (0x60 + 4 * b, reg(f"uncorrectable{b}",
                           f"banks.banks.{b}.uncorrectable_count",
                           write=CLEAR, ecc=True)))},
    0x80: reg("scrub_enable", "scrub.enabled", mask=1,
              write=("_scrub_enable",)),
    0x84: reg("scrub_interval", "scrub.interval", write=("_scrub_interval",)),
    0x88: reg("scrub_position", "scrub.next_address"),
    0x8C: reg("scrub_corrections", "scrub.corrections", ecc=True),
    0x90: reg("scrub_uncorrectable", "scrub.uncorrectable_seen", ecc=True),
}
UART_REGS = {
    0x0: reg("tx", mask=0xFF, read=0, write=("_uart_tx",)),
    0x4: reg("tx_ready", read=1),
}
SIMCTL_REGS = {
    0x0: reg("exit", read=0, write=("_exit",)),
    0x4: reg("checksum", "checksum_reg", write=STORE),
}
DEVICE_PAGES = {ODRG_BASE: ODRG_REGS, MEMCTL_BASE: MEMCTL_REGS,
                UART_BASE: UART_REGS, SIMCTL_BASE: SIMCTL_REGS}
# address -> row, and register name -> address
_DEV_REGS = {page + off: row for page, regs in DEVICE_PAGES.items()
             for off, row in regs.items()}
_DEV_ADDR = {row[0]: addr for addr, row in _DEV_REGS.items()}
globals().update({f"REG_{row[0].upper()}": off
                  for regs in (MEMCTL_REGS, UART_REGS, SIMCTL_REGS)
                  for off, row in regs.items()})
# what the error output shows under each error select: the sum of these
# registers (none under selects 6 and 7)
_ERROR_SOURCES = (
    *([_DEV_ADDR[name]] for name in
      ("mismatch0", "mismatch1", "mismatch2", "resync_events")),
    *([_DEV_ADDR[f"{kind}{b}"] for b in range(8)]
      for kind in ("correctable", "uncorrectable")),
    [], [])

STACK_TOP = SRAM_END
STACK_BYTES = 2048

MIP_MEIP = MIE_MEIE
MIP_MSIP = MIE_MSIE

FATAL_EXIT_BASE = 0xDEAD0000  # unhandled trap: exit code 0xDEAD0000 | cause

# scheduler-side convergence probe period while the group is split
CONVERGENCE_CHECK_PERIOD = 64

_TRACE_REC = struct.Struct("<QBIIBI")
_busy_until = attrgetter("busy_until")
_STORE_LOG_MAX = 1 << 16    # stores a def/use log keeps, or it keeps none
_TRACE_FLUSH = 1 << 16      # bytes of records that make the engines flush
_FLUSH_EVERY = 512          # cycles between the fused burst's buffer checks


def _store_lanes(addr: int, f3: int, val: int) -> tuple[int, int]:
    """(byte strobes, lane-positioned data) of a sb/sh/sw to ``addr``."""
    if f3 == 2:
        return 0xF, val
    if f3 == 1:
        sh = addr & 2
        return 0x3 << sh, (val & 0xFFFF) << (sh * 8)
    b = addr & 3
    return 1 << b, (val & 0xFF) << (b * 8)


# ------------------------------------------------------------ boot ROM

def build_boot_rom(entry: int) -> Program:
    """Startup stub plus trap handler plus resync save/restore code.

    The cold path computes the stack pointer arithmetically from the
    hart id (no branches), so the lockstep logical core and a lone
    core 0 in performance mode execute the same instruction stream.
    """
    p = Program(entry="_reset")
    p.label("_reset")
    p.ins("csrr", "t0", "mhartid")
    p.ins("la", "t1", ODRG_BASE)
    p.ins("lw", "t2", REG_RESYNC_STATE, "t1")
    p.ins("li", "t3", RESYNC_IN_PROGRESS)
    p.ins("beq", "t2", "t3", "_restore")
    # cold boot: sp = STACK_TOP - hartid * STACK_BYTES
    p.ins("li", "sp", STACK_TOP)
    p.ins("slli", "t5", "t0", 11)
    p.ins("sub", "sp", "sp", "t5")
    p.ins("la", "t6", "_trap")
    p.ins("csrw", "mtvec", "t6")
    p.ins("li", "t4", MIE_MEIE | MIE_MSIE)
    p.ins("csrw", "mie", "t4")
    p.ins("li", "t4", MSTATUS_MIE)
    p.ins("csrw", "mstatus", "t4")
    p.ins("la", "t4", entry)
    p.ins("jr", "t4")

    # Trap entry: spill x1/x3, dispatch on mcause.  The resync path
    # then saves the remaining state; frame layout (136 bytes):
    # [0]=mepc [4]=x1 [8]=x2(original sp) [12]=x3 ... [124]=x31
    # [128]=mstatus [132]=mscratch
    p.label("_trap")
    p.ins("addi", "sp", "sp", -136)
    p.ins("sw", "x1", 4, "sp")
    p.ins("sw", "x3", 12, "sp")
    p.ins("csrr", "x1", "mcause")
    p.ins("li", "x3", 0x8000000B)
    p.ins("beq", "x1", "x3", "_resync_save")
    p.ins("li", "x3", 0x80000003)
    p.ins("beq", "x1", "x3", "_soft_irq")
    p.ins("li", "x3", FATAL_EXIT_BASE)
    p.ins("or", "x3", "x3", "x1")
    p.ins("li", "x1", SIMCTL_BASE)
    p.ins("sw", "x3", REG_EXIT, "x1")
    p.label("_halt")
    p.ins("j", "_halt")

    p.label("_soft_irq")
    p.ins("csrr", "x1", "mhartid")
    p.ins("slli", "x1", "x1", 2)
    p.ins("la", "x3", ODRG_BASE + REG_MSIP0)    # msip[hart]
    p.ins("add", "x3", "x3", "x1")
    p.ins("sw", "x0", 0, "x3")
    p.ins("lw", "x1", 4, "sp")
    p.ins("lw", "x3", 12, "sp")
    p.ins("sw", "x0", 4, "sp")
    p.ins("sw", "x0", 12, "sp")
    p.ins("addi", "sp", "sp", 136)
    p.ins("mret")

    p.label("_resync_save")
    for i in range(4, 32):
        p.ins("sw", f"x{i}", 4 * i, "sp")
    p.ins("addi", "x1", "sp", 136)
    p.ins("sw", "x1", 8, "sp")             # original sp
    p.ins("csrr", "x1", "mepc")
    p.ins("sw", "x1", 0, "sp")
    p.ins("csrr", "x1", "mstatus")
    p.ins("sw", "x1", 128, "sp")
    p.ins("csrr", "x1", "mscratch")
    p.ins("sw", "x1", 132, "sp")
    p.ins("la", "x3", ODRG_BASE)
    p.ins("sw", "sp", REG_SAVED_SP, "x3")
    p.ins("sw", "x0", REG_RESYNC_TRIGGER, "x3")  # reset pulse fires here
    p.label("_spin")
    p.ins("j", "_spin")

    # Post-reset reload: runs with t0=hartid, t1=ODRG base from the
    # stub head.  CSRs are staged through t4 before the bulk register
    # restore overwrites it; the frame is zeroed afterwards using only
    # x0/sp so the stack matches a run that never resynced.
    p.label("_restore")
    p.ins("lw", "sp", REG_SAVED_SP, "t1")
    p.ins("la", "t4", "_trap")
    p.ins("csrw", "mtvec", "t4")
    p.ins("li", "t4", MIE_MEIE | MIE_MSIE)
    p.ins("csrw", "mie", "t4")
    p.ins("lw", "t4", 0, "sp")
    p.ins("csrw", "mepc", "t4")
    p.ins("lw", "t4", 128, "sp")
    p.ins("csrw", "mstatus", "t4")
    p.ins("lw", "t4", 132, "sp")
    p.ins("csrw", "mscratch", "t4")
    p.ins("sw", "x0", REG_RESYNC_DONE, "t1")
    for i in range(3, 32):
        p.ins("lw", f"x{i}", 4 * i, "sp")
    p.ins("lw", "x1", 4, "sp")
    for off in range(0, 136, 4):
        p.ins("sw", "x0", off, "sp")
    p.ins("addi", "sp", "sp", 136)
    p.ins("mret")
    return p


def rom_words(entry: int) -> list[int]:
    image = assemble(build_boot_rom(entry), ROM_BASE)
    if len(image) > ROM_SIZE:
        raise ValueError("boot ROM overflow")
    image = image + b"\x00" * ((-len(image)) % 4)
    words = list(struct.unpack(f"<{len(image) // 4}I", image))
    words += [0] * (ROM_SIZE // 4 - len(words))
    return words


# --------------------------------------------------------------- config

@dataclass
class SocConfig:
    mode: str = "lockstep"          # lockstep | single | parallel
    max_cycles: int = 10_000_000
    scrub_enabled: bool = True
    scrub_interval: int = 64
    record_trace: bool = True       # accumulate the retirement hash
    trace_lines: bool = False       # keep formatted per-instruction lines
    fast_loop: bool = True          # fused single- and multi-core loops
    dormant_opt: bool = True        # defer lockstep splits for unread faults

    def __post_init__(self) -> None:
        if self.scrub_interval < 1:
            raise ValueError(f"scrub_interval must be >= 1, got {self.scrub_interval}")

    def odrg_mode(self) -> int:
        return MODE_LOCKSTEP if self.mode == "lockstep" else MODE_PERFORMANCE

    def release_mask(self) -> int:
        if self.mode == "parallel":
            return 0b111
        return 0b001  # lockstep logical core / performance single


@dataclass(frozen=True)
class DefUse:
    """What a fault-free run observed, for pruning campaign runs.

    ``reads`` holds, per SRAM word (linear word index), the last cycle a
    core or the scrubber read it in, or -1; ``writes`` maps each written
    word to the last cycle it was written in; instruction fetches are
    reads like any other.  ``loc_reads`` is the union of the read masks
    (``core.LOC_BITS``) of every instruction the decode cache has held
    since the program was loaded.
    ``last_irq_cycle`` is the last cycle that took a trap, changed an
    interrupt line or switched the lockstep mode (the final cycle if a
    line stays raised).

    ``stores`` logs every SRAM write in order as (cycle, word index,
    codeword before, codeword after, strobes, last read), where the last
    read is the word's ``reads`` entry just before the write; it is None
    if the run made more than ``_STORE_LOG_MAX`` stores.  ``ecc_regs``
    is set if the run accessed a device register that shows ECC state
    (the table's ECC column: ``write_disable``, the ECC counters, the
    scrubber's corrections and uncorrectable sightings, and the error
    output when it selects ECC counters).
    """
    reads: list[int]
    writes: dict[int, int]
    loc_reads: int
    last_irq_cycle: int
    stores: tuple | None
    ecc_regs: bool


@dataclass
class RunResult:
    mode: str
    cycles: int
    exit_code: int | None
    timed_out: bool
    unrecoverable: bool
    checksum: int
    uart: bytes
    instret: list[int]
    mismatch_count: list[int]
    resync_events: int
    ecc_correctable: list[int]
    ecc_uncorrectable: list[int]
    scrub_corrections: int
    scrub_uncorrectable: int
    latent_uncorrectable: int
    conflict_stalls: int
    trace_hash: str | None
    outputs_digest: str
    trace_lines: list[str] | None = field(default=None, repr=False)
    defuse: DefUse | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema": "run-report/1",
            "mode": self.mode,
            "cycles": self.cycles,
            "exit_code": self.exit_code,
            "timed_out": self.timed_out,
            "unrecoverable": self.unrecoverable,
            "checksum": self.checksum,
            "uart_text": self.uart.decode("latin-1"),
            "uart_hex": self.uart.hex(),
            "instret": list(self.instret),
            "mismatch_count": list(self.mismatch_count),
            "resync_events": self.resync_events,
            "ecc_correctable": list(self.ecc_correctable),
            "ecc_uncorrectable": list(self.ecc_uncorrectable),
            "scrub_corrections": self.scrub_corrections,
            "scrub_uncorrectable": self.scrub_uncorrectable,
            "latent_uncorrectable": self.latent_uncorrectable,
            "conflict_stalls": self.conflict_stalls,
            "trace_hash": self.trace_hash,
            "outputs_digest": self.outputs_digest,
        }


class LoadError(Exception):
    pass


_NEVER = 1 << 62    # the cycle of an event that is not scheduled
_MISS = (None, 0, -1)   # stands in for a decode-cache entry: matches no word


def _fetch_info(pc: int, words: list, dcache: dict) -> tuple:
    """(bank, row, that bank's codewords, one-word decode-cache entry or
    ``_MISS``, pc) of the fetch of SRAM address ``pc``."""
    w = (pc - SRAM_BASE) >> 2
    e = dcache.get(pc, _MISS)
    return w & 7, w >> 3, words[w & 7], e if e[1] == 1 else _MISS, pc


# ---------------------------------------------------- translated blocks
#
# With one awake core, ``_event_burst`` runs a straight line of
# decode-cache entries as one generated function, a translated block,
# built from the ``SEMANTICS`` templates with the registers in locals.
# A block ends with a branch or a jump, or before an instruction it
# does not take (a store, a CSR op, ``mret``, ``wfi``, a trap, a
# spanning fetch, a pc not yet decoded).  A block whose terminator goes
# back to its start repeats inside the function.  Its cycles are static
# offsets: it does nothing while one of its fetch banks is busy, it
# runs a pass only when the whole pass fits before ``allowed``, and it
# bails, before anything of the instruction is done, at a load that the
# burst must handle itself (misaligned, outside SRAM, to a busy bank or
# a tainted row), so that the burst redoes that instruction.  Scrubber
# ticks due inside a block run when the burst gets control back, which
# is exact: only a store grant or a busy bank changes what a tick does,
# and a block grants no store, while a tick changes only tainted rows,
# which a block's loads bail on.

_BLOCK_MAX = 64         # instructions in a translated block
_BLOCK_SPAN = 1024      # cycles one block call may run
_BLOCK_CODE_MAX = 512   # translated blocks kept for the whole process
_block_code: dict[tuple, object] = {}   # (start pc, words) -> function
_BLOCK_NS = dict(TEMPLATE_NS, load_lanes=load_lanes)
_WBITS = (mem.TOTAL_WORDS - 1).bit_length()     # w >> _WBITS: outside SRAM


def _pack(n: int) -> str:
    """The name of the packer of ``n`` trace records in ``_BLOCK_NS``."""
    _BLOCK_NS.setdefault(f"P{n}", struct.Struct(
        "<" + _TRACE_REC.format[1:] * n).pack)
    return f"P{n}"


def _block_source(pc0: int, ents: list) -> str:
    """The source of ``blk(c, B, cy, allowed, dlast, tb, T, hart)``, the
    block of decode-cache entries ``ents`` from ``pc0`` on, run at cycle
    ``cy`` on banks ``B`` with trace buffer ``tb`` and def/use log ``T``
    (None when off).  It returns None when it did nothing, or (cycle, pc
    of its last instruction, ``dlast``) where it stopped, with ``c.pc``
    the next pc and the registers, ``minstret``, the ``ev_*`` and exec
    fields and the trace as the per-instruction loop leaves them;
    ``dlast`` is (address, word read) of its last load, or as given when
    it made none.  ``T`` gets each load's cycle as it reads and, at each
    exit, the last fetch cycle of every word the block ran: the log
    misses no SRAM read."""
    steps = []      # per instruction: pc, retire offset, trace record, ...
    pc, off = pc0, 0
    for i, e in enumerate(ents):
        key, rd, rs1, rs2, imm = e[9]
        kind, expr = SEMANTICS[key]
        cap = rd and any(x[9][1] == rd for x in ents[i + 1:])
        val = f"v{i}" if cap else f"x{rd}" if rd else "0"
        src = (expr or "").replace("{rs1}", f"x{rs1}" if rs1 else "0").replace(
            "{rs2}", f"x{rs2}" if rs2 else "0").replace(
            "{imm}", repr(imm)).replace("{uimm}", repr(imm & M32))
        cost = 2 if kind in ("load", "jump") else 1 + EXTRA.get(key, 0)
        steps.append(dict(pc=pc, o=off, off=off + cost, kind=kind, key=key,
                          rd=rd, src=src, imm=imm, cap=cap,
                          rec=f"{e[4] & M32}, {rd}, {val}",
                          extra=EXTRA.get(key)))
        off += cost
        pc += 4 if e[4] & 3 == 3 else 2
    end = pc
    taken = term = None
    if steps[-1]["kind"] in ("branch", "jump"):
        term = steps.pop()
        taken = dict(term, off=term["o"] + 2, extra=1)
    loop = taken is not None and taken["key"] != "jalr" and taken["imm"] == pc0
    full = steps + [taken] if taken else steps     # a pass, branch taken
    cycles = full[-1]["off"]
    live = wrote = 0
    for e in ents:
        live |= e[7] | e[8]
        wrote |= e[8]
    lines = []
    mark = "T[{w}] = " + ("max(T[{w}], cy + {t})" if any(
        s["kind"] == "load" for s in steps) else "cy + {t}")

    def emit(ind, *ls):
        lines.extend("    " * ind + ln for ln in ls)

    def records(hist):
        return ", ".join(f"cy + {s['off']}, hart, {s['pc']}, {s['rec']}"
                         for s in hist)

    def fetched(ind, hist, prev):
        """Mark in ``T`` the fetch of each step of ``hist``, run in this
        pass, and if a pass came before, of each later step of the last
        pass, run ``cycles`` earlier.  Later marks of a word are later
        fetches; a load may have read a word after its last fetch, and
        then the mark keeps the load's cycle."""
        def marks(group, base):
            return [mark.format(w=(s["pc"] - SRAM_BASE) >> 2,
                                t=base + s["o"] + 1) for s in group]
        last = marks(full[len(hist):], -cycles) if prev else []
        if prev == "n" and last:
            last = ["if n:", *("    " + m for m in last)]
        emit(ind, "if T is not None:",
             *("    " + m for m in last + marks(hist, 0)))

    def leave(ind, hist, nxt, prev):
        """End after the steps ``hist`` of this pass, going on at ``nxt``;
        ``prev`` says if a pass came before: "" no, "n" maybe, "1" yes."""
        emit(ind, *(f"r[{k}] = x{k}" for k in range(1, 32) if wrote >> k & 1),
             f"c.pc = {nxt}",
             f"c.minstret += {len(hist)}" + (" + n" if prev else ""))
        if hist:
            emit(ind, "if tb is not None:",
                 f"    tb += {_pack(len(hist))}({records(hist)})")
        fetched(ind, hist, prev)
        dl = "dlast"
        for field in ("load", "extra"):
            def has(s):
                return s["kind"] == "load" if field == "load" else \
                    s["extra"] is not None
            got, cond = [s for s in hist if has(s)], ""
            if not got and prev:
                got, cond = [s for s in full if has(s)], prev
            if not got:
                continue
            s = got[-1]
            if cond == "n":
                emit(ind, "if n:")
            sub = ind + (cond == "n")
            if field == "extra":
                emit(sub, f"c.ev_extra = {s['extra']}", "c.exec_left = 0",
                     "c.exec_retire = True")
                continue
            k = steps.index(s)
            emit(sub, f"c.ev_addr = a{k}", f"c.ev_rd = {s['rd']}",
                 f"c.ev_f3 = {F3[s['key']]}")
            dl = f"(a{k}, m{k})" + (
                " if n else dlast" if cond == "n" else "")
        last = hist[-1] if hist else full[-1]
        emit(ind, f"return cy + {last['off'] if hist else 0}, {last['pc']}, {dl}")

    banks = sorted({(s["pc"] - SRAM_BASE) >> 2 & 7 for s in full})
    lines.append("def blk(c, B, cy, allowed, dlast, tb, T, hart):")
    emit(1, f"if cy + {cycles} > allowed or " + " or ".join(
        f"B[{b}].busy_until > cy" for b in banks) + ":", "    return None",
        "r = c.regs", *(f"x{k} = r[{k}]" for k in range(1, 32) if live >> k & 1))
    ind, prev = 1, ""
    if loop:
        emit(1, "n = 0", "while True:")
        ind, prev = 2, "n"
    for i, s in enumerate(steps):
        rd = s["rd"]
        if s["kind"] == "load":
            f3 = F3[s["key"]]
            align = (1 << (f3 & 3)) - 1
            emit(ind, f"a{i} = {s['src']}", f"w = (a{i} - {SRAM_BASE}) >> 2",
                 "if " + (f"a{i} & {align} or " if align else "") +
                 f"w >> {_WBITS} or (b := B[w & 7]).busy_until >= cy + "
                 f"{s['o'] + 2} or b.tainted and w >> 3 in b.tainted:")
            if i == 0:
                emit(ind + 1, "break" if loop else "return None")
            else:
                leave(ind + 1, steps[:i], s["pc"], prev)
            emit(ind, "if T is not None:", f"    T[w] = cy + {s['off']}",
                 f"m{i} = b.cws[w >> 3] & M32")
            if rd:
                emit(ind, f"x{rd} = " + (f"m{i}" if f3 == 2 else
                                          f"load_lanes(m{i}, a{i}, {f3})"))
        elif rd:
            emit(ind, f"x{rd} = {s['src']}")
        if s["cap"]:
            emit(ind, f"v{i} = x{rd}")
    if taken is None:
        leave(ind, steps, end, prev)
        return "\n".join(lines) + "\n"
    nxt = taken["imm"]
    if taken["kind"] == "branch":
        emit(ind, f"if {taken['src']}:")
        ind += 1
    elif taken["key"] == "jalr":
        emit(ind, f"t = {taken['src']}")
        nxt = "t"
    if taken["rd"]:
        emit(ind, f"x{taken['rd']} = {end}")
    if loop:
        emit(ind, "if tb is not None:",
             f"    tb += {_pack(len(full))}({records(full)})",
             f"cy += {cycles}", f"n += {len(full)}",
             f"if cy + {cycles} > allowed:", "    break")
        if taken["kind"] == "branch":
            emit(ind, "continue")
    else:
        leave(ind, full, nxt, prev)
    if taken["kind"] == "branch":
        leave(ind - 1, steps + [term], end, prev)
    if loop:
        emit(1, "if not n:", "    return None")
        leave(1, [], pc0, "1")
    return "\n".join(lines) + "\n"


def _translate(pc0: int, ents: list):
    """The translated block of ``ents`` from ``pc0``; its code depends only
    on the start pc and the instruction words, so it is kept for the
    whole process (dropped all at once when the cache is full)."""
    key = (pc0, *(e[4] for e in ents))
    fn = _block_code.get(key)
    if fn is None:
        if len(_block_code) >= _BLOCK_CODE_MAX:
            _block_code.clear()
        ns: dict = {}
        exec(_block_source(pc0, ents), _BLOCK_NS, ns)
        fn = _block_code[key] = ns["blk"]
    return fn


class _Blocks:
    """The translated blocks of one ``Soc``.

    ``start`` maps a pc to its block as (function, (pc, entry, bank, row)
    of each instruction, location mask | 1); to 0 once a burst has
    visited it, and to None where no block starts.  A block is built at
    a pc's second visit, from the decode-cache entries there are: it
    never decodes.  ``cover`` maps a word address to the pcs of the
    blocks that execute from it.
    """

    __slots__ = ("start", "cover")

    def __init__(self):
        self.start: dict[int, object] = {}
        self.cover: dict[int, set] = {}

    def clear(self) -> None:
        self.start.clear()
        self.cover.clear()

    def enter(self, pc: int, btab: dict, dcache: dict, banks: list,
              avoid: int):
        """The block at ``pc`` that this burst may run, or False.  A burst
        checks a block once: each word still holds its untainted
        decode-cache entry, and no instruction reads or writes a location
        in ``avoid``.  The result goes into the burst's ``btab``, except
        after a first visit."""
        rec = self.start.get(pc, -1)
        if rec == -1:
            self.start[pc] = 0
            return False
        if rec == 0:
            rec = self.start[pc] = self._build(pc, dcache, banks)
        btab[pc] = False
        if not rec or rec[2] & avoid:
            return False
        dget = dcache.get
        for p, e, bank, row in rec[1]:
            if dget(p) is not e or bank.cws[row] & M32 != e[2] or \
                    row in bank.tainted:
                self.start[pc] = 0   # stale: build it anew
                return False
        btab[pc] = rec[0]
        return rec[0]

    def _build(self, pc0: int, dcache: dict, banks: list):
        ents, checks = [], []
        pc = pc0
        mask = 1
        while len(ents) < _BLOCK_MAX and SRAM_BASE <= pc < SRAM_END:
            e = dcache.get(pc)
            if e is None or e[1] != 1 or e[9] is None or \
                    SEMANTICS[e[9][0]][0] == "store":
                break
            w = (pc - SRAM_BASE) >> 2
            bank, row = banks[w & 7], w >> 3
            if bank.cws[row] & M32 != e[2] or row in bank.tainted:
                return 0    # the burst hands this pc back: build it later
            ents.append(e)
            checks.append((pc, e, bank, row))
            mask |= e[7] | e[8]
            if SEMANTICS[e[9][0]][0] in ("branch", "jump"):
                break
            pc += 4 if e[4] & 3 == 3 else 2
        if len(ents) < 2:
            return None
        for p, *_ in checks:
            self.cover.setdefault(p & ~3, set()).add(pc0)
        return _translate(pc0, ents), tuple(checks), mask

    def drop(self, a: int, btab: dict) -> None:
        """A store wrote the word at ``a``: its blocks are built anew."""
        for p in self.cover.pop(a, ()):
            self.start[p] = 0
            btab.pop(p, None)


class _Lanes:
    """The awake cores of ``Soc._event_burst``, one list entry each.

    ``ph`` is the core's phase and ``xe`` the cycle its multi-cycle
    operation ends; ``ent`` the decode-cache entry of its last
    instruction (until the first, a stand-in with its current fields).
    A fetch request is an eligible cycle ``ie`` (``_NEVER`` when none is
    posted) and ``fi``, the ``_fetch_info`` of its pc; a data request an
    eligible cycle ``de``, bank, row and ``dreq`` = (addr, is_write,
    wdata, strobes), with ``drv`` the last response the burst gave the
    data port.  ``words`` holds the banks' codeword lists.
    """

    __slots__ = ("C", "IP", "DP", "ph", "xe", "ent", "ie", "fi",
                 "de", "db", "dr", "dreq", "drv", "words")

    @classmethod
    def collect(cls, soc: "Soc", cy: int) -> "_Lanes | None":
        """The awake cores at cycle boundary ``cy``; None when none is
        awake or a core's state is one the burst leaves to the
        reference engine."""
        self = cls()
        for name in cls.__slots__:
            setattr(self, name, [])
        self.words = words = [b.cws for b in soc.banks.banks]
        for c, ip, dp in soc.active:
            if c.sleeping:
                if c.wake_pulse or c.mip & c.mie or ip.pending or dp.pending:
                    return None
                continue   # stays asleep: nothing in the burst can wake it
            p = c.phase
            if ip.has_resp or dp.has_resp or (dp.pending and dp.region != R_SRAM):
                return None
            if p == PH_F0:
                if not ip.pending or ip.region != R_SRAM:
                    return None
            elif ip.pending or p == PH_F1 or (p != PH_EX and not dp.pending):
                return None
            self.C.append(c)
            self.IP.append(ip)
            self.DP.append(dp)
            self.ph.append(p)
            self.xe.append(cy + max(c.exec_left, 1) if p == PH_EX else _NEVER)
            self.ent.append((None, 1, 0, 0, c.cur_word, c.cur_rd))
            self.ie.append(cy + 1 if ip.pending else _NEVER)
            self.fi.append(_fetch_info(c.cur_pc, words, soc.dcache)
                           if ip.pending else
                           (ip.bank, ip.row, None, _MISS, c.cur_pc))
            self.de.append(cy + 1 if dp.pending else _NEVER)
            self.db.append(dp.bank)
            self.dr.append(dp.row)
            self.dreq.append((dp.addr, dp.is_write, dp.wdata, dp.strobes))
            self.drv.append(None)
        return self if self.C else None

    def sync(self, k: int, b: int) -> None:
        """Write core ``k``'s lane back, as of cycle boundary ``b``."""
        c, ip, dp = self.C[k], self.IP[k], self.DP[k]
        e, f = self.ent[k], self.fi[k]
        c.cur_pc = pc = f[4]
        c.cur_word, c.cur_rd = e[4], e[5]
        c.phase = self.ph[k]
        if c.phase == PH_EX:
            c.exec_left = self.xe[k] - b
        pend = self.ie[k] != _NEVER
        if pend or e[0] is not None:
            ip.load_state((pend, R_SRAM, f[0], f[1], pc & ~3, False,
                           0, 0, False, ip.resp_val, ip.resp_status))
            if e[0] is not None:    # the word of its last fetch
                ip.resp_val, ip.resp_status = e[2], RS_OK
        pend = self.de[k] != _NEVER
        if pend or self.drv[k] is not None:
            a, w, wd, sb = self.dreq[k]
            dp.load_state((pend, R_SRAM, self.db[k], self.dr[k], a, w, wd, sb,
                           False, dp.resp_val, dp.resp_status))
            if self.drv[k] is not None:
                dp.resp_val, dp.resp_status = self.drv[k], RS_OK

    def to_fetch(self, soc: "Soc", k: int, t: int, v: int, st: int) -> None:
        """Hand the fetch granted at ``t`` to ``soc._consume_fetch``."""
        self.ie[k] = _NEVER
        self.sync(k, t)
        ip, f = self.IP[k], self.fi[k]
        ip.load_state((False, R_SRAM, f[0], f[1], f[4] & ~3, False, 0, 0,
                       True, v, st))
        soc._consume_fetch(self.C[k], ip, self.DP[k], t)


# The Soc's own fields and their reset values, in ``snapshot()["flags"]``
# order.  ``reset`` sets them (then ``lockstep`` from the configured
# mode), ``snapshot`` and ``restore`` carry them, and ``load_program`` sets
# ``loaded`` and ``entry`` after its reset.
_FLAGS = {
    "running": True, "exited": False, "exit_code": None, "timed_out": False,
    "unrecoverable": False, "loaded": False, "entry": SRAM_BASE,
    "checksum_reg": 0, "lockstep": True, "converged": True,
    "_diverge_check_at": 0,
}
_flags = attrgetter(*_FLAGS)


class Soc:
    """One simulation instance; nothing is shared between instances.

    Its state is the ``_FLAGS`` fields, ``cycle``, ``uart_out``, memory
    (``banks``, ``rom``), the ``_COMPONENTS`` with their own
    ``snapshot``/``restore``, the cores and ports, and a carried dormant
    fault (``dorm_*``).  ``reset`` sets all but memory, building the
    components anew from the config, so a reloaded ``Soc`` equals a
    fresh one.
    """

    _COMPONENTS = ("banks", "scrub", "odrg", "xbar")

    def __init__(self, config: SocConfig | None = None):
        self.config = config or SocConfig()
        self.banks = mem.BankArray()
        self.rom: list[int] = [0] * (ROM_SIZE // 4)
        # a proxy, not a reference: cores read the clock through it, and a
        # Soc -> cores -> Soc cycle would keep every finished instance (and
        # its memory image) alive until a full garbage collection
        soc_ref = weakref.proxy(self)
        self.cores = [Core(i, soc_ref) for i in range(3)]
        self.vports = (Port(VOTED, True), Port(VOTED, False))   # (D, I)
        self.cports = [(Port(i, True), Port(i, False)) for i in range(3)]
        self.dcache: dict[int, tuple] = {}
        # the union of the read masks of every entry the decode cache has
        # held, for ``DefUse``
        self._loc_reads = 0
        self.blocks = _Blocks()
        # def/use log of a golden run: the last cycle each SRAM word was
        # read in (-1 never; None when not recording), the last cycle each
        # written word was written in, its stores as ``_logged_write``
        # appends them (None past ``_STORE_LOG_MAX``), and whether the
        # guest could see the ECC counters
        self._reads: list[int] | None = None
        self._writes: dict[int, int] = {}
        self._stores: list[tuple] | None = []
        self._ecc_regs = False
        self._last_irq = -1
        self.reset()

    def record_def_use(self) -> None:
        """Log what the coming run reads, for ``RunResult.defuse``."""
        self._reads = [-1] * mem.TOTAL_WORDS
        self._writes = {}
        self._stores = []
        self._ecc_regs = False
        self._last_irq = -1

    # ---------------------------------------------------------- loading

    def load_program(self, image, entry: int | None = None) -> None:
        """Initialize SRAM through the loader path and build the ROM."""
        if isinstance(image, Program):
            entry = entry_address(image, SRAM_BASE) if entry is None else entry
            image = assemble(image, SRAM_BASE)
        if entry is None:
            entry = SRAM_BASE
        if len(image) > SRAM_SIZE:
            raise LoadError(f"image of {len(image)} bytes exceeds SRAM capacity")
        if not SRAM_BASE <= entry < SRAM_END:
            raise LoadError(f"entry {entry:#x} outside SRAM")
        self.banks = mem.BankArray()  # a fresh load means fresh memory
        self.banks.load_image(image)
        self.dcache.clear()
        self._loc_reads = 0
        self.blocks.clear()
        self.reset()
        self.rom = rom_words(entry)
        self.entry = entry
        self.loaded = True

    def reset(self) -> None:
        """Everything but memory to its power-on state, with the cores at
        the boot ROM; the components are built anew from the config.  It
        leaves no program loaded: ``load_program`` calls it, then loads."""
        for name, value in _FLAGS.items():
            setattr(self, name, value)
        self.cycle = 0
        self.uart_out = bytearray()
        self.odrg = OdrgUnit(self.config.odrg_mode())
        self.xbar = Crossbar()
        self.scrub = mem.Scrubber(self.config.scrub_interval,
                                  self.config.scrub_enabled)
        self.lockstep = self.odrg.mode == MODE_LOCKSTEP
        self._trace_reset()
        self._restart(self.config.release_mask())

    def _trace_reset(self) -> None:
        """Start the trace afresh.  Retirement records are kept while a
        trace is wanted and wait in ``tracebuf`` for ``_trace_flush``."""
        cfg = self.config
        self.rec_trace = cfg.record_trace or cfg.trace_lines
        self.tracebuf = bytearray()
        self._trace_sha = hashlib.sha256()
        self.trace_lines: list[str] | None = [] if cfg.trace_lines else None

    def _restart(self, release: int = 0b111) -> None:
        """Reset the three cores to the boot ROM, holding the ones outside
        ``release`` asleep in performance mode, then clear and rewire the
        ports and post the first fetch of every active core.  Any carried
        dormant fault goes with the old core state."""
        self._dormant_clear()
        self.converged = True
        for i, c in enumerate(self.cores):
            c.reset(ROM_BASE, hartid=0 if self.lockstep else i)
            c.held = not (self.lockstep or release >> i & 1)
            c.sleeping = c.held
        self._clear_ports()
        self._wire_ports()
        for core, ip, _dp in self.active:
            self._post_fetch(core, ip)

    def _clear_ports(self) -> None:
        for p in (*self.vports, *(q for pair in self.cports for q in pair)):
            p.clear()

    def _wire_ports(self) -> None:
        if self.lockstep:
            self.bus_ports = [self.vports[0], self.vports[1]]
            if self.converged:
                self.active = [(self.cores[0], self.vports[1], self.vports[0])]
            else:
                self.active = [(self.cores[i], self.cports[i][1],
                                self.cports[i][0]) for i in range(3)]
        else:
            self.bus_ports = []
            self.active = []
            for i, c in enumerate(self.cores):
                if c.held:
                    continue
                d, ins = self.cports[i]
                self.bus_ports += [d, ins]
                self.active.append((c, ins, d))

    # --------------------------------------------------------- routing

    @staticmethod
    def _route(addr: int) -> tuple[int, int, int]:
        """addr -> (region, bank, row)."""
        if SRAM_BASE <= addr < SRAM_END:
            word = (addr - SRAM_BASE) >> 2
            return R_SRAM, word & 7, word >> 3
        if ROM_BASE <= addr < ROM_END:
            return R_ROM, 0, (addr - ROM_BASE) >> 2
        page = addr & DEV_PAGE
        if page in DEVICE_PAGES:
            return R_DEV, 0, 0
        return R_NONE, 0, 0

    # ---------------------------------------------------------- devices

    def _reg_read(self, addr: int) -> int | None:
        """A word load from device register ``addr``: its value, or None
        (an access fault) where the table defines no register."""
        row = _DEV_REGS.get(addr)
        if row is None:
            return None
        _name, field, mask, shift, read, _write, ecc = row
        if ecc:
            self._ecc_regs = True
        if read is None:
            obj, key, get, _set = self._locate(field)
            return get(obj, key) >> shift & mask
        return read if type(read) is int else getattr(self, read[0])(*read[1:])

    def _reg_write(self, addr: int, value: int) -> None:
        """A word store of ``value`` to device register ``addr``; one to
        a read-only register or where the table defines none is ignored."""
        row = _DEV_REGS.get(addr)
        if row is None or row[5] is None:
            return
        _name, field, mask, shift, _read, write, ecc = row
        if ecc:
            self._ecc_regs = True
        value &= mask
        if type(write) is tuple:
            getattr(self, write[0])(*write[1:], value)
            return
        obj, key, get, put = self._locate(field)
        put(obj, key, 0 if write == CLEAR else
            get(obj, key) & ~(mask << shift) | value << shift)

    def _locate(self, field: str) -> tuple:
        """A device register's ``field`` as (the object that holds it, its
        key there, the get and the set function for that key): a list
        index for a number part of the path, an attribute otherwise."""
        obj = self
        for k in field.split("."):
            parent, key = obj, int(k) if k.isdigit() else k
            get, put = (getitem, setitem) if type(key) is int else \
                (getattr, setattr)
            obj = get(parent, key)
        return parent, key, get, put

    # A register's side effects, the write ones called with the stored
    # value's masked bits.

    def _error_output(self) -> int:
        return sum(map(self._reg_read, _ERROR_SOURCES[self.odrg.error_select]))

    def _request_mode(self, mode: int) -> None:
        o = self.odrg
        o.pending_mode = None if mode == o.mode else mode

    def _scrub_enable(self, on: int) -> None:
        s = self.scrub
        s.enabled = bool(on)
        if on:
            s.next_cycle = self.cycle + s.interval

    def _scrub_interval(self, interval: int) -> None:
        s = self.scrub
        s.interval = max(1, interval)
        s.next_cycle = self.cycle + s.interval

    def _exit(self, code: int) -> None:
        self.exited = True
        self.running = False
        self.exit_code = code

    def _uart_tx(self, byte: int) -> None:
        self.uart_out.append(byte)

    # ----------------------------------------------- lockstep callbacks

    def _set_msip(self, hart: int, value: int) -> None:
        self._last_irq = self.cycle
        self.odrg.msip[hart] = value
        if self.dorm_hart >= 0 and value:
            self.split()
        if self.lockstep:
            # one logical core: the software interrupt hits the group
            for c in self.cores:
                c.mip = (c.mip | MIP_MSIP) if value else (c.mip & ~MIP_MSIP)
        else:
            c = self.cores[hart]
            c.mip = (c.mip | MIP_MSIP) if value else (c.mip & ~MIP_MSIP)

    def request_resync(self) -> None:
        """Raise the resync interrupt as a mismatch would (test hook)."""
        if self.dorm_hart >= 0:
            self.split()
        o = self.odrg
        if o.resync_state == RESYNC_IDLE:
            self._last_irq = self.cycle
            o.resync_state = RESYNC_REQUESTED
            if self.cycle - o.last_done_cycle <= RESYNC_HEALTHY_GAP:
                o.resync_streak += 1
            else:
                o.resync_streak = 1
            if o.resync_streak >= RESYNC_STREAK_LIMIT:
                self.running = False
                self.unrecoverable = True
                return
            for c in self.cores:
                c.mip |= MIP_MEIP

    def _resync_reset_pulse(self, _value: int) -> None:
        """Guest wrote the trigger register: reset all three cores."""
        o = self.odrg
        o.resync_state = RESYNC_IN_PROGRESS
        self._last_irq = self.cycle
        self._restart()

    def _resync_done(self, _value: int) -> None:
        o = self.odrg
        o.resync_state = RESYNC_DONE
        o.resync_events += 1
        o.last_done_cycle = self.cycle

    # ------------------------------------------------------ fault hooks

    CORE_FAULT_LOCS = (tuple(f"x{i}" for i in range(1, 32)) + ("pc",)
                       + CSR_LOCS)

    def materialize(self) -> None:
        """Make cores 1/2 real; a carried dormant fault splits the group."""
        if self.dorm_hart >= 0:
            self.split()
        else:
            self._mirror()

    def _mirror(self) -> None:
        """Copy core 0 into cores 1/2, which a converged lockstep group
        leaves stale."""
        if self.lockstep and self.converged:
            for c in self.cores[1:]:
                c.copy_from(self.cores[0])

    def split(self) -> None:
        """Leave the converged fast path; cores step individually, the
        minority of a carried dormant fault with its deviating state."""
        if not (self.lockstep and self.converged):
            return
        hart, vals = self.dorm_hart, self.dorm_vals
        self._dormant_clear()
        self._mirror()
        now = self.cycle
        for loc, delta in vals.items():
            c = self.cores[hart]
            c.write_loc(loc, c.read_loc(loc, now) + delta, now)
        for i in range(3):
            self.cports[i][0].copy_from(self.vports[0])
            self.cports[i][1].copy_from(self.vports[1])
        self.converged = False
        self._wire_ports()
        self._diverge_check_at = now + CONVERGENCE_CHECK_PERIOD

    def _try_collapse(self) -> None:
        now = self.cycle
        k0 = self.cores[0].state_key(now)
        if (k0 != self.cores[1].state_key(now)
                or k0 != self.cores[2].state_key(now)):
            return
        p0 = (self.cports[0][0].state_tuple(), self.cports[0][1].state_tuple())
        for i in (1, 2):
            if (self.cports[i][0].state_tuple(),
                    self.cports[i][1].state_tuple()) != p0:
                return
        self.vports[0].load_state(p0[0])
        self.vports[1].load_state(p0[1])
        self.converged = True
        self._wire_ports()

    def inject_core_fault(self, hart: int, loc: str, bit: int) -> None:
        """Flip one bit of architectural core state (scan-chain style)."""
        if loc not in self.CORE_FAULT_LOCS:
            raise ValueError(f"bad fault location: {loc!r}")
        if not 0 <= bit < 32:
            raise ValueError(f"bad fault bit: {bit}")
        if (self.lockstep and self.converged and self.config.dormant_opt
                and loc != "pc" and self.dorm_hart in (-1, hart)):
            self._dormant_inject(hart, loc, bit)
            return
        if self.lockstep:
            self.split()
        c = self.cores[hart]
        c.write_loc(loc, c.read_loc(loc, self.cycle) ^ (1 << bit), self.cycle)

    # A single-bit fault in a location nothing is reading cannot change
    # any core output, so the converged fast path may keep running with
    # the deviation carried on the side: ``dorm_vals`` maps each deviating
    # location of core ``dorm_hart`` to its distance from core 0's value,
    # and ``dorm_mask`` masks those locations (``LOC_BITS``).  The group
    # splits into real 3-way stepping the moment an instruction reads a
    # deviating location, any trap or interrupt line fires, or a second
    # core gets faulted; a write to the deviating location erases it
    # (both sides would write identical data), possibly re-converging
    # the group.  Only the reference helpers (``_dispatch``, ``_apply``,
    # ``_consume_fetch``, ``_consume_load``) take these decisions: the
    # fused burst hands any instruction touching the set back to them.

    def _dormant_set(self, hart: int, vals: dict[str, int]) -> None:
        """Carry ``vals`` for ``hart``: the one writer of ``dorm_*``."""
        self.dorm_hart = hart if vals else -1
        self.dorm_mask = sum(LOC_BITS[loc] for loc in vals)
        self.dorm_vals = vals

    def _dormant_clear(self) -> None:
        self._dormant_set(-1, {})

    def _dormant_inject(self, hart: int, loc: str, bit: int) -> None:
        maj = self.cores[0].read_loc(loc, self.cycle)
        vals = dict(self.dorm_vals)
        vals[loc] = ((maj + vals.get(loc, 0)) ^ (1 << bit)) - maj
        self._dormant_set(hart, {k: d for k, d in vals.items() if d})

    def _dormant_erase(self, wr: int) -> None:
        """Drop the carried locations that an instruction overwrote (the
        location mask ``wr``)."""
        if wr & self.dorm_mask:
            self._dormant_set(self.dorm_hart, {
                loc: d for loc, d in self.dorm_vals.items()
                if not LOC_BITS[loc] & wr})

    def _dormant_replay(self, port: Port, now: int) -> None:
        """Un-consume a just-granted response, split, and re-run this
        cycle's core step 3-way so the replay lands in the same cycle
        the converged path would have used."""
        port.has_resp = True
        self.split()
        self.vports[0].has_resp = False
        self.vports[1].has_resp = False
        for core, sip, sdp in self.active:
            self._tick_core(core, sip, sdp, now)
        if self.running and self.lockstep and not self.converged:
            self._vote_cycle(now)

    def _fault(self, c: Core, port: Port, cause: int, tval: int,
               now: int) -> None:
        """A fault met before the instruction changed any state: with a
        dormant fault carried, replay ``port``'s response 3-way so each
        core meets it with its own state; otherwise trap."""
        if self.dorm_hart >= 0:
            self._dormant_replay(port, now)
        else:
            self._enter_trap(c, cause, tval)

    def _trap_all_or_one(self, c: Core, cause: int, tval: int) -> None:
        """Synchronous trap after architectural mutation: when a dormant
        fault is pending every core reached this point identically, so
        split and let each take the trap with its own state."""
        cores = [c]
        if self.dorm_hart >= 0:
            self.split()
            cores = self.cores
        for core in cores:
            self._enter_trap(core, cause, tval)

    def _enter_trap(self, c: Core, cause: int, tval: int,
                    epc: int | None = None) -> None:
        """Take a trap (at ``epc``, by default the current instruction)
        and spend the next cycle in the entry bubble."""
        self._last_irq = self.cycle
        c.take_trap(cause, tval, c.cur_pc if epc is None else epc)
        c.phase = PH_EX
        c.exec_left = 1
        c.exec_retire = False

    # ------------------------------------------------------ cycle engine

    def _post_fetch(self, c: Core, ip: Port) -> None:
        pc = c.pc
        c.cur_pc = pc
        word_addr = pc & ~3 & M32
        region, bank, row = self._route(word_addr)
        if region == R_DEV:
            region = R_NONE  # register pages are not executable
        ip.want(region, bank, row, word_addr)
        c.phase = PH_F0

    def _retire(self, c: Core, now: int) -> None:
        c.minstret += 1
        if self.rec_trace:
            rd = c.cur_rd
            tb = self.tracebuf
            tb += _TRACE_REC.pack(
                now, c.mhartid, c.cur_pc, c.cur_word & M32, rd, c.regs[rd])
            if len(tb) >= _TRACE_FLUSH:
                self._trace_flush()

    def _boundary(self, c: Core, ip: Port, now: int, retire: bool) -> None:
        """End an instruction, retiring it when ``retire``: take a pending
        interrupt or fetch the next one."""
        if retire:
            self._retire(c, now)
        if c.mstatus & MSTATUS_MIE:
            irq = c.pending_interrupt()
            if irq:
                self._enter_trap(c, irq, 0, c.pc)
                return
        self._post_fetch(c, ip)

    def _issue_data(self, c: Core, ip: Port, dp: Port, kind: int, now: int) -> None:
        """Route a load (kind 2) or store (kind 3) onto the data port; a
        store to ROM or to an unmapped address faults at once.  Device
        registers are word-sized: a sub-word access to one is unmapped."""
        addr = c.ev_addr
        region, bank, row = self._route(addr)
        if region == R_DEV and c.ev_f3 & 3 != 2:
            region = R_NONE
        if kind == 3 and (region == R_ROM or region == R_NONE):
            self._trap_all_or_one(c, EXC_SACCESS_FAULT, addr)
        elif dp.pending:    # wait for the posted store to drain
            c.phase = PH_DW
            c.dw_kind = kind
        elif kind == 2:
            dp.want(region, bank, row, addr)
            c.phase = PH_LD
        else:
            strobes, wdata = _store_lanes(addr, c.ev_f3, c.ev_val)
            dp.want(region, bank, row, addr & ~3, True, wdata, strobes)
            self._boundary(c, ip, now, True)

    def _dispatch(self, c: Core, ip: Port, dp: Port, entry: tuple, now: int) -> None:
        if self.dorm_hart >= 0 and (entry[7] & self.dorm_mask or c.mip):
            # the carried fault is about to be read: undo the fetch
            # consume and restart this instruction 3-way this cycle
            self._dormant_replay(ip, now)
            return
        c.cur_word = entry[4]
        c.cur_rd = entry[5]
        self._apply(c, ip, dp, entry, entry[0](c), now)

    def _apply(self, c: Core, ip: Port, dp: Port, entry: tuple, code: int,
               now: int) -> None:
        """Finish an executed instruction by its action code."""
        if code == 0 or code == 1:
            if self.dorm_hart >= 0:
                self._dormant_erase(entry[8])
            if code == 0:
                self._boundary(c, ip, now, True)
            else:
                c.phase = PH_EX
                c.exec_left = c.ev_extra
                c.exec_retire = True
        elif code == 2 or code == 3:
            self._issue_data(c, ip, dp, code, now)
        elif code == 4:
            self._retire(c, now)
            c.sleeping = True
            c.phase = PH_F0
        else:   # a synchronous trap, before any architectural mutation
            self._fault(c, ip, c.ev_cause, c.ev_tval, now)

    def _decode(self, pc: int, nwords: int, w0: int, w1: int, word: int) -> tuple:
        """Decode the instruction ``word`` at ``pc`` (fetched as ``nwords``
        words ``w0``, ``w1``) into a decode-cache entry."""
        op, *rest = (decode32 if word & 3 == 3 else decode16)(word, pc)
        entry = (op, nwords, w0, w1, word, *rest)
        self.dcache[pc] = entry
        self._loc_reads |= entry[7]
        return entry

    def _consume_fetch(self, c: Core, ip: Port, dp: Port, now: int) -> None:
        val, status = ip.take_resp()
        if status >= RS_UNCORRECTABLE:
            self._fault(c, ip, EXC_IACCESS_FAULT, c.cur_pc, now)
            return
        pc = c.cur_pc
        if c.phase == PH_F1:
            entry = c.pend_entry
            c.pend_entry = None
            if entry is None or entry[3] != val:
                entry = self._decode(pc, 2, c.w0_stash, val, (
                    c.half_stash | ((val & 0xFFFF) << 16)) & M32)
        else:
            entry = self.dcache.get(pc)
            if entry is None or entry[2] != val:
                half = (val >> 16) if pc & 2 else (val & 0xFFFF)
                if half & 3 != 3:
                    entry = self._decode(pc, 1, val, 0, half)
                elif not pc & 2:
                    entry = self._decode(pc, 1, val, 0, val)
                else:
                    entry = None
            if entry is None or entry[1] == 2:
                # a 32-bit instruction spanning two words: its second
                # word is fetched each time, cached or not
                c.pend_entry = entry
                c.w0_stash = val
                c.half_stash = val >> 16
                wa = (pc & ~3) + 4
                ip.want(*self._route(wa), wa)
                c.phase = PH_F1
                return
        self._dispatch(c, ip, dp, entry, now)

    def _consume_load(self, c: Core, dp: Port, ip: Port, now: int) -> None:
        val, status = dp.take_resp()
        if status >= RS_UNCORRECTABLE:
            self._fault(c, dp, EXC_LACCESS_FAULT, c.ev_addr, now)
            return
        if c.ev_f3 != 2:
            val = load_lanes(val, c.ev_addr, c.ev_f3)
        rd = c.ev_rd
        if rd:
            c.regs[rd] = val
            if self.dorm_hart >= 0:
                self._dormant_erase(1 << rd)
        self._boundary(c, ip, now, True)

    def _tick_core(self, c: Core, ip: Port, dp: Port, now: int) -> None:
        if c.sleeping:
            if c.wake_pulse or (c.mip & c.mie):
                c.sleeping = False
                c.wake_pulse = False
                self._boundary(c, ip, now, False)
            return
        # stray store acks clear silently; loads consume below
        if dp.has_resp and c.phase != PH_LD:
            dp.has_resp = False
        ph = c.phase
        if ph == PH_F0 or ph == PH_F1:
            if ip.has_resp:
                self._consume_fetch(c, ip, dp, now)
            return
        if ph == PH_EX:
            c.exec_left -= 1
            if c.exec_left <= 0:
                self._boundary(c, ip, now, c.exec_retire)
            return
        if ph == PH_LD:
            if dp.has_resp:
                self._consume_load(c, dp, ip, now)
            return
        # PH_DW: waiting for the data port to drain a posted store
        if not dp.pending:
            self._issue_data(c, ip, dp, c.dw_kind, now)

    def _bus_cycle(self, now: int) -> None:
        """H1: arbitration plus memory/device operation execution."""
        sram_single = None
        sram_multi = None
        banks = self.banks.banks
        for p in self.bus_ports:
            if not p.pending or p.has_resp:
                continue
            region = p.region
            if region == R_SRAM:
                if sram_single is None:
                    sram_single = p
                else:
                    if sram_multi is None:
                        sram_multi = [sram_single]
                    sram_multi.append(p)
                continue
            if region == R_ROM:
                p.respond(self.rom[p.row] if p.row < len(self.rom) else 0, RS_OK)
            elif region == R_DEV:
                if p.is_write:
                    self._reg_write(p.addr, p.wdata)
                    p.respond(0, RS_OK)
                else:
                    v = self._reg_read(p.addr)
                    if v is None:
                        p.respond(0, RS_FAULT)
                    else:
                        p.respond(v & M32, RS_OK)
            else:
                p.respond(0, RS_FAULT)
        if sram_multi is None:
            if sram_single is not None:
                p = sram_single
                bank = banks[p.bank]
                if bank.busy_until < now:
                    self._bank_op(p, bank, now)
        else:
            by_bank: dict[int, list[Port]] = {}
            for p in sram_multi:
                by_bank.setdefault(p.bank, []).append(p)
            for bank_idx, plist in by_bank.items():
                bank = banks[bank_idx]
                if bank.busy_until >= now:
                    continue
                winner = plist[0] if len(plist) == 1 else \
                    self.xbar.arbitrate(plist, bank_idx)
                self._bank_op(winner, bank, now)
        s = self.scrub
        if s.enabled and now >= s.next_cycle and self.running:
            target = s.target_bank()
            blocked = banks[target].busy_until >= now
            if not blocked:
                for p in self.bus_ports:
                    if p.pending and p.region == R_SRAM and p.bank == target:
                        blocked = True
                        break
            w = s.tick(self.banks, now, blocked)
            if w >= 0 and self._reads is not None:
                self._reads[w] = now

    def _trace_flush(self) -> None:
        """Feed the buffered retirement records to the trace hash, format
        them into ``trace_lines``, and empty the buffer in place (the
        burst holds it as a local).  A line's text depends only on pc and
        word: it is the decode-cache entry's while that entry holds the
        word, a fresh decode's otherwise."""
        tb = self.tracebuf
        if not tb:
            return
        if self.config.record_trace:
            self._trace_sha.update(tb)
        lines = self.trace_lines
        if lines is not None:
            dget = self.dcache.get
            for now, hart, pc, word, rd, val in _TRACE_REC.iter_unpack(tb):
                e = dget(pc)
                mnem = e[6] if e is not None and e[4] == word else \
                    (decode32 if word & 3 == 3 else decode16)(word, pc)[2]
                lines.append(f"{now} {hart} {pc:#010x} {word:#010x} {mnem} "
                             f"x{rd}={val:#010x}")
        tb.clear()

    def _bank_op(self, p: Port, bank: mem.Bank, now: int) -> None:
        reads = self._reads
        if p.is_write:
            if reads is None:
                bank.write(p.row, p.wdata, p.strobes)
            else:
                self._logged_write(bank, p.row << 3 | p.bank, p.wdata,
                                   p.strobes, now)
            if p.strobes != 0xF:
                bank.busy_until = now + 1
            p.pending = False
            p.has_resp = True
            p.resp_val = 0
            p.resp_status = RS_OK
        else:
            if reads is not None:
                reads[p.row << 3 | p.bank] = now
            data, status = bank.read(p.row)
            p.respond(data, status)

    def _logged_write(self, bank: mem.Bank, w: int, data: int, strobes: int,
                      now: int) -> None:
        """``bank.write`` of SRAM word ``w`` at cycle ``now`` in a run that
        records its def/use log: the store goes into ``_stores`` with the
        last cycle the word was read in before it, and ``now`` becomes the
        word's last write."""
        row = w >> 3
        before = bank.cws[row]
        bank.write(row, data, strobes)
        stores = self._stores
        if stores is not None:
            if len(stores) < _STORE_LOG_MAX:
                stores.append((now, w, before, bank.cws[row], strobes,
                               self._reads[w]))
            else:   # a log this long is not worth its memory
                self._stores = None
        self._writes[w] = now

    def _vote_cycle(self, now: int) -> None:
        """Majority-vote the shadow request bundles into the real ports."""
        bundles = []
        for i in range(3):
            d, ins = self.cports[i]
            bundles.append((ins.request_tuple(), d.request_tuple()))
        vr = vote(*bundles)
        if vr.disagreeing == ALL_DIFFER:
            self.running = False
            self.unrecoverable = True
            return
        if vr.disagreeing is not None:
            o = self.odrg
            o.mismatch_count[vr.disagreeing] += 1
            if o.resync_state == RESYNC_IDLE:
                self.request_resync()
        maj_i, maj_d = vr.value
        vd, vi = self.vports
        if maj_i is None:
            vi.pending = False
        elif not vi.pending or vi.request_tuple() != maj_i:
            vi.want(*maj_i)
        if maj_d is None:
            vd.pending = False
        elif not vd.pending or vd.request_tuple() != maj_d:
            vd.want(*maj_d)

    def _broadcast_resps(self) -> None:
        """Deliver voted-port responses to every shadow port."""
        for real, idx in ((self.vports[1], 1), (self.vports[0], 0)):
            if real.has_resp:
                for i in range(3):
                    sp = self.cports[i][idx]
                    if sp.pending:
                        sp.pending = False
                        sp.has_resp = True
                        sp.resp_val = real.resp_val
                        sp.resp_status = real.resp_status
                real.has_resp = False
                real.pending = False

    # ------------------------------------------------------------- run

    def run(self, stop_at: int | None = None) -> RunResult | None:
        """Advance until guest exit, error, timeout, or ``stop_at``.

        Returns the RunResult when the run finished, or None when
        paused at ``stop_at`` (fault-injection boundary).
        """
        if not self.loaded:
            raise RuntimeError("no program loaded")
        limit = self.config.max_cycles
        fast = self.config.fast_loop
        cycle = self.cycle
        while self.running:
            if cycle >= limit:
                self.timed_out = True
                break
            if stop_at is not None and cycle >= stop_at:
                self.cycle = cycle
                self._trace_flush()
                return None
            if fast:
                if len(self.active) > 1 and not self.lockstep:
                    self._event_burst(stop_at, limit)
                elif len(self.active) == 1:
                    # a lone core enters at a fetch with its data port
                    # idle: a load or an operation the reference engine
                    # started (one handed back with a carried dormant
                    # fault among them) is finished by that engine
                    c, ip, dp = self.active[0]
                    if (c.phase == PH_F0 and ip.pending and not ip.has_resp
                            and not dp.pending and not c.sleeping):
                        self._fast_burst(stop_at, limit)
                cycle = self.cycle
                if not self.running or cycle >= limit or \
                        (stop_at is not None and cycle >= stop_at):
                    continue
            cycle += 1
            self.cycle = cycle
            self._bus_cycle(cycle)
            # H2: a group split at this point gets the voted responses,
            # steps its three cores and votes their requests; one that a
            # replay splits in this cycle has voted already
            split = self.lockstep and not self.converged
            if split:
                self._broadcast_resps()
            for c, ip, dp in self.active:
                self._tick_core(c, ip, dp, cycle)
            if self.running or not split:
                if split:
                    self._vote_cycle(cycle)
                if self.odrg.resync_state == RESYNC_DONE:
                    self.odrg.resync_state = RESYNC_IDLE
                    if self.lockstep and not (split or self.converged):
                        self._try_collapse()
                if split and self.running and \
                        cycle >= self._diverge_check_at:
                    self._try_collapse()
                    self._diverge_check_at = cycle + CONVERGENCE_CHECK_PERIOD
            if self.odrg.pending_mode is not None:
                self._maybe_switch_mode()
            if self.running:
                self._maybe_skip_idle(cycle, stop_at, limit)
                cycle = self.cycle
        self.cycle = cycle
        return self._finalize()

    def _fast_burst(self, stop_at: int | None, limit: int) -> None:
        """The fused burst of one active core (converged lockstep, or a
        lone core in ``single`` or performance mode): ``_event_burst``,
        entered under this name so that it can be measured apart."""
        self._event_burst(stop_at, limit)

    def _event_burst(self, stop_at: int | None, limit: int) -> None:
        """Event-driven execution of the awake cores.

        Starts at the cycle boundary ``self.cycle`` and visits only the
        cycles in which an awake core has an event: a bank request
        (fetch, load or store) to grant, or the end of a multi-cycle
        operation.  Each core's requests live in its ``_Lanes`` entry.  A
        cycle's grants come first, with the crossbar's round robin on a
        shared bank and busy banks delaying their requests, then the
        cores step in ``self.active`` order.  A cycle goes through the
        full arbitration only when two requests claim one bank for it (a
        request claims its bank's next cycle when it is posted and again
        each time it loses), when a sub-word store made a bank busy for
        it, or when it is the burst's first cycle; in any other cycle
        every due request is granted at once.

        With one awake core and no store posted, a retire goes straight
        on into the translated blocks (``_Blocks``) from the next pc, each
        checked once per burst; a granted store drops the blocks that
        execute from its word.  The scrubber ticks due before an event
        cycle run in one loop under ``_bus_cycle``'s rule just before it:
        since the last event cycle nothing has changed what blocks them
        (a busy bank or a request still waiting), and a block changes
        neither.  When none can be blocked and no row is tainted, so
        that each only moves the scrubber on, and no def/use log is kept,
        they run all at once (``Scrubber.idle_ticks``).  The trace buffer
        is flushed once it holds ``_TRACE_FLUSH`` bytes, looked at every
        ``_FLUSH_EVERY`` cycles.

        What the local state cannot express (device and ROM accesses,
        decode misses, spanning fetches, bad responses, traps, ``wfi``,
        interrupts, an instruction that reads or writes a carried dormant
        fault, or any instruction while ``mip`` is raised with one
        carried) is written back and handed to the reference helpers,
        which alone decide about a dormant fault, and the burst ends with
        that cycle; it also ends at ``stop_at`` and the cycle limit.
        Every return leaves the ports and core FSM fields as the
        reference engine holds them at that cycle boundary.
        """
        cy = self.cycle
        if self.odrg.pending_mode is not None:
            return
        lanes = _Lanes.collect(self, cy)
        if lanes is None:
            return
        C, IP, DP = lanes.C, lanes.IP, lanes.DP
        ph, xe, ent = lanes.ph, lanes.xe, lanes.ent
        ie, fi = lanes.ie, lanes.fi
        de, db, dr, dreq, drv = (lanes.de, lanes.db, lanes.dr, lanes.dreq,
                                 lanes.drv)
        sync = lanes.sync
        big = _NEVER
        n = len(C)
        for c in C:
            c.exec_left = 0     # its value after an operation ends; sync
                                # restores it for a core still in one
        hand = [False] * n  # handed to a helper: its ports are current
        na = list(map(min, ie, de, xe))
        kr = range(n)

        sbanks = self.banks
        banks = sbanks.banks
        cws = lanes.words
        tnt = [b.tainted for b in banks]
        clean = not any(tnt)    # no tainted row: reads need no decode
        dcache = self.dcache
        fcache: dict[int, tuple] = {}   # pc -> _fetch_info
        fget = fcache.get
        rec = self.rec_trace
        tb = self.tracebuf
        btb = tb if rec else None
        pack = _TRACE_REC.pack
        reads = self._reads
        xbar = self.xbar
        scrub = self.scrub
        stick = max(scrub.next_cycle, cy + 1) if scrub.enabled else big
        allowed = limit if stop_at is None else min(limit, stop_at)
        sram_lo = SRAM_BASE
        wbits = _WBITS
        m32 = M32
        # one lane runs translated blocks: start pc -> the block checked
        # in this burst, or False.  A carried dormant fault (lockstep, so
        # one lane) hands on at the fetch every instruction that touches
        # it, any while ``mip`` is raised, and no block that touches it runs
        one = n == 1
        btab: dict[int, object] = {}
        bget = btab.get
        enter = self.blocks.enter
        drop = self.blocks.drop
        dorm = self.dorm_hart >= 0
        dmask = self.dorm_mask
        avoid = (-1 if C[0].mip else dmask) if dorm else 0

        # the claim rule above: ``cl[b] == t1`` once a request has claimed
        # bank ``b`` for cycle ``t1``; ``clash`` is the next cycle that
        # goes through the full arbitration
        cl = [-1] * len(banks)
        clash = cy + 1
        slow = False

        fl = cy + _FLUSH_EVERY      # the next look at the trace buffer
        guard = min(stick, allowed, fl)
        while True:
            t = min(na)
            if t > guard:
                if stick < t:
                    # the ticks due before t, blocked by a busy bank or a
                    # request eligible by then and still waiting for it;
                    # only one that lost in the last cycle can wait, and
                    # only a slow cycle has losers
                    up = min(t - 1, allowed)
                    wait = []
                    if slow and lose:
                        wait = [(e, f[0]) for e, f in zip(ie, fi) if e <= up]
                        wait += [(e, b) for e, b in zip(de, db) if e <= up]
                    elif clean and reads is None and stick <= up and \
                            max(map(_busy_until, banks)) < stick:
                        # nothing blocks them and no row is tainted: they
                        # only move the scrubber on, all at once
                        scrub.idle_ticks(up)
                        stick = scrub.next_cycle
                    while stick <= up:
                        b = scrub.next_address & 7
                        blocked = banks[b].busy_until >= stick
                        if wait and not blocked:
                            blocked = any(e <= stick and w == b
                                          for e, w in wait)
                        w = scrub.tick(sbanks, stick, blocked)
                        # a block may have marked a later read already
                        if reads is not None and w >= 0 and reads[w] < stick:
                            reads[w] = stick
                        stick = scrub.next_cycle
                if t > allowed:
                    t = allowed
                    break
                if t > fl:
                    if len(tb) >= _TRACE_FLUSH:
                        self._trace_flush()
                    fl = t + _FLUSH_EVERY
                guard = min(stick, allowed, fl)
            self.cycle = t
            t1 = t + 1
            # H1 on such a cycle: which requests wait (bit 2k: the fetch
            # of core k, bit 2k+1: its data request)
            slow = clash == t
            if slow:
                lose = 0
                want: dict[int, list] = {}
                for k in kr:
                    if na[k] == t:
                        if de[k] <= t:
                            want.setdefault(db[k], []).append(
                                (DP[k], 2 << 2 * k))
                        if ie[k] <= t:
                            want.setdefault(fi[k][0], []).append(
                                (IP[k], 1 << 2 * k))
                for b, g in want.items():
                    if banks[b].busy_until >= t:
                        win = None
                    elif len(g) > 1:
                        win = xbar.arbitrate([p for p, _bit in g], b)
                    else:
                        continue
                    for p, bit in g:
                        if p is not win:
                            lose |= bit
                            if cl[b] == t1:
                                clash = t1
                            cl[b] = t1

            for k in kr:
                if na[k] != t:
                    continue
                na[k] = t1
                c = C[k]
                p = ph[k]
                if de[k] <= t and p != PH_LD:   # a posted store
                    if not (slow and lose >> 2 * k & 2):
                        b = db[k]
                        rq = dreq[k]
                        row = dr[k]
                        if reads is None:
                            banks[b].write(row, rq[2], rq[3])
                        else:
                            self._logged_write(banks[b], row << 3 | b, rq[2],
                                               rq[3], t)
                        drop(rq[0], btab)
                        if tnt[b]:
                            clean = False
                        if rq[3] != 0xF:
                            banks[b].busy_until = clash = t1
                        drv[k] = 0
                        de[k] = big
                    if p == PH_F0 and ie[k] > t:
                        continue    # its fetch was posted later

                if p == PH_F0:
                    if slow and lose >> 2 * k & 1:
                        continue
                    b, row, words, e, _pc = f = fi[k]
                    if reads is not None:
                        reads[row << 3 | b] = t
                    if clean or row not in tnt[b]:
                        v, st = words[row] & m32, RS_OK
                    else:
                        v, st = banks[b].read(row)
                    if e[2] != v or st or dorm and (
                            (e[7] | e[8]) & dmask or c.mip):
                        # a miss, a spanning or stale entry, a bad row, or
                        # an instruction the dormant-fault helpers decide
                        lanes.to_fetch(self, k, t, v, st)
                        hand[k] = True
                        allowed = guard = t
                        continue
                    ent[k] = e
                    code = e[0](c)
                elif p == PH_EX:
                    if xe[k] != t:
                        if de[k] == big:
                            na[k] = xe[k]
                        continue
                    if not c.exec_retire:   # the bubble after a trap
                        sync(k, t)
                        self._boundary(c, IP[k], t, False)
                        hand[k] = True
                        allowed = guard = t
                        continue
                    ph[k] = PH_F0
                    e, f = ent[k], fi[k]
                    code = 0
                elif p == PH_LD:
                    if slow and lose >> 2 * k & 2:
                        continue
                    b = db[k]
                    row = dr[k]
                    if reads is not None:
                        reads[row << 3 | b] = t
                    de[k] = big
                    if clean or row not in tnt[b]:
                        v = cws[b][row] & m32
                    else:
                        v, st = banks[b].read(row)
                        if st:
                            drv[k] = v
                            sync(k, t)
                            dp = DP[k]
                            dp.has_resp, dp.resp_status = True, st
                            self._consume_load(c, dp, IP[k], t)
                            hand[k] = True
                            allowed = guard = t
                            continue
                    drv[k] = v
                    if c.ev_f3 != 2:
                        v = load_lanes(v, c.ev_addr, c.ev_f3)
                    rd = c.ev_rd
                    if rd:
                        c.regs[rd] = v
                    ph[k] = PH_F0
                    e, f = ent[k], fi[k]
                    code = 0
                else:   # PH_DW: a load or store behind a posted store
                    if de[k] != big:
                        continue
                    code = c.dw_kind

                if code:
                    ie[k] = big
                    if code == 1:
                        ph[k] = PH_EX
                        xe[k] = t + c.ev_extra
                        c.exec_retire = True
                        if de[k] == big:
                            na[k] = xe[k]
                        continue
                    addr = c.ev_addr
                    w = (addr - sram_lo) >> 2
                    if code > 3 or w >> wbits:
                        # wfi, a trap, or a ROM, device or unmapped target
                        sync(k, t)
                        self._apply(c, IP[k], DP[k], ent[k], code, t)
                        hand[k] = True
                        allowed = guard = t
                        continue
                    if de[k] != big:    # issued once the posted store drains
                        ph[k] = PH_DW
                        c.dw_kind = code
                        continue
                    b = w & 7
                    if cl[b] == t1:
                        clash = t1
                    cl[b] = t1
                    de[k] = t1
                    db[k] = b
                    dr[k] = w >> 3
                    if code == 2:
                        dreq[k] = (addr, False, 0, 0)
                        ph[k] = PH_LD
                        continue
                    sb, wd = _store_lanes(addr, c.ev_f3, c.ev_val)
                    dreq[k] = (addr & ~3, True, wd, sb)
                    if p == PH_DW:
                        ph[k] = PH_F0
                        e, f = ent[k], fi[k]

                # retire, then fetch the next pc; an interrupt or a pc
                # outside SRAM goes to ``_boundary``, which only posts the
                # fetch when this interrupt test fails (``mip`` does not
                # change inside a burst)
                c.minstret += 1
                if rec:
                    rd = e[5]
                    tb += pack(t, c.mhartid, f[4], e[4], rd, c.regs[rd])
                pc = c.pc
                if c.mip and c.mip & c.mie and c.mstatus & MSTATUS_MIE:
                    f = None
                else:
                    if one and de[k] == big:
                        # straight on through the blocks from pc, each
                        # call at most _BLOCK_SPAN cycles long
                        lpc = dl = None
                        while t <= fl:
                            blk = bget(pc)
                            if blk is None:
                                blk = enter(pc, btab, dcache, banks, avoid)
                            if not blk:
                                break
                            res = blk(c, banks, t, min(allowed, t + _BLOCK_SPAN),
                                      dl, btb, reads, c.mhartid)
                            if res is None:
                                break
                            t, lpc, dl = res
                            pc = c.pc
                        if lpc is not None:
                            t1 = na[k] = t + 1
                            ent[k] = dcache[lpc]
                            if dl is not None:  # the data port of its last load
                                a, drv[k] = dl
                                w = (a - sram_lo) >> 2
                                db[k], dr[k] = w & 7, w >> 3
                                dreq[k] = (a, False, 0, 0)
                    f = fget(pc)
                    if f is None and not (pc - sram_lo) >> 2 >> wbits:
                        f = fcache[pc] = _fetch_info(pc, cws, dcache)
                if f is None:
                    ie[k] = big
                    sync(k, t)
                    self._boundary(c, IP[k], t, False)
                    hand[k] = True
                    allowed = guard = t
                    continue
                b = f[0]
                if cl[b] == t1:
                    clash = t1
                cl[b] = t1
                ie[k] = t1
                fi[k] = f

        self.cycle = t
        for k in kr:
            if not hand[k]:
                sync(k, t)

    def _maybe_switch_mode(self) -> None:
        """Apply a pending mode change at the sleep barrier."""
        if self.lockstep and not self.converged:
            return
        for c, _ip, _dp in self.active:
            if not c.sleeping:
                return
        for _c, ip, dp in self.active:
            if ip.pending or dp.pending:
                return
        want = self.odrg.pending_mode
        self.odrg.pending_mode = None
        self._last_irq = self.cycle
        if want == MODE_PERFORMANCE and self.lockstep:
            self.materialize()
            self.odrg.mode = MODE_PERFORMANCE
            self.lockstep = False
            for i, c in enumerate(self.cores):
                c.mhartid = i
                c.held = False
                c.wake_pulse = True
            self._clear_ports()
            self._wire_ports()
        elif want == MODE_LOCKSTEP and not self.lockstep:
            self.odrg.mode = MODE_LOCKSTEP
            self.lockstep = True
            self._restart()

    def _maybe_skip_idle(self, cycle: int, stop_at: int | None, limit: int) -> None:
        """Jump the clock across provably idle stretches (wfi parking)."""
        for c, ip, dp in self.active:
            if not c.sleeping or c.wake_pulse or ip.pending or dp.pending:
                return
        targets = [limit]
        if self.scrub.enabled:
            targets.append(self.scrub.next_cycle)
        if stop_at is not None:
            targets.append(stop_at)
        nxt = min(targets)
        if nxt > cycle + 1:
            self.cycle = nxt - 1

    # ------------------------------------------------------- results

    def outputs_digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.banks.logical_image())
        h.update(bytes(self.uart_out))
        h.update(struct.pack("<iI", -1 if self.exit_code is None else 1,
                             (self.exit_code or 0) & M32))
        h.update(struct.pack("<I", self.checksum_reg & M32))
        return h.hexdigest()

    def _finalize(self) -> RunResult:
        self.materialize()
        self._trace_flush()
        counters = self.banks.counters()
        return RunResult(
            mode=self.config.mode,
            cycles=self.cycle,
            exit_code=self.exit_code,
            timed_out=self.timed_out,
            unrecoverable=self.unrecoverable,
            checksum=self.checksum_reg,
            uart=bytes(self.uart_out),
            instret=[c.minstret for c in self.cores],
            mismatch_count=list(self.odrg.mismatch_count),
            resync_events=self.odrg.resync_events,
            ecc_correctable=counters["correctable"],
            ecc_uncorrectable=counters["uncorrectable"],
            scrub_corrections=self.scrub.corrections,
            scrub_uncorrectable=self.scrub.uncorrectable_seen,
            latent_uncorrectable=self.banks.latent_uncorrectable(),
            conflict_stalls=self.xbar.conflict_stalls,
            trace_hash=self._trace_sha.hexdigest()
            if self.config.record_trace else None,
            outputs_digest=self.outputs_digest(),
            trace_lines=self.trace_lines,
            defuse=None if self._reads is None else self._def_use(),
        )

    def _def_use(self) -> DefUse:
        last_irq = self._last_irq
        if any(c.mip for c in self.cores):
            last_irq = self.cycle
        return DefUse(list(self._reads), dict(self._writes),
                      self._loc_reads, last_irq,
                      None if self._stores is None else tuple(self._stores),
                      self._ecc_regs)

    # ------------------------------------------------- snapshot/restore

    def snapshot(self) -> dict:
        """The complete state; a carried dormant fault is recorded beside
        the converged cores, not split."""
        self._mirror()
        return {
            "cycle": self.cycle,
            "flags": _flags(self),
            "uart": bytes(self.uart_out),
            **{name: getattr(self, name).snapshot()
               for name in self._COMPONENTS},
            "cores": [c.dump_state(self.cycle) for c in self.cores],
            "dormant": (self.dorm_hart, dict(self.dorm_vals)),
            "vports": [p.state_tuple() for p in self.vports],
            "cports": [[q.state_tuple() for q in pair] for pair in self.cports],
            "rom": list(self.rom),
        }

    def restore(self, snap: dict) -> None:
        self.cycle = snap["cycle"]
        for name, value in zip(_FLAGS, snap["flags"]):
            setattr(self, name, value)
        self.uart_out = bytearray(snap["uart"])
        for name in self._COMPONENTS:
            getattr(self, name).restore(snap[name])
        for c, state in zip(self.cores, snap["cores"]):
            c.load_state(state, self.cycle)
        for p, t in zip(self.vports, snap["vports"]):
            p.load_state(t)
        for pair, ts in zip(self.cports, snap["cports"]):
            for q, t in zip(pair, ts):
                q.load_state(t)
        self.rom = list(snap["rom"])
        self._trace_reset()
        self._dormant_set(*snap["dormant"])
        self._wire_ports()
