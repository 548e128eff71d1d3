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

With ``fast_loop`` on, two fused loops stand in for this engine where
they can: ``_fast_burst`` for one active core and ``_event_burst`` for
several cores in performance mode.  Both stop at cycle boundaries and
give exactly the reference engine's results.  Neither decides anything
about a dormant fault: an instruction that touches one is handed back
to the reference helpers, which alone split, replay or erase it.
``snapshot()`` records a carried fault without splitting the group, and
``restore()`` reinstates exactly the snapshot's (none, for a fault-free
one).

Address map (all register accesses word-sized):

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

from . import memory as mem
from .asm import Program, assemble, entry_address
from .core import (
    Core, M32, PH_F0, PH_F1, PH_EX, PH_LD, PH_DW,
    EXC_IACCESS_FAULT, EXC_LACCESS_FAULT, EXC_SACCESS_FAULT,
    MSTATUS_MIE, MIE_MEIE, MIE_MSIE, CORE_LOC_TAGS,
    decode16, decode32,
)
from .interconnect import (
    Crossbar, Port, R_DEV, R_NONE, R_ROM, R_SRAM,
    RS_FAULT, RS_OK, RS_UNCORRECTABLE, VOTED,
)
from .odrg import (
    ALL_DIFFER, MODE_LOCKSTEP, MODE_PERFORMANCE, OdrgUnit,
    RESYNC_DONE, RESYNC_HEALTHY_GAP, RESYNC_IDLE, RESYNC_IN_PROGRESS,
    RESYNC_REQUESTED, RESYNC_STREAK_LIMIT, vote,
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

STACK_TOP = SRAM_END
STACK_BYTES = 2048

MIP_MEIP = MIE_MEIE
MIP_MSIP = MIE_MSIE

FATAL_EXIT_BASE = 0xDEAD0000  # unhandled trap: exit code 0xDEAD0000 | cause

# scheduler-side convergence probe period while the group is split
CONVERGENCE_CHECK_PERIOD = 64

_TRACE_REC = struct.Struct("<QBIIBI")
_TRACE_FLUSH = 1 << 16      # bytes of records the reference engine buffers

# core fault location -> (its bit in a register mask, its CSR tag)
_LOC_MASKS = {f"x{i}": (1 << i, 0) for i in range(1, 32)}
_LOC_MASKS.update((loc, (0, tag)) for loc, tag in CORE_LOC_TAGS.items())


def _trace_line(now: int, hart: int, pc: int, word: int, mnem: str, rd: int,
                val: int) -> str:
    """The ``trace_lines`` text of one retired instruction."""
    return (f"{now} {hart} {pc:#010x} {word & M32:#010x} {mnem} "
            f"x{rd}={val:#010x}")


def _store_lanes(addr: int, f3: int, val: int) -> tuple[int, int]:
    """(byte strobes, lane-positioned data) of a sb/sh/sw to ``addr``."""
    if f3 == 2:
        return 0xF, val
    if f3 == 1:
        sh = addr & 2
        return 0x3 << sh, (val & 0xFFFF) << (sh * 8)
    b = addr & 3
    return 1 << b, (val & 0xFF) << (b * 8)


def _load_lanes(word: int, addr: int, f3: int) -> int:
    """The value a lb/lbu/lh/lhu at ``addr`` takes from its bus word."""
    if f3 & 1:  # lh/lhu
        v = (word >> ((addr & 2) * 8)) & 0xFFFF
        if f3 == 1 and v & 0x8000:
            v |= 0xFFFF0000
    else:       # lb/lbu
        v = (word >> ((addr & 3) * 8)) & 0xFF
        if f3 == 0 and v & 0x80:
            v |= 0xFFFFFF00
    return v


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
    p.ins("lw", "t2", 0x04, "t1")          # resync_state
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
    p.ins("sw", "x3", 0, "x1")
    p.label("_halt")
    p.ins("j", "_halt")

    p.label("_soft_irq")
    p.ins("csrr", "x1", "mhartid")
    p.ins("slli", "x1", "x1", 2)
    p.ins("la", "x3", ODRG_BASE + 0x2C)    # msip[hart]
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
    p.ins("sw", "sp", 0x1C, "x3")          # saved_sp
    p.ins("sw", "x0", 0x14, "x3")          # trigger: reset pulse fires here
    p.label("_spin")
    p.ins("j", "_spin")

    # Post-reset reload: runs with t0=hartid, t1=ODRG base from the
    # stub head.  CSRs are staged through t4 before the bulk register
    # restore overwrites it; the frame is zeroed afterwards using only
    # x0/sp so the stack matches a run that never resynced.
    p.label("_restore")
    p.ins("lw", "sp", 0x1C, "t1")          # saved_sp
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
    p.ins("sw", "x0", 0x18, "t1")          # resync done
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

    ``sram_words`` holds one byte per SRAM word (linear word index),
    nonzero if a core or the scrubber read or wrote the word.
    ``reg_reads`` and ``csr_reads`` are the unions of the register and
    CSR read masks of every decoded instruction; both are all ones if
    the run stored to a word it also executed from.  ``last_irq_cycle``
    is the last cycle that took a trap, changed an interrupt line or
    switched the lockstep mode (the final cycle if a line stays raised).
    """
    sram_words: bytes
    reg_reads: int
    csr_reads: int
    last_irq_cycle: int


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
_LOAD_RESP = -1     # ``_fast_burst`` hands a load response to ``_consume_load``


def _fetch_info(pc: int, words: list, dcache: dict) -> tuple:
    """(bank, row, that bank's codewords, one-word decode-cache entry or
    ``_MISS``, pc) of the fetch of SRAM address ``pc``."""
    w = (pc - SRAM_BASE) >> 2
    e = dcache.get(pc, _MISS)
    return w & 7, w >> 3, words[w & 7], e if e[1] == 1 else _MISS, pc


class _Lanes:
    """The awake cores of ``Soc._event_burst``, one list entry each.

    ``ph`` is the core's phase and ``xe`` the cycle its multi-cycle
    operation ends; ``ent`` the decode-cache entry of its last
    instruction (until the first, a stand-in with its current fields).
    A fetch request is an eligible cycle ``ie`` (``_NEVER`` when none is
    posted) and ``fi``, the ``_fetch_info`` of its pc; a data request an
    eligible cycle ``de``, bank, row and ``dreq`` = (addr, is_write,
    wdata, strobes), with ``drv`` the last response the burst gave the
    data port.
    """

    __slots__ = ("C", "IP", "DP", "ph", "xe", "ent", "ie", "fi",
                 "de", "db", "dr", "dreq", "drv")

    @classmethod
    def collect(cls, soc: "Soc", cy: int) -> "_Lanes | None":
        """The awake cores at cycle boundary ``cy``; None when none is
        awake or a core's state is one the burst leaves to the
        reference engine."""
        self = cls()
        for name in cls.__slots__:
            setattr(self, name, [])
        words = [b.cws for b in soc.banks.banks]
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
            self.ent.append((None, 1, 0, 0, c.cur_word, c.cur_rd,
                             soc._mnemonic(c) if soc.trace_lines is not None
                             else ""))
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


class Soc:
    """One simulation instance; nothing is shared between instances."""

    def __init__(self, config: SocConfig | None = None):
        self.config = config or SocConfig()
        self.cycle = 0
        self.banks = mem.BankArray()
        self.rom: list[int] = [0] * (ROM_SIZE // 4)
        self.odrg = OdrgUnit(self.config.odrg_mode())
        self.xbar = Crossbar()
        self.scrub = mem.Scrubber(self.config.scrub_interval,
                                  self.config.scrub_enabled)
        self.uart_out = bytearray()
        self.checksum_reg = 0
        self.running = False
        self.exited = False
        self.exit_code: int | None = None
        self.timed_out = False
        self.unrecoverable = False
        self.entry = SRAM_BASE
        self.loaded = False

        # a proxy, not a reference: cores read the clock through it, and a
        # Soc -> cores -> Soc cycle would keep every finished instance (and
        # its memory image) alive until a full garbage collection
        soc_ref = weakref.proxy(self)
        self.cores = [Core(i, soc_ref) for i in range(3)]
        self.vports = (Port(VOTED, True), Port(VOTED, False))   # (D, I)
        self.cports = [(Port(i, True), Port(i, False)) for i in range(3)]
        self.converged = True
        self.lockstep = self.odrg.mode == MODE_LOCKSTEP
        self.bus_ports: list[Port] = []
        self.active: list[tuple[Core, Port, Port]] = []

        self.dcache: dict[int, tuple] = {}
        # retirement records not yet fed to the running trace hash
        self.tracebuf = bytearray()
        self._trace_sha = hashlib.sha256()
        self.trace_lines: list[str] | None = [] if self.config.trace_lines else None
        self.rec_trace = self.config.record_trace
        self._diverge_check_at = 0
        # dormant lockstep fault: the minority's deviating locations are
        # carried beside the converged fast path until something reads them
        self._dormant_clear()
        # def/use log of a golden run: one byte per SRAM word, bit 0 read,
        # bit 1 written (None when not recording)
        self._touched: bytearray | None = None
        self._last_irq = -1

    def record_def_use(self) -> None:
        """Log what the coming run reads, for ``RunResult.defuse``."""
        self._touched = bytearray(mem.TOTAL_WORDS)
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
        self.rom = rom_words(entry)
        self.entry = entry
        self.loaded = True
        self.reset()

    def reset(self) -> None:
        self.cycle = 0
        self.running = True
        self.exited = False
        self.exit_code = None
        self.timed_out = False
        self.unrecoverable = False
        self.uart_out = bytearray()
        self.checksum_reg = 0
        self.tracebuf = bytearray()
        self._trace_sha = hashlib.sha256()
        if self.trace_lines is not None:
            self.trace_lines = []
        self.odrg = OdrgUnit(self.config.odrg_mode())
        self.lockstep = self.odrg.mode == MODE_LOCKSTEP
        self.scrub.next_cycle = self.scrub.interval
        self.scrub.next_address = 0
        self.scrub.corrections = 0
        self.scrub.uncorrectable_seen = 0
        self._diverge_check_at = 0
        self._restart(self.config.release_mask())

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
        if page in (ODRG_BASE, MEMCTL_BASE, UART_BASE, SIMCTL_BASE):
            return R_DEV, 0, 0
        return R_NONE, 0, 0

    # ---------------------------------------------------------- devices

    def _dev_read(self, addr: int) -> int | None:
        page = addr & DEV_PAGE
        off = addr & 0xFFFFF
        if page == ODRG_BASE:
            return self.odrg.read(off, self)
        if page == MEMCTL_BASE:
            return self._memctl_read(off)
        if page == UART_BASE:
            if off == 0x4:
                return 1  # tx always ready
            return 0
        if page == SIMCTL_BASE:
            if off == 0x4:
                return self.checksum_reg
            return 0
        return None

    def _dev_write(self, addr: int, value: int) -> None:
        page = addr & DEV_PAGE
        off = addr & 0xFFFFF
        value &= M32
        if page == ODRG_BASE:
            self.odrg.write(off, value, self)
        elif page == MEMCTL_BASE:
            self._memctl_write(off, value)
        elif page == UART_BASE:
            if off == 0x0:
                self.uart_out.append(value & 0xFF)
        elif page == SIMCTL_BASE:
            if off == 0x0:
                self.exited = True
                self.running = False
                self.exit_code = value
            elif off == 0x4:
                self.checksum_reg = value

    def _memctl_read(self, off: int) -> int | None:
        banks = self.banks.banks
        if off < 0x40:
            bank, hi = divmod(off, 8)
            if bank < 8:
                wd = banks[bank].write_disable
                return (wd >> 32) & 0x7F if hi else wd & M32
        elif 0x40 <= off < 0x60:
            return banks[(off - 0x40) >> 2].correctable_count & M32
        elif 0x60 <= off < 0x80:
            return banks[(off - 0x60) >> 2].uncorrectable_count & M32
        elif off == 0x80:
            return 1 if self.scrub.enabled else 0
        elif off == 0x84:
            return self.scrub.interval
        elif off == 0x88:
            return self.scrub.next_address
        elif off == 0x8C:
            return self.scrub.corrections & M32
        elif off == 0x90:
            return self.scrub.uncorrectable_seen & M32
        return None

    def _memctl_write(self, off: int, value: int) -> None:
        banks = self.banks.banks
        if off < 0x40:
            bank, hi = divmod(off, 8)
            if bank < 8:
                b = banks[bank]
                if hi:
                    b.write_disable = (b.write_disable & M32) | ((value & 0x7F) << 32)
                else:
                    b.write_disable = (b.write_disable & ~M32) | value
        elif 0x40 <= off < 0x60:
            banks[(off - 0x40) >> 2].correctable_count = 0
        elif 0x60 <= off < 0x80:
            banks[(off - 0x60) >> 2].uncorrectable_count = 0
        elif off == 0x80:
            self.scrub.enabled = bool(value & 1)
            if self.scrub.enabled:
                self.scrub.next_cycle = self.cycle + self.scrub.interval
        elif off == 0x84:
            self.scrub.interval = max(1, value)
            self.scrub.next_cycle = self.cycle + self.scrub.interval

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

    def _resync_reset_pulse(self) -> None:
        """Guest wrote the trigger register: reset all three cores."""
        o = self.odrg
        o.resync_state = RESYNC_IN_PROGRESS
        self._last_irq = self.cycle
        self._restart()

    def _resync_done(self) -> None:
        o = self.odrg
        o.resync_state = RESYNC_DONE
        o.resync_events += 1
        o.last_done_cycle = self.cycle

    # ------------------------------------------------------ fault hooks

    CORE_FAULT_LOCS = (tuple(f"x{i}" for i in range(1, 32)) + ("pc",)
                       + tuple(CORE_LOC_TAGS))

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
    # and ``dorm_regs``/``dorm_csrs`` mask those locations.  The group
    # splits into real 3-way stepping the moment an instruction reads a
    # deviating location, any trap or interrupt line fires, or a second
    # core gets faulted; a write to the deviating location erases it
    # (both sides would write identical data), possibly re-converging
    # the group.  Only the reference helpers (``_dispatch``, ``_apply``,
    # ``_consume_fetch``, ``_consume_load``) take these decisions: the
    # fused burst hands any instruction touching the set back to them.

    def _dormant_set(self, hart: int, vals: dict[str, int]) -> None:
        """Carry ``vals`` for ``hart``: the one writer of ``dorm_*``."""
        regs = 0
        csrs = 0
        for loc in vals:
            r, t = _LOC_MASKS[loc]
            regs |= r
            csrs |= t
        self.dorm_hart = hart if vals else -1
        self.dorm_regs = regs
        self.dorm_csrs = csrs
        self.dorm_vals = vals

    def _dormant_clear(self) -> None:
        self._dormant_set(-1, {})

    def _dormant_inject(self, hart: int, loc: str, bit: int) -> None:
        maj = self.cores[0].read_loc(loc, self.cycle)
        vals = dict(self.dorm_vals)
        vals[loc] = ((maj + vals.get(loc, 0)) ^ (1 << bit)) - maj
        self._dormant_set(hart, {k: d for k, d in vals.items() if d})

    def _dormant_erase(self, wr: int, cw: int) -> None:
        """Drop the carried locations that an instruction overwrote
        (register mask ``wr``, CSR mask ``cw``)."""
        if wr & self.dorm_regs or cw & self.dorm_csrs:
            self._dormant_set(self.dorm_hart, {
                loc: d for loc, d in self.dorm_vals.items()
                if not (_LOC_MASKS[loc][0] & wr or _LOC_MASKS[loc][1] & cw)})

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
        rd = c.cur_rd
        if self.rec_trace:
            tb = self.tracebuf
            tb += _TRACE_REC.pack(
                now, c.mhartid, c.cur_pc, c.cur_word & M32, rd, c.regs[rd])
            if len(tb) >= _TRACE_FLUSH:
                self._trace_flush()
        if self.trace_lines is not None:
            self.trace_lines.append(_trace_line(
                now, c.mhartid, c.cur_pc, c.cur_word, self._mnemonic(c), rd,
                c.regs[rd]))

    def _mnemonic(self, c: Core) -> str:
        """The trace text of core ``c``'s current instruction: its
        decode-cache entry's, or a fresh decode's on a miss."""
        pc, word = c.cur_pc, c.cur_word
        entry = self.dcache.get(pc)
        if entry is not None and entry[4] == word:
            return entry[6]
        return (decode32 if word & 3 == 3 else decode16)(word, pc)[2]

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
        store to ROM or to an unmapped address faults at once."""
        addr = c.ev_addr
        region, bank, row = self._route(addr)
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
        if self.dorm_hart >= 0 and (entry[7] & self.dorm_regs
                                    or entry[9] & self.dorm_csrs or c.mip):
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
                self._dormant_erase(entry[8], entry[10])
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
            val = _load_lanes(val, c.ev_addr, c.ev_f3)
        rd = c.ev_rd
        if rd:
            c.regs[rd] = val
            if self.dorm_hart >= 0:
                self._dormant_erase(1 << rd, 0)
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
                    self._dev_write(p.addr, p.wdata)
                    p.respond(0, RS_OK)
                else:
                    v = self._dev_read(p.addr)
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
            self._scrub_tick(now, blocked)

    def _scrub_tick(self, s: int, blocked: bool) -> int:
        """Run the scrubber tick due at cycle ``s``; returns the next."""
        w = self.scrub.tick(self.banks, s, blocked)
        if w >= 0 and self._touched is not None:
            self._touched[w] |= 1
        self._trace_flush()
        return self.scrub.next_cycle

    def _trace_flush(self) -> None:
        """Feed the buffered retirement records to the trace hash and
        empty the buffer in place (the bursts hold it as a local)."""
        if self.tracebuf:
            self._trace_sha.update(self.tracebuf)
            self.tracebuf.clear()

    def _bank_op(self, p: Port, bank: mem.Bank, now: int) -> None:
        touched = self._touched
        if touched is not None:
            touched[p.row << 3 | p.bank] |= 2 if p.is_write else 1
        if p.is_write:
            bank.write(p.row, p.wdata, p.strobes)
            if p.strobes != 0xF:
                bank.busy_until = now + 1
            p.pending = False
            p.has_resp = True
            p.resp_val = 0
            p.resp_status = RS_OK
        else:
            data, status = bank.read(p.row)
            p.respond(data, status)

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
                return None
            if fast:
                if len(self.active) > 1 and not self.lockstep:
                    self._event_burst(stop_at, limit)
                elif len(self.active) == 1:
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
            if self.lockstep and not self.converged:
                self._broadcast_resps()
                for c, ip, dp in self.active:
                    self._tick_core(c, ip, dp, cycle)
                if self.running:
                    self._vote_cycle(cycle)
                    if self.odrg.resync_state == RESYNC_DONE:
                        self.odrg.resync_state = RESYNC_IDLE
                    if (self.converged is False and self.running
                            and cycle >= self._diverge_check_at):
                        self._try_collapse()
                        self._diverge_check_at = cycle + CONVERGENCE_CHECK_PERIOD
            else:
                for c, ip, dp in self.active:
                    self._tick_core(c, ip, dp, cycle)
                if self.odrg.resync_state == RESYNC_DONE:
                    self.odrg.resync_state = RESYNC_IDLE
                    if self.lockstep and not self.converged:
                        self._try_collapse()
            if self.odrg.pending_mode is not None:
                self._maybe_switch_mode()
            if self.running:
                self._maybe_skip_idle(cycle, stop_at, limit)
                cycle = self.cycle
        self.cycle = cycle
        return self._finalize()

    def _fast_burst(self, stop_at: int | None, limit: int) -> None:
        """Fused single-core execution between scheduler events.

        Exact shortcut of the general H1/H2 loop for the common case
        (one active core in fetch phase, idle data port): whole
        instructions are processed with local state.  Scrubber ticks run
        inline under ``_bus_cycle``'s rule.  A store is granted one
        cycle after it retires, with the next fetch, and stays a local
        pending write until that fetch is taken, so a return before it
        leaves the store posted on the data port.  A burst never
        crosses ``stop_at`` or the cycle limit.

        Each pc's fetch is checked once per burst (an SRAM pc, an
        untainted row whose word matches a one-word decode-cache entry,
        no carried dormant fault read or written) and the result kept in
        a local table.  Only a granted store changes a codeword or
        taints a row, so it drops the two pcs of the word it writes;
        loads and scrubber steps only correct rows the table never
        holds.  The busy-bank test stays per fetch.  The carried fault,
        ``mip`` and hence the interrupt test change only outside a
        burst or, for the interrupt enables, at an instruction with CSR
        mask bits; ``cycle`` and ``minstret`` are written before such
        an instruction (its closure reads them) and at the exit, the
        current-instruction fields at the exit only.

        It ends at any complication through one exit, which leaves the
        SoC in the reference engine's end-of-cycle state and then hands
        the current instruction to the reference helpers: its fetch is
        reposted when the burst cannot take it (a ROM or unmapped pc, a
        decode miss or spanning fetch, a busy or tainted fetch bank, or
        an instruction that reads or writes a carried dormant fault);
        once executed, its action code goes to ``_apply`` (a multi-cycle
        op or load past the limit, a ROM, device or unmapped load, a
        store the general engine must grant, ``wfi``, a trap, an
        interrupt after it), and a load answered uncorrectable goes to
        ``_consume_load``.  Only those helpers split, replay or erase a
        dormant fault.
        """
        c, ip, dp = self.active[0]
        banks = self.banks.banks
        dget = self.dcache.get
        tb = self.tracebuf if self.rec_trace else None
        lines = self.trace_lines
        traced = tb is not None or lines is not None
        pack = _TRACE_REC.pack
        scrub = self.scrub
        touched = self._touched
        big = 1 << 62
        allowed = limit if stop_at is None else min(limit, stop_at)
        cy = self.cycle
        stick = max(scrub.next_cycle, cy + 1) if scrub.enabled else big
        guard = min(stick, allowed + 1)     # the next tick or the end
        pc = c.pc
        regs = c.regs
        m32 = M32
        sram_lo, sram_hi = SRAM_BASE, SRAM_END
        hart = c.mhartid
        rr_next = -1 if ip.core_idx == VOTED else (ip.core_idx + 1) % 3
        dorm = self.dorm_hart >= 0
        mip = c.mip
        irq = mip & c.mie and c.mstatus & MSTATUS_MIE
        # pc -> (closure, fetch bank, masked word, rd, CSR mask bits, pc,
        # decode-cache entry) of a fetch checked in this burst
        tab: dict[int, tuple] = {}
        ret = 0         # retired since ``c.minstret`` was last written
        hold_bank = hold_until = -1  # a fetch that lost to a store waits
        pend = None     # (bank index, row, word index, addr, wdata, strobes)
        fent = None     # the table entry of the last instruction taken here
        dlast = None    # (addr, is_write, wdata, strobes, resp_val, resp_status)
                        # of the last data access made here
        hand = None     # what the exit hands on (see the docstring)

        while True:
            if pend is not None and sram_lo <= pc < sram_hi and \
                    ((pc - sram_lo) >> 2) & 7 == pend[0]:
                # this fetch loses arbitration to the posted store and
                # waits for its grant (and merge, if sub-word)
                g = cy + 1
                nxt = g if pend[5] == 0xF else g + 1
                if nxt > allowed:
                    break
                hold_bank = pend[0]
                dlast = self._fast_store(pend, g, tab)
                pend = None
                self.xbar.conflict_stalls += 1
                if rr_next >= 0:
                    self.xbar.rr[hold_bank] = rr_next
                hold_until = cy = nxt
            f = cy + 1
            try:
                t = tab[pc]
            except KeyError:
                if not sram_lo <= pc < sram_hi:
                    break
                widx = (pc - sram_lo) >> 2
                bank = banks[widx & 7]
                row = widx >> 3
                if bank.tainted and row in bank.tainted:
                    break
                entry = dget(pc)
                if entry is None or entry[2] != bank.cws[row] & m32 or \
                        entry[1] == 2:
                    break
                if dorm and ((entry[7] | entry[8]) & self.dorm_regs
                             or (entry[9] | entry[10]) & self.dorm_csrs
                             or mip):
                    break   # the reference helpers split, replay or erase
                t = tab[pc] = (entry[0], bank, entry[4] & m32, entry[5],
                               entry[9] | entry[10], pc, entry)
            if t[1].busy_until >= f:
                break
            # the instruction is taken: grant the store posted with
            # its fetch, then run the ticks due up to its fetch
            if f >= guard:
                if f > allowed:
                    break
                if pend is not None:
                    dlast = self._fast_store(pend, f, tab)
                    pend = None
                stick = self._fast_ticks(stick, f, hold_bank, hold_until)
                guard = min(stick, allowed + 1)
            elif pend is not None:
                dlast = self._fast_store(pend, f, tab)
                pend = None
            cy = f
            fent = t
            if t[4]:
                self.cycle = f
                c.minstret += ret
                ret = 0
                code = t[0](c)
                irq = mip & c.mie and c.mstatus & MSTATUS_MIE
            else:
                code = t[0](c)

            if code:
                if code == 1:
                    extra = c.ev_extra
                    if cy + extra > allowed:
                        hand = 1
                        break
                    cy += extra
                    c.exec_left = 0
                    c.exec_retire = True
                elif code == 2:  # load
                    addr = c.ev_addr
                    d = cy + 1
                    if sram_lo <= addr < sram_hi:
                        widx = (addr - sram_lo) >> 2
                        bank = banks[widx & 7]
                        while bank.busy_until >= d:
                            d += 1
                    else:
                        d = big     # a ROM, device or unmapped target
                    if d > allowed:
                        hand = 2
                        break
                    row = widx >> 3
                    if touched is not None:
                        touched[widx] |= 1
                    status = RS_OK
                    if bank.tainted and row in bank.tainted:
                        data, status = bank.read(row)
                    else:
                        data = bank.cws[row] & m32
                    dlast = (addr, False, 0, 0, data, status)
                    if status == RS_UNCORRECTABLE:
                        cy = d
                        hand = _LOAD_RESP
                        break
                    cy = d
                    if c.ev_f3 != 2:
                        data = _load_lanes(data, addr, c.ev_f3)
                    rd = c.ev_rd
                    if rd:
                        regs[rd] = data
                elif code == 3:  # store: granted with the next fetch
                    addr = c.ev_addr
                    widx = (addr - sram_lo) >> 2
                    if not sram_lo <= addr < sram_hi or \
                            banks[widx & 7].busy_until > cy:
                        # a ROM, device or unmapped target, or a bank
                        # still busy: the general engine takes it
                        hand = 3
                        break
                    strobes, wdata = _store_lanes(addr, c.ev_f3, c.ev_val)
                    pend = (widx & 7, widx >> 3, widx, addr, wdata, strobes)
                else:   # wfi or a synchronous trap
                    hand = code
                    break

            # retire at cy, then take an interrupt or go on
            if irq:
                hand = 0
                break
            ret += 1
            if traced:
                rd = t[3]
                if tb is not None:
                    tb += pack(cy, hart, pc, t[2], rd, regs[rd])
                if lines is not None:
                    lines.append(_trace_line(cy, hart, pc, t[2], t[6][6],
                                             rd, regs[rd]))
            pc = c.pc

        # the exit: what the core and ports hold at this boundary under
        # the reference engine (the last instruction, data access and
        # fetch made here, a store not yet granted), the ticks due by
        # then, then the hand-on
        self.cycle = cy
        c.minstret += ret
        if dlast is not None:
            addr, w, wdata, strobes, v, st = dlast
            widx = (addr - SRAM_BASE) >> 2
            dp.load_state((False, R_SRAM, widx & 7, widx >> 3, addr, w, wdata,
                           strobes, False, v, st))
        if pend is not None:
            bidx, row, _widx, addr, wdata, strobes = pend
            dp.want(R_SRAM, bidx, row, addr & ~3, True, wdata, strobes)
        if fent is not None:
            fpc = fent[5]
            c.cur_pc = fpc
            c.cur_word = fent[6][4]
            c.cur_rd = fent[3]
            widx = (fpc - SRAM_BASE) >> 2
            ip.load_state((False, R_SRAM, widx & 7, widx >> 3, fpc & ~3,
                           False, 0, 0, False, fent[6][2], RS_OK))
        if stick <= cy:
            self._fast_ticks(stick, cy, hold_bank, hold_until)
        self._trace_flush()
        if hand is None:
            self._post_fetch(c, ip)
        elif hand == _LOAD_RESP:
            c.phase = PH_LD
            dp.has_resp = True
            self._consume_load(c, dp, ip, cy)
        else:   # in the phase the reference engine dispatches it from
            c.phase = PH_F0
            self._apply(c, ip, dp, fent[6], hand, cy)

    def _fast_store(self, pend: tuple, g: int, tab: dict) -> tuple:
        """Grant a fast-burst store at cycle ``g``, dropping the pcs of
        the word it writes from the burst's fetch table ``tab``; returns
        the access as ``_fast_burst``'s ``dlast``."""
        bidx, row, widx, addr, wdata, strobes = pend
        bank = self.banks.banks[bidx]
        bank.write(row, wdata, strobes)
        if self._touched is not None:
            self._touched[widx] |= 2
        if strobes != 0xF:
            bank.busy_until = g + 1
        a = addr & ~3
        tab.pop(a, None)
        tab.pop(a + 2, None)
        return a, True, wdata, strobes, 0, RS_OK

    def _fast_ticks(self, s: int, upto: int, hold_bank: int,
                    hold_until: int) -> int:
        """Run the scrubber ticks of a fast burst from cycle ``s`` up to
        ``upto``.  A tick is blocked by a busy bank or by a fetch that
        lost a store-fetch conflict (on ``hold_bank`` through
        ``hold_until``).  Returns the cycle of the next tick."""
        banks = self.banks.banks
        while s <= upto:
            target = self.scrub.next_address & 7
            blocked = banks[target].busy_until >= s or \
                (target == hold_bank and s <= hold_until)
            s = self._scrub_tick(s, blocked)
        return s

    def _event_burst(self, stop_at: int | None, limit: int) -> None:
        """Event-driven execution of several cores in performance mode.

        Starts at the cycle boundary ``self.cycle`` and visits only the
        cycles in which an awake core has an event: a bank request
        (fetch, load or store) to grant, or the end of a multi-cycle
        operation.  Each core's requests live in its ``_Lanes`` entry.  A
        cycle's grants come first, with the crossbar's round robin on a
        shared bank and busy banks delaying their requests, then the
        cores step in ``self.active`` order, then a due scrubber tick
        runs under ``_bus_cycle``'s rule.  What the local state cannot
        express (device and ROM accesses, decode misses, spanning
        fetches, bad responses, traps, ``wfi``, interrupts) is written
        back and handed to the reference helpers, and the burst ends
        with that cycle; it also ends at ``stop_at`` and the cycle
        limit.  Every return leaves the ports and core FSM fields as
        the reference engine holds them at that cycle boundary.
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
        irq = [bool(c.mip) for c in C]  # mip only changes on device writes
        hid = [c.mhartid for c in C]
        na = list(map(min, ie, de, xe))
        kr = range(n)

        banks = self.banks.banks
        cws = [b.cws for b in banks]
        tnt = [b.tainted for b in banks]
        clean = not any(tnt)    # no tainted row: reads need no decode
        busy = [b.busy_until for b in banks]
        dcache = self.dcache
        fcache: dict[int, tuple] = {}   # pc -> _fetch_info
        fget = fcache.get
        rec = self.rec_trace
        lines = self.trace_lines
        tb = self.tracebuf
        pack = _TRACE_REC.pack
        touched = self._touched
        xbar = self.xbar
        scrub = self.scrub
        stick = max(scrub.next_cycle, cy + 1) if scrub.enabled else big
        allowed = limit if stop_at is None else min(limit, stop_at)
        sram_lo = SRAM_BASE
        wbits = (mem.TOTAL_WORDS - 1).bit_length()  # w >> wbits: outside SRAM
        m32 = M32

        # Every request claims its bank for the cycle it will act in (a
        # busy bank claims itself); a second claim marks that cycle as
        # one with a shared or busy bank, which alone needs arbitration.
        t1 = cy + 1
        cl = [-1] * len(busy)
        for b, v in enumerate(busy):
            if v >= t1:
                cl[b] = t1
        clash = -1
        for k in kr:
            for e, b in ((ie[k], fi[k][0]), (de[k], db[k])):
                if e == t1:
                    if cl[b] == t1:
                        clash = t1
                    cl[b] = t1

        stop = False
        guard = min(stick, allowed + 1)
        while True:
            t = min(na)
            tick_now = False
            if t >= guard:
                if stick < t:
                    if stick > allowed:
                        t = allowed
                        break
                    stick = self._lane_tick(stick, lanes)
                    guard = min(stick, allowed + 1)
                    continue
                if t > allowed:
                    t = allowed
                    break
                tick_now = t == stick
            self.cycle = t
            t1 = t + 1
            # H1 on a cycle with a shared or busy bank: which requests
            # wait (bit 2k: the fetch of core k, bit 2k+1: its data)
            slow = clash == t
            if slow:
                lose = 0
                want: dict[int, list] = {}
                for k in kr:
                    if na[k] != t:
                        continue
                    if de[k] <= t:
                        b = db[k]
                        if busy[b] >= t:
                            lose |= 2 << 2 * k
                        else:
                            want.setdefault(b, []).append((DP[k], 2 << 2 * k))
                    if ie[k] <= t:
                        b = fi[k][0]
                        if busy[b] >= t:
                            lose |= 1 << 2 * k
                        else:
                            want.setdefault(b, []).append((IP[k], 1 << 2 * k))
                for b, g in want.items():
                    if len(g) > 1:
                        win = xbar.arbitrate([p for p, _bit in g], b)
                        for p, bit in g:
                            if p is not win:
                                lose |= bit

            for k in kr:
                if na[k] != t:
                    continue
                na[k] = t1
                c = C[k]
                p = ph[k]
                if de[k] <= t and p != PH_LD:   # a posted store
                    b = db[k]
                    if slow and lose >> 2 * k & 2:
                        if cl[b] == t1:
                            clash = t1
                        cl[b] = t1
                    else:
                        rq = dreq[k]
                        row = dr[k]
                        banks[b].write(row, rq[2], rq[3])
                        if tnt[b]:
                            clean = False
                        if touched is not None:
                            touched[row << 3 | b] |= 2
                        if rq[3] != 0xF:
                            busy[b] = banks[b].busy_until = t1
                            if cl[b] == t1:
                                clash = t1
                            cl[b] = t1
                        drv[k] = 0
                        de[k] = big
                    if p == PH_F0 and ie[k] > t:
                        continue    # its fetch was posted later

                if p == PH_F0:
                    f = fi[k]
                    b = f[0]
                    if slow and lose >> 2 * k & 1:
                        if cl[b] == t1:
                            clash = t1
                        cl[b] = t1
                        continue
                    row = f[1]
                    if touched is not None:
                        touched[row << 3 | b] |= 1
                    if clean or row not in tnt[b]:
                        v = f[2][row] & m32
                    else:
                        v, st = banks[b].read(row)
                        if st:
                            lanes.to_fetch(self, k, t, v, st)
                            hand[k] = stop = True
                            continue
                    e = f[3]
                    if e[2] != v:   # a miss, a spanning or a stale entry
                        lanes.to_fetch(self, k, t, v, RS_OK)
                        hand[k] = stop = True
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
                        hand[k] = stop = True
                        continue
                    ph[k] = PH_F0
                    e, f = ent[k], fi[k]
                    code = 0
                elif p == PH_LD:
                    b = db[k]
                    if slow and lose >> 2 * k & 2:
                        if cl[b] == t1:
                            clash = t1
                        cl[b] = t1
                        continue
                    row = dr[k]
                    if touched is not None:
                        touched[row << 3 | b] |= 1
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
                            hand[k] = stop = True
                            continue
                    drv[k] = v
                    if c.ev_f3 != 2:
                        v = _load_lanes(v, c.ev_addr, c.ev_f3)
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
                    if code > 3:    # wfi or a trap
                        sync(k, t)
                        self._apply(c, IP[k], DP[k], e, code, t)
                        hand[k] = stop = True
                        continue
                    addr = c.ev_addr
                    w = (addr - sram_lo) >> 2
                    if w >> wbits:  # a ROM, device or unmapped target
                        sync(k, t)
                        self._issue_data(c, IP[k], DP[k], code, t)
                        hand[k] = stop = True
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

                # retire, then take an interrupt or fetch the next pc
                c.minstret += 1
                rd = e[5]
                if rec:
                    tb += pack(t, hid[k], f[4], e[4], rd, c.regs[rd])
                if lines is not None:
                    lines.append(_trace_line(t, hid[k], f[4], e[4], e[6], rd,
                                             c.regs[rd]))
                if irq[k] and c.mip & c.mie and c.mstatus & MSTATUS_MIE:
                    ie[k] = big
                    sync(k, t)
                    self._boundary(c, IP[k], t, False)
                    hand[k] = stop = True
                    continue
                pc = c.pc
                f = fget(pc)
                if f is None:
                    if (pc - sram_lo) >> 2 >> wbits:
                        ie[k] = big
                        sync(k, t)
                        self._post_fetch(c, IP[k])
                        hand[k] = stop = True
                        continue
                    f = fcache[pc] = _fetch_info(pc, cws, dcache)
                b = f[0]
                if cl[b] == t1:
                    clash = t1
                cl[b] = t1
                ie[k] = t1
                fi[k] = f

            if tick_now:
                stick = self._lane_tick(t, lanes)
                guard = min(stick, allowed + 1)
            if stop:
                break

        self.cycle = t
        for k in kr:
            if not hand[k]:
                sync(k, t)
        self._trace_flush()

    def _lane_tick(self, s: int, lanes: "_Lanes") -> int:
        """Run the scrubber tick due at ``s`` in an event-driven burst,
        after the grants of ``s``: blocked by a busy bank or by a request
        eligible by ``s`` still waiting for it.  Returns the next tick."""
        target = self.scrub.next_address & 7
        blocked = self.banks.banks[target].busy_until >= s or any(
            e <= s and b == target
            for e, b in zip(lanes.ie + lanes.de,
                            [f[0] for f in lanes.fi] + lanes.db))
        return self._scrub_tick(s, blocked)

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
            trace_hash=self._trace_sha.hexdigest() if self.rec_trace
            else None,
            outputs_digest=self.outputs_digest(),
            trace_lines=self.trace_lines,
            defuse=None if self._touched is None else self._def_use(),
        )

    def _def_use(self) -> DefUse:
        """Fold the decode cache into the golden run's def/use log.

        Fetches on the fused burst are not logged as they happen: every
        executed pc is a decode-cache key, whose word (two words for an
        instruction spanning a word boundary) is marked here instead.
        """
        touched = bytearray(self._touched)
        reg_reads = csr_reads = 0
        code_written = False
        for pc, entry in self.dcache.items():
            reg_reads |= entry[7]
            csr_reads |= entry[9]
            if SRAM_BASE <= pc < SRAM_END:
                w = (pc - SRAM_BASE) >> 2
                for idx in range(w, min(w + entry[1], mem.TOTAL_WORDS)):
                    code_written = code_written or touched[idx] & 2
                    touched[idx] |= 1
        if code_written:
            # a decoded entry may have been replaced: assume every read
            reg_reads = csr_reads = -1
        last_irq = self._last_irq
        if any(c.mip for c in self.cores):
            last_irq = self.cycle
        return DefUse(bytes(touched), reg_reads, csr_reads, last_irq)

    # ------------------------------------------------- snapshot/restore

    def snapshot(self) -> dict:
        """The complete state; a carried dormant fault is recorded beside
        the converged cores, not split."""
        self._mirror()
        return {
            "cycle": self.cycle,
            "flags": (self.running, self.exited, self.exit_code,
                      self.timed_out, self.unrecoverable, self.loaded,
                      self.entry, self.checksum_reg, self.lockstep,
                      self.converged, self._diverge_check_at),
            "uart": bytes(self.uart_out),
            "banks": self.banks.snapshot(),
            "scrub": self.scrub.snapshot(),
            "odrg": self.odrg.snapshot(),
            "xbar": self.xbar.snapshot(),
            "cores": [c.dump_state(self.cycle) for c in self.cores],
            "dormant": (self.dorm_hart, dict(self.dorm_vals)),
            "vports": [p.state_tuple() for p in self.vports],
            "cports": [[q.state_tuple() for q in pair] for pair in self.cports],
            "rom": list(self.rom),
        }

    def restore(self, snap: dict) -> None:
        self.cycle = snap["cycle"]
        (self.running, self.exited, self.exit_code, self.timed_out,
         self.unrecoverable, self.loaded, self.entry, self.checksum_reg,
         self.lockstep, self.converged,
         self._diverge_check_at) = snap["flags"]
        self.uart_out = bytearray(snap["uart"])
        self.banks.restore(snap["banks"])
        self.scrub.restore(snap["scrub"])
        self.odrg.restore(snap["odrg"])
        self.xbar.restore(snap["xbar"])
        for c, state in zip(self.cores, snap["cores"]):
            c.load_state(state, self.cycle)
        for p, t in zip(self.vports, snap["vports"]):
            p.load_state(t)
        for pair, ts in zip(self.cports, snap["cports"]):
            for q, t in zip(pair, ts):
                q.load_state(t)
        self.rom = list(snap["rom"])
        self.tracebuf = bytearray()
        self._trace_sha = hashlib.sha256()
        if self.trace_lines is not None:
            self.trace_lines = []
        self._dormant_set(*snap["dormant"])
        self._wire_ports()
