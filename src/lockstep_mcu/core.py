"""RV32IMC core model: architectural state plus a pre-decoding executor.

Decoding produces one closure per instruction instance (keyed by pc in
the SoC's decode cache), so the per-cycle hot path is a dict hit plus
one call.  Closures mutate the core and return a small action code the
scheduler dispatches on:

    0  retired, single cycle (pc already advanced)
    1  retired after ``ev_extra`` additional cycles (taken branch 1,
       MUL 2, DIV/REM 36, trap/mret redirect 1)
    2  load issued (ev_addr/ev_rd/ev_f3 set)
    3  store issued (ev_addr/ev_val/ev_f3 set)
    4  wfi
    5  synchronous trap (ev_cause/ev_tval set)

The cycle cost model approximates a 2-stage in-order pipeline: the
fetch cycle doubles as the execute cycle for single-cycle ops, loads
pay one extra data cycle, stores are posted writes that can collide
with the next fetch, and multi-cycle ops insert bubbles.
"""

from __future__ import annotations

from operator import attrgetter

from .asm import _BRANCHES, _CSROPS, _LOADS, _OPIMM, _OPREG, _STORES

M32 = 0xFFFFFFFF
SIGN = 0x80000000

# trap causes
EXC_IADDR_MISALIGNED = 0
EXC_IACCESS_FAULT = 1
EXC_ILLEGAL = 2
EXC_BREAKPOINT = 3
EXC_LADDR_MISALIGNED = 4
EXC_LACCESS_FAULT = 5
EXC_SADDR_MISALIGNED = 6
EXC_SACCESS_FAULT = 7
EXC_ECALL_M = 11
IRQ_MSOFT = 0x80000003
IRQ_MEXT = 0x8000000B

MSTATUS_MIE = 0x8
MSTATUS_MPIE = 0x80
MIE_MSIE = 0x8
MIE_MEIE = 0x800

MISA_RV32IMC = 0x40001104

# core FSM phases (driven by the SoC scheduler)
PH_F0 = 0   # waiting for first fetch word
PH_F1 = 1   # waiting for second fetch word (32-bit op spanning words)
PH_EX = 2   # burning exec_left bubble cycles
PH_LD = 3   # waiting for load data
PH_DW = 4   # waiting for the data port to drain a posted store

MUL_EXTRA = 2     # 3-cycle multiply
DIV_EXTRA = 36    # 37-cycle divide/remainder


def _sx(v: int) -> int:
    return v - 0x100000000 if v & SIGN else v


def _sx12(v: int) -> int:
    return v - 4096 if v & 0x800 else v


# A hart's state: every field and its reset value.  The slots, ``reset``,
# ``dump_state``/``load_state``, ``copy_from`` and ``state_key`` all derive
# from this table.  The exceptions:
#
# * ``regs`` is copied as a list, and x0 is forced to 0 on load;
# * ``mcycle_base`` is dumped (and keyed) as ``mcycle``, relative to the
#   current cycle;
# * ``pend_entry`` is a decode-cache pointer, a pure function of the
#   stashes and memory that never affects timing: it is not dumped and
#   is re-derived on demand;
# * ``held`` and ``pend_entry`` are not part of the convergence key;
# * ``pc`` and ``cur_pc`` reset to the boot pc, ``mhartid`` to the hart id.
STATE = {
    "regs": (0,) * 32, "pc": 0,
    "mstatus": 0, "mtvec": 0, "mepc": 0, "mcause": 0, "mtval": 0, "mie": 0,
    "mip": 0, "mscratch": 0, "mhartid": 0, "minstret": 0, "mcycle_base": 0,
    "sleeping": False, "wake_pulse": False, "held": False,
    # the scheduler's FSM: phase, bubble cycles, the current instruction,
    # the first word of a spanning fetch, a data access waiting for the
    # port (PH_DW)
    "phase": PH_F0, "exec_left": 0, "exec_retire": False,
    "cur_pc": 0, "cur_word": 0, "cur_rd": 0,
    "half_stash": 0, "w0_stash": 0, "pend_entry": None, "dw_kind": 0,
    # the event of an executed instruction (see the action codes above)
    "ev_extra": 0, "ev_addr": 0, "ev_val": 0, "ev_rd": 0, "ev_f3": 0,
    "ev_cause": 0, "ev_tval": 0,
}
_DUMPED = tuple(n for n in STATE if n not in ("pend_entry", "mcycle_base"))
_keyed = attrgetter(*(n for n in _DUMPED if n not in ("regs", "held")))


class Core:
    """One hart: architectural state plus scheduler-facing FSM fields."""

    __slots__ = (*STATE, "soc")

    def __init__(self, hart: int, soc=None):
        self.soc = soc
        self.reset(0, hart)

    def reset(self, boot_pc: int, hartid: int) -> None:
        for name, value in STATE.items():
            setattr(self, name, value)
        self.regs = [0] * 32
        self.pc = boot_pc
        self.cur_pc = boot_pc
        self.mhartid = hartid

    # ------------------------------------------------------------- CSRs

    def mcycle(self, now: int) -> int:
        return (now - self.mcycle_base) & 0xFFFFFFFFFFFFFFFF

    def csr_read(self, num: int, now: int):
        if num == 0xF14:
            return self.mhartid
        if num == 0x300:
            return self.mstatus | 0x1800  # MPP pinned to M-mode
        if num == 0x304:
            return self.mie
        if num == 0x305:
            return self.mtvec
        if num == 0x340:
            return self.mscratch
        if num == 0x341:
            return self.mepc
        if num == 0x342:
            return self.mcause
        if num == 0x343:
            return self.mtval
        if num == 0x344:
            return self.mip
        if num == 0x301:
            return MISA_RV32IMC
        if num in (0xB00, 0xC00):
            return self.mcycle(now) & M32
        if num in (0xB80, 0xC80):
            return (self.mcycle(now) >> 32) & M32
        if num in (0xB02, 0xC02):
            return self.minstret & M32
        if num in (0xB82, 0xC82):
            return (self.minstret >> 32) & M32
        return None

    def csr_write(self, num: int, value: int, now: int) -> bool:
        value &= M32
        if num == 0x300:
            self.mstatus = value & (MSTATUS_MIE | MSTATUS_MPIE)
            return True
        if num == 0x304:
            self.mie = value
            return True
        if num == 0x305:
            self.mtvec = value & ~3
            return True
        if num == 0x340:
            self.mscratch = value
            return True
        if num == 0x341:
            self.mepc = value & ~1
            return True
        if num == 0x342:
            self.mcause = value
            return True
        if num == 0x343:
            self.mtval = value
            return True
        if num in (0x344, 0x301):
            return True  # hardware-wired / WARL: writes ignored
        if num == 0xB00:
            cur = self.mcycle(now)
            self.mcycle_base = now - ((cur & ~M32) | value)
            return True
        if num == 0xB80:
            cur = self.mcycle(now)
            self.mcycle_base = now - ((value << 32) | (cur & M32))
            return True
        if num == 0xB02:
            self.minstret = (self.minstret & ~M32) | value
            return True
        if num == 0xB82:
            self.minstret = (value << 32) | (self.minstret & M32)
            return True
        return False  # read-only or unimplemented -> illegal

    # ------------------------------------------------------- trap entry

    def take_trap(self, cause: int, tval: int, epc: int) -> None:
        self.mepc = epc & M32
        self.mcause = cause & M32
        self.mtval = tval & M32
        st = self.mstatus
        self.mstatus = (st & ~(MSTATUS_MIE | MSTATUS_MPIE)) | \
            (MSTATUS_MPIE if st & MSTATUS_MIE else 0)
        self.pc = self.mtvec

    def pending_interrupt(self) -> int:
        pend = self.mip & self.mie
        if not pend:
            return 0
        if pend & MIE_MEIE:
            return IRQ_MEXT
        if pend & MIE_MSIE:
            return IRQ_MSOFT
        return 0

    # --------------------------------------------------- scan-chain I/O

    def dump_state(self, now: int) -> dict:
        """Complete serializable snapshot (the scan-chain payload)."""
        state = {name: getattr(self, name) for name in _DUMPED}
        state["regs"] = list(self.regs)
        state["mcycle"] = self.mcycle(now)
        return state

    def load_state(self, state: dict, now: int) -> None:
        for name in _DUMPED:
            setattr(self, name, state[name])
        self.regs = list(state["regs"])
        self.regs[0] = 0
        self.mcycle_base = now - state["mcycle"]
        self.pend_entry = None

    def copy_from(self, other: "Core") -> None:
        """Clone another core's complete state (lockstep split helper)."""
        for name in STATE:
            setattr(self, name, getattr(other, name))
        self.regs = list(other.regs)

    def state_key(self, now: int) -> tuple:
        """Hashable digest of the state, for convergence checks."""
        return (tuple(self.regs), self.mcycle(now)) + _keyed(self)

    def read_loc(self, loc: str, now: int) -> int:
        """The value of fault location ``loc``: ``x1``-``x31``, ``pc`` or
        a ``CORE_LOC_TAGS`` name."""
        if loc[0] == "x":
            return self.regs[int(loc[1:])]
        if loc == "mcycle":
            return self.mcycle(now)
        return getattr(self, loc)

    def write_loc(self, loc: str, value: int, now: int) -> None:
        """Set fault location ``loc`` (see ``read_loc``) to ``value``."""
        if loc[0] == "x":
            self.regs[int(loc[1:])] = value
        elif loc == "mcycle":
            self.mcycle_base = now - value
        else:
            setattr(self, loc, value)


# ======================================================== instruction set
#
# Factory functions close over decoded fields.  ``ln`` is the encoded
# length (2 or 4) used to advance pc.

def _nop(ln):
    """An instruction whose only effect is to advance pc."""
    def ex(c):
        c.pc = (c.pc + ln) & M32
        return 0
    return ex


def _alu_imm(mnem, rd, rs1, imm, ln):
    if rd == 0:
        return _nop(ln)
    if mnem == "addi":
        def ex(c):
            r = c.regs
            r[rd] = (r[rs1] + imm) & M32
            c.pc = (c.pc + ln) & M32
            return 0
    elif mnem == "slti":
        def ex(c):
            r = c.regs
            r[rd] = 1 if _sx(r[rs1]) < imm else 0
            c.pc = (c.pc + ln) & M32
            return 0
    elif mnem == "sltiu":
        uimm = imm & M32

        def ex(c):
            r = c.regs
            r[rd] = 1 if r[rs1] < uimm else 0
            c.pc = (c.pc + ln) & M32
            return 0
    elif mnem == "xori":
        uimm = imm & M32

        def ex(c):
            r = c.regs
            r[rd] = r[rs1] ^ uimm
            c.pc = (c.pc + ln) & M32
            return 0
    elif mnem == "ori":
        uimm = imm & M32

        def ex(c):
            r = c.regs
            r[rd] = r[rs1] | uimm
            c.pc = (c.pc + ln) & M32
            return 0
    elif mnem == "andi":
        uimm = imm & M32

        def ex(c):
            r = c.regs
            r[rd] = r[rs1] & uimm
            c.pc = (c.pc + ln) & M32
            return 0
    else:
        raise AssertionError(mnem)
    return ex


def _shift_imm(mnem, rd, rs1, sh, ln):
    if rd == 0:
        return _nop(ln)
    if mnem == "slli":
        def ex(c):
            r = c.regs
            r[rd] = (r[rs1] << sh) & M32
            c.pc = (c.pc + ln) & M32
            return 0
    elif mnem == "srli":
        def ex(c):
            r = c.regs
            r[rd] = r[rs1] >> sh
            c.pc = (c.pc + ln) & M32
            return 0
    else:  # srai
        def ex(c):
            r = c.regs
            r[rd] = (_sx(r[rs1]) >> sh) & M32
            c.pc = (c.pc + ln) & M32
            return 0
    return ex


def _alu_reg(mnem, rd, rs1, rs2, ln):
    if rd == 0:
        return _nop(ln)
    simple = {
        "add": lambda a, b: (a + b) & M32,
        "sub": lambda a, b: (a - b) & M32,
        "sll": lambda a, b: (a << (b & 31)) & M32,
        "slt": lambda a, b: 1 if _sx(a) < _sx(b) else 0,
        "sltu": lambda a, b: 1 if a < b else 0,
        "xor": lambda a, b: a ^ b,
        "srl": lambda a, b: a >> (b & 31),
        "sra": lambda a, b: (_sx(a) >> (b & 31)) & M32,
        "or": lambda a, b: a | b,
        "and": lambda a, b: a & b,
    }
    fn = simple[mnem]

    def ex(c):
        r = c.regs
        r[rd] = fn(r[rs1], r[rs2])
        c.pc = (c.pc + ln) & M32
        return 0
    return ex


def _muldiv(mnem, rd, rs1, rs2, ln):
    extra = MUL_EXTRA if mnem.startswith("mul") else DIV_EXTRA

    def compute(a, b):
        if mnem == "mul":
            return (a * b) & M32
        if mnem == "mulh":
            return ((_sx(a) * _sx(b)) >> 32) & M32
        if mnem == "mulhsu":
            return ((_sx(a) * b) >> 32) & M32
        if mnem == "mulhu":
            return ((a * b) >> 32) & M32
        if mnem == "div":
            if b == 0:
                return M32
            sa, sb = _sx(a), _sx(b)
            if sa == -(1 << 31) and sb == -1:
                return SIGN
            q = abs(sa) // abs(sb)
            return (q if (sa < 0) == (sb < 0) else -q) & M32
        if mnem == "divu":
            return M32 if b == 0 else a // b
        if mnem == "rem":
            if b == 0:
                return a
            sa, sb = _sx(a), _sx(b)
            if sa == -(1 << 31) and sb == -1:
                return 0
            rm = abs(sa) % abs(sb)
            return (-rm if sa < 0 else rm) & M32
        # remu
        return a if b == 0 else a % b

    def ex(c):
        r = c.regs
        v = compute(r[rs1], r[rs2])
        if rd:
            r[rd] = v
        c.pc = (c.pc + ln) & M32
        c.ev_extra = extra
        return 1
    return ex


def _lui(rd, imm_u, ln):
    def ex(c):
        if rd:
            c.regs[rd] = imm_u
        c.pc = (c.pc + ln) & M32
        return 0
    return ex


def _auipc(rd, imm_u, pc, ln):
    v = (pc + imm_u) & M32

    def ex(c):
        if rd:
            c.regs[rd] = v
        c.pc = (c.pc + ln) & M32
        return 0
    return ex


def _jal(rd, target, pc, ln):
    link = (pc + ln) & M32

    def ex(c):
        if rd:
            c.regs[rd] = link
        c.pc = target
        c.ev_extra = 1
        return 1
    return ex


def _jalr(rd, rs1, imm, pc, ln):
    link = (pc + ln) & M32

    def ex(c):
        t = (c.regs[rs1] + imm) & M32 & ~1
        if rd:
            c.regs[rd] = link
        c.pc = t
        c.ev_extra = 1
        return 1
    return ex


def _branch(mnem, rs1, rs2, target, ln):
    cmps = {
        "beq": lambda a, b: a == b,
        "bne": lambda a, b: a != b,
        "blt": lambda a, b: _sx(a) < _sx(b),
        "bge": lambda a, b: _sx(a) >= _sx(b),
        "bltu": lambda a, b: a < b,
        "bgeu": lambda a, b: a >= b,
    }
    fn = cmps[mnem]

    def ex(c):
        r = c.regs
        if fn(r[rs1], r[rs2]):
            c.pc = target
            c.ev_extra = 1
            return 1
        c.pc = (c.pc + ln) & M32
        return 0
    return ex


def _load(f3, rd, rs1, imm, ln):
    align = 3 if f3 == 2 else (1 if f3 in (1, 5) else 0)

    def ex(c):
        addr = (c.regs[rs1] + imm) & M32
        if addr & align:
            c.ev_cause = EXC_LADDR_MISALIGNED
            c.ev_tval = addr
            return 5
        c.ev_addr = addr
        c.ev_rd = rd
        c.ev_f3 = f3
        c.pc = (c.pc + ln) & M32
        return 2
    return ex


def _store(f3, rs1, rs2, imm, ln):
    align = 3 if f3 == 2 else (1 if f3 == 1 else 0)

    def ex(c):
        r = c.regs
        addr = (r[rs1] + imm) & M32
        if addr & align:
            c.ev_cause = EXC_SADDR_MISALIGNED
            c.ev_tval = addr
            return 5
        c.ev_addr = addr
        c.ev_val = r[rs2]
        c.ev_f3 = f3
        c.pc = (c.pc + ln) & M32
        return 3
    return ex


def _csr_op(f3, rd, csr, src, writes, word, ln):
    write_only = f3 in (1, 5) and rd == 0  # csrrw/csrrwi with rd=x0 skip read

    def ex(c):
        now = c.soc.cycle
        old = c.csr_read(csr, now)
        if old is None and not write_only:
            c.ev_cause = EXC_ILLEGAL
            c.ev_tval = word
            return 5
        v = src if f3 >= 5 else c.regs[src]
        if f3 in (1, 5):
            new = v
        elif f3 in (2, 6):
            new = (old or 0) | v
        else:
            new = (old or 0) & ~v
        if writes:
            if not c.csr_write(csr, new, now):
                c.ev_cause = EXC_ILLEGAL
                c.ev_tval = word
                return 5
        if rd and old is not None:
            c.regs[rd] = old
        c.pc = (c.pc + ln) & M32
        return 0
    return ex


def _mret():
    def ex(c):
        st = c.mstatus
        mie = MSTATUS_MIE if st & MSTATUS_MPIE else 0
        c.mstatus = (st & ~MSTATUS_MIE) | mie | MSTATUS_MPIE
        c.pc = c.mepc
        c.ev_extra = 1
        return 1
    return ex


def _wfi(ln):
    def ex(c):
        c.pc = (c.pc + ln) & M32
        return 4
    return ex


# ---------------------------------------------------------------- decoder
#
# The decoder is the only code that reads operand fields out of an
# instruction word.  Each result is (closure, rd, text, reads, writes,
# csr reads, csr writes): ``rd`` is the register the instruction writes
# (0 for none), the one its trace line shows, and the last four are its
# state access sets.  The lockstep scheduler keeps a single-bit fault
# "dormant" while nothing reads it, and a golden run's def/use log
# unions the read sets.  Register masks are bit-per-x-register, x0
# dropped; CSR masks use the tag bits below.  Read masks
# over-approximate (extra bits only cost speed); write masks name only
# unconditional writes of retired instructions, since a spurious bit
# would wrongly erase a live fault.  An encoding that traps claims to
# read every register and CSR and to write nothing.

CT_MSTATUS = 1
CT_MTVEC = 2
CT_MEPC = 4
CT_MCAUSE = 8
CT_MTVAL = 16
CT_MIE = 32
CT_MSCRATCH = 64
CT_MCYCLE = 128
CT_MINSTRET = 256

CSR_TAG = {
    0x300: CT_MSTATUS, 0x305: CT_MTVEC, 0x341: CT_MEPC, 0x342: CT_MCAUSE,
    0x343: CT_MTVAL, 0x304: CT_MIE, 0x340: CT_MSCRATCH,
    0xB00: CT_MCYCLE, 0xB80: CT_MCYCLE, 0xC00: CT_MCYCLE, 0xC80: CT_MCYCLE,
    0xB02: CT_MINSTRET, 0xB82: CT_MINSTRET, 0xC02: CT_MINSTRET,
    0xC82: CT_MINSTRET,
}

CORE_LOC_TAGS = {
    "mstatus": CT_MSTATUS, "mtvec": CT_MTVEC, "mepc": CT_MEPC,
    "mcause": CT_MCAUSE, "mtval": CT_MTVAL, "mie": CT_MIE,
    "mscratch": CT_MSCRATCH, "mcycle": CT_MCYCLE, "minstret": CT_MINSTRET,
}

_ALL_REGS = (1 << 32) - 2
_ALL_CSRS = (1 << 10) - 1

# field value -> mnemonic, the inverses of the assembler's tables
_OPIMM_NAMES = {f3: m for m, f3 in _OPIMM.items()}
_OP_NAMES = {key: m for m, key in _OPREG.items()}
_LD_NAMES = {f3: m for m, f3 in _LOADS.items()}
_ST_NAMES = {f3: m for m, f3 in _STORES.items()}
_BR_NAMES = {f3: m for m, f3 in _BRANCHES.items()}
_CSR_NAMES = {f3: m for m, f3 in _CSROPS.items()}


def _decoded(ex, rd, text, *srcs, csr_reads=0, csr_writes=0):
    """A decode result for closure ``ex`` that reads registers ``srcs``
    and writes ``rd``."""
    reads = 0
    for r in srcs:
        reads |= 1 << r
    return ex, rd, text, reads & ~1, (1 << rd) & ~1, csr_reads, csr_writes


def _trap(cause, tval, text="illegal"):
    """A decode result for an encoding that traps when it executes."""
    def ex(c):
        c.ev_cause = cause
        c.ev_tval = tval
        return 5
    return ex, 0, text, _ALL_REGS, 0, _ALL_CSRS, 0


def decode32(word: int, pc: int):
    """Decode a 32-bit instruction (see the decoder notes above)."""
    op = word & 0x7F
    rd = (word >> 7) & 31
    f3 = (word >> 12) & 7
    rs1 = (word >> 15) & 31
    rs2 = (word >> 20) & 31
    f7 = word >> 25

    if op == 0b0010011:
        if f3 == 1 or f3 == 5:
            sh = rs2
            if f3 == 1 and f7 == 0:
                mnem = "slli"
            elif f3 == 5 and f7 == 0:
                mnem = "srli"
            elif f3 == 5 and f7 == 0x20:
                mnem = "srai"
            else:
                return _trap(EXC_ILLEGAL, word)
            return _decoded(_shift_imm(mnem, rd, rs1, sh, 4), rd,
                            f"{mnem} x{rd}, x{rs1}, {sh}", rs1)
        mnem = _OPIMM_NAMES[f3]
        imm = _sx12(word >> 20)
        return _decoded(_alu_imm(mnem, rd, rs1, imm, 4), rd,
                        f"{mnem} x{rd}, x{rs1}, {imm}", rs1)
    if op == 0b0110011:
        mnem = _OP_NAMES.get((f3, f7))
        if mnem is None:
            return _trap(EXC_ILLEGAL, word)
        factory = _muldiv if f7 == 0x01 else _alu_reg
        return _decoded(factory(mnem, rd, rs1, rs2, 4), rd,
                        f"{mnem} x{rd}, x{rs1}, x{rs2}", rs1, rs2)
    if op == 0b0000011:
        if f3 not in _LD_NAMES:
            return _trap(EXC_ILLEGAL, word)
        imm = _sx12(word >> 20)
        return _decoded(_load(f3, rd, rs1, imm, 4), rd,
                        f"{_LD_NAMES[f3]} x{rd}, {imm}(x{rs1})", rs1)
    if op == 0b0100011:
        if f3 not in _ST_NAMES:
            return _trap(EXC_ILLEGAL, word)
        imm = _sx12(((word >> 25) << 5) | ((word >> 7) & 31))
        return _decoded(_store(f3, rs1, rs2, imm, 4), 0,
                        f"{_ST_NAMES[f3]} x{rs2}, {imm}(x{rs1})", rs1, rs2)
    if op == 0b1100011:
        if f3 not in _BR_NAMES:
            return _trap(EXC_ILLEGAL, word)
        imm = (((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11) | \
            (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
        if imm & 0x1000:
            imm -= 0x2000
        target = (pc + imm) & M32
        mnem = _BR_NAMES[f3]
        return _decoded(_branch(mnem, rs1, rs2, target, 4), 0,
                        f"{mnem} x{rs1}, x{rs2}, {target:#x}", rs1, rs2)
    if op == 0b0110111:
        return _decoded(_lui(rd, word & 0xFFFFF000, 4), rd,
                        f"lui x{rd}, {word >> 12:#x}")
    if op == 0b0010111:
        return _decoded(_auipc(rd, word & 0xFFFFF000, pc, 4), rd,
                        f"auipc x{rd}, {word >> 12:#x}")
    if op == 0b1101111:
        imm = (((word >> 31) & 1) << 20) | (((word >> 12) & 0xFF) << 12) | \
            (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1)
        if imm & 0x100000:
            imm -= 0x200000
        target = (pc + imm) & M32
        return _decoded(_jal(rd, target, pc, 4), rd, f"jal x{rd}, {target:#x}")
    if op == 0b1100111 and f3 == 0:
        imm = _sx12(word >> 20)
        return _decoded(_jalr(rd, rs1, imm, pc, 4), rd,
                        f"jalr x{rd}, {imm}(x{rs1})", rs1)
    if op == 0b0001111:
        return _decoded(_nop(4), 0, "fence.i" if f3 == 1 else "fence")
    if op == 0b1110011:
        if f3 == 0:
            if word == 0x00000073:
                return _trap(EXC_ECALL_M, 0, "ecall")
            if word == 0x00100073:
                return _trap(EXC_BREAKPOINT, pc, "ebreak")
            if word == 0x30200073:
                return _decoded(_mret(), 0, "mret",
                                csr_reads=CT_MEPC | CT_MSTATUS,
                                csr_writes=CT_MSTATUS)
            if word == 0x10500073:
                return _decoded(_wfi(4), 0, "wfi", csr_reads=_ALL_CSRS)
            return _trap(EXC_ILLEGAL, word)
        if f3 in _CSR_NAMES:
            # an unknown CSR reads everything; csrrs/csrrc with x0 and
            # csrrsi/csrrci with zimm 0 never write
            csr = word >> 20
            tag = CSR_TAG.get(csr, _ALL_CSRS)
            writes = f3 in (1, 5) or rs1 != 0
            return _decoded(_csr_op(f3, rd, csr, rs1, writes, word, 4), rd,
                            f"{_CSR_NAMES[f3]} x{rd}, {csr:#x}, {rs1}",
                            rs1 if f3 < 4 else 0, csr_reads=tag,
                            csr_writes=tag if writes and tag != _ALL_CSRS else 0)
    return _trap(EXC_ILLEGAL, word)


def decode16(half: int, pc: int):
    """Decode a compressed instruction by expanding to base semantics."""
    if half == 0:
        return _trap(EXC_ILLEGAL, 0)
    q = half & 3
    f3 = (half >> 13) & 7
    if q == 0:
        rdp = 8 + ((half >> 2) & 7)
        rs1p = 8 + ((half >> 7) & 7)
        if f3 == 0:
            imm = (((half >> 11) & 3) << 4) | (((half >> 7) & 0xF) << 6) | \
                (((half >> 6) & 1) << 2) | (((half >> 5) & 1) << 3)
            if imm == 0:
                return _trap(EXC_ILLEGAL, half)
            return _decoded(_alu_imm("addi", rdp, 2, imm, 2), rdp,
                            f"c.addi4spn x{rdp}, {imm}", 2)
        if f3 == 2:
            imm = (((half >> 10) & 7) << 3) | (((half >> 6) & 1) << 2) | \
                (((half >> 5) & 1) << 6)
            return _decoded(_load(2, rdp, rs1p, imm, 2), rdp,
                            f"c.lw x{rdp}, {imm}(x{rs1p})", rs1p)
        if f3 == 6:
            imm = (((half >> 10) & 7) << 3) | (((half >> 6) & 1) << 2) | \
                (((half >> 5) & 1) << 6)
            return _decoded(_store(2, rs1p, rdp, imm, 2), 0,
                            f"c.sw x{rdp}, {imm}(x{rs1p})", rs1p, rdp)
        return _trap(EXC_ILLEGAL, half)
    if q == 1:
        if f3 == 0:
            rd = (half >> 7) & 31
            imm = ((half >> 2) & 31) | (((half >> 12) & 1) << 5)
            if imm & 0x20:
                imm -= 64
            if rd == 0:
                return _decoded(_nop(2), 0, "c.nop")
            return _decoded(_alu_imm("addi", rd, rd, imm, 2), rd,
                            f"c.addi x{rd}, {imm}", rd)
        if f3 == 1 or f3 == 5:
            u = half
            imm = (((u >> 12) & 1) << 11) | (((u >> 11) & 1) << 4) | \
                (((u >> 9) & 3) << 8) | (((u >> 8) & 1) << 10) | \
                (((u >> 7) & 1) << 6) | (((u >> 6) & 1) << 7) | \
                (((u >> 3) & 7) << 1) | (((u >> 2) & 1) << 5)
            if imm & 0x800:
                imm -= 0x1000
            target = (pc + imm) & M32
            rd = 1 if f3 == 1 else 0
            mnem = "c.jal" if f3 == 1 else "c.j"
            return _decoded(_jal(rd, target, pc, 2), rd, f"{mnem} {target:#x}")
        if f3 == 2:
            rd = (half >> 7) & 31
            imm = ((half >> 2) & 31) | (((half >> 12) & 1) << 5)
            if imm & 0x20:
                imm -= 64
            return _decoded(_alu_imm("addi", rd, 0, imm, 2), rd,
                            f"c.li x{rd}, {imm}")
        if f3 == 3:
            rd = (half >> 7) & 31
            if rd == 2:
                imm = (((half >> 12) & 1) << 9) | (((half >> 6) & 1) << 4) | \
                    (((half >> 5) & 1) << 6) | (((half >> 3) & 3) << 7) | \
                    (((half >> 2) & 1) << 5)
                if imm & 0x200:
                    imm -= 0x400
                return _decoded(_alu_imm("addi", 2, 2, imm, 2), 2,
                                f"c.addi16sp {imm}", 2)
            imm = (((half >> 12) & 1) << 17) | (((half >> 2) & 31) << 12)
            if imm & 0x20000:
                imm -= 0x40000
            return _decoded(_lui(rd, imm & M32, 2), rd,
                            f"c.lui x{rd}, {(imm >> 12) & 0x3F:#x}")
        if f3 == 4:
            sub = (half >> 10) & 3
            rdp = 8 + ((half >> 7) & 7)
            if sub == 0 or sub == 1:
                sh = ((half >> 2) & 31) | (((half >> 12) & 1) << 5)
                mnem = "srli" if sub == 0 else "srai"
                return _decoded(_shift_imm(mnem, rdp, rdp, sh & 31, 2), rdp,
                                f"c.{mnem} x{rdp}, {sh}", rdp)
            if sub == 2:
                imm = ((half >> 2) & 31) | (((half >> 12) & 1) << 5)
                if imm & 0x20:
                    imm -= 64
                return _decoded(_alu_imm("andi", rdp, rdp, imm, 2), rdp,
                                f"c.andi x{rdp}, {imm}", rdp)
            rs2p = 8 + ((half >> 2) & 7)
            if (half >> 12) & 1:
                return _trap(EXC_ILLEGAL, half)
            mnem = ("sub", "xor", "or", "and")[(half >> 5) & 3]
            return _decoded(_alu_reg(mnem, rdp, rdp, rs2p, 2), rdp,
                            f"c.{mnem} x{rdp}, x{rs2p}", rdp, rs2p)
        # f3 6 or 7
        rs1p = 8 + ((half >> 7) & 7)
        u = half
        imm = (((u >> 12) & 1) << 8) | (((u >> 10) & 3) << 3) | \
            (((u >> 5) & 3) << 6) | (((u >> 3) & 3) << 1) | \
            (((u >> 2) & 1) << 5)
        if imm & 0x100:
            imm -= 0x200
        target = (pc + imm) & M32
        mnem = "c.beqz" if f3 == 6 else "c.bnez"
        return _decoded(_branch("beq" if f3 == 6 else "bne", rs1p, 0, target, 2),
                        0, f"{mnem} x{rs1p}, {target:#x}", rs1p)
    # q == 2
    rd = (half >> 7) & 31
    rs2 = (half >> 2) & 31
    if f3 == 0:
        sh = ((half >> 2) & 31) | (((half >> 12) & 1) << 5)
        return _decoded(_shift_imm("slli", rd, rd, sh & 31, 2), rd,
                        f"c.slli x{rd}, {sh}", rd)
    if f3 == 2:
        if rd == 0:
            return _trap(EXC_ILLEGAL, half)
        imm = (((half >> 12) & 1) << 5) | (((half >> 4) & 7) << 2) | \
            (((half >> 2) & 3) << 6)
        return _decoded(_load(2, rd, 2, imm, 2), rd, f"c.lwsp x{rd}, {imm}", 2)
    if f3 == 4:
        if (half >> 12) & 1 == 0:
            if rs2 == 0:
                if rd == 0:
                    return _trap(EXC_ILLEGAL, half)
                return _decoded(_jalr(0, rd, 0, pc, 2), 0, f"c.jr x{rd}", rd)
            return _decoded(_alu_reg("add", rd, 0, rs2, 2), rd,
                            f"c.mv x{rd}, x{rs2}", rs2)
        if rs2 == 0:
            if rd == 0:
                return _trap(EXC_BREAKPOINT, pc, "c.ebreak")
            return _decoded(_jalr(1, rd, 0, pc, 2), 1, f"c.jalr x{rd}", rd)
        return _decoded(_alu_reg("add", rd, rd, rs2, 2), rd,
                        f"c.add x{rd}, x{rs2}", rd, rs2)
    if f3 == 6:
        imm = (((half >> 9) & 0xF) << 2) | (((half >> 7) & 3) << 6)
        return _decoded(_store(2, 2, rs2, imm, 2), 0, f"c.swsp x{rs2}, {imm}",
                        2, rs2)
    return _trap(EXC_ILLEGAL, half)
