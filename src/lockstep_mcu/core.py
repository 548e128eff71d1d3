"""RV32IMC core model: architectural state plus a pre-decoding executor.

Decoding produces one closure per instruction instance (keyed by pc in
the SoC's decode cache), so the per-cycle hot path is a dict hit plus
one call.  The closures are generated from one source template per
mnemonic (``SEMANTICS``), which the SoC's fused burst also inlines into
translated blocks.  Closures mutate the core and return a small action
code the scheduler dispatches on:

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

from .asm import CSR_NUMS, ENCODINGS, gather, lookup

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

# The core's fault locations besides ``pc``, and each one's bit in a
# location mask: x1-x31 take bits 1-31, the CSR locations the bits from
# 32 up.  The decoder's read and write masks, a carried dormant fault and
# the def/use log's read union are all such masks.
CSR_LOCS = ("mstatus", "mtvec", "mepc", "mcause", "mtval", "mie", "mscratch",
            "mcycle", "minstret")
LOC_BITS = {loc: 1 << i for i, loc in enumerate(
    (*(f"x{r}" for r in range(1, 32)), *CSR_LOCS), 1)}

# The CSRs that are one plain field of the same name: number -> (field,
# the bits a write keeps or None if a write is illegal, the bits a read
# ORs in).  A CSR that keeps no bits ignores writes.
CSRS = {CSR_NUMS[name]: (name, writable, ones) for name, writable, ones in (
    ("mstatus", MSTATUS_MIE | MSTATUS_MPIE, 0x1800),    # MPP pinned to M
    ("mie", M32, 0), ("mtvec", M32 & ~3, 0), ("mscratch", M32, 0),
    ("mepc", M32 & ~1, 0), ("mcause", M32, 0), ("mtval", M32, 0),
    ("mip", 0, 0),      # hardware-wired
    ("mhartid", None, 0))}
# the counters: number -> (location, the shift of the half it names,
# whether a write is legal); the user aliases are read-only
_COUNTERS = {CSR_NUMS[m + n + h]: ("m" + n, 32 if h else 0, m == "m")
             for m in ("m", "") for n in ("cycle", "instret") for h in ("", "h")}
_MISA = CSR_NUMS["misa"]


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
        """CSR ``num``'s value, or None if it has none (illegal)."""
        if num in CSRS:
            name, _writable, ones = CSRS[num]
            return getattr(self, name) | ones
        if num in _COUNTERS:
            loc, shift, _machine = _COUNTERS[num]
            return self.read_loc(loc, now) >> shift & M32
        return MISA_RV32IMC if num == _MISA else None

    def csr_write(self, num: int, value: int, now: int) -> bool:
        """Write CSR ``num``; False if the write is illegal."""
        value &= M32
        if num in CSRS:
            name, writable, _ones = CSRS[num]
            if writable:
                setattr(self, name, value & writable)
            return writable is not None
        if num in _COUNTERS:
            loc, shift, machine = _COUNTERS[num]
            if machine:
                cur = self.read_loc(loc, now)
                self.write_loc(loc, cur & ~(M32 << shift) | value << shift, now)
            return machine
        return num == _MISA     # misa is WARL: writes ignored

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
        a ``CSR_LOCS`` name."""
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
# ``SEMANTICS`` is the one statement of what each instruction computes:
# mnemonic -> (kind, template).  A template is Python source in the
# source register values ``{rs1}`` and ``{rs2}`` and the decoded
# constant ``{imm}`` (``{uimm}``: the same masked to 32 bits).  Its kind
# says what the source is and what the instruction does besides:
#
#   op      rd's new value; one cycle.  rd x0 drops it (None: no value)
#   muldiv  rd's new value after MUL_EXTRA (mul*) or DIV_EXTRA more cycles
#   branch  the condition; taken, pc becomes {imm} one cycle later
#   jump    the next pc, one cycle later; rd gets the link
#   load    the address, aligned to the access; the bus word's value is
#           ``load_lanes`` of it, written to rd
#   store   the address; {rs2} is the value
#
# ``_KINDS`` wraps each template into the closure factory that the
# decoder calls, and the fused single-core burst in ``soc`` inlines the
# same templates into translated blocks.  The CSR ops, ``mret``, ``wfi``
# and the traps stay hand-written closures below; no block takes them.

_EA = "({rs1} + {imm}) & M32"
SEMANTICS = {
    "nop": ("op", None),
    "addi": ("op", "({rs1} + {imm}) & M32"),
    "slti": ("op", "1 if _sx({rs1}) < {imm} else 0"),
    "sltiu": ("op", "1 if {rs1} < {uimm} else 0"),
    "xori": ("op", "{rs1} ^ {uimm}"),
    "ori": ("op", "{rs1} | {uimm}"),
    "andi": ("op", "{rs1} & {uimm}"),
    "slli": ("op", "({rs1} << {imm}) & M32"),
    "srli": ("op", "{rs1} >> {imm}"),
    "srai": ("op", "(_sx({rs1}) >> {imm}) & M32"),
    "add": ("op", "({rs1} + {rs2}) & M32"),
    "sub": ("op", "({rs1} - {rs2}) & M32"),
    "sll": ("op", "({rs1} << ({rs2} & 31)) & M32"),
    "slt": ("op", "1 if _sx({rs1}) < _sx({rs2}) else 0"),
    "sltu": ("op", "1 if {rs1} < {rs2} else 0"),
    "xor": ("op", "{rs1} ^ {rs2}"),
    "srl": ("op", "{rs1} >> ({rs2} & 31)"),
    "sra": ("op", "(_sx({rs1}) >> ({rs2} & 31)) & M32"),
    "or": ("op", "{rs1} | {rs2}"),
    "and": ("op", "{rs1} & {rs2}"),
    "lui": ("op", "{imm}"),     # lui and auipc: the decoder adds the pc
    "mul": ("muldiv", "({rs1} * {rs2}) & M32"),
    "mulh": ("muldiv", "((_sx({rs1}) * _sx({rs2})) >> 32) & M32"),
    "mulhsu": ("muldiv", "((_sx({rs1}) * {rs2}) >> 32) & M32"),
    "mulhu": ("muldiv", "(({rs1} * {rs2}) >> 32) & M32"),
    "div": ("muldiv", "_div({rs1}, {rs2})"),
    "divu": ("muldiv", "{rs1} // {rs2} if {rs2} else M32"),
    "rem": ("muldiv", "_rem({rs1}, {rs2})"),
    "remu": ("muldiv", "{rs1} % {rs2} if {rs2} else {rs1}"),
    "beq": ("branch", "{rs1} == {rs2}"),
    "bne": ("branch", "{rs1} != {rs2}"),
    "blt": ("branch", "_sx({rs1}) < _sx({rs2})"),
    "bge": ("branch", "_sx({rs1}) >= _sx({rs2})"),
    "bltu": ("branch", "{rs1} < {rs2}"),
    "bgeu": ("branch", "{rs1} >= {rs2}"),
    "jal": ("jump", "{imm}"),
    "jalr": ("jump", "({rs1} + {imm}) & 0xFFFFFFFE"),
    **{m: ("load", _EA) for m in ("lb", "lh", "lw", "lbu", "lhu")},
    **{m: ("store", _EA) for m in ("sb", "sh", "sw")},
}

# a load's or store's funct3 (its low two bits: log2 of the bytes moved),
# the cycles a multiply or divide adds
F3 = {m: ENCODINGS[m].match >> 12 & 7
      for m, (kind, _t) in SEMANTICS.items() if kind in ("load", "store")}
EXTRA = {m: MUL_EXTRA if m.startswith("mul") else DIV_EXTRA
         for m, (kind, _t) in SEMANTICS.items() if kind == "muldiv"}


def _div(a: int, b: int) -> int:
    """RV32M ``div`` of two register values."""
    if b == 0:
        return M32
    sa, sb = _sx(a), _sx(b)
    if sa == -SIGN and sb == -1:
        return SIGN
    q = abs(sa) // abs(sb)
    return (q if (sa < 0) == (sb < 0) else -q) & M32


def _rem(a: int, b: int) -> int:
    """RV32M ``rem`` of two register values."""
    if b == 0:
        return a
    sa, sb = _sx(a), _sx(b)
    if sa == -SIGN and sb == -1:
        return 0
    rm = abs(sa) % abs(sb)
    return (-rm if sa < 0 else rm) & M32


def load_lanes(word: int, addr: int, f3: int) -> int:
    """The value a load with funct3 ``f3`` at ``addr`` takes from its bus
    word."""
    if f3 == 2:     # lw
        return word
    if f3 & 1:      # lh/lhu
        v = (word >> ((addr & 2) * 8)) & 0xFFFF
        if f3 == 1 and v & 0x8000:
            v |= 0xFFFF0000
    else:           # lb/lbu
        v = (word >> ((addr & 3) * 8)) & 0xFF
        if f3 == 0 and v & 0x80:
            v |= 0xFFFFFF00
    return v


# what the templates may name, in closures and in translated blocks
TEMPLATE_NS = {"M32": M32, "_sx": _sx, "_div": _div, "_rem": _rem}

# A closure factory for each kind: ``$expr`` is the template, ``$extra``,
# ``$align`` and ``$f3`` the mnemonic's constants.  Every factory takes
# (rd, rs1, rs2, imm, ln, pc), ``ln`` the encoded length.
_KINDS = {
    "op": """
    if not rd:
        return _nop(ln)
    def ex(c):
        r = c.regs
        r[rd] = $expr
        c.pc = (c.pc + ln) & M32
        return 0""",
    "muldiv": """
    def ex(c):
        r = c.regs
        v = $expr
        if rd:
            r[rd] = v
        c.pc = (c.pc + ln) & M32
        c.ev_extra = $extra
        return 1""",
    "branch": """
    def ex(c):
        r = c.regs
        if $expr:
            c.pc = imm
            c.ev_extra = 1
            return 1
        c.pc = (c.pc + ln) & M32
        return 0""",
    "jump": """
    link = (pc + ln) & M32
    def ex(c):
        r = c.regs
        t = $expr
        if rd:
            r[rd] = link
        c.pc = t
        c.ev_extra = 1
        return 1""",
    "load": """
    def ex(c):
        r = c.regs
        addr = $expr
        if addr & $align:
            c.ev_cause = EXC_LADDR_MISALIGNED
            c.ev_tval = addr
            return 5
        c.ev_addr = addr
        c.ev_rd = rd
        c.ev_f3 = $f3
        c.pc = (c.pc + ln) & M32
        return 2""",
    "store": """
    def ex(c):
        r = c.regs
        addr = $expr
        if addr & $align:
            c.ev_cause = EXC_SADDR_MISALIGNED
            c.ev_tval = addr
            return 5
        c.ev_addr = addr
        c.ev_val = r[rs2]
        c.ev_f3 = $f3
        c.pc = (c.pc + ln) & M32
        return 3""",
}


def _nop(ln):
    """An instruction whose only effect is to advance pc."""
    def ex(c):
        c.pc = (c.pc + ln) & M32
        return 0
    return ex


def _closure_source(key: str) -> str:
    """The source of ``f_<key>``, the factory of ``key``'s closures: its
    kind's wrapper with the template and the mnemonic's constants in
    place, reading the register operands as ``r[rs1]`` and ``r[rs2]``."""
    kind, expr = SEMANTICS[key]
    src = _KINDS[kind]
    for token, value in (("$expr", expr), ("$extra", EXTRA.get(key)),
                         ("$align", (1 << (F3.get(key, 0) & 3)) - 1),
                         ("$f3", F3.get(key)),
                         ("{rs1}", "r[rs1]"), ("{rs2}", "r[rs2]"),
                         ("{imm}", "imm"), ("{uimm}", "uimm")):
        src = src.replace(token, str(value))
    return (f"def f_{key}(rd, rs1, rs2, imm, ln, pc):\n"
            f"    uimm = imm & M32{src}\n    return ex\n")


class _Factories(dict):
    """key -> its closure factory, compiled when the key is first decoded
    (an import compiles none)."""

    _ns = dict(TEMPLATE_NS, _nop=_nop,
               EXC_LADDR_MISALIGNED=EXC_LADDR_MISALIGNED,
               EXC_SADDR_MISALIGNED=EXC_SADDR_MISALIGNED)

    def __missing__(self, key: str):
        exec(_closure_source(key), self._ns)
        f = self[key] = self._ns["f_" + key]
        return f


# key -> its closure factory, and the register operands its template reads
_FACTORY = _Factories()
_READS = {k: ("{rs1}" in (t or ""), "{rs2}" in (t or "") or kind == "store")
          for k, (kind, t) in SEMANTICS.items()}


def _csr_op(mnem, rd, csr, src, writes, word, ln):
    op, imm = mnem[4], mnem[-1] == "i"      # w(rite), s(et) or c(lear)
    write_only = op == "w" and rd == 0  # csrrw/csrrwi with rd=x0 skip read

    def ex(c):
        now = c.soc.cycle
        old = c.csr_read(csr, now)
        if old is None and not write_only:
            c.ev_cause = EXC_ILLEGAL
            c.ev_tval = word
            return 5
        v = src if imm else c.regs[src]
        if op == "w":
            new = v
        elif op == "s":
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
# The decoder reads operand fields out of an instruction word through
# ``asm``'s encoding table, the one statement of every instruction's
# encoding: it finds the word's row, gathers its fields and immediate,
# and builds what the row's base names.  Each result is (closure, rd,
# text, reads, writes, template): ``rd`` is the register the instruction
# writes (0 for none), the one its trace line shows, the next two are
# the ``LOC_BITS`` masks of the locations it reads and writes, and
# ``template`` is (``SEMANTICS`` key, rd, rs1, rs2, imm) for a templated
# instruction, None otherwise.  The lockstep scheduler keeps a single-bit fault
# "dormant" while nothing reads it, and a golden run's def/use log
# unions the read masks.  Read masks over-approximate (extra bits only
# cost speed); write masks name only unconditional writes of retired
# instructions, since a spurious bit would wrongly erase a live fault.
# An encoding that traps claims to read every location and to write
# nothing.

_ALL_REGS = (1 << 32) - 2
_ALL_CSRS = sum(LOC_BITS[loc] for loc in CSR_LOCS)
# CSR number -> the location bit it reads and writes; a CSR that names
# no location (mhartid, mip, misa, an unknown number) claims to read
# every CSR location and to write none
_CSR_BITS = {num: LOC_BITS.get(spec[0], _ALL_CSRS)
             for num, spec in {**CSRS, **_COUNTERS}.items()}


def _decoded(ex, rd, text, *srcs, reads=0, writes=0):
    """A decode result for a hand-written closure ``ex`` that reads
    registers ``srcs`` and the locations ``reads``, and writes ``rd`` and
    ``writes``; no block takes it."""
    for r in srcs:
        reads |= 1 << r
    return ex, rd, text, reads & ~1, (writes | 1 << rd) & ~1, None


def _op(key, rd, rs1, rs2, imm, pc, ln, text):
    """A decode result for template ``key`` (``SEMANTICS``) with these
    operands; it reads the registers the template names."""
    r1, r2 = _READS[key]
    return (_FACTORY[key](rd, rs1, rs2, imm, ln, pc), rd, text,
            (r1 << rs1 | r2 << rs2) & ~1, (1 << rd) & ~1,
            (key, rd, rs1, rs2, imm))


def _trap(cause, tval, text="illegal"):
    """A decode result for an encoding that traps when it executes."""
    def ex(c):
        c.ev_cause = cause
        c.ev_tval = tval
        return 5
    return ex, 0, text, _ALL_REGS | _ALL_CSRS, 0, None


def _csr(e, pc, text, word, rd, rs1, imm, csr):
    # an unknown CSR reads everything; csrrs/csrrc with x0 and
    # csrrsi/csrrci with zimm 0 never write.  The trace text shows the
    # source field as a number, a register or not.
    src = imm if e.imm else rs1
    bit = _CSR_BITS.get(csr, _ALL_CSRS)
    writes = e.mnem[4] == "w" or src != 0
    return _decoded(_csr_op(e.mnem, rd, csr, src, writes, word, e.ln), rd,
                    f"{e.mnem} x{rd}, {csr:#x}, {src}", 0 if e.imm else rs1,
                    reads=bit, writes=bit if writes and bit != _ALL_CSRS else 0)


# the hand-written closures' decode results, by ``asm.Encoding.base``
_SPECIAL = {
    "csr": _csr,
    "ecall": lambda e, pc, text, *f: _trap(EXC_ECALL_M, 0, text),
    "ebreak": lambda e, pc, text, *f: _trap(EXC_BREAKPOINT, pc, text),
    "mret": lambda e, pc, text, *f: _decoded(
        _mret(), 0, text, reads=LOC_BITS["mepc"] | LOC_BITS["mstatus"],
        writes=LOC_BITS["mstatus"]),
    "wfi": lambda e, pc, text, *f: _decoded(_wfi(e.ln), 0, text,
                                            reads=_ALL_CSRS),
}


def _decode(word: int, pc: int, ln: int):
    """Decode the ``ln``-byte encoding ``word`` through ``asm``'s table."""
    e = lookup(word, ln)
    if e is None or e.base is None:     # no instruction, or a reserved one
        return _trap(EXC_ILLEGAL, word)
    _mnem, _ln, _match, _mask, base, _places, regs, kind, lay, fmt = e
    rd, rs1, rs2, csr = [(word >> lo & (1 << width) - 1) + add
                         for lo, width, add in regs]
    imm = shown = gather(lay, word) if kind else 0
    if kind == "target":
        imm = shown = (pc + imm) & M32
    elif kind == "upper":
        shown &= (1 << lay.width) - 1
        imm = (imm << 12) + (pc if base == "auipc" else 0) & M32
    text = fmt.format(rd=rd, rs1=rs1, rs2=rs2, csr=csr, imm=shown)
    if base in _SPECIAL:
        return _SPECIAL[base](e, pc, text, word, rd, rs1, imm, csr)
    return _op("lui" if base == "auipc" else base, rd, rs1, rs2, imm, pc, ln,
               text)


def decode32(word: int, pc: int):
    """Decode a 32-bit instruction (see the decoder notes above)."""
    return _decode(word, pc, 4)


def decode16(half: int, pc: int):
    """Decode a compressed instruction by expanding to base semantics."""
    return _decode(half, pc, 2)
