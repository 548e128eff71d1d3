"""Mini-assembler for the built-in bare-metal kernels.

Programs are built through a small API rather than parsed from text:

    p = Program()
    p.label("loop")
    p.ins("addi", "a0", "a0", -1)
    p.ins("bnez", "a0", "loop")

``assemble(p, base)`` resolves labels and emits a little-endian image.
The supported mnemonic set covers RV32IMC plus the usual pseudo-ops
(li/la/mv/j/ret/...).  Unknown mnemonics, out-of-range immediates and
unresolved labels raise ``AsmError``.
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple

M32 = 0xFFFFFFFF


class AsmError(Exception):
    pass


ABI_REGS = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7, "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15,
    "a6": 16, "a7": 17,
    "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23,
    "s8": 24, "s9": 25, "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}
for _i in range(32):
    ABI_REGS[f"x{_i}"] = _i

CSR_NUMS = {
    "mstatus": 0x300, "misa": 0x301, "mie": 0x304, "mtvec": 0x305,
    "mscratch": 0x340, "mepc": 0x341, "mcause": 0x342, "mtval": 0x343,
    "mip": 0x344,
    "mcycle": 0xB00, "minstret": 0xB02, "mcycleh": 0xB80, "minstreth": 0xB82,
    "cycle": 0xC00, "instret": 0xC02, "cycleh": 0xC80, "instreth": 0xC82,
    "mhartid": 0xF14,
}


def reg(name) -> int:
    if isinstance(name, int):
        if 0 <= name < 32:
            return name
        raise AsmError(f"register index out of range: {name}")
    try:
        return ABI_REGS[name]
    except KeyError:
        raise AsmError(f"unknown register: {name!r}") from None


def csr_num(name) -> int:
    if isinstance(name, int):
        if 0 <= name < 4096:
            return name
        raise AsmError(f"CSR number out of range: {name:#x}")
    try:
        return CSR_NUMS[name]
    except KeyError:
        raise AsmError(f"unknown CSR: {name!r}") from None


# ================================================================ encodings
#
# Each RV32IMC instruction's encoding is written down once, here.  The
# assembler places operands through it and ``core.decode32`` and
# ``core.decode16`` gather them back (``lookup``, ``gather``).
#
# An immediate layout gives the instruction bits that hold each bit of
# the immediate, as the ISA manual draws them: ``(31, "12|10:5")`` puts
# imm[12] at bit 31 and imm[10:5] at bits 30:25.  Its width is its top
# bit plus one, and the bits below its lowest one must be zero (the
# alignment).  ``signed`` None takes signed and unsigned values alike
# and decodes them unsigned.
LAYOUTS = {
    # name: (signed, (top instruction bit, immediate bits), ...)
    "I": (True, (31, "11:0")),
    "S": (True, (31, "11:5"), (11, "4:0")),
    "B": (True, (31, "12|10:5"), (11, "4:1|11")),
    "U": (None, (31, "19:0")),
    "J": (True, (31, "20|10:1|11|19:12")),
    "shamt": (False, (24, "4:0")),
    "zimm": (False, (19, "4:0")),
    "CI": (True, (12, "5"), (6, "4:0")),
    "c.shamt": (False, (6, "4:0")),         # shamt[5], bit 12, is 0 on RV32
    "c.addi16sp": (True, (12, "9"), (6, "4|6|8:7|5")),
    "c.lwsp": (False, (12, "5"), (6, "4:2|7:6")),
    "CSS": (False, (12, "5:2|7:6")),
    "CIW": (False, (12, "5:4|9:6|2|3")),
    "CL": (False, (12, "5:3"), (6, "2|6")),     # and CS
    "CJ": (True, (12, "11|4|9:8|10|6|7|3:1|5")),
    "CB": (True, (12, "8|4:3"), (6, "7:6|2:1|5")),
}

# Register fields: (lowest bit, width, the register number added).
# Width 0 is an implied register.  RD is also RVC's rd/rs1 at bits 11:7;
# P7 and P2 are its x8-x15 fields rd'/rs1' and rd'/rs2'.
RD, RS1, RS2, CSR = (7, 5, 0), (15, 5, 0), (20, 5, 0), (20, 12, 0)
C2, P7, P2 = (2, 5, 0), (7, 3, 8), (2, 3, 8)
X0, X1, X2 = (0, 0, 0), (0, 0, 1), (0, 0, 2)

# RV32IM by major opcode: groups of (syntax, immediate layout, base,
# {mnemonic: its fixed bits besides the opcode}).  The syntax names the
# operands in the assembler's order and in the trace text's form: rd,
# rs1, rs2 and csr are fields, imm an immediate, target a pc-relative
# one (a label to the assembler) and upper one that counts 4 KiB.  The
# base is what the instruction executes as: a ``core.SEMANTICS`` key or
# a hand-written closure of ``core``; None is the mnemonic itself.
RV32 = {
    0b0010011: (("rd, rs1, imm", "I", None, {
                    "addi": 0x0000, "slti": 0x2000, "sltiu": 0x3000,
                    "xori": 0x4000, "ori": 0x6000, "andi": 0x7000}),
                ("rd, rs1, imm", "shamt", None, {
                    "slli": 0x1000, "srli": 0x5000, "srai": 0x40005000})),
    0b0110011: (("rd, rs1, rs2", None, None, {
        "add": 0x0000, "sub": 0x40000000, "sll": 0x1000, "slt": 0x2000,
        "sltu": 0x3000, "xor": 0x4000, "srl": 0x5000, "sra": 0x40005000,
        "or": 0x6000, "and": 0x7000,
        "mul": 0x02000000, "mulh": 0x02001000, "mulhsu": 0x02002000,
        "mulhu": 0x02003000, "div": 0x02004000, "divu": 0x02005000,
        "rem": 0x02006000, "remu": 0x02007000}),),
    0b0000011: (("rd, imm(rs1)", "I", None, {
        "lb": 0x0000, "lh": 0x1000, "lw": 0x2000, "lbu": 0x4000,
        "lhu": 0x5000}),),
    0b0100011: (("rs2, imm(rs1)", "S", None, {
        "sb": 0x0000, "sh": 0x1000, "sw": 0x2000}),),
    0b1100011: (("rs1, rs2, target", "B", None, {
        "beq": 0x0000, "bne": 0x1000, "blt": 0x4000, "bge": 0x5000,
        "bltu": 0x6000, "bgeu": 0x7000}),),
    0b1100111: (("rd, imm(rs1)", "I", None, {"jalr": 0x0000}),),
    0b0110111: (("rd, upper", "U", None, {"lui": 0}),),
    0b0010111: (("rd, upper", "U", None, {"auipc": 0}),),
    0b1101111: (("rd, target", "J", None, {"jal": 0}),),
    # fence: pred and succ iorw
    0b0001111: (("", None, "nop", {"fence": 0x0FF00000, "fence.i": 0x1000}),),
    0b1110011: (("rd, csr, rs1", None, "csr", {
                    "csrrw": 0x1000, "csrrs": 0x2000, "csrrc": 0x3000}),
                ("rd, csr, imm", "zimm", "csr", {
                    "csrrwi": 0x5000, "csrrsi": 0x6000, "csrrci": 0x7000}),
                ("", None, None, {"ecall": 0x00000000, "ebreak": 0x00100000,
                                  "mret": 0x30200000, "wfi": 0x10500000})),
}
# the bits that fence and fence.i ignore: rd, rs1 and the immediate
# (fence's fm, pred and succ); MISC-MEM's funct3 2-7 are reserved
IGNORED = {"fence": 0xFFFF8F80, "fence.i": 0xFFFF8F80}

# RVC by quadrant: mnemonic -> (its fixed bits besides the quadrant,
# base, syntax, immediate layout, rd, rs1, rs2), in the terms of RV32.
# The bits of a row's fields and layout are operand bits whether or not
# its syntax names them (c.nop ignores its immediate).  A row whose base
# is None is a reserved encoding, which traps.
RVC = {
    0b00: {
        "c.addi4spn": (0x0000, "addi", "rd, imm", "CIW", P2, X2, X0),
        "c.addi4spn nzuimm=0": (0x0000, None, "", None, P2, X0, X0),
        "c.lw": (0x4000, "lw", "rd, imm(rs1)", "CL", P2, P7, X0),
        "c.sw": (0xC000, "sw", "rs2, imm(rs1)", "CL", X0, P7, P2),
    },
    0b01: {
        "c.nop": (0x0000, "nop", "", "CI", X0, X0, X0),
        "c.addi": (0x0000, "addi", "rd, imm", "CI", RD, RD, X0),
        "c.jal": (0x2000, "jal", "target", "CJ", X1, X0, X0),
        "c.li": (0x4000, "addi", "rd, imm", "CI", RD, X0, X0),
        "c.addi16sp": (0x6100, "addi", "imm", "c.addi16sp", X2, X2, X0),
        "c.addi16sp nzimm=0": (0x6100, None, "", None, X0, X0, X0),
        "c.lui": (0x6000, "lui", "rd, upper", "CI", RD, X0, X0),
        "c.lui nzimm=0": (0x6000, None, "", None, RD, X0, X0),
        "c.srli": (0x8000, "srli", "rd, imm", "c.shamt", P7, P7, X0),
        "c.srai": (0x8400, "srai", "rd, imm", "c.shamt", P7, P7, X0),
        "c.andi": (0x8800, "andi", "rd, imm", "CI", P7, P7, X0),
        "c.sub": (0x8C00, "sub", "rd, rs2", None, P7, P7, P2),
        "c.xor": (0x8C20, "xor", "rd, rs2", None, P7, P7, P2),
        "c.or": (0x8C40, "or", "rd, rs2", None, P7, P7, P2),
        "c.and": (0x8C60, "and", "rd, rs2", None, P7, P7, P2),
        "c.j": (0xA000, "jal", "target", "CJ", X0, X0, X0),
        "c.beqz": (0xC000, "beq", "rs1, target", "CB", X0, P7, X0),
        "c.bnez": (0xE000, "bne", "rs1, target", "CB", X0, P7, X0),
    },
    0b10: {
        "c.slli": (0x0000, "slli", "rd, imm", "c.shamt", RD, RD, X0),
        "c.lwsp": (0x4000, "lw", "rd, imm", "c.lwsp", RD, X2, X0),
        "c.lwsp rd=0": (0x4000, None, "", "c.lwsp", X0, X0, X0),
        "c.jr": (0x8000, "jalr", "rs1", None, X0, RD, X0),
        "c.jr rs1=0": (0x8000, None, "", None, X0, X0, X0),
        "c.mv": (0x8000, "add", "rd, rs2", None, RD, X0, C2),
        "c.ebreak": (0x9000, "ebreak", "", None, X0, X0, X0),
        "c.jalr": (0x9000, "jalr", "rs1", None, X1, RD, X0),
        "c.add": (0x9000, "add", "rd, rs2", None, RD, RD, C2),
        "c.swsp": (0xC000, "sw", "rs2, imm", "CSS", X0, X2, C2),
    },
}


class Layout(NamedTuple):
    """An immediate layout, compiled: (instruction bit, immediate bit,
    mask) runs, the instruction bits they cover, and the value's width,
    signedness, range and alignment mask."""
    runs: tuple
    bits: int
    width: int
    signed: bool | None
    lo: int
    hi: int
    align: int


def _layout(signed, *pieces) -> Layout:
    runs = []
    for top, spec in pieces:
        for seg in spec.split("|"):
            hi, _, lo = seg.partition(":")
            hi, lo = int(hi), int(lo or hi)
            top -= hi - lo
            runs.append((top, lo, (1 << (hi - lo + 1)) - 1))
            top -= 1
    width = max(lo + m.bit_length() for _at, lo, m in runs)
    return Layout(tuple(runs), sum(m << at for at, _lo, m in runs), width,
                  signed, -(1 << (width - 1)) if signed is not False else 0,
                  (1 << (width - (signed is True))) - 1,
                  (1 << min(lo for _at, lo, _m in runs)) - 1)


def gather(lay: Layout, word: int) -> int:
    """The immediate of layout ``lay`` in ``word``."""
    v = 0
    for at, lo, m in lay.runs:
        v |= (word >> at & m) << lo
    if lay.signed and v >> (lay.width - 1):
        v -= 1 << lay.width
    return v


class Encoding(NamedTuple):
    """One row of the table, compiled."""
    mnem: str
    ln: int             # bytes
    match: int          # the fixed bits, which the assembler starts from
    mask: int           # the bits that tell it from every other encoding
    base: str | None    # what it executes as (see RV32); None: reserved
    places: tuple       # (operand, field or Layout) in syntax order
    regs: tuple         # the rd, rs1, rs2 and csr fields
    imm: str | None     # the syntax's immediate: imm, target or upper
    layout: Layout | None
    text: str           # the trace text's format


_LAYOUT = {name: _layout(*spec) for name, spec in LAYOUTS.items()}
_RV32_FIELDS = {"rd": RD, "rs1": RS1, "rs2": RS2, "csr": CSR}
_TEXT = {"rd": "x{rd}", "rs1": "x{rs1}", "rs2": "x{rs2}", "csr": "{csr:#x}",
         "imm": "{imm}", "target": "{imm:#x}", "upper": "{imm:#x}"}


def _encoding(mnem, match, base, syntax, layout, regs=None, ignored=0):
    """Row ``mnem``; an RV32 row (``regs`` None) has the fields that its
    syntax names."""
    ln = 2 if mnem.startswith("c.") else 4
    names = re.findall(r"\w+", syntax)
    if regs is None:
        regs = tuple(f if n in names else X0 for n, f in _RV32_FIELDS.items())
    lay = _LAYOUT.get(layout)
    free = ignored | (lay.bits if lay else 0)
    for lo, width, _add in regs:
        free |= ((1 << width) - 1) << lo
    imm = next((n for n in names if n in ("imm", "target", "upper")), None)
    fields = dict(zip(("rd", "rs1", "rs2", "csr"), regs))
    places = tuple((n, lay if n == imm else fields[n]) for n in names)
    text = re.sub(r"\w+", lambda m: _TEXT[m[0]], syntax)
    return Encoding(mnem, ln, match, (1 << 8 * ln) - 1 & ~free, base, places,
                    regs, imm, lay, f"{mnem} {text}".rstrip())


_ROWS = [_encoding(m, opcode | bits, base or m, syntax, layout,
                   ignored=IGNORED.get(m, 0))
         for opcode, groups in RV32.items()
         for syntax, layout, base, members in groups
         for m, bits in members.items()]
_ROWS += [_encoding(m.split()[0], quadrant | bits, base, syntax, layout,
                    (*regs, X0))
          for quadrant, rows in RVC.items()
          for m, (bits, base, syntax, layout, *regs) in rows.items()]
# the assembler's table: every encoding but the reserved ones
ENCODINGS = {e.mnem: e for e in _ROWS if e.base is not None}


def _buckets() -> dict:
    """ln -> the key bits (funct3 and the major opcode, or funct3 and the
    quadrant) -> (mask, fixed bits, row) for every row with those key
    bits, the most specific first.  A row that leaves funct3 free sits
    under every funct3."""
    buckets: dict = {2: {}, 4: {}}
    for e in sorted(_ROWS, key=lambda e: -e.mask.bit_count()):
        free, keys = _KEY[e.ln] & ~e.mask, {e.match & e.mask & _KEY[e.ln]}
        for bit in range(16):
            if free >> bit & 1:
                keys |= {k | 1 << bit for k in keys}
        for k in keys:
            buckets[e.ln].setdefault(k, []).append((e.mask, e.match & e.mask, e))
    return buckets


_KEY = {4: 0x707F, 2: 0xE003}
_BUCKETS = _buckets()
# the encodings that share words with other rows (the assembler checks
# that their operands make none of the others' words)
_SHADOWED = {e.mnem for e in ENCODINGS.values() for f in _ROWS if f is not e
             and f.ln == e.ln and not (e.match ^ f.match) & e.mask & f.mask}


def lookup(word: int, ln: int) -> Encoding | None:
    """The row that ``word``, an ``ln``-byte encoding, is an instance of
    (None if it is none's)."""
    for mask, fixed, e in _BUCKETS[ln].get(word & _KEY[ln], ()):
        if word & mask == fixed:
            return e
    return None


def _scatter(lay: Layout, v: int, mnem: str) -> int:
    runs, _bits, width, signed, lo, hi, align = lay
    if not lo <= v <= hi or v & align:
        raise AsmError(f"{mnem}: immediate out of range: {v} (needs "
                       f"{width}-bit {'un' * (signed is False)}signed"
                       f"{f', a multiple of {align + 1}' if align else ''})")
    word = 0
    for at, lo, m in runs:
        word |= (v >> lo & m) << at
    return word


class Program:
    """Labeled instruction/data sequence with an entry label."""

    def __init__(self, entry: str = "_start"):
        self.items: list[tuple] = []
        self.entry = entry

    def label(self, name: str) -> "Program":
        self.items.append(("label", name))
        return self

    def ins(self, mnem: str, *ops) -> "Program":
        self.items.append(("ins", mnem, ops))
        return self

    def word(self, value) -> "Program":
        self.items.append(("word", value))
        return self

    def words(self, values) -> "Program":
        for v in values:
            self.items.append(("word", v))
        return self

    def space(self, nbytes: int) -> "Program":
        self.items.append(("space", nbytes))
        return self

    def align(self, n: int = 4) -> "Program":
        self.items.append(("align", n))
        return self


def _item_size(item, addr) -> int:
    kind = item[0]
    if kind == "word":
        if addr % 4:
            raise AsmError("word directive at unaligned address; insert align(4)")
        return 4
    if kind == "ins":
        mnem = item[1]
        if mnem in ("li", "la"):
            return 8
        return 2 if mnem.startswith("c.") else 4
    if kind == "label":
        return 0
    if kind == "space":
        return item[1]
    if kind == "align":
        n = item[1]
        return (-addr) % n
    raise AsmError(f"unknown item: {item!r}")


def _resolve(v, labels, what="operand") -> int:
    """An operand's value: a label's address or an integer."""
    if type(v) is int:
        return v
    if isinstance(v, str):
        try:
            return labels[v]
        except KeyError:
            raise AsmError(f"unresolved label in {what}: {v!r}") from None
    try:
        return operator.index(v)
    except TypeError:
        raise AsmError(f"{what} is not an integer: {v!r}") from None


def _split_hi_lo(value: int) -> tuple[int, int]:
    value &= M32
    lo = value & 0xFFF
    if lo >= 0x800:
        lo -= 0x1000
    hi = ((value - lo) >> 12) & 0xFFFFF
    return hi, lo


# (pseudo-op, operand count) -> (instruction, its operands)
_PSEUDO = {
    ("nop", 0): ("addi", lambda ops: ("x0", "x0", 0)),
    ("mv", 2): ("addi", lambda ops: (ops[0], ops[1], 0)),
    ("j", 1): ("jal", lambda ops: ("x0", ops[0])),
    ("jal", 1): ("jal", lambda ops: ("ra", ops[0])),
    ("jr", 1): ("jalr", lambda ops: ("x0", 0, ops[0])),
    ("jalr", 1): ("jalr", lambda ops: ("ra", 0, ops[0])),
    ("ret", 0): ("jalr", lambda ops: ("x0", 0, "ra")),
    ("beqz", 2): ("beq", lambda ops: (ops[0], "x0", ops[1])),
    ("bnez", 2): ("bne", lambda ops: (ops[0], "x0", ops[1])),
    ("csrr", 2): ("csrrs", lambda ops: (ops[0], ops[1], "x0")),
    ("csrw", 2): ("csrrw", lambda ops: ("x0", ops[0], ops[1])),
    ("csrs", 2): ("csrrs", lambda ops: ("x0", ops[0], ops[1])),
    ("csrc", 2): ("csrrc", lambda ops: ("x0", ops[0], ops[1])),
}


def _encode(mnem, ops, pc, labels) -> tuple[int, int]:
    """The word of one (possibly pseudo) instruction at ``pc``, and its
    length in bytes."""
    e = ENCODINGS.get(mnem)
    if e is None or len(ops) != len(e.places):
        pseudo = _PSEUDO.get((mnem, len(ops)))
        if pseudo is None:
            raise AsmError(f"unknown mnemonic: {mnem!r}" if e is None else
                           f"{mnem} takes {len(e.places)} operands, got {len(ops)}")
        return _encode(pseudo[0], pseudo[1](ops), pc, labels)
    _mnem, ln, word, _mask, _base, places, _regs, imm, _lay, _text = e
    for op, (name, spec) in zip(ops, places):
        if name == imm:
            v = _resolve(op, labels, mnem)
            word |= _scatter(spec, v - pc if name == "target" else v, mnem)
        else:
            lo, width, add = spec
            v = (csr_num(op) if name == "csr" else reg(op)) - add
            if not 0 <= v < 1 << width:
                raise AsmError(f"{mnem}: register x{v + add} not encodable "
                               f"(needs x{add}-x{add + (1 << width) - 1})")
            word |= v << lo
    found = lookup(word, ln) if mnem in _SHADOWED else e
    if found is not e:
        raise AsmError(f"{mnem} {', '.join(map(str, ops))}: the operands make "
                       f"{'a reserved encoding' if found.base is None else found.mnem}")
    return word, ln


def assemble(program: Program, base: int) -> bytes:
    """Two-pass assembly to a little-endian image loaded at ``base``."""
    labels = label_map(program, base)
    out = bytearray()
    for item in program.items:
        kind = item[0]
        if kind == "word":
            out += (_resolve(item[1], labels, "word") & M32).to_bytes(4, "little")
        elif kind == "ins":
            mnem, ops, pc = item[1], item[2], base + len(out)
            if mnem in ("li", "la"):
                hi, lo = _split_hi_lo(_resolve(ops[1], labels, mnem))
                words = (_encode("lui", (ops[0], hi), pc, labels),
                         _encode("addi", (ops[0], ops[0], lo), pc + 4, labels))
            else:
                words = (_encode(mnem, ops, pc, labels),)
            for word, ln in words:
                out += word.to_bytes(ln, "little")
        elif kind != "label":
            out += bytes(_item_size(item, base + len(out)))
    return bytes(out)


def label_map(program: Program, base: int) -> dict[str, int]:
    labels: dict[str, int] = {}
    addr = base
    for item in program.items:
        if item[0] == "label":
            if item[1] in labels:
                raise AsmError(f"duplicate label: {item[1]!r}")
            labels[item[1]] = addr
        else:
            addr += _item_size(item, addr)
    return labels


def entry_address(program: Program, base: int) -> int:
    labels = label_map(program, base)
    if program.entry not in labels:
        raise AsmError(f"entry label {program.entry!r} not defined")
    return labels[program.entry]
