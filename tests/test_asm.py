"""Assembler encodings against frozen ISA literals plus decoder roundtrips."""

import random
import struct

import pytest

from lockstep_mcu.asm import (
    ENCODINGS, AsmError, Layout, Program, assemble, entry_address,
)
from lockstep_mcu.core import decode16, decode32

BASE = 0x1C000000


def asm_words(*ins):
    p = Program()
    p.label("_start")
    for mnem, *ops in ins:
        p.ins(mnem, *ops)
    raw = assemble(p, BASE)
    return raw


def one_word(mnem, *ops):
    raw = asm_words((mnem, *ops))
    return struct.unpack("<I", raw[:4])[0]


def one_half(mnem, *ops):
    raw = asm_words((mnem, *ops))
    return struct.unpack("<H", raw[:2])[0]


class TestEncodings:
    # spot values cross-checked against the RISC-V ISA manual encodings
    def test_addi(self):
        assert one_word("addi", "x1", "x0", 5) == 0x00500093

    def test_c_nop(self):
        assert one_half("c.nop") == 0x0001

    def test_lui(self):
        assert one_word("lui", "a0", 0xDEAD5) == 0xDEAD5537

    def test_lw_sw(self):
        assert one_word("lw", "a0", 8, "sp") == 0x00812503
        assert one_word("sw", "a0", 12, "sp") == 0x00A12623

    def test_branch_offsets(self):
        p = Program()
        p.label("_start")
        p.ins("beq", "x0", "x0", "_start")
        raw = assemble(p, BASE)
        word = struct.unpack("<I", raw)[0]
        assert word == 0x00000063  # offset 0

    def test_jal_backward(self):
        p = Program()
        p.label("_start")
        p.ins("nop")
        p.ins("jal", "x0", "_start")
        raw = assemble(p, BASE)
        word = struct.unpack("<I", raw[4:8])[0]
        assert word == 0xFFDFF06F  # jal x0, -4

    def test_system(self):
        assert one_word("ecall") == 0x00000073
        assert one_word("ebreak") == 0x00100073
        assert one_word("mret") == 0x30200073
        assert one_word("wfi") == 0x10500073

    def test_mul_div(self):
        assert one_word("mul", "a0", "a1", "a2") == 0x02C58533
        assert one_word("div", "x3", "x1", "x2") == 0x0220C1B3

    def test_csr(self):
        assert one_word("csrr", "t0", "mhartid") == 0xF14022F3
        assert one_word("csrw", "mtvec", "t0") == 0x30529073

    def test_li_expands_to_two_words(self):
        raw = asm_words(("li", "a0", 0x12345678))
        assert len(raw) == 8
        hi, lo = struct.unpack("<II", raw)
        assert hi == 0x12345537  # lui a0, 0x12345
        assert lo == 0x67850513  # addi a0, a0, 0x678

    def test_li_negative_low_part(self):
        raw = asm_words(("li", "a0", 0x12345FFF))
        hi, lo = struct.unpack("<II", raw)
        assert hi == 0x12346537  # rounds up, then backs off
        assert lo == 0xFFF50513  # addi a0, a0, -1

    def test_compressed_alu(self):
        assert one_half("c.addi", "a0", -1) == 0x157D
        assert one_half("c.mv", "a0", "a1") == 0x852E
        assert one_half("c.add", "a0", "a1") == 0x952E
        assert one_half("c.lw", "a2", 8, "a0") == 0x4510
        assert one_half("c.sw", "a2", 8, "a0") == 0xC510

    def test_pseudo_expansion(self):
        assert one_word("nop") == 0x00000013
        assert one_word("mv", "a0", "a1") == 0x00058513
        assert one_word("ret") == 0x00008067
        assert one_word("beqz", "a0", BASE) == \
            one_word("beq", "a0", "x0", BASE)


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError, match="unknown mnemonic"):
            asm_words(("frobnicate", "x1"))

    def test_unresolved_label(self):
        with pytest.raises(AsmError, match="unresolved label"):
            asm_words(("jal", "x0", "nowhere"))

    def test_unknown_register(self):
        with pytest.raises(AsmError, match="unknown register"):
            asm_words(("addi", "q7", "x0", 1))

    def test_immediate_range(self):
        with pytest.raises(AsmError, match="out of range"):
            asm_words(("addi", "x1", "x0", 5000))

    def test_csr_number_range(self):
        # 0x1340 once assembled as mscratch (0x340)
        with pytest.raises(AsmError, match="CSR number out of range"):
            asm_words(("csrrw", "a0", 0x1340, "a1"))
        assert one_word("csrrw", "a0", 0xFFF, "a1") >> 20 == 0xFFF

    @pytest.mark.parametrize("mnem", ["lui", "auipc"])
    def test_upper_immediate_range(self, mnem):
        # 0x123456 once assembled as 0x23456
        with pytest.raises(AsmError, match="out of range"):
            asm_words((mnem, "a0", 0x123456))
        with pytest.raises(AsmError, match="out of range"):
            asm_words((mnem, "a0", -0x80001))
        # the 20-bit values, unsigned and signed, that li/la and the
        # fuzzer use
        assert one_word(mnem, "a0", 0xFFFFF) >> 12 == 0xFFFFF
        assert one_word(mnem, "a0", -0x80000) >> 12 == 0x80000

    @pytest.mark.parametrize("ins", [
        ("slli", "a0", "a1", "x"), ("jalr", "a0", "x", "a1"),
        ("c.addi", "a0", "x"), ("c.lw", "a0", "x", "a1"),
        ("c.lwsp", "a0", "x"), ("csrrwi", "a0", "mscratch", "x")],
        ids=lambda i: i[0])
    def test_immediate_label_unresolved(self, ins):
        # every immediate resolves like a branch target: a label or an
        # integer, and anything else is an AsmError
        with pytest.raises(AsmError, match="unresolved label"):
            asm_words(ins)
        with pytest.raises(AsmError, match="not an integer"):
            asm_words(tuple(1.5 if op == "x" else op for op in ins))

    def test_operand_count(self):
        with pytest.raises(AsmError, match="takes 3 operands"):
            asm_words(("add", "a0", "a1"))

    @pytest.mark.parametrize("ins", [
        ("c.addi", "x0", 1), ("c.lui", "sp", 1), ("c.lui", "a0", 0),
        ("c.addi16sp", 0), ("c.addi4spn", "a0", 0), ("c.lwsp", "x0", 4),
        ("c.jr", "x0"), ("c.jalr", "x0"), ("c.mv", "a0", "x0"),
        ("c.add", "a0", "x0")], ids=lambda i: f"{i[0]} {i[1:]}")
    def test_operands_make_another_encoding(self, ins):
        # c.nop, c.addi16sp, reserved encodings, c.ebreak, c.jr, c.jalr
        with pytest.raises(AsmError, match="the operands make"):
            asm_words(ins)

    def test_compressed_register_range(self):
        with pytest.raises(AsmError, match=r"needs x8-x15"):
            asm_words(("c.lw", "a0", 0, "sp"))

    def test_duplicate_label(self):
        p = Program()
        p.label("_start")
        p.label("x")
        p.label("x")
        with pytest.raises(AsmError, match="duplicate label"):
            assemble(p, BASE)

    def test_entry_address(self):
        p = Program(entry="go")
        p.label("_start")
        p.ins("nop")
        p.label("go")
        p.ins("nop")
        assert entry_address(p, BASE) == BASE + 4


class TestDecodeRoundtrip:
    """decode(assemble(p)) re-derives the mnemonic stream."""

    CASES = [
        ("addi", "a0", "a1", -7), ("slti", "a0", "a1", 3),
        ("sltiu", "a0", "a1", 3), ("xori", "a0", "a1", 0x55),
        ("ori", "a0", "a1", 0x55), ("andi", "a0", "a1", 0x55),
        ("slli", "a0", "a1", 3), ("srli", "a0", "a1", 3),
        ("srai", "a0", "a1", 3),
        ("add", "a0", "a1", "a2"), ("sub", "a0", "a1", "a2"),
        ("sll", "a0", "a1", "a2"), ("slt", "a0", "a1", "a2"),
        ("sltu", "a0", "a1", "a2"), ("xor", "a0", "a1", "a2"),
        ("srl", "a0", "a1", "a2"), ("sra", "a0", "a1", "a2"),
        ("or", "a0", "a1", "a2"), ("and", "a0", "a1", "a2"),
        ("mul", "a0", "a1", "a2"), ("mulh", "a0", "a1", "a2"),
        ("mulhsu", "a0", "a1", "a2"), ("mulhu", "a0", "a1", "a2"),
        ("div", "a0", "a1", "a2"), ("divu", "a0", "a1", "a2"),
        ("rem", "a0", "a1", "a2"), ("remu", "a0", "a1", "a2"),
        ("lb", "a0", 4, "a1"), ("lh", "a0", 4, "a1"), ("lw", "a0", 4, "a1"),
        ("lbu", "a0", 4, "a1"), ("lhu", "a0", 4, "a1"),
        ("sb", "a0", 4, "a1"), ("sh", "a0", 4, "a1"), ("sw", "a0", 4, "a1"),
        ("beq", "a0", "a1", BASE), ("bne", "a0", "a1", BASE),
        ("blt", "a0", "a1", BASE), ("bge", "a0", "a1", BASE),
        ("bltu", "a0", "a1", BASE), ("bgeu", "a0", "a1", BASE),
        ("lui", "a0", 0x12345), ("auipc", "a0", 0x12345),
        ("jal", "x1", BASE), ("jalr", "x1", 0, "a0"),
        ("fence",), ("fence.i",), ("ecall",), ("ebreak",),
        ("mret",), ("wfi",),
        ("csrrw", "a0", "mscratch", "a1"), ("csrrs", "a0", "mscratch", "a1"),
        ("csrrc", "a0", "mscratch", "a1"), ("csrrwi", "a0", "mscratch", 7),
        ("csrrsi", "a0", "mscratch", 7), ("csrrci", "a0", "mscratch", 7),
    ]

    C_CASES = [
        ("c.nop",), ("c.addi", "a0", 5), ("c.li", "a0", -3),
        ("c.lui", "a0", 4), ("c.addi16sp", 32), ("c.addi4spn", "a0", 16),
        ("c.lw", "a0", 8, "a1"), ("c.sw", "a0", 8, "a1"),
        ("c.lwsp", "a0", 8), ("c.swsp", "a0", 8),
        ("c.srli", "a0", 3), ("c.srai", "a0", 3), ("c.andi", "a0", -2),
        ("c.sub", "a0", "a1"), ("c.xor", "a0", "a1"),
        ("c.or", "a0", "a1"), ("c.and", "a0", "a1"),
        ("c.slli", "a0", 3), ("c.j", BASE), ("c.jal", BASE),
        ("c.beqz", "a0", BASE), ("c.bnez", "a0", BASE),
        ("c.jr", "a0"), ("c.jalr", "a0"), ("c.mv", "a0", "a1"),
        ("c.add", "a0", "a1"), ("c.ebreak",),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_32bit(self, case):
        word = one_word(*case)
        text = decode32(word, BASE)[2]
        assert text.split()[0].rstrip(",") == case[0]

    @pytest.mark.parametrize("case", C_CASES, ids=lambda c: c[0])
    def test_16bit(self, case):
        half = one_half(*case)
        text = decode16(half, BASE)[2]
        assert text.split()[0].rstrip(",") == case[0]

    def test_mixed_stream(self):
        p = Program()
        p.label("_start")
        p.ins("li", "a0", 0x1C041234)
        p.ins("c.addi", "a0", 4)
        p.ins("add", "a1", "a0", "a0")
        raw = assemble(p, BASE)
        # li -> lui+addi, then one compressed, then one 32-bit
        w0, w1 = struct.unpack_from("<II", raw, 0)
        assert decode32(w0, BASE)[2].startswith("lui")
        assert decode32(w1, BASE + 4)[2].startswith("addi")
        h = struct.unpack_from("<H", raw, 8)[0]
        assert decode16(h, BASE + 8)[2].startswith("c.addi")


def _draw(place, rng, edge):
    """An operand for ``place`` of an encoding at ``BASE``: its low edge
    (``edge`` 0), its high edge (1) or a random legal value."""
    name, spec = place
    if isinstance(spec, Layout):
        lo, hi = spec.lo, spec.hi & ~spec.align
        v = (lo, hi, rng.randrange(lo, hi + 1) & ~spec.align)[min(edge, 2)]
        return BASE + v if name == "target" else v
    lo, width, add = spec
    return add + ((0, (1 << width) - 1)[edge] if edge < 2 else
                  rng.randrange(1 << width))


def _expected(e, ops):
    """The template (key, rd, rs1, rs2, imm) that assembling ``ops`` for
    encoding ``e`` at ``BASE`` must decode to."""
    by_field = {spec: op for (name, spec), op in zip(e.places, ops)}
    regs = [by_field.get(spec, spec[2]) for spec in e.regs[:3]]
    imm = next((op for (name, _s), op in zip(e.places, ops) if name == e.imm), 0)
    if e.imm == "upper":
        imm = ((imm << 12) + (BASE if e.base == "auipc" else 0)) & 0xFFFFFFFF
    return ("lui" if e.base == "auipc" else e.base, *regs, imm)


class TestOperandRoundtrip:
    """Every mnemonic of the encoding table, with seeded random legal
    operands and both range edges of each, decodes back to its operands:
    a template's key, registers and immediate or target, and for the
    other instructions their trace text."""

    DRAWS = 40

    @pytest.mark.parametrize("mnem", sorted(ENCODINGS))
    def test_operands_decode_back(self, mnem):
        e = ENCODINGS[mnem]
        rng = random.Random(mnem)
        checked = 0
        for k in range(self.DRAWS):
            ops = [_draw(place, rng, k) for place in e.places]
            try:
                raw = asm_words((mnem, *ops))
            except AsmError as err:     # an operand that makes another row
                assert "the operands make" in str(err)
                continue
            word = int.from_bytes(raw, "little")
            _ex, _rd, text, _r, _w, template = \
                (decode32 if e.ln == 4 else decode16)(word, BASE)
            if e.base == "csr":
                assert text == f"{mnem} x{ops[0]}, {ops[1]:#x}, {ops[2]}"
            elif template is None:
                assert text == mnem
            else:
                assert template == _expected(e, ops), (ops, hex(word))
            checked += 1
        assert checked >= self.DRAWS // 2

