"""Directed ISA tests: semantics forced by the architecture, cycle
costs per the pipeline model, traps, state dump/load."""

import random

import pytest

from lockstep_mcu.asm import Program, assemble
from lockstep_mcu.core import Core, decode16, decode32
from lockstep_mcu.soc import SIMCTL_BASE, SRAM_BASE, Soc, SocConfig

M32 = 0xFFFFFFFF


def run_ops(setup_and_ops, mode="lockstep", max_cycles=500_000):
    """Assemble `_start: <ops...>; exit`, run, return the finished SoC."""
    p = Program()
    p.label("_start")
    for mnem, *ops in setup_and_ops:
        p.ins(mnem, *ops)
    p.ins("la", "t6", SIMCTL_BASE)
    p.ins("sw", "x0", 0, "t6")
    p.align(4)
    p.label("buf")
    p.words([0] * 8)
    soc = Soc(SocConfig(mode=mode, max_cycles=max_cycles))
    soc.load_program(p)
    res = soc.run()
    assert res.exit_code == 0, f"guest crashed: {res.exit_code:#x}"
    soc.materialize()
    return soc


def regval(soc, name):
    from lockstep_mcu.asm import ABI_REGS
    return soc.cores[0].regs[ABI_REGS[name]]


def measure(ops, setup=()):
    """Cycle cost of the instruction sequence via mcycle deltas."""
    p = Program()
    p.label("_start")
    for mnem, *o in setup:
        p.ins(mnem, *o)
    p.ins("csrr", "s10", "mcycle")
    for mnem, *o in ops:
        p.ins(mnem, *o)
    p.ins("csrr", "s11", "mcycle")
    p.ins("sub", "a3", "s11", "s10")
    p.ins("la", "t6", SIMCTL_BASE)
    p.ins("sw", "a3", 4, "t6")
    p.ins("sw", "x0", 0, "t6")
    p.align(4)
    p.label("buf")
    p.words([0] * 4)
    soc = Soc(SocConfig())
    soc.load_program(p)
    res = soc.run()
    assert res.exit_code == 0
    return res.checksum - 1  # subtract the second csrr itself


class TestAluSemantics:
    def test_addi(self):
        soc = run_ops([("addi", "x1", "x0", 5)])
        assert soc.cores[0].regs[1] == 5
        # one retired instruction per executed addi, minstret advanced

    def test_x0_hardwired(self):
        soc = run_ops([("addi", "x0", "x0", 5), ("add", "a0", "x0", "x0")])
        assert soc.cores[0].regs[0] == 0
        assert regval(soc, "a0") == 0

    @pytest.mark.parametrize("mnem,a,b,want", [
        ("add", 7, 8, 15),
        ("add", 0xFFFFFFFF, 1, 0),
        ("sub", 5, 7, 0xFFFFFFFE),
        ("sll", 1, 31, 0x80000000),
        ("sll", 1, 33, 2),              # shamt masked to 5 bits
        ("slt", 0xFFFFFFFF, 0, 1),      # -1 < 0 signed
        ("sltu", 0xFFFFFFFF, 0, 0),
        ("xor", 0xFF00FF00, 0x0F0F0F0F, 0xF00FF00F),
        ("srl", 0x80000000, 4, 0x08000000),
        ("sra", 0x80000000, 4, 0xF8000000),
        ("or", 0xF0F0, 0x0F0F, 0xFFFF),
        ("and", 0xFF00, 0x0FF0, 0x0F00),
    ])
    def test_reg_reg(self, mnem, a, b, want):
        soc = run_ops([("li", "a1", a), ("li", "a2", b),
                       (mnem, "a0", "a1", "a2")])
        assert regval(soc, "a0") == want

    @pytest.mark.parametrize("mnem,a,imm,want", [
        ("addi", 7, -3, 4),
        ("slti", 3, 5, 1),
        ("sltiu", 3, -1, 1),            # imm sign-extends then compares unsigned
        ("xori", 0xFF, -1, 0xFFFFFF00),
        ("ori", 0x0F, 0x70, 0x7F),
        ("andi", 0xFFFF, 0x0FF, 0xFF),
    ])
    def test_imm(self, mnem, a, imm, want):
        soc = run_ops([("li", "a1", a), (mnem, "a0", "a1", imm)])
        assert regval(soc, "a0") == want

    def test_lui_auipc(self):
        soc = run_ops([("lui", "a0", 0x12345), ("auipc", "a1", 0)])
        assert regval(soc, "a0") == 0x12345000
        # auipc is the second instruction: pc = base + 4... after li-less lui (4 bytes)
        assert regval(soc, "a1") == SRAM_BASE + 4


class TestMulDiv:
    @pytest.mark.parametrize("mnem,a,b,want", [
        ("mul", 7, 6, 42),
        ("mul", 0x10000, 0x10000, 0),               # low 32 bits wrap
        ("mulh", 0x80000000, 0x80000000, 0x40000000),
        ("mulhu", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFE),
        ("mulhsu", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
        ("div", 7, 2, 3),
        ("div", 0xFFFFFFF9, 2, 0xFFFFFFFD),          # -7/2 = -3 trunc
        ("div", 7, 0, 0xFFFFFFFF),                   # ISA: div by zero
        ("div", 0x80000000, 0xFFFFFFFF, 0x80000000), # overflow
        ("divu", 7, 0, 0xFFFFFFFF),
        ("rem", 7, 0, 7),
        ("rem", 0xFFFFFFF9, 2, 0xFFFFFFFF),          # -7 rem 2 = -1
        ("rem", 0x80000000, 0xFFFFFFFF, 0),
        ("remu", 7, 3, 1),
        ("remu", 7, 0, 7),
    ])
    def test_results(self, mnem, a, b, want):
        soc = run_ops([("li", "a1", a), ("li", "a2", b),
                       (mnem, "a0", "a1", "a2")])
        assert regval(soc, "a0") == want


class TestLoadsStores:
    def test_byte_half_word(self):
        soc = run_ops([
            ("la", "s0", "buf"),
            ("li", "a0", 0x8899AABB),
            ("sw", "a0", 0, "s0"),
            ("lb", "a1", 0, "s0"),     # 0xBB sign-extended
            ("lbu", "a2", 0, "s0"),
            ("lh", "a3", 2, "s0"),     # 0x8899 sign-extended
            ("lhu", "a4", 2, "s0"),
            ("sb", "x0", 1, "s0"),
            ("lw", "a5", 0, "s0"),
        ])
        assert regval(soc, "a1") == 0xFFFFFFBB
        assert regval(soc, "a2") == 0xBB
        assert regval(soc, "a3") == 0xFFFF8899
        assert regval(soc, "a4") == 0x8899
        assert regval(soc, "a5") == 0x889900BB

    def test_sh_lanes(self):
        soc = run_ops([
            ("la", "s0", "buf"),
            ("li", "a0", 0x1234),
            ("sh", "a0", 2, "s0"),
            ("lw", "a1", 0, "s0"),
        ])
        assert regval(soc, "a1") == 0x12340000


class TestCycleCosts:
    def test_alu_one_cycle(self):
        assert measure([("addi", "a0", "a0", 1)]) == 1
        assert measure([("add", "a0", "a0", "a0")]) == 1

    def test_compressed_alu_one_cycle(self):
        # two compressed ops keep the stream word-aligned for the
        # trailing csrr; each costs one cycle
        assert measure([("c.addi", "a0", 1), ("c.addi", "a0", 1)]) == 2

    def test_load_two_cycles(self):
        assert measure([("lw", "a0", 0, "s0")],
                       setup=[("la", "s0", "buf")]) == 2

    def test_store_one_cycle(self):
        # data port drains in parallel with the next fetch (other bank)
        assert measure([("sw", "a0", 0, "s0")],
                       setup=[("la", "s0", "buf")]) == 1

    def test_mul_three_cycles(self):
        assert measure([("mul", "a0", "a1", "a2")]) == 3

    def test_div_37_cycles(self):
        assert measure([("div", "x3", "x1", "x2")]) == 37
        assert measure([("rem", "x3", "x1", "x2")]) == 37

    def test_taken_branch_two_cycles(self):
        p = [("beq", "x0", "x0", "after")]
        # branch to the very next instruction via a label target
        prog = Program()
        prog.label("_start")
        prog.ins("csrr", "s10", "mcycle")
        prog.ins("beq", "x0", "x0", "next")
        prog.label("next")
        prog.ins("csrr", "s11", "mcycle")
        prog.ins("sub", "a3", "s11", "s10")
        prog.ins("la", "t6", SIMCTL_BASE)
        prog.ins("sw", "a3", 4, "t6")
        prog.ins("sw", "x0", 0, "t6")
        soc = Soc(SocConfig())
        soc.load_program(prog)
        res = soc.run()
        assert res.checksum - 1 == 2

    def test_untaken_branch_one_cycle(self):
        assert measure([("bne", "x0", "x0", "buf")]) == 1

    def test_jump_two_cycles(self):
        prog = Program()
        prog.label("_start")
        prog.ins("csrr", "s10", "mcycle")
        prog.ins("jal", "x0", "next")
        prog.label("next")
        prog.ins("csrr", "s11", "mcycle")
        prog.ins("sub", "a3", "s11", "s10")
        prog.ins("la", "t6", SIMCTL_BASE)
        prog.ins("sw", "a3", 4, "t6")
        prog.ins("sw", "x0", 0, "t6")
        soc = Soc(SocConfig())
        soc.load_program(prog)
        res = soc.run()
        assert res.checksum - 1 == 2

    def test_div_by_zero_result_and_cost(self):
        # ISA-mandated result; cost by the pipeline model
        soc = run_ops([("li", "x1", 5), ("li", "x2", 0),
                       ("div", "x3", "x1", "x2")])
        assert soc.cores[0].regs[3] == 0xFFFFFFFF


class TestEccTransparency:
    def test_load_from_flipped_word_core_unaware(self):
        # a distance-1 word is healed inside the bank: the core sees the
        # original data, no trap, and the counter records the event
        p = Program()
        p.label("_start")
        p.ins("la", "s0", "buf")
        p.ins("lw", "a3", 0, "s0")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a3", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        p.align(4)
        p.label("buf")
        p.word(0xC0FFEE00)
        soc = Soc(SocConfig())
        soc.load_program(p)
        img = soc.banks.dump_image()
        word = img.index((0xC0FFEE00).to_bytes(4, "little")) // 4
        soc.banks.flip_bit(word & 7, word >> 3, 13)
        res = soc.run()
        assert res.exit_code == 0
        assert res.checksum == 0xC0FFEE00
        assert sum(res.ecc_correctable) == 1

    def test_fetch_from_flipped_word_corrected(self):
        # the instruction stream itself is protected the same way
        p = Program()
        p.label("_start")
        p.ins("li", "a3", 99)
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a3", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        soc = Soc(SocConfig())
        soc.load_program(p)
        soc.banks.flip_bit(0, 0, 20)  # first code word
        res = soc.run()
        assert res.exit_code == 0
        assert res.checksum == 99
        assert sum(res.ecc_correctable) == 1


class TestCsr:
    def test_mhartid_reads_zero_in_lockstep(self):
        soc = run_ops([("csrr", "a0", "mhartid")])
        assert regval(soc, "a0") == 0

    def test_mscratch_rw(self):
        soc = run_ops([("li", "a0", 0x5A5A5A5A), ("csrw", "mscratch", "a0"),
                       ("csrr", "a1", "mscratch")])
        assert regval(soc, "a1") == 0x5A5A5A5A

    def test_csrrs_csrrc(self):
        soc = run_ops([
            ("li", "a0", 0xF0), ("csrw", "mscratch", "a0"),
            ("li", "a1", 0x0F), ("csrrs", "a2", "mscratch", "a1"),
            ("li", "a3", 0x11), ("csrrc", "a4", "mscratch", "a3"),
            ("csrr", "a5", "mscratch"),
        ])
        assert regval(soc, "a2") == 0xF0
        assert regval(soc, "a4") == 0xFF
        assert regval(soc, "a5") == 0xEE

    def test_csr_immediates(self):
        soc = run_ops([("csrrwi", "a0", "mscratch", 21),
                       ("csrr", "a1", "mscratch")])
        assert regval(soc, "a1") == 21

    def test_minstret_counts_retired(self):
        soc = run_ops([("csrr", "a0", "instret"), ("nop",), ("nop",),
                       ("csrr", "a1", "instret"), ("sub", "a2", "a1", "a0")])
        assert regval(soc, "a2") == 3  # nop, nop, second csrr

    def test_mcycle_matches_scheduler(self):
        # performance-counter fidelity: guest-visible mcycle equals the
        # scheduler cycle at read time
        p = Program()
        p.label("_start")
        p.ins("csrr", "a0", "mcycle")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a0", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        soc = Soc(SocConfig())
        soc.load_program(p)
        res = soc.run()
        # after the csrr: la (2 cycles), two 1-cycle stores, then the
        # posted exit write lands in the following cycle
        assert res.checksum == res.cycles - 5


class TestTraps:
    def test_illegal_instruction_fatal(self):
        p = Program()
        p.label("_start")
        p.word(0xFFFFFFFF)  # not a valid encoding
        soc = Soc(SocConfig())
        soc.load_program(p)
        res = soc.run()
        assert res.exit_code == 0xDEAD0002

    def test_all_zero_halfword_illegal(self):
        p = Program()
        p.label("_start")
        p.word(0)
        soc = Soc(SocConfig())
        soc.load_program(p)
        res = soc.run()
        assert res.exit_code == 0xDEAD0002

    def test_ecall_fatal_cause_11(self):
        p = Program()
        p.label("_start")
        p.ins("ecall")
        soc = Soc(SocConfig())
        soc.load_program(p)
        assert soc.run().exit_code == 0xDEAD000B

    def test_misaligned_load(self):
        p = Program()
        p.label("_start")
        p.ins("li", "a0", SRAM_BASE + 2)
        p.ins("lw", "a1", 0, "a0")
        soc = Soc(SocConfig())
        soc.load_program(p)
        assert soc.run().exit_code == 0xDEAD0004

    def test_misaligned_store(self):
        p = Program()
        p.label("_start")
        p.ins("li", "a0", SRAM_BASE + 1)
        p.ins("sh", "a1", 0, "a0")
        soc = Soc(SocConfig())
        soc.load_program(p)
        assert soc.run().exit_code == 0xDEAD0006

    def test_load_access_fault_unmapped(self):
        p = Program()
        p.label("_start")
        p.ins("li", "a0", 0x40000000)
        p.ins("lw", "a1", 0, "a0")
        soc = Soc(SocConfig())
        soc.load_program(p)
        assert soc.run().exit_code == 0xDEAD0005

    def test_store_to_rom_faults(self):
        p = Program()
        p.label("_start")
        p.ins("li", "a0", 0x1A000000)
        p.ins("sw", "a1", 0, "a0")
        soc = Soc(SocConfig())
        soc.load_program(p)
        assert soc.run().exit_code == 0xDEAD0007

    def test_wild_jump_faults(self):
        p = Program()
        p.label("_start")
        p.ins("li", "a0", 0x30000000)
        p.ins("jr", "a0")
        soc = Soc(SocConfig())
        soc.load_program(p)
        assert soc.run().exit_code == 0xDEAD0001


class TestWfiAndInterrupts:
    def test_wfi_sleeps_until_msip(self):
        # hart parks; a software interrupt wakes it through the ROM
        # handler, which acks msip and mrets back
        p = Program()
        p.label("_start")
        p.ins("la", "s0", 0x1B100000)   # odrg base
        p.ins("li", "s1", 1)
        p.ins("sw", "s1", 0x2C, "s0")   # set own msip: immediately pending
        p.ins("wfi")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("li", "a0", 77)
        p.ins("sw", "a0", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        soc = Soc(SocConfig())
        soc.load_program(p)
        res = soc.run()
        assert res.exit_code == 0
        assert res.checksum == 77

    def test_park_forever_times_out(self):
        p = Program()
        p.label("_start")
        p.ins("wfi")
        p.ins("j", "_start")
        soc = Soc(SocConfig(max_cycles=5000))
        soc.load_program(p)
        res = soc.run()
        assert res.timed_out
        assert res.cycles == 5000


class TestDumpLoad:
    def test_dump_load_fixed_point(self):
        soc = run_ops([("li", "a0", 123), ("li", "a1", 456)])
        c = soc.cores[0]
        now = soc.cycle
        state = c.dump_state(now)
        c.load_state(state, now)
        assert c.dump_state(now) == state

    def test_every_field_round_trips(self):
        # every state field set away from its reset value must survive a
        # dump into another core, and a copy_from
        from lockstep_mcu.core import STATE, Core
        now = 10_000
        src = Core(0)
        for i, (name, value) in enumerate(STATE.items()):
            if name == "regs":
                new = [0] + [0x1000 + r for r in range(1, 32)]
            elif isinstance(value, bool):
                new = not value
            elif value is None:
                new = (None, 2, 0x13, 0x97, 0x9700013, 1)
            else:
                new = value + 100 + i
            setattr(src, name, new)
        for name, value in STATE.items():
            assert getattr(src, name) != value, name
        state = src.dump_state(now)
        assert "pend_entry" not in state
        loaded = Core(1)
        loaded.load_state(state, now)
        assert loaded.dump_state(now) == state
        assert loaded.state_key(now) == src.state_key(now)
        assert loaded.pend_entry is None
        copied = Core(2)
        copied.copy_from(src)
        assert copied.dump_state(now) == state
        assert copied.state_key(now) == src.state_key(now)
        assert copied.regs is not src.regs
        for name in STATE:
            if name != "pend_entry":
                assert getattr(loaded, name) == getattr(src, name), name
            assert getattr(copied, name) == getattr(src, name), name

    def test_dump_after_reset(self):
        soc = Soc(SocConfig())
        from lockstep_mcu import kernels
        soc.load_program(kernels.exit0_kernel())
        c = soc.cores[0]
        state = c.dump_state(0)
        assert state["pc"] == 0x1A000000
        assert state["regs"] == [0] * 32

    def test_load_replays_identically(self):
        from lockstep_mcu import kernels
        a = Soc(SocConfig())
        a.load_program(kernels.matmul_kernel(8, "single"))
        a.run(stop_at=2000)
        snap = a.snapshot()
        ra = a.run()
        b = Soc(SocConfig())
        b.load_program(kernels.matmul_kernel(8, "single"))
        b.restore(snap)
        rb = b.run()
        assert ra.cycles == rb.cycles
        assert ra.outputs_digest == rb.outputs_digest
        assert ra.trace_hash != rb.trace_hash  # trace buffers differ (post-restore only)


def _encode(*ins) -> int:
    """The encoding of one instruction (16 or 32 bits)."""
    p = Program()
    p.label("_start")
    p.ins(*ins)
    raw = assemble(p, 0)
    return int.from_bytes(raw[:4] if raw[0] & 3 == 3 else raw[:2], "little")


def _access_sets(word: int) -> tuple:
    """(reg reads, reg writes, csr reads, csr writes) of one encoding."""
    return (decode32 if word & 3 == 3 else decode16)(word, SRAM_BASE)[3:]


_TRAP_TEXTS = ("illegal", "ecall", "ebreak", "c.ebreak")
_EXEC_FIELDS = ("pc", "ev_extra", "ev_addr", "ev_val", "ev_rd", "ev_f3",
                "ev_cause", "ev_tval")


class _Clock:
    cycle = 1000


class _Regs(list):
    """A register file that records which registers are assigned."""
    written = 0

    def __setitem__(self, r, value):
        self.written |= 1 << r
        super().__setitem__(r, value)


def _execute(ex, regs: list) -> tuple:
    """Run closure ``ex`` on a fresh core holding ``regs``: (action code,
    pc and event fields, final registers)."""
    c = Core(0, _Clock)
    c.regs = _Regs(regs)
    c.pc = SRAM_BASE
    code = ex(c)
    return code, {f: getattr(c, f) for f in _EXEC_FIELDS}, c.regs


def _legal_encodings():
    """Every 16-bit half and a seeded sample of 32-bit words with the base
    opcodes, minus the encodings that decode to a trap."""
    rng = random.Random(2023)
    ops = (0x13, 0x33, 0x03, 0x23, 0x63, 0x37, 0x17, 0x6F, 0x67, 0x0F, 0x73)
    words = [w for w in range(65536) if w & 3 != 3]
    for _ in range(6000):
        w = rng.getrandbits(32) & ~0x7F | rng.choice(ops)
        if w & 0x7F == 0x33 or (w & 0x7F == 0x13 and (w >> 12) & 3 == 1):
            w = w & 0x01FFFFFF | rng.choice((0, 1, 0x20)) << 25
        words.append(w)
    for w in words:
        ex, _rd, text, *sets = (decode32 if w & 3 == 3 else decode16)(w, SRAM_BASE)
        if text not in _TRAP_TEXTS:
            yield w, text, ex, sets


class TestAccessSets:
    def test_alu_sets(self):
        r, w, cr, cw = _access_sets(_encode("add", "a0", "a1", "a2"))
        assert r == (1 << 11) | (1 << 12)
        assert w == 1 << 10
        assert cr == cw == 0

    def test_store_reads_both(self):
        r, w, cr, cw = _access_sets(_encode("sw", "a0", 4, "a1"))
        assert r == (1 << 10) | (1 << 11)
        assert w == 0

    def test_csrrs_x0_never_writes(self):
        # csrrs a0, mtvec, x0
        r, w, cr, cw = _access_sets(_encode("csrr", "a0", "mtvec"))
        assert w == 1 << 10
        assert cr == 2  # CT_MTVEC
        assert cw == 0

    @pytest.mark.parametrize("ins", [("c.srli", "a0", 3), ("c.srai", "a0", 3),
                                     ("c.andi", "a0", -2), ("c.sub", "a0", "a1"),
                                     ("c.xor", "a0", "a1"), ("c.or", "a0", "a1"),
                                     ("c.and", "a0", "a1")], ids=lambda i: i[0])
    def test_compressed_alu_reads_rd(self, ins):
        # rd' sits in bits 9:7 of these CA/CB encodings
        r, w, _cr, _cw = _access_sets(_encode(*ins))
        assert r == (1 << 10) | (1 << 11 if ins[2] == "a1" else 0)
        assert w == 1 << 10

    def test_traps_read_everything(self):
        for word in (0, 0x9002, 0x00000073, 0x00100073, 0xFFFFFFFF, 0x0000501B):
            assert _access_sets(word) == ((1 << 32) - 2, 0, (1 << 10) - 1, 0)

    def test_masks_match_semantics(self):
        """Registers outside the read mask do not change what a closure
        does, and the registers it writes are exactly the write mask
        (the loaded register, for a load)."""
        rng = random.Random(7)
        for word, text, ex, (reads, writes, _cr, _cw) in _legal_encodings():
            a = [0] + [rng.getrandbits(32) for _ in range(31)]
            b = [a[r] if reads >> r & 1 else rng.getrandbits(32) | 1 << 31
                 for r in range(32)]
            b[0] = 0
            code, fields, fa = _execute(ex, a)
            fb = _execute(ex, b)
            assert fb[:2] == (code, fields), text
            if code == 5:       # a trap leaves the registers alone
                assert fa.written == 0, text
            elif code == 2:     # the loaded register is written later
                assert fa.written == 0 and (1 << fields["ev_rd"]) & ~1 == writes, text
            else:
                assert fa.written & ~1 == writes, text
                assert [fa[r] for r in range(32) if writes >> r & 1] == \
                    [fb[2][r] for r in range(32) if writes >> r & 1], text
