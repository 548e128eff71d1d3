"""System assembly: loading, devices, scrubbing, timing, determinism."""

import copy
import gc
import json
import sys
import types
import weakref
from pathlib import Path

import pytest

import lockstep_mcu
from lockstep_mcu import kernels
from lockstep_mcu import soc as soc_mod
from lockstep_mcu.asm import Program, assemble, label_map
from lockstep_mcu.core import MSTATUS_MIE, PH_EX, PH_LD
from lockstep_mcu.interconnect import RS_CORRECTED, RS_OK, R_SRAM
from lockstep_mcu.memory import TOTAL_BYTES, TOTAL_WORDS
from lockstep_mcu.soc import (
    LoadError, MEMCTL_BASE, ODRG_BASE, ROM_BASE, SIMCTL_BASE, SRAM_BASE,
    UART_BASE, Soc, SocConfig, build_boot_rom,
)


def fresh(mode="lockstep", prog=None, **cfg):
    soc = Soc(SocConfig(mode=mode, **cfg))
    soc.load_program(prog if prog is not None else kernels.exit0_kernel())
    return soc


class TestLoader:
    def test_load_then_dump_identical(self):
        image = bytes(range(256)) * 8
        soc = Soc(SocConfig())
        soc.load_program(image, SRAM_BASE)
        assert soc.banks.dump_image()[:len(image)] == image

    def test_empty_program_exits_fast(self):
        res = fresh().run()
        assert res.exit_code == 0
        assert res.cycles < 100

    def test_oversized_image_rejected(self):
        soc = Soc(SocConfig())
        with pytest.raises(LoadError, match="exceeds SRAM"):
            soc.load_program(b"\x00" * (TOTAL_BYTES + 4))

    def test_entry_outside_sram_rejected(self):
        soc = Soc(SocConfig())
        with pytest.raises(LoadError, match="outside SRAM"):
            soc.load_program(b"\x00" * 64, 0x1A000000)

    def test_kernel_end_to_end(self):
        soc = fresh(prog=kernels.matmul_kernel(8, "single"))
        assert soc.run().exit_code == 0


class TestUart:
    def test_bytes_in_order_exactly_once(self):
        msg = b"hello from the locked cores\n"
        res = fresh(prog=kernels.hello_kernel(msg)).run()
        assert res.uart == msg

    def test_status_register_reports_ready(self):
        p = Program()
        p.label("_start")
        p.ins("la", "t0", UART_BASE)
        p.ins("lw", "a0", 4, "t0")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a0", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        res = fresh(prog=p).run()
        assert res.checksum == 1


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        results = [fresh(prog=kernels.matmul_kernel(8, "single")).run()
                   for _ in range(2)]
        a, b = results
        assert a.to_dict() == b.to_dict()
        assert a.trace_hash == b.trace_hash

    def test_report_dict_stable_keys(self):
        res = fresh().run()
        d = res.to_dict()
        assert list(d)[0] == "schema"
        json.dumps(d)  # serializable

    @pytest.mark.parametrize("name,mode", [
        (n, m) for n, _ in kernels.list_kernels() for m in kernels.kernel_modes(n)])
    def test_fast_and_reference_engines_agree(self, name, mode):
        # the cycle budget keeps the long kernels short; cutting a run
        # mid-burst is part of what must agree
        _assert_engines_agree(name, mode, 64)

    @pytest.mark.parametrize("name,mode,scrub", [
        (n, m, s) for n, _ in kernels.list_kernels() for m in kernels.kernel_modes(n)
        if m in ("lockstep", "parallel") for s in (1, 7)])
    def test_fast_and_reference_engines_agree_scrub(self, name, mode, scrub):
        _assert_engines_agree(name, mode, scrub)

    def test_fast_and_reference_trace_lines_agree_parallel(self):
        # the lines do not depend on the engine or on the trace hash
        prog = kernels.matmul_kernel(8, "parallel3")
        outs = []
        for fast, record in ((True, True), (False, True), (True, False)):
            soc = Soc(SocConfig(mode="parallel", fast_loop=fast,
                                trace_lines=True, record_trace=record))
            soc.load_program(prog)
            res = soc.run()
            assert (res.trace_hash is not None) == record
            outs.append(res.trace_lines)
        assert len(outs[0]) > 1000
        assert outs[0] == outs[1] == outs[2]

    def test_snapshot_restore_resumes_identically(self):
        a = fresh(prog=kernels.matmul_kernel(8, "single"))
        a.run(stop_at=3000)
        snap = a.snapshot()
        ra = a.run()
        b = fresh(prog=kernels.matmul_kernel(8, "single"))
        b.restore(snap)
        rb = b.run()
        assert ra.cycles == rb.cycles
        assert ra.outputs_digest == rb.outputs_digest

    def test_restored_trace_lines_match_uninterrupted(self):
        # a run restored in the middle of a multi-cycle op or a load
        # prints that instruction's trace line like the uninterrupted run
        prog = kernels.matmul_kernel(8, "single")
        whole = fresh(prog=prog, trace_lines=True).run().trace_lines
        probe = fresh(prog=prog, trace_lines=True)
        paused = []
        for stop in range(2000, 2400):
            probe.run(stop_at=stop)
            if probe.cores[0].phase not in (PH_EX, PH_LD):
                continue
            paused.append(stop)
            if len(paused) <= 6:
                b = fresh(prog=prog, trace_lines=True)
                b.restore(probe.snapshot())
                tail = whole[len(probe.trace_lines):]
                assert b.run().trace_lines == tail, stop
        assert len(paused) > 100


def _conflict_pending(soc):
    """Two requests wait for one SRAM bank in the next cycle."""
    banks = [p.bank for p in soc.bus_ports
             if p.pending and not p.has_resp and p.region == R_SRAM]
    return len(banks) != len(set(banks))


def _pause_points(prog, mode, **cfg):
    """The boundaries on both sides of a scrubber tick, plus the first one
    after cycle 300 with two requests waiting for one bank (if the run
    has one before cycle 1500)."""
    tick = -(-600 // cfg["scrub_interval"]) * cfg["scrub_interval"]
    stops = [tick - 1, tick]
    soc = fresh(mode, prog, fast_loop=False, **cfg)
    for stop in range(300, 1500):
        if soc.run(stop_at=stop) is not None:
            break
        if _conflict_pending(soc):
            stops.append(stop)
            break
    return sorted(stops)


def _states(prog, mode, fast, stops, **cfg):
    """Full snapshots at each pause and at the end, and the report."""
    soc = fresh(mode, prog, fast_loop=fast, **cfg)
    snaps = []
    for stop in stops:
        soc.run(stop_at=stop)
        snaps.append((soc.cycle, soc.snapshot()))
    res = soc.run()
    return res.to_dict(), snaps + [(soc.cycle, soc.snapshot())]


def _assert_engines_agree(name, mode, scrub):
    """Same report, and the same scrubber, crossbar, banks, ports and core
    FSMs at every pause, with ``fast_loop`` on and off."""
    prog = kernels.build_kernel(name, mode)
    cfg = dict(scrub_interval=scrub, max_cycles=12_000)
    stops = _pause_points(prog, mode, **cfg)
    fast = _states(prog, mode, True, stops, **cfg)
    ref = _states(prog, mode, False, stops, **cfg)
    assert fast[0] == ref[0]
    for (cf, got), (cr, want) in zip(fast[1], ref[1]):
        assert cf == cr
        for key in want:
            assert got[key] == want[key], (cr, key)


def _store_fetch_conflict_loop(op, offset):
    """A loop whose sub-word store hits the bank of the next fetch."""
    p = Program()
    p.label("_start")
    p.ins("la", "s0", "buf")
    p.ins("li", "a0", 0x5A)
    p.ins("li", "s1", 40)
    p.ins("j", "pad")
    p.align(32)
    p.label("pad")
    for _ in range(6):
        p.ins("nop")
    p.label("loop")
    p.ins(op, "a0", offset, "s0")    # word 6 of its block: next fetch in bank 7
    p.ins("addi", "s1", "s1", -1)
    p.ins("bnez", "s1", "loop")
    p.ins("la", "t6", SIMCTL_BASE)
    p.ins("sw", "x0", 0, "t6")
    p.align(32)
    p.label("buf")                  # buf + 28 is in bank 7
    p.space(32)
    return p


def _self_modifying_loop(op, n, lead=False):
    """A loop that executes the instruction at ``patch`` and, on every
    other iteration, rewrites it (``sw`` of the word, ``sh`` of the upper
    half of a 32-bit ``addi``, or ``sh`` of a ``c.addi`` in the upper
    half of its word) so the next fetch of it must see the new word.
    The two encodings add ``incs`` to a0; a0 is the result register.
    With ``lead``, an ``addi`` starts the loop, so that ``patch`` sits in
    the middle of the loop's straight line."""
    p = Program()
    p.label("_start")
    p.ins("la", "s0", "patch")
    p.ins("li", "s1", n)
    p.ins("li", "a0", 0)
    if op == "sw":      # addi a0, a0, 1 -> addi a0, a0, 17
        p.ins("lw", "s2", 0, "s0")
        p.ins("li", "t0", 1 << 24)
        p.ins("add", "s3", "s2", "t0")
        store, incs = ("sw", "s3", 0, "s0"), (1, 17)
    elif op == "sh":    # its upper half: addi a0, a0, 1 -> addi a0, a0, 2
        p.ins("lhu", "s2", 2, "s0")
        p.ins("addi", "s3", "s2", 0x10)
        store, incs = ("sh", "s3", 2, "s0"), (1, 2)
    else:               # c.addi a0, 1 -> c.addi a0, 3 at word offset 2
        p.ins("lhu", "s2", 0, "s0")
        p.ins("addi", "s3", "s2", 8)
        store, incs = ("sh", "s3", 0, "s0"), (1, 3)
    p.ins("j", "loop")
    p.align(32)
    if op == "c.sh":
        p.ins("c.nop")      # never executed: only the pc a + 2 is
        p.label("loop")
        p.label("patch")
        p.ins("c.addi", "a0", 1)
    else:
        p.label("loop")
        if lead:
            p.ins("addi", "a1", "a1", 3)
        p.label("patch")
        p.ins("addi", "a0", "a0", 1)
    p.ins("andi", "t1", "s1", 1)
    p.ins("beqz", "t1", "skip")
    p.ins(*store)
    p.ins("mv", "t2", "s2")             # the next rewrite swaps back
    p.ins("mv", "s2", "s3")
    p.ins("mv", "s3", "t2")
    p.label("skip")
    p.ins("addi", "s1", "s1", -1)
    p.ins("bnez", "s1", "loop")
    p.ins("la", "t6", SIMCTL_BASE)
    p.ins("sw", "a0", 4, "t6")
    p.ins("sw", "x0", 0, "t6")
    return p, incs


class TestSelfModifyingCode:
    @pytest.mark.parametrize("mode", ["lockstep", "single"])
    @pytest.mark.parametrize("op", ["sw", "sh", "c.sh"])
    def test_rewritten_instruction_refetched(self, op, mode):
        # the fused burst checks a pc's fetch once and keeps the result;
        # a store to the instruction's word must drop it, or the burst
        # runs the old instruction again
        self.check(op, mode, False)

    @pytest.mark.parametrize("mode", ["lockstep", "single"])
    @pytest.mark.parametrize("op", ["sw", "sh"])
    def test_rewritten_mid_block_instruction_refetched(self, op, mode):
        # the loop's straight line runs as one translated block; the
        # store to its second instruction must drop the whole block
        self.check(op, mode, True)

    @staticmethod
    def check(op, mode, lead):
        n = 40
        prog, incs = _self_modifying_loop(op, n, lead)
        want, cur = 0, 0
        for i in range(n, 0, -1):
            want += incs[cur]
            cur ^= i & 1
        fast = _states(prog, mode, True, [200], trace_lines=True)
        ref = _states(prog, mode, False, [200], trace_lines=True)
        assert ref[0]["checksum"] == want
        assert fast[0] == ref[0]
        for (cf, got), (cr, want_snap) in zip(fast[1], ref[1]):
            assert cf == cr
            assert got == want_snap, cr


class TestInterruptEnabledInBurst:
    @pytest.mark.parametrize("mode", ["lockstep", "single"])
    def test_taken_right_after_enabling_csr_op(self, mode):
        # a software interrupt pending behind a cleared mstatus.MIE is
        # taken right after the CSR instruction that sets MIE, also in
        # the fused burst (from the second pass, once the loop is
        # decoded), not at the next instruction that leaves the burst
        n = 4
        p = Program()
        p.label("_start")
        p.ins("csrw", "mstatus", "x0")
        p.ins("li", "t0", 8)
        p.ins("csrw", "mie", "t0")      # MSIE only
        p.ins("la", "t0", "handler")
        p.ins("csrw", "mtvec", "t0")
        p.ins("la", "s0", ODRG_BASE)
        p.ins("li", "s1", 1)
        p.ins("li", "s2", n)
        p.ins("li", "a0", 0)
        p.label("loop")
        p.ins("sw", "s1", 0x2C, "s0")   # msip: pending, MIE still clear
        p.ins("addi", "a0", "a0", 1)
        p.ins("addi", "a0", "a0", 1)
        p.ins("csrrsi", "x0", "mstatus", 8)    # MIE: taken right here
        p.ins("addi", "a0", "a0", 100)
        p.ins("addi", "s2", "s2", -1)
        p.ins("bnez", "s2", "loop")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a0", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        p.label("handler")
        p.ins("sw", "x0", 0x2C, "s0")   # ack msip
        p.ins("slli", "a0", "a0", 1)
        p.ins("li", "t0", 0x80)
        p.ins("csrc", "mstatus", "t0")  # mret leaves MIE clear
        p.ins("mret")
        want = 0
        for _ in range(n):
            want = (want + 2) * 2 + 100
        fast = _states(p, mode, True, [], trace_lines=True)
        ref = _states(p, mode, False, [], trace_lines=True)
        assert ref[0]["checksum"] == want
        assert fast[0] == ref[0]
        assert fast[1] == ref[1]


class TestParallelPauseResume:
    def soc(self):
        return fresh(mode="parallel", prog=kernels.matmul_kernel(8, "parallel3"))

    def test_pause_snapshot_restore_match_uninterrupted(self):
        ref = self.soc().run()
        assert ref.conflict_stalls > 0
        probe = self.soc()
        stop = 400
        while True:
            probe.run(stop_at=stop)
            if _conflict_pending(probe):
                break
            stop += 1
        assert stop < 1000
        for k in (stop, stop + 1, 1501, 2500):
            a = self.soc()
            assert a.run(stop_at=k) is None and a.cycle == k
            snap = a.snapshot()
            assert a.run().to_dict() == ref.to_dict()
            b = self.soc()
            b.restore(snap)
            rb = b.run()
            for key in ("cycles", "instret", "outputs_digest",
                        "conflict_stalls", "ecc_correctable",
                        "ecc_uncorrectable", "checksum", "exit_code"):
                assert getattr(rb, key) == getattr(ref, key), (k, key)


def _two_harts(hart0, hart1):
    """A parallel program: hart 0 runs what ``hart0(p)`` emits and exits
    with a0 as the result, hart 1 runs what ``hart1(p)`` emits and parks,
    and hart 2 parks at once."""
    p = Program()
    p.label("_start")
    p.ins("csrr", "t0", "mhartid")
    p.ins("beqz", "t0", "hart0")
    p.ins("li", "t1", 1)
    p.ins("beq", "t0", "t1", "hart1")
    p.label("park")
    p.ins("wfi")
    p.ins("j", "park")
    p.label("hart1")
    hart1(p)
    p.ins("j", "park")
    p.label("hart0")
    hart0(p)
    p.ins("la", "t6", SIMCTL_BASE)
    p.ins("sw", "a0", 4, "t6")
    p.ins("sw", "x0", 0, "t6")
    return p


def _count_loop(label, reg, n, acc="a0"):
    """``n`` passes of a loop at ``label`` that adds the counter ``reg``
    to ``acc``."""
    def emit(p):
        p.ins("li", reg, n)
        p.label(label)
        p.ins("add", acc, acc, reg)
        p.ins("addi", reg, reg, -1)
        p.ins("bnez", reg, label)
    return emit


def _burst_spy(monkeypatch, cls, name, seen):
    """Wrap ``cls.name``; returns the list of ``seen(*args)``, taken before
    the call, of the calls from ``Soc._event_burst`` for which it is not
    None."""
    hits = []
    orig = getattr(cls, name)

    def wrapper(*a):
        if sys._getframe(1).f_code.co_name == "_event_burst":
            got = seen(*a)
            if got is not None:
                hits.append(got)
        return orig(*a)
    monkeypatch.setattr(cls, name, wrapper)
    return hits


def _calls_then_jalr(target):
    """Five calls of ``func``, a straight line ending in ``jr ra``; the
    last returns to ``target`` instead of to its caller."""
    p = Program()
    p.label("_start")
    p.ins("li", "s1", 5)
    p.ins("li", "a0", 0)
    p.label("loop")
    p.ins("la", "ra", "back")
    p.ins("addi", "t0", "s1", -1)
    p.ins("bnez", "t0", "call")
    p.ins("li", "ra", target)
    p.label("call")
    p.ins("j", "func")
    p.label("back")
    p.ins("addi", "s1", "s1", -1)
    p.ins("j", "loop")
    p.label("func")
    p.ins("addi", "a0", "a0", 1)
    p.ins("add", "a1", "a1", "a0")
    p.ins("jr", "ra")
    return p


def _line_at_sram_end():
    """Six passes of a straight line in the last four SRAM words: the
    fetch past the end of SRAM traps into a handler that counts the
    passes and runs the line again, then exits with a0 as the result."""
    def build(pad):
        p = Program()
        p.label("_start")
        p.ins("la", "t0", "handler")
        p.ins("csrw", "mtvec", "t0")
        p.ins("li", "s1", 6)
        p.ins("j", "line")
        p.align(4)
        p.label("handler")
        p.ins("addi", "s1", "s1", -1)
        p.ins("bnez", "s1", "again")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a0", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        p.label("again")
        p.ins("j", "line")
        p.space(pad)
        p.label("line")
        p.ins("addi", "a0", "a0", 1)
        p.ins("add", "a0", "a0", "s1")
        p.ins("slli", "a1", "a0", 1)
        p.ins("xor", "a0", "a0", "a1")
        return p
    return build(TOTAL_BYTES - len(assemble(build(0), SRAM_BASE)))


def _retire_hand_back(seen):
    """A ``seen`` for ``Soc._boundary`` that skips the trap bubble: the
    core's phase is ``PH_EX`` there and ``PH_F0`` after a retire."""
    return lambda _soc, c, _ip, _t, _retire: None if c.phase == PH_EX else seen(c)


class TestDormantFaultOnHart0:
    # a register fault carried for hart 0 is one the converged burst and
    # its translated blocks must hand to the reference helpers at its
    # first read, exactly as one carried for hart 1
    REGS = ("x10", "x11", "x12", "x19", "x28", "x29", "x30", "x31")

    @pytest.mark.parametrize("at", [1500, 3000, 4500])
    def test_engines_agree(self, at):
        # each run decodes the kernel on its way to ``at``, so the burst
        # after the injection runs the blocks and checked fetches that
        # would read the fault
        prog = kernels.build_kernel("matmul8", "lockstep")
        for hart in (0, 1):
            for loc in self.REGS:
                got = []
                for fast in (True, False):
                    soc = fresh(prog=prog, fast_loop=fast)
                    soc.run(stop_at=at)
                    soc.inject_core_fault(hart, loc, 4)
                    got.append((soc.run().to_dict(), soc.snapshot()))
                assert got[0] == got[1], (hart, loc)


def _store_then_load_loop():
    """A loop whose ``sw`` hits the bank of the next fetch, a ``lw`` that
    writes a2 without reading it, then a read of a2; exits with a0."""
    p = Program()
    p.label("_start")
    p.ins("la", "s0", "buf")
    p.ins("li", "s1", 20)
    p.ins("li", "a1", 0x5A)
    p.ins("j", "pad")
    p.align(32)
    p.label("pad")
    for _ in range(6):
        p.ins("nop")
    p.label("loop")
    p.ins("sw", "a1", 28, "s0")     # word 6 of its block: next fetch in bank 7
    p.ins("lw", "a2", 0, "s0")
    p.ins("add", "a0", "a0", "a2")
    p.ins("addi", "s1", "s1", -1)
    p.ins("bnez", "s1", "loop")
    p.ins("la", "t6", SIMCTL_BASE)
    p.ins("sw", "a0", 4, "t6")
    p.ins("sw", "x0", 0, "t6")
    p.align(32)
    p.label("buf")                  # buf + 28 is in bank 7
    p.space(32)
    return p


class TestDormantLoadTarget:
    # a load that writes the register of a carried dormant fault is handed
    # back at its fetch and finished by the reference engine, which erases
    # the fault; a burst that finished it would carry the fault on and
    # split the group at the next read of a2
    def test_engines_agree(self):
        prog = _store_then_load_loop()
        for at in range(20, 200, 2):    # the run exits at cycle 203
            got = []
            for fast in (True, False):
                soc = fresh(prog=prog, fast_loop=fast, dormant_opt=True)
                assert soc.run(stop_at=at) is None
                soc.inject_core_fault(1, "x12", 4)
                got.append((soc.run().to_dict(), soc.snapshot()))
            assert got[0] == got[1], at
            assert got[1][0]["mismatch_count"] == [0, 0, 0], at


class TestEventBurstHandBacks:
    """Programs that make ``_event_burst`` hand a core back to the
    reference helpers; both engines must end identically."""

    def test_tainted_fetch_row(self, monkeypatch):
        prog = _two_harts(_count_loop("l0", "s1", 300),
                          _count_loop("l1", "s1", 400, "a1"))
        w = (label_map(prog, SRAM_BASE)["l1"] - SRAM_BASE) >> 2
        hits = _burst_spy(monkeypatch, soc_mod._Lanes, "to_fetch",
                          lambda _lanes, _soc, _k, _t, _v, st: st or None)
        got = []
        for fast in (True, False):
            soc = fresh("parallel", prog, fast_loop=fast)
            assert soc.run(stop_at=400) is None
            soc.banks.flip_bit(w & 7, w >> 3, 5)
            got.append((soc.run().to_dict(), soc.snapshot()))
        assert hits == [RS_CORRECTED]
        assert got[0] == got[1]
        assert got[1][0]["ecc_correctable"][w & 7] == 1

    def test_next_pc_in_rom(self, monkeypatch):
        halt = label_map(build_boot_rom(SRAM_BASE), ROM_BASE)["_halt"]

        def into_rom(p):
            p.ins("li", "t2", halt)
            p.ins("jr", "t2")
        prog = _two_harts(_count_loop("l0", "s1", 300), into_rom)
        hits = _burst_spy(monkeypatch, Soc, "_boundary", _retire_hand_back(
            lambda c: None if SRAM_BASE <= c.pc < SRAM_BASE + TOTAL_BYTES
            else c.pc))
        fast = _states(prog, "parallel", True, [300])
        ref = _states(prog, "parallel", False, [300])
        # the first after the jr, then one per pass of the _halt loop
        assert len(hits) > 100 and set(hits) == {halt}
        assert fast == ref
        assert ref[0]["checksum"] == 300 * 301 // 2

    # one awake core (``single``, or converged ``lockstep``): a retire goes
    # on into translated blocks, and the burst must leave cleanly after a
    # block whose next pc is outside SRAM

    @pytest.mark.parametrize("mode", ["single", "lockstep"])
    def test_block_jalr_into_rom(self, monkeypatch, mode):
        halt = label_map(build_boot_rom(SRAM_BASE), ROM_BASE)["_halt"]
        prog = _calls_then_jalr(halt)
        hits = _burst_spy(monkeypatch, Soc, "_boundary", _retire_hand_back(
            lambda c: c.pc if c.pc == halt else None))
        # the burst hands the core back at the jr into _halt
        self.check_one_core(prog, "func", mode, [150], max_cycles=3000)
        assert hits and set(hits) == {halt}

    @pytest.mark.parametrize("mode", ["single", "lockstep"])
    def test_block_ends_at_last_sram_word(self, monkeypatch, mode):
        prog = _line_at_sram_end()
        hits = _burst_spy(monkeypatch, Soc, "_boundary", _retire_hand_back(
            lambda c: c.pc if c.pc == SRAM_BASE + TOTAL_BYTES else None))
        ref = self.check_one_core(prog, "line", mode, [40, 70])
        assert ref[0]["exit_code"] == 0 and ref[0]["checksum"] != 0
        assert len(hits) >= 5     # the block runs from the second pass

    @staticmethod
    def check_one_core(prog, block, mode, stops, **cfg):
        """Report, snapshots and trace lines agree with ``fast_loop`` on and
        off, and the fast run built a block at label ``block``."""
        got = []
        for fast in (True, False):
            soc = fresh(mode, prog, fast_loop=fast, trace_lines=True, **cfg)
            snaps = []
            for stop in stops:
                assert soc.run(stop_at=stop) is None
                snaps.append((soc.cycle, soc.snapshot(), list(soc.trace_lines)))
            res = soc.run()
            got.append((res.to_dict(), snaps, soc.snapshot(), res.trace_lines))
            if fast:
                pc = label_map(prog, SRAM_BASE)[block]
                assert soc.blocks.start.get(pc), "no block was built"
        assert got[0] == got[1]
        return got[1]

    def test_interrupt_after_retire(self, monkeypatch):
        def send_msip(p):
            # after a delay, raise hart 1's software interrupt
            _count_loop("l0", "s1", 150)(p)
            p.ins("la", "s0", ODRG_BASE)
            p.ins("li", "s1", 1)
            p.ins("sw", "s1", 0x30, "s0")   # msip[1]
            _count_loop("l2", "s1", 150)(p)

        def gated_loop(p):
            # every pass runs a 40-pass loop with interrupts masked, then
            # unmasks them: once the pass has been decoded, a pending
            # interrupt is taken right after the csrrsi inside the burst
            p.ins("li", "s2", 12)
            p.label("outer")
            p.ins("csrrci", "x0", "mstatus", 8)
            _count_loop("l1", "s1", 40, "a1")(p)
            p.ins("csrrsi", "x0", "mstatus", 8)
            p.ins("addi", "s2", "s2", -1)
            p.ins("bnez", "s2", "outer")
        prog = _two_harts(send_msip, gated_loop)
        hits = _burst_spy(monkeypatch, Soc, "_boundary", _retire_hand_back(
            lambda c: c.mhartid
            if c.mip & c.mie and c.mstatus & MSTATUS_MIE else None))
        fast = _states(prog, "parallel", True, [500])
        ref = _states(prog, "parallel", False, [500])
        assert hits == [1]
        assert fast == ref


def _perfbench_tracing():
    """perfbench/tracing.py as a module, compiled from its source so that
    nothing is written under perfbench/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    mod = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


class TestBenchmarkProbes:
    """The benchmark's probes wrap simulator functions by name, so a
    rename must fail here, not only in a traced benchmark run."""

    @pytest.mark.parametrize("name", ["RunProbe", "Tracer"])
    def test_install_run_uninstall(self, name):
        progs = {"lockstep": kernels.matmul_kernel(3, "single"),
                 "parallel": kernels.matmul_kernel(3, "parallel3")}
        want = {mode: fresh(mode, p).run().to_dict() for mode, p in progs.items()}
        probe = getattr(_perfbench_tracing(), name)(lockstep_mcu)
        probe.install()
        saved = {}      # the original of an attribute wrapped twice comes first
        for obj, attr, orig in probe._saved:
            saved.setdefault((obj, attr), orig)
        try:
            assert saved
            assert {mode: fresh(mode, p).run().to_dict()
                    for mode, p in progs.items()} == want
        finally:
            probe.uninstall()
        for (obj, attr), orig in saved.items():
            assert getattr(obj, attr) is orig, attr


def _bail_loop() -> Program:
    """A loop that is one self-looping block, whose second load turns
    misaligned on the seventh pass: the block bails there after full
    passes, and the fatal trap leaves the words after it never fetched
    again.  The first load reads the loop's first word after its fetch."""
    p = Program()
    p.label("_start")
    p.ins("la", "a2", "data")
    p.ins("li", "s1", 0)
    p.ins("sw", "s1", 0, "a2")
    p.ins("la", "a0", "loop")
    p.label("loop")
    p.ins("addi", "t0", "s1", -6)
    p.ins("sltiu", "t0", "t0", 1)
    p.ins("add", "a1", "a0", "t0")
    p.ins("lw", "t1", 0, "a0")
    p.ins("lw", "t3", 0, "a1")
    p.ins("addi", "s1", "s1", 1)
    p.ins("addi", "t2", "t2", 1)
    p.ins("j", "loop")
    p.label("data")
    p.words([0])
    return p


class TestDefUseLog:
    @staticmethod
    def log(name, mode, scrub, fast):
        prog = _bail_loop() if name == "bail" else \
            kernels.build_kernel(name, mode)
        soc = fresh(mode, prog, fast_loop=fast, scrub_interval=scrub)
        soc.record_def_use()
        return soc.run().defuse

    @pytest.mark.parametrize("name,mode,scrub", [
        ("matmul8", "lockstep", 1), ("matmul8", "single", 3),
        ("matmul8", "parallel", 64), ("subword", "parallel", 1),
        ("modeswitch", "lockstep", 3), ("relock", "lockstep", 64),
        ("matmul24", "lockstep", 64), ("bail", "single", 64)])
    def test_engines_log_alike(self, name, mode, scrub):
        """The golden def/use log is the same with ``fast_loop`` on and
        off, on every word: translated blocks mark their fetches, those
        of the last pass too when a block bails in the next.  In
        matmul24 a block loads a word after a scrubber tick that the
        burst runs later."""
        fast = self.log(name, mode, scrub, True)
        ref = self.log(name, mode, scrub, False)
        assert fast == ref
        assert ref.stores and max(ref.reads) > 0

    def test_log_of_a_result_stays_put(self):
        """A ``DefUse`` handed out is not the Soc's live log: a reload
        and a second run leave the first result's log as it was."""
        soc = fresh("lockstep", kernels.build_kernel("matmul8", "lockstep"))
        soc.record_def_use()
        early = soc.run().defuse
        kept = copy.deepcopy(early)
        soc.load_program(kernels.build_kernel("stress", "lockstep"))
        soc.run()
        assert early == kept


class TestLifetime:
    def test_finished_soc_freed_without_cycle_collector(self):
        gc.disable()
        try:
            soc = fresh(mode="parallel", prog=kernels.matmul_kernel(3, "parallel3"))
            soc.run()
            ref = weakref.ref(soc)
            del soc
            assert ref() is None
        finally:
            gc.enable()


class TestReload:
    def test_reloaded_soc_equals_fresh(self):
        # a used Soc that a guest left with another scrub interval, a
        # moved round robin and counted stalls: a reload resets them all
        prog = kernels.build_kernel("matmul8", "parallel")
        p = Program()
        p.label("_start")
        p.ins("la", "t0", MEMCTL_BASE)
        p.ins("li", "t1", 7)
        p.ins("sw", "t1", 0x84, "t0")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "x0", 0, "t6")
        used = fresh(mode="parallel", prog=prog)
        used.run()
        used.load_program(p)
        assert used.run().exit_code == 0
        assert used.scrub.interval == 7
        used.load_program(prog)
        new = fresh(mode="parallel", prog=prog)
        assert used.snapshot() == new.snapshot()
        assert used._loc_reads == 0
        assert used.run().to_dict() == new.run().to_dict()

    # attributes outside ``_FLAGS`` and the snapshot, each with its own
    # reset: the config, the port wiring (``_wire_ports``), the decode
    # cache, its read-mask union and the translated blocks (cleared by a
    # load), the def/use log (``record_def_use``) and the trace
    # (``_trace_reset``)
    UNSNAPSHOTTED = {
        "config", "bus_ports", "active", "dcache", "_loc_reads", "blocks",
        "_reads", "_writes", "_stores", "_ecc_regs",
        "_last_irq", "rec_trace", "tracebuf", "_trace_sha", "trace_lines",
    }
    # snapshot keys that are not attribute names
    RENAMED = {"uart": {"uart_out"},
               "dormant": {"dorm_hart", "dorm_mask", "dorm_vals"}}

    @pytest.mark.parametrize("mode", ["lockstep", "single", "parallel"])
    def test_every_field_reset_or_snapshotted(self, mode):
        # a new field that is neither reset by ``_FLAGS`` nor snapshotted
        # lands here: a reload or a restore would keep its old value
        soc = fresh(mode=mode)
        snap = soc.snapshot()
        assert set(Soc._COMPONENTS) <= set(snap)
        covered = set(soc_mod._FLAGS) | self.UNSNAPSHOTTED
        for key in snap:
            covered |= self.RENAMED.get(key, {key})
        assert set(vars(soc)) - covered == set()


class TestTraceBuffer:
    # with the scrubber off, nothing but the buffer's own size makes an
    # engine flush its retirement records: the largest buffer
    # ``_trace_flush`` is given must still stay bounded (and reach the
    # flush size, or the test shows nothing), and the trace hash must
    # not move

    def test_reference_engine_buffer_stays_bounded(self, monkeypatch):
        self.check(monkeypatch, "lockstep", False)

    @pytest.mark.parametrize("mode", ["lockstep", "parallel"])
    def test_fused_burst_buffer_stays_bounded(self, monkeypatch, mode):
        self.check(monkeypatch, mode, True)

    @staticmethod
    def check(monkeypatch, mode, fast):
        prog = kernels.build_kernel("matmul24", mode)
        whole = fresh(mode, prog, scrub_enabled=False).run()
        peak = []
        flush = Soc._trace_flush

        def spy(soc):
            peak.append(len(soc.tracebuf))
            flush(soc)
        monkeypatch.setattr(Soc, "_trace_flush", spy)
        soc = fresh(mode, prog, fast_loop=fast, scrub_enabled=False)
        soc.run(stop_at=30_000)
        assert soc_mod._TRACE_FLUSH <= max(peak) < 1 << 17
        assert soc.run().trace_hash == whole.trace_hash


class TestConfig:
    @pytest.mark.parametrize("interval", [0, -3])
    def test_scrub_interval_must_be_positive(self, interval):
        with pytest.raises(ValueError, match="scrub_interval"):
            SocConfig(scrub_interval=interval)


class TestScrubberSystem:
    def test_latent_error_corrected_within_one_sweep(self):
        soc = fresh(prog=kernels.park_kernel(),
                    scrub_interval=4, max_cycles=TOTAL_WORDS * 4 + 1000)
        soc.banks.flip_bit(6, 1234, 17)
        sweep = TOTAL_WORDS * 4
        soc.run(stop_at=sweep + 100)
        assert soc.scrub.corrections == 1
        assert 1234 not in soc.banks.banks[6].tainted

    def test_scrubber_never_perturbs_timing(self):
        prog = kernels.matmul_kernel(8, "single")
        on = fresh(prog=prog, scrub_enabled=True, scrub_interval=16).run()
        off = fresh(prog=prog, scrub_enabled=False).run()
        assert on.cycles == off.cycles
        assert on.trace_hash == off.trace_hash

    def test_scrub_of_clean_memory_only_advances(self):
        soc = fresh(prog=kernels.park_kernel(), scrub_interval=4,
                    max_cycles=5000)
        soc.run(stop_at=40)
        base = soc.scrub.next_address
        soc.run(stop_at=4040)
        assert soc.scrub.corrections == 0
        # one word per tick once the system is idle, no deferrals
        assert soc.scrub.next_address - base == 1000

    def test_uncorrectable_logged_not_trapped(self):
        soc = fresh(prog=kernels.park_kernel(), scrub_interval=1,
                    max_cycles=500)
        soc.banks.flip_bit(2, 0, 1)
        soc.banks.flip_bit(2, 0, 5)
        soc.run(stop_at=400)
        assert soc.scrub.uncorrectable_seen == 1
        assert not soc.exited  # scrubber never raises a trap


class TestScrubTickTiming:
    @pytest.mark.parametrize("op,offset", [("sb", 28), ("sb", 31), ("sh", 30)])
    def test_tick_behind_subword_store_conflict_is_on_time(self, op, offset):
        # the next fetch loses to the posted write and then waits out
        # the merge; a tick due in those cycles runs in its own cycle,
        # so the whole scrub schedule matches the reference engine
        prog = _store_fetch_conflict_loop(op, offset)
        for interval in range(1, 24):
            scrubs = []
            for fast in (True, False):
                soc = fresh(prog=prog, scrub_interval=interval, fast_loop=fast)
                res = soc.run()
                scrubs.append(soc.scrub.snapshot())
            assert res.conflict_stalls >= 40
            assert scrubs[0] == scrubs[1], interval


def _contended_store_then_fault(target, pad):
    """Three harts store into one bank and then store to ``target`` (ROM
    or unmapped), six times each; a handler counts the faults in a0 and
    steps over them.  ``pad`` skews the harts' timing apart."""
    p = Program()
    p.label("_start")
    p.ins("la", "t0", "handler")
    p.ins("csrw", "mtvec", "t0")
    p.ins("csrr", "t0", "mhartid")
    p.ins("la", "s0", "buf")
    p.ins("li", "s3", target)
    p.ins("li", "s1", 6)
    p.ins("li", "a0", 0)
    for _ in range(pad):
        p.ins("beqz", "t0", "loop")     # hart 0 skips the padding
        p.ins("addi", "a1", "a1", 1)
    p.label("loop")
    p.ins("sw", "s1", 0, "s0")          # may lose its bank and stay posted
    p.ins("sw", "s1", 0, "s3")          # faults at once even so
    p.ins("addi", "s1", "s1", -1)
    p.ins("bnez", "s1", "loop")
    p.ins("bnez", "t0", "park")
    p.ins("la", "t6", SIMCTL_BASE)
    p.ins("sw", "a0", 4, "t6")
    p.ins("sw", "x0", 0, "t6")
    p.label("park")
    p.ins("wfi")
    p.ins("j", "park")
    p.label("handler")
    p.ins("csrr", "t1", "mepc")
    p.ins("addi", "t1", "t1", 4)
    p.ins("csrw", "mepc", "t1")
    p.ins("addi", "a0", "a0", 1)
    p.ins("mret")
    p.align(32)
    p.label("buf")
    p.space(32)
    return p


class TestFaultingStoreBehindPostedStore:
    @pytest.mark.parametrize("target", [ROM_BASE, 0x30000000],
                             ids=["rom", "unmapped"])
    def test_engines_agree(self, target):
        # a store to ROM or to no device faults in the cycle it issues,
        # also while the core's previous store still waits for its bank
        stalls = 0
        for pad in range(8):
            prog = _contended_store_then_fault(target, pad)
            fast = _states(prog, "parallel", True, [40], max_cycles=5000)
            ref = _states(prog, "parallel", False, [40], max_cycles=5000)
            assert fast[0] == ref[0], pad
            for (cf, got), (cr, want) in zip(fast[1], ref[1]):
                assert cf == cr, pad
                for key in want:
                    assert got[key] == want[key], (pad, cr, key)
            assert ref[0]["checksum"] == 6
            stalls += ref[0]["conflict_stalls"]
        assert stalls > 40


class TestSubwordTiming:
    def test_subword_ack_immediate_bank_busy_one_cycle(self):
        # write byte 0, then immediately load from the same bank: the
        # requester is acked in one cycle but the internal read-merge
        # blocks the bank for one extra cycle
        p = Program()
        p.label("_start")
        p.ins("la", "s0", "buf")          # bank of "buf"
        p.ins("li", "a0", 0xAA)
        p.ins("csrr", "s10", "mcycle")
        p.ins("sb", "a0", 0, "s0")        # sub-word: posted, bank busy +1
        p.ins("lw", "a1", 0, "s0")        # same bank: stalled by the RMW
        p.ins("csrr", "s11", "mcycle")
        p.ins("sub", "a3", "s11", "s10")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a3", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        p.align(32)                        # park buf in bank 0
        p.label("buf")
        p.word(0x11223344)
        soc = fresh(prog=p)
        res = soc.run()
        # sb acks in 1 cycle; the lw's data access would be granted the
        # cycle after the RMW write but the busy window adds exactly 1:
        # sb(1) + lw(2 base + 1 busy stall) = 4
        assert res.checksum - 1 == 4
        # and the merged word is intact
        block = soc.banks.dump_image()
        # find buf: it is the only word with AA low byte and 112233 high
        assert (0x112233AA).to_bytes(4, "little") in block

    def test_fullword_store_no_busy_window(self):
        p = Program()
        p.label("_start")
        p.ins("la", "s0", "buf")
        p.ins("li", "a0", 0xAA)
        p.ins("csrr", "s10", "mcycle")
        p.ins("sw", "a0", 0, "s0")
        p.ins("lw", "a1", 0, "s0")
        p.ins("csrr", "s11", "mcycle")
        p.ins("sub", "a3", "s11", "s10")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a3", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        p.align(32)
        p.label("buf")
        p.word(0)
        res = fresh(prog=p).run()
        # full-word store leaves no busy window: sw(1) + lw(2), one
        # cycle cheaper than the sub-word variant above
        assert res.checksum - 1 == 3


class TestDeviceRegisters:
    def test_memctl_counters_visible_and_clearable(self):
        p = Program()
        p.label("_start")
        p.ins("la", "s0", "victim")
        p.ins("lw", "a0", 0, "s0")        # corrected read
        p.ins("la", "s1", MEMCTL_BASE)
        bank = 0  # "victim" aligned to bank 0 below
        p.ins("lw", "a1", 0x40 + 4 * bank, "s1")
        p.ins("sw", "x0", 0x40 + 4 * bank, "s1")
        p.ins("lw", "a2", 0x40 + 4 * bank, "s1")
        p.ins("slli", "a2", "a2", 8)
        p.ins("or", "a3", "a1", "a2")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a3", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        p.align(32)
        p.label("victim")
        p.word(0x55AA55AA)
        soc = Soc(SocConfig())
        soc.load_program(p)
        # taint the victim word before the run
        word_index = None
        img = soc.banks.dump_image()
        for i in range(TOTAL_WORDS):
            if img[4 * i:4 * i + 4] == (0x55AA55AA).to_bytes(4, "little"):
                word_index = i
        assert word_index is not None and word_index % 8 == 0
        soc.banks.flip_bit(0, word_index // 8, 3)
        res = soc.run()
        assert res.checksum == 1  # one correction counted, then cleared

    def test_error_output_select(self):
        soc = fresh()
        soc.odrg.error_select = 4
        soc.banks.banks[2].correctable_count = 7
        assert soc._reg_read(ODRG_BASE + 0x24) == 7
        soc.odrg.error_select = 0
        soc.odrg.mismatch_count[0] = 3
        assert soc._reg_read(ODRG_BASE + 0x24) == 3

    def test_write_disable_mask_via_registers(self):
        p = Program()
        p.label("_start")
        p.ins("la", "s1", MEMCTL_BASE)
        p.ins("li", "a0", 1 << 5)
        p.ins("sw", "a0", 0, "s1")        # bank 0 mask lo
        p.ins("lw", "a1", 0, "s1")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a1", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        soc = fresh(prog=p)
        res = soc.run()
        assert res.checksum == 1 << 5
        assert soc.banks.banks[0].write_disable == 1 << 5

    @staticmethod
    def _access(op, addr, value=0, **cfg):
        """Run one device access by a guest, then an exit with code 0."""
        p = Program()
        p.label("_start")
        p.ins("li", "t0", addr)
        p.ins("li", "t1", value)
        p.ins(op, "t1", 0, "t0")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "x0", 0, "t6")
        soc = fresh(prog=p, **cfg)
        return soc, soc.run()

    @pytest.mark.parametrize("op,addr", [
        ("sb", UART_BASE + 1), ("sh", SIMCTL_BASE + 6),
        ("sb", ODRG_BASE + 0x21), ("sh", MEMCTL_BASE + 2),
        ("sb", SIMCTL_BASE + 1), ("sb", UART_BASE), ("sh", ODRG_BASE + 0x20),
        ("lbu", SIMCTL_BASE + 5), ("lbu", ODRG_BASE + 1), ("lb", UART_BASE + 4),
        ("lhu", MEMCTL_BASE + 0x40), ("lh", SIMCTL_BASE + 4),
    ], ids=lambda v: f"{v:#x}" if isinstance(v, int) else v)
    def test_subword_access_faults(self, op, addr):
        # device registers are word-sized: a byte or half-word load takes
        # a load access fault (5), a store a store access fault (7), and
        # neither reaches the register
        soc, res = self._access(op, addr, 0x141)
        ref = self._access(op, addr, 0x141, fast_loop=False)[1]
        assert res.to_dict() == ref.to_dict()
        assert res.exit_code == 0xDEAD0000 | (5 if op[0] == "l" else 7)
        assert soc.cores[0].mtval == addr
        assert res.uart == b""
        assert soc.odrg.error_select == 0
        assert soc.banks.banks[0].write_disable == 0

    def test_subword_store_leaves_the_checksum(self):
        p = Program()
        p.label("_start")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("li", "t1", 0x12345678)
        p.ins("sw", "t1", 4, "t6")
        p.ins("li", "t1", 0xABCD)
        p.ins("sh", "t1", 6, "t6")
        res = fresh(prog=p).run()
        assert res.exit_code == 0xDEAD0007
        assert res.checksum == 0x12345678

    @pytest.mark.parametrize("addr", [
        ODRG_BASE + 0x38, MEMCTL_BASE + 0x94,
        UART_BASE + 8, UART_BASE + 0x100, SIMCTL_BASE + 8,
        SIMCTL_BASE + 0xFFFFC], ids=hex)
    def test_undefined_offset_read_faults(self, addr):
        soc, res = self._access("lw", addr)
        assert res.exit_code == 0xDEAD0005
        assert soc.cores[0].mtval == addr

    @pytest.mark.parametrize("addr", [
        ODRG_BASE + 0x38, MEMCTL_BASE + 0x94, UART_BASE + 8,
        SIMCTL_BASE + 8], ids=hex)
    def test_undefined_offset_write_is_ignored(self, addr):
        soc, res = self._access("sw", addr, 0x41)
        assert res.exit_code == 0 and res.uart == b""

    def test_table_defines_the_device_map(self):
        assert sorted(soc_mod._DEV_REGS) == sorted(row[0] for row in DEVICE_MAP)
        assert len(soc_mod._DEV_ADDR) == len(soc_mod._DEV_REGS)
        assert soc_mod.REG_EXIT == 0 and soc_mod.REG_CHECKSUM == 4

    def test_ecc_column(self):
        # the registers an access to which shows ECC state: write-disable,
        # the per-bank counters, the scrubber's corrections and
        # uncorrectable sightings, and the error output under selects 4-5
        ecc = {MEMCTL_BASE + off for off in (*range(0, 0x80, 4), 0x8C, 0x90)}
        for addr, _read, value, _changes in DEVICE_MAP:
            for write in (False, True):
                soc = _seed_devices()
                soc._ecc_regs = False
                _bus_access(soc, addr, value if write else None)
                writes_nothing = write and addr in (MEMCTL_BASE + 0x8C,
                                                    MEMCTL_BASE + 0x90)
                assert soc._ecc_regs == (addr in ecc and not writes_nothing)
        for select in range(8):
            soc = _seed_devices()
            soc.odrg.error_select = select
            _bus_access(soc, ODRG_BASE + 0x24)
            assert soc._ecc_regs == (select in (4, 5))

    def test_unknown_device_offset_read_faults(self):
        p = Program()
        p.label("_start")
        p.ins("la", "s0", ODRG_BASE + 0x4000)
        p.ins("lw", "a0", 0, "s0")
        res = fresh(prog=p).run()
        assert res.exit_code == 0xDEAD0005


# Every defined device register, accessed as a word through the bus:
# (address, what a read returns, the value written, the state the write
# changes).  The state before each access is ``_seed_devices``'s, and
# ``_device_state`` names what is compared; a read changes nothing.
_MEMCTL_BANK_ROWS = [row for b in range(8) for row in (
    (MEMCTL_BASE + 8 * b, 0x100 + b, 0xFFFF0000,
     {f"bank{b}.write_disable": 0xFFFF0000 | (b + 1) << 32}),
    (MEMCTL_BASE + 8 * b + 4, b + 1, 0xF0,
     {f"bank{b}.write_disable": 0x100 + b | 0x70 << 32}),
    (MEMCTL_BASE + 0x40 + 4 * b, 20 + b, 9,
     {f"bank{b}.correctable_count": 0}),
    (MEMCTL_BASE + 0x60 + 4 * b, 30 + b, 9,
     {f"bank{b}.uncorrectable_count": 0}),
)]
DEVICE_MAP = [
    (ODRG_BASE + 0x00, 0, 3, {"odrg.pending_mode": 1}),
    (ODRG_BASE + 0x04, 1, 0, {}),
    (ODRG_BASE + 0x08, 11, 5, {"odrg.mismatch_count": [0, 12, 13]}),
    (ODRG_BASE + 0x0C, 12, 5, {"odrg.mismatch_count": [11, 0, 13]}),
    (ODRG_BASE + 0x10, 13, 5, {"odrg.mismatch_count": [11, 12, 0]}),
    (ODRG_BASE + 0x14, 0, 0, {"odrg.resync_state": 2}),
    (ODRG_BASE + 0x18, 0, 0, {"odrg.resync_state": 3,
                              "odrg.resync_events": 15,
                              "odrg.last_done_cycle": 0}),
    (ODRG_BASE + 0x1C, 0x1C03FF00, 0xCAFEBABE, {"odrg.saved_sp": 0xCAFEBABE}),
    (ODRG_BASE + 0x20, 2, 0xFD, {"odrg.error_select": 5}),
    (ODRG_BASE + 0x24, 13, 9, {}),
    (ODRG_BASE + 0x28, 14, 3, {"odrg.resync_events": 0}),
    (ODRG_BASE + 0x2C, 0, 3, {"odrg.msip": [1, 1, 0], "mip": [8, 8, 8]}),
    (ODRG_BASE + 0x30, 1, 0, {"odrg.msip": [0, 0, 0]}),
    (ODRG_BASE + 0x34, 0, 1, {"odrg.msip": [0, 1, 1], "mip": [8, 8, 8]}),
    *_MEMCTL_BANK_ROWS,
    (MEMCTL_BASE + 0x80, 0, 1, {"scrub.enabled": True,
                                "scrub.next_cycle": 100}),
    (MEMCTL_BASE + 0x84, 100, 7, {"scrub.interval": 7, "scrub.next_cycle": 7}),
    (MEMCTL_BASE + 0x88, 0x48, 9, {}),
    (MEMCTL_BASE + 0x8C, 40, 9, {}),
    (MEMCTL_BASE + 0x90, 41, 9, {}),
    (UART_BASE + 0x0, 0, 0x141, {"uart": b"A"}),
    (UART_BASE + 0x4, 1, 9, {}),
    (SIMCTL_BASE + 0x0, 0, 0x1234, {"exited": True, "running": False,
                                    "exit_code": 0x1234}),
    (SIMCTL_BASE + 0x4, 0x55, 0xDEADBEEF, {"checksum_reg": 0xDEADBEEF}),
]


def _seed_devices():
    """A fresh Soc whose device registers all hold distinct values."""
    soc = Soc(SocConfig())
    o = soc.odrg
    o.resync_state = 1
    o.mismatch_count = [11, 12, 13]
    o.saved_sp = 0x1C03FF00
    o.error_select = 2
    o.resync_events = 14
    o.msip = [0, 1, 0]
    for b, bank in enumerate(soc.banks.banks):
        bank.write_disable = 0x100 + b | (b + 1) << 32
        bank.correctable_count = 20 + b
        bank.uncorrectable_count = 30 + b
    s = soc.scrub
    s.enabled, s.interval, s.next_address, s.next_cycle = False, 100, 0x48, 50
    s.corrections, s.uncorrectable_seen = 40, 41
    soc.checksum_reg = 0x55
    return soc


def _device_state(soc):
    o, s = soc.odrg, soc.scrub
    st = {f"odrg.{n}": copy.copy(getattr(o, n)) for n in o.__slots__}
    st.update({f"scrub.{n}": getattr(s, n) for n in s.__slots__})
    for b, bank in enumerate(soc.banks.banks):
        for n in ("write_disable", "correctable_count", "uncorrectable_count"):
            st[f"bank{b}.{n}"] = getattr(bank, n)
    st.update(uart=bytes(soc.uart_out), exited=soc.exited,
              running=soc.running, exit_code=soc.exit_code,
              checksum_reg=soc.checksum_reg,
              mip=[c.mip for c in soc.cores])
    return st


def _bus_access(soc, addr, value=None):
    """One word access to ``addr`` on the voted data port, served by the
    bus half-cycle: (the response value, the response status)."""
    p = soc.vports[0]
    p.want(*soc._route(addr), addr, value is not None, value or 0, 0xF)
    soc._bus_cycle(soc.cycle)
    return p.take_resp()


class TestDeviceMap:
    @pytest.mark.parametrize("addr,read,value,changes", DEVICE_MAP,
                             ids=[f"{row[0]:#x}" for row in DEVICE_MAP])
    def test_register(self, addr, read, value, changes):
        soc = _seed_devices()
        before = _device_state(soc)
        assert _bus_access(soc, addr) == (read, RS_OK)
        assert _device_state(soc) == before
        assert _bus_access(soc, addr, value) == (0, RS_OK)
        assert _device_state(soc) == {**before, **changes}

    @pytest.mark.parametrize("select,output", [
        (0, 11), (1, 12), (2, 13), (3, 14),
        (4, sum(range(20, 28))), (5, sum(range(30, 38))), (6, 0), (7, 0)])
    def test_error_output_under_each_select(self, select, output):
        soc = _seed_devices()
        soc.odrg.error_select = select
        assert _bus_access(soc, ODRG_BASE + 0x24) == (output, RS_OK)


def _register_map() -> str:
    """The README's device register table, rendered from the table."""
    def call(f):
        return f"`{f[0]}({', '.join(map(str, f[1:]))})`"

    lines = ["| address | register | bits | read | write | ECC |",
             "| --- | --- | --- | --- | --- | --- |"]
    for addr, row in sorted(soc_mod._DEV_REGS.items()):
        name, field, mask, shift, read, write, ecc = row
        hi = shift + mask.bit_length() - 1
        bits = f"{hi}:{shift}" if hi > shift else f"{shift}"
        read = f"`{field}`" if read is None else \
            call(read) if type(read) is tuple else read
        write = call(write) if type(write) is tuple else write or "—"
        lines.append(f"| `0x{addr >> 16:04X}_{addr & 0xFFFF:04X}` | `{name}` "
                     f"| {bits} | {read} | {write} | {'yes' if ecc else ''} |")
    return "\n".join(lines) + "\n"


def test_readme_register_map():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert _register_map() in readme, _register_map()


class TestMemoryDumpCli:
    def test_dump_matches_loaded_plus_results(self):
        soc = fresh(prog=kernels.matmul_kernel(3, "single"))
        soc.run()
        img = soc.banks.dump_image()
        assert len(img) == TOTAL_BYTES


class TestBootStub:
    def test_cold_boot_reaches_entry_with_sp(self):
        from lockstep_mcu.soc import STACK_TOP
        p = Program()
        p.label("_start")
        p.ins("mv", "a3", "sp")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a3", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        res = fresh(prog=p).run()
        assert res.checksum == STACK_TOP & 0xFFFFFFFF

    def test_parallel_boot_three_distinct_stacks(self):
        # mhartid-dispatched stack pointers, no branching in the stub
        from lockstep_mcu.soc import STACK_BYTES, STACK_TOP
        p = Program()
        p.label("_start")
        p.ins("csrr", "t0", "mhartid")
        p.ins("bnez", "t0", "park")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "x0", 0, "t6")
        p.label("park")
        p.ins("wfi")
        p.ins("j", "park")
        soc = fresh(mode="parallel", prog=p)
        soc.run(stop_at=40)  # everyone past the stub by now
        sps = [c.regs[2] for c in soc.cores]
        want = [(STACK_TOP - h * STACK_BYTES) & 0xFFFFFFFF for h in range(3)]
        assert sps == want
