"""System assembly: loading, devices, scrubbing, timing, determinism."""

import gc
import json
import weakref

import pytest

from lockstep_mcu import kernels
from lockstep_mcu.asm import Program
from lockstep_mcu.core import PH_EX, PH_LD
from lockstep_mcu.interconnect import R_SRAM
from lockstep_mcu.memory import TOTAL_BYTES, TOTAL_WORDS
from lockstep_mcu.soc import (
    LoadError, MEMCTL_BASE, ODRG_BASE, ROM_BASE, SIMCTL_BASE, SRAM_BASE,
    UART_BASE, Soc, SocConfig,
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
        prog = kernels.matmul_kernel(8, "parallel3")
        outs = []
        for fast in (True, False):
            soc = Soc(SocConfig(mode="parallel", fast_loop=fast,
                                trace_lines=True))
            soc.load_program(prog)
            outs.append(soc.run().trace_lines)
        assert len(outs[0]) > 1000
        assert outs[0] == outs[1]

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


def _self_modifying_loop(op, n):
    """A loop that executes the instruction at ``patch`` and, on every
    other iteration, rewrites it (``sw`` of the word, ``sh`` of the upper
    half of a 32-bit ``addi``, or ``sh`` of a ``c.addi`` in the upper
    half of its word) so the next fetch of it must see the new word.
    The two encodings add ``incs`` to a0; a0 is the result register."""
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
        n = 40
        prog, incs = _self_modifying_loop(op, n)
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


class TestTraceBuffer:
    def test_reference_engine_buffer_stays_bounded(self):
        # with the scrubber off, no tick flushes the reference engine's
        # retirement records: the buffer must still stay bounded, and the
        # trace hash must not move
        prog = kernels.build_kernel("matmul24", "lockstep")
        soc = fresh(prog=prog, fast_loop=False, scrub_enabled=False)
        soc.run(stop_at=30_000)
        assert len(soc.tracebuf) < 1 << 17
        whole = fresh(prog=prog, scrub_enabled=False).run()
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
        assert soc.odrg.read(0x24, soc) == 7
        soc.odrg.error_select = 0
        soc.odrg.mismatch_count[0] = 3
        assert soc.odrg.read(0x24, soc) == 3

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

    def test_unknown_device_offset_read_faults(self):
        p = Program()
        p.label("_start")
        p.ins("la", "s0", ODRG_BASE + 0x4000)
        p.ins("lw", "a0", 0, "s0")
        res = fresh(prog=p).run()
        assert res.exit_code == 0xDEAD0005


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
