"""Lockstep behavior: voting, divergence detection, resynchronization,
and runtime mode changes."""

import itertools

import pytest

from lockstep_mcu import kernels
from lockstep_mcu.odrg import ALL_DIFFER, MODE_LOCKSTEP, MODE_PERFORMANCE, vote
from lockstep_mcu.soc import Soc, SocConfig


def lockstep_soc(prog=None, **cfg):
    soc = Soc(SocConfig(mode="lockstep", record_trace=False, **cfg))
    soc.load_program(prog if prog is not None else
                     kernels.matmul_kernel(8, "single"))
    return soc


class TestVote:
    def test_unanimous(self):
        r = vote("x", "x", "x")
        assert r.value == "x" and r.disagreeing is None

    def test_minority_flagged(self):
        assert vote("x", "x", "y") == vote("x", "x", "y")
        assert vote("x", "x", "y").disagreeing == 2
        assert vote("x", "y", "x").disagreeing == 1
        assert vote("y", "x", "x").disagreeing == 0

    def test_all_differ(self):
        r = vote("x", "y", "z")
        assert r.disagreeing == ALL_DIFFER

    def test_permutation_never_changes_value(self):
        # permuting inputs permutes the flagged core, never the value
        inputs = ("a", "a", "b")
        for perm in itertools.permutations(range(3)):
            vals = tuple(inputs[i] for i in perm)
            r = vote(*vals)
            assert r.value == "a"
            assert vals[r.disagreeing] == "b"


class TestDivergenceDetection:
    def test_mismatch_raises_resync_within_one_cycle(self):
        # a pc flip diverges the very next fetch request, so the resync
        # request must appear within one cycle of that first divergent
        # output
        soc = lockstep_soc(dormant_opt=False)
        soc.run(stop_at=3000)
        soc.inject_core_fault(2, "pc", 4)
        assert soc.odrg.resync_state == 0
        first_divergent = None
        for cyc in range(3001, 3010):
            soc.run(stop_at=cyc)
            bundles = set()
            for i in range(3):
                d, ins = soc.cports[i]
                bundles.add((ins.request_tuple(), d.request_tuple()))
            if len(bundles) > 1 and first_divergent is None:
                first_divergent = cyc
            if soc.odrg.resync_state != 0:
                assert first_divergent is not None
                assert cyc <= first_divergent + 1
                break
        else:
            pytest.fail("resync never requested")

    def test_flipped_register_detected_within_bounded_cycles(self):
        # dump/flip/load through the scan-chain interface
        soc = lockstep_soc()
        soc.run(stop_at=3000)
        soc.materialize()
        state = soc.cores[1].dump_state(soc.cycle)
        state["regs"][21] ^= 1 << 3          # s5: b-column pointer
        soc.split()
        soc.cores[1].load_state(state, soc.cycle)
        soc.run(stop_at=3400)
        assert soc.odrg.mismatch_count[1] > 0
        assert soc.odrg.resync_events + (soc.odrg.resync_state != 0) > 0

    def test_mismatch_attributed_to_minority(self):
        for hart in (0, 1, 2):
            soc = lockstep_soc()
            soc.run(stop_at=2500)
            soc.inject_core_fault(hart, "pc", 3)
            res = soc.run()
            assert res.exit_code == 0
            flagged = [i for i, n in enumerate(res.mismatch_count) if n]
            assert flagged == [hart]


class TestResync:
    def test_roundtrip_masks_fault(self, matmul24_checksum):
        golden = lockstep_soc(kernels.matmul_kernel(24, "single")).run()
        soc = lockstep_soc(kernels.matmul_kernel(24, "single"))
        soc.run(stop_at=60000)
        soc.inject_core_fault(1, "x21", 9)
        res = soc.run()
        assert res.exit_code == 0
        assert res.checksum == matmul24_checksum
        assert res.resync_events == 1
        assert res.outputs_digest == golden.outputs_digest
        assert res.cycles > golden.cycles  # recovery cost is visible

    def test_post_resync_cores_pairwise_identical(self):
        soc = lockstep_soc()
        soc.run(stop_at=2000)
        soc.inject_core_fault(2, "x20", 5)
        # run long enough for detection + save + reset + reload
        soc.run(stop_at=2600)
        assert soc.odrg.resync_events == 1
        soc.materialize()
        now = soc.cycle
        d0 = soc.cores[0].state_key(now)
        assert soc.cores[1].state_key(now) == d0
        assert soc.cores[2].state_key(now) == d0

    def test_resync_event_count_matches_injections(self):
        soc = lockstep_soc(kernels.matmul_kernel(24, "single"))
        for at in (20000, 60000, 100000):
            soc.run(stop_at=at)
            soc.inject_core_fault(1, "x21", 2)
        res = soc.run()
        assert res.exit_code == 0
        assert res.resync_events == 3

    def test_spurious_resync_preserves_state(self):
        # trigger the flow with no actual divergence: store/reload is
        # the identity and execution completes with golden output
        golden = lockstep_soc().run()
        soc = lockstep_soc()
        soc.run(stop_at=2000)
        soc.request_resync()
        res = soc.run()
        assert res.exit_code == 0
        assert res.resync_events == 1
        assert res.outputs_digest == golden.outputs_digest

    def test_frame_scrubbed_from_stack(self):
        # resync pushes a save frame below sp and zeroes it on reload,
        # so even the full memory image matches golden
        golden = lockstep_soc().run()
        soc = lockstep_soc()
        soc.run(stop_at=2000)
        soc.inject_core_fault(0, "x20", 17)
        res = soc.run()
        assert res.resync_events >= 1
        assert res.outputs_digest == golden.outputs_digest

    def test_unrecoverable_on_back_to_back_failures(self):
        # keep refaulting a live register so recovery never sticks
        soc = lockstep_soc(kernels.matmul_kernel(24, "single"))
        at = 20000
        done = None
        for _ in range(6):
            paused = soc.run(stop_at=at)
            if paused is not None:
                done = paused
                break
            if soc.unrecoverable:
                break
            soc.inject_core_fault(1, "pc", 2)
            at += 100  # refault right after each recovery completes
        assert soc.unrecoverable
        assert not soc.running


class TestModeSwitch:
    def test_boot_lockstep_default_one_logical_core(self):
        soc = lockstep_soc()
        assert soc.odrg.mode == MODE_LOCKSTEP
        res = soc.run()
        # the three cores retire identical streams: one logical core
        assert res.instret[0] == res.instret[1] == res.instret[2]

    def test_switch_to_performance_runs_parallel(self, matmul24_single,
                                                 matmul24_parallel,
                                                 matmul24_checksum):
        soc = lockstep_soc(kernels.modeswitch_matmul_kernel(24))
        res = soc.run()
        assert res.exit_code == 0
        assert res.checksum == matmul24_checksum
        assert soc.odrg.mode == MODE_PERFORMANCE
        # speedup vs the single-core run reproduces the headline ratio
        speedup = matmul24_single.cycles / res.cycles
        assert 2.96 - 0.15 <= speedup <= 2.96 + 0.15
        # and the post-switch run costs about the same as a parallel boot
        assert abs(res.cycles - matmul24_parallel.cycles) < 200

    def test_mode_change_held_until_barrier(self):
        # the register write happens well before the wfi barrier: the
        # switch stays pending (not dropped, not applied) until every
        # hart sleeps
        from lockstep_mcu.asm import Program
        from lockstep_mcu.soc import ODRG_BASE, SIMCTL_BASE
        p = Program()
        p.label("_start")
        p.ins("la", "t1", ODRG_BASE)
        p.ins("li", "t3", 1)
        p.ins("sw", "t3", 0, "t1")       # request performance mode
        for _ in range(40):
            p.ins("nop")                 # keep running: barrier not reached
        p.ins("wfi")                     # barrier
        p.ins("csrr", "t0", "mhartid")   # wakes split: every hart runs this
        p.ins("bnez", "t0", "park")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "x0", 0, "t6")
        p.label("park")
        p.ins("wfi")
        p.ins("j", "park")
        soc = lockstep_soc(p)
        seen_pending = False
        for cyc in range(28, 80):
            soc.run(stop_at=cyc)
            if soc.odrg.pending_mode is not None:
                assert soc.odrg.mode == MODE_LOCKSTEP
                seen_pending = True
        assert seen_pending
        res = soc.run()
        assert res.exit_code == 0
        assert soc.odrg.mode == MODE_PERFORMANCE

    def test_relock_reenters_from_reset_vector(self):
        soc = lockstep_soc(kernels.relock_roundtrip_kernel())
        res = soc.run()
        assert res.exit_code == 0
        assert res.checksum == 42
        assert soc.odrg.mode == MODE_LOCKSTEP
        assert soc.converged

    def test_single_kernel_in_parallel_mode_same_instret(self,
                                                         matmul24_lockstep):
        # release all three harts on the single-variant binary: harts 1-2
        # park via wfi, hart 0 retires the same stream as the lockstep run
        soc = Soc(SocConfig(mode="parallel", record_trace=False))
        soc.load_program(kernels.matmul_kernel(24, "single"))
        res = soc.run()
        assert res.exit_code == 0
        assert res.instret[0] == matmul24_lockstep.instret[0]
        assert res.instret[1] < 100  # parked almost immediately


class TestDormantOptimizationExact:
    """The deferred-split shortcut must be bit-identical to plain 3-way
    stepping for every fault category it covers."""

    @pytest.mark.parametrize("loc,bit", [
        ("x21", 9),     # live pointer: manifests, resyncs
        ("x3", 9),      # never-touched register: dormant forever
        ("mtvec", 5),   # dormant CSR
        ("mepc", 12),   # dormant CSR
        ("mscratch", 0),
        ("mstatus", 3),
        ("x10", 4),     # overwritten quickly: silently re-converges
        ("mcycle", 7),
        ("minstret", 3),
        ("mcause", 4),
        ("mtval", 17),
        ("mie", 11),
    ])
    def test_matches_reference_engine(self, loc, bit):
        results = []
        for dorm in (True, False):
            soc = Soc(SocConfig(mode="lockstep", record_trace=False,
                                dormant_opt=dorm))
            soc.load_program(kernels.matmul_kernel(8, "single"))
            soc.run(stop_at=3000)
            soc.inject_core_fault(1, loc, bit)
            results.append(soc.run())
        a, b = results
        assert a.cycles == b.cycles
        assert a.outputs_digest == b.outputs_digest
        assert a.mismatch_count == b.mismatch_count
        assert a.resync_events == b.resync_events
        assert a.instret == b.instret

    def test_restore_drops_carried_fault(self):
        # a fault carried dormant at the time of restore() belongs to the
        # abandoned trajectory: the restored fault-free run is golden
        prog = kernels.build_kernel("matmul8", "lockstep")
        golden = Soc(SocConfig(mode="lockstep"))
        golden.load_program(prog)
        want = golden.run()
        soc = Soc(SocConfig(mode="lockstep"))
        soc.load_program(prog)
        soc.run(stop_at=3000)
        snap = soc.snapshot()
        soc.inject_core_fault(1, "x21", 9)
        soc.run(stop_at=3001)
        soc.restore(snap)
        res = soc.run()
        assert res.cycles == want.cycles == 7501
        assert res.resync_events == 0
        assert res.mismatch_count == [0, 0, 0]
        assert res.instret == want.instret
        assert res.outputs_digest == want.outputs_digest

    def test_snapshot_keeps_carried_fault(self):
        # observing a paused faulty run must not change it: snapshot()
        # records a carried fault beside the converged group instead of
        # splitting it, and restore() brings the fault back
        prog = kernels.build_kernel("matmul8", "lockstep")

        def faulty():
            soc = Soc(SocConfig(mode="lockstep"))
            soc.load_program(prog)
            soc.run(stop_at=3000)
            soc.inject_core_fault(1, "x3", 9)   # a register never read
            return soc

        want = faulty().run().to_dict()
        soc = faulty()
        soc.run(stop_at=3500)
        snap = soc.snapshot()
        assert soc.converged
        assert snap["dormant"][0] == 1 and list(snap["dormant"][1]) == ["x3"]
        assert soc.run().to_dict() == want
        restored = Soc(SocConfig(mode="lockstep"))
        restored.load_program(prog)
        restored.restore(snap)
        assert restored.dorm_hart == 1
        got = restored.run().to_dict()
        del got["trace_hash"], want["trace_hash"]   # post-restore only
        assert got == want


class TestAllDiffer:
    def test_three_way_disagreement_halts_unrecoverable(self):
        # two cores corrupted differently (beyond the single-particle
        # model): no majority exists, the simulation halts with the
        # distinct unrecoverable classification
        soc = lockstep_soc()
        soc.run(stop_at=3000)
        soc.inject_core_fault(1, "pc", 3)
        soc.inject_core_fault(2, "pc", 5)
        res = soc.run()
        assert res.unrecoverable
        assert res.exit_code is None
        assert not soc.running


class TestMaskingProperty:
    @pytest.mark.parametrize("loc,bit", [
        ("x10", 0), ("x10", 31), ("x21", 15), ("pc", 2), ("pc", 12),
        ("mepc", 7), ("mtvec", 5), ("mie", 3), ("x1", 30), ("x8", 4),
    ])
    def test_any_single_fault_masked(self, loc, bit):
        golden = lockstep_soc().run()
        soc = lockstep_soc()
        soc.run(stop_at=4000)
        soc.inject_core_fault(1, loc, bit)
        res = soc.run()
        assert res.exit_code == 0
        assert not res.unrecoverable
        assert res.outputs_digest == golden.outputs_digest
