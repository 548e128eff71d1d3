"""Campaign engine: classification, reproducibility, independence."""

import json
from dataclasses import replace

import pytest

from lockstep_mcu import campaign, kernels
from lockstep_mcu import soc as soc_mod
from lockstep_mcu.asm import Program, assemble, label_map
from lockstep_mcu.campaign import (
    TARGET_KINDS, CampaignError, CampaignSpec, FaultEvent, classify,
    derived_record, execute_runs, generate_event, run_campaign, run_golden,
)
from lockstep_mcu.ecc import encode
from lockstep_mcu.odrg import REG_ERROR_OUTPUT, REG_ERROR_SELECT
from lockstep_mcu.soc import (
    MEMCTL_BASE, ODRG_BASE, SIMCTL_BASE, SRAM_BASE, Soc, SocConfig,
)


def small_spec(**kw):
    base = dict(kernel="matmul8", mode="lockstep", runs=10, seed=5,
                targets=("core",))
    base.update(kw)
    return CampaignSpec(**base)


class TestSpecValidation:
    def test_bad_target_rejected_before_any_run(self):
        with pytest.raises(CampaignError, match="bad target"):
            CampaignSpec(targets=("cosmic_ray",)).validate()

    def test_bad_loc_rejected(self):
        with pytest.raises(CampaignError, match="bad core fault location"):
            CampaignSpec(locs=("x99",)).validate()

    def test_zero_scrub_interval_rejected(self):
        with pytest.raises(CampaignError, match="scrub_interval"):
            CampaignSpec.from_dict({"kernel": "matmul8", "scrub_interval": 0})

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(CampaignError, match="unknown spec fields"):
            CampaignSpec.from_dict({"kernel": "matmul8", "bogus": 1})

    def test_roundtrip_through_dict(self):
        spec = small_spec()
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()

    @staticmethod
    def event_spec(**event):
        ev = {"kind": "core", "at_cycle": 100, "loc": "x5", "bit": 1}
        ev.update(event)
        return {"kernel": "matmul8", "runs": 1, "events": [ev]}

    def test_unknown_event_field_rejected(self):
        with pytest.raises(CampaignError, match="unknown event fields"):
            CampaignSpec.from_dict(self.event_spec(cycle=5))

    def test_event_hart_out_of_range_rejected(self):
        with pytest.raises(CampaignError, match="bad event hart"):
            CampaignSpec.from_dict(self.event_spec(hart=7))

    def test_memory_event_bit_out_of_range_rejected(self):
        with pytest.raises(CampaignError, match="event bit out of range"):
            CampaignSpec.from_dict(self.event_spec(kind="memory", bit=45))

    def test_core_event_bit_out_of_range_rejected(self):
        with pytest.raises(CampaignError, match="event bit out of range"):
            CampaignSpec.from_dict(self.event_spec(bit=33))

    def test_negative_event_cycle_rejected(self):
        with pytest.raises(CampaignError, match="at_cycle must be >= 0"):
            CampaignSpec.from_dict(self.event_spec(at_cycle=-1))

    def test_non_integer_runs_rejected(self):
        with pytest.raises(CampaignError, match="runs must be an integer"):
            CampaignSpec.from_dict({"kernel": "matmul8", "runs": "many"})

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_non_boolean_scrub_enabled_rejected(self, value):
        with pytest.raises(CampaignError, match="scrub_enabled"):
            CampaignSpec.from_dict({"kernel": "matmul8",
                                    "scrub_enabled": value})

    @pytest.mark.parametrize("name,value", [
        ("targets", "core"), ("harts", "012"), ("locs", "x1"),
        ("harts", 1), ("cycle_window", "01")])
    def test_string_or_scalar_list_field_rejected(self, name, value):
        with pytest.raises(CampaignError, match=f"{name} must be a list"):
            CampaignSpec.from_dict({"kernel": "matmul8", name: value})

    @pytest.mark.parametrize("hart", [True, 1.0, "1"])
    def test_non_integer_hart_rejected(self, hart):
        with pytest.raises(CampaignError, match="bad hart"):
            CampaignSpec.from_dict({"kernel": "matmul8", "harts": [hart]})

    def test_non_object_spec_rejected(self):
        with pytest.raises(CampaignError, match="must be an object"):
            CampaignSpec.from_dict(5)

    def test_events_must_match_runs(self):
        spec = self.event_spec()
        spec["runs"] = 2
        with pytest.raises(CampaignError, match="number of explicit events"):
            CampaignSpec.from_dict(spec)

    @pytest.mark.parametrize("kernel,mode", [
        ("modeswitch", "single"), ("relock", "single"),
        ("relock", "parallel")])
    def test_unsupported_kernel_mode_rejected(self, kernel, mode):
        with pytest.raises(CampaignError, match="does not run in mode"):
            CampaignSpec(kernel=kernel, mode=mode).validate()


class TestEventGeneration:
    def test_deterministic_per_index(self):
        spec = small_spec()
        evs = [generate_event(spec, i, 10000) for i in range(20)]
        again = [generate_event(spec, i, 10000) for i in range(20)]
        assert evs == again

    def test_cycle_window_respected(self):
        spec = small_spec(cycle_window=(0.5, 0.6))
        for i in range(50):
            ev = generate_event(spec, i, 10000)
            assert 5000 <= ev.at_cycle < 6000

    def test_target_restriction(self):
        spec = small_spec(targets=("memory",))
        for i in range(20):
            assert generate_event(spec, i, 10000).kind == "memory"


def a_matrix_flip(soc, extra_bit=None):
    """Flip bit(s) of the first word of the A matrix (read by the guest)."""
    from lockstep_mcu.asm import label_map
    from lockstep_mcu.soc import SRAM_BASE
    prog = kernels.matmul_kernel(8, "single")
    addr = label_map(prog, SRAM_BASE)["A"]
    word = (addr - SRAM_BASE) >> 2
    soc.banks.flip_bit(word & 7, word >> 3, 7)
    if extra_bit is not None:
        soc.banks.flip_bit(word & 7, word >> 3, extra_bit)


class TestClassify:
    def golden_and_faulty(self, inject, mode="lockstep", at=3000):
        prog = kernels.matmul_kernel(8, "single")
        g = Soc(SocConfig(mode=mode, record_trace=False))
        g.load_program(prog)
        golden = g.run()
        f = Soc(SocConfig(mode=mode, record_trace=False))
        f.load_program(prog)
        f.run(stop_at=at)
        inject(f)
        return classify(f.run(), golden)

    def test_core_fault_lockstep_never_sdc(self):
        out = self.golden_and_faulty(
            lambda s: s.inject_core_fault(1, "x10", 3))
        assert out in ("masked_voter", "resynced")

    def test_memory_single_flip_corrected(self):
        out = self.golden_and_faulty(a_matrix_flip, at=500)
        assert out == "corrected_ecc"

    def test_memory_double_flip_detected(self):
        out = self.golden_and_faulty(
            lambda s: a_matrix_flip(s, extra_bit=8), at=500)
        assert out == "detected_uncorrectable"

    def test_latent_unread_single_flip_masked(self):
        # past the image, never read: ECC makes it a non-event
        out = self.golden_and_faulty(
            lambda s: s.banks.flip_bit(1, 2000, 7), at=500)
        assert out == "masked_voter"

    def test_latent_unread_double_flip_detected(self):
        # SEC-DED never lets a double error read silently wrong, so
        # latent poison counts as detected rather than silent
        out = self.golden_and_faulty(
            lambda s: (s.banks.flip_bit(1, 2000, 7),
                       s.banks.flip_bit(1, 2000, 9)), at=500)
        assert out == "detected_uncorrectable"

    def test_single_mode_register_fault_can_corrupt(self):
        # the unprotected baseline: a live-register hit with no voter
        out = self.golden_and_faulty(
            lambda s: s.inject_core_fault(0, "x21", 3), mode="single")
        assert out in ("silent_data_corruption", "crash")

    def test_timeout_class(self):
        prog = kernels.matmul_kernel(8, "single")
        g = Soc(SocConfig(mode="lockstep", record_trace=False))
        g.load_program(prog)
        golden = g.run()
        f = Soc(SocConfig(mode="lockstep", record_trace=False,
                          max_cycles=golden.cycles // 2))
        f.load_program(prog)
        res = f.run()
        assert classify(res, golden) == "timeout"


class TestCampaignRuns:
    def test_seed_repeat_bit_identical_report(self):
        spec = small_spec(runs=6)
        a = run_campaign(spec)
        b = run_campaign(small_spec(runs=6))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_lockstep_core_faults_never_sdc_or_crash(self):
        report = run_campaign(small_spec(runs=25, seed=11))
        assert report["classes"]["silent_data_corruption"] == 0
        assert report["classes"]["crash"] == 0
        assert report["totals"]["runs"] == 25

    def test_single_mode_baseline_has_sdc(self):
        # the same fault pressure without redundancy corrupts results
        spec = small_spec(mode="single", runs=25, seed=11, harts=(0,))
        report = run_campaign(spec)
        assert report["classes"]["silent_data_corruption"] > 0

    def test_subset_independence(self):
        spec = small_spec(runs=10)
        golden = run_golden(spec, record_trace=False)
        full = execute_runs(spec, list(range(10)), golden)
        subset = execute_runs(spec, [3, 7], golden)
        by_index = {r["index"]: r for r in full}
        for r in subset:
            assert r == by_index[r["index"]]

    def test_jobs_do_not_change_report(self):
        spec = small_spec(runs=6)
        a = run_campaign(small_spec(runs=6), jobs=1)
        b = run_campaign(spec, jobs=2)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_shuffled_aggregation_identical(self):
        spec = small_spec(runs=8)
        golden = run_golden(spec, record_trace=False)
        fwd = execute_runs(spec, list(range(8)), golden)
        rev = execute_runs(spec, list(range(7, -1, -1)), golden)
        assert sorted(map(json.dumps, fwd)) == sorted(map(json.dumps, rev))

    def test_memory_targets(self):
        spec = small_spec(targets=("memory",), runs=12, seed=2)
        report = run_campaign(spec)
        assert report["classes"]["silent_data_corruption"] == 0
        assert sum(report["by_target"]["memory"].values()) == 12

    def test_write_mask_targets(self):
        spec = small_spec(targets=("write_mask",), runs=8, seed=2)
        report = run_campaign(spec)
        assert sum(report["by_target"]["write_mask"].values()) == 8
        assert report["classes"]["silent_data_corruption"] == 0

    def test_explicit_events(self):
        events = [FaultEvent(kind="core", at_cycle=2000, hart=1, loc="x21",
                             bit=4),
                  FaultEvent(kind="memory", at_cycle=100, bank=2, row=30,
                             bit=6)]
        spec = small_spec(runs=2, explicit_events=events)
        report = run_campaign(spec)
        assert report["runs"][0]["outcome"] in ("masked_voter", "resynced")

    def test_golden_failure_aborts(self):
        spec = small_spec(max_cycles=100)  # cannot finish
        with pytest.raises(CampaignError, match="golden run failed"):
            run_campaign(spec)

    def test_report_schema_fields(self):
        report = run_campaign(small_spec(runs=2))
        assert report["schema"] == "campaign-report/1"
        for key in ("spec", "golden", "classes", "by_target", "totals", "runs"):
            assert key in report
        assert set(report["classes"]) == {
            "masked_voter", "corrected_ecc", "resynced",
            "detected_uncorrectable", "silent_data_corruption", "crash",
            "timeout"}


class TestPruning:
    """Runs whose fault the golden run never observes are not simulated;
    ``execute_runs`` simulates every run it is given and is the oracle."""

    @staticmethod
    def spy_executed(monkeypatch) -> list[int]:
        executed: list[int] = []
        real = campaign.execute_runs

        def spy(spec, indices, golden):
            executed.extend(indices)
            return real(spec, indices, golden)
        monkeypatch.setattr(campaign, "execute_runs", spy)
        return executed

    @pytest.mark.parametrize("mode", ["lockstep", "single", "parallel"])
    @pytest.mark.parametrize("kernel", ["matmul8", "hello", "subword"])
    def test_pruned_records_equal_simulated(self, monkeypatch, kernel, mode):
        spec = CampaignSpec(kernel=kernel, mode=mode, runs=30, seed=3,
                            targets=TARGET_KINDS)
        executed = self.spy_executed(monkeypatch)
        report = run_campaign(spec)
        assert len(executed) < spec.runs   # something was pruned
        golden = run_golden(spec, record_trace=False)
        # the module-level name is the unwrapped function
        simulated = execute_runs(spec, list(range(spec.runs)), golden)
        assert report["runs"] == sorted(simulated, key=lambda r: r["index"])

    def test_unread_core_locations_pruned(self, monkeypatch):
        spec = small_spec(runs=0)
        du = run_golden(spec, record_trace=False).defuse
        unread = [i for i in range(1, 32) if not du.loc_reads >> i & 1]
        assert du.last_irq_cycle < 0 and len(unread) >= 2
        assert du.loc_reads >> 10 & 1
        events = [FaultEvent(kind="core", at_cycle=at, hart=h, loc=loc, bit=b)
                  for at, h, loc, b in ((10, 1, f"x{unread[0]}", 3),
                                        (5000, 2, f"x{unread[1]}", 31),
                                        (6000, 1, "pc", 2),
                                        (6000, 1, "x10", 2))]
        events.append(FaultEvent(kind="write_mask", at_cycle=3000, bank=1,
                                 bit=4))
        spec = small_spec(runs=len(events), explicit_events=events)
        executed = self.spy_executed(monkeypatch)
        report = run_campaign(spec)
        assert executed == [2, 3]     # pc, a read register
        golden = run_golden(spec, record_trace=False)
        assert report["runs"][:2] == execute_runs(spec, [0, 1], golden)
        assert report["runs"][4:] == execute_runs(spec, [4], golden)

    def test_fault_before_mode_switch_not_pruned(self):
        # modeswitch unlocks the group at a wfi barrier early in the run
        spec = CampaignSpec(kernel="modeswitch", runs=0)
        golden = run_golden(spec, record_trace=False)
        du = golden.defuse
        switch = du.last_irq_cycle
        assert 0 < switch < 100
        assert not du.loc_reads >> 16 & 1
        early = FaultEvent(kind="core", at_cycle=switch, hart=2, loc="x16")
        late = FaultEvent(kind="core", at_cycle=switch + 1, hart=2, loc="x16")
        assert derived_record(0, early, golden) is None
        assert derived_record(0, late, golden) is not None
        spec = CampaignSpec(kernel="modeswitch", runs=1,
                            explicit_events=[late])
        assert run_campaign(spec)["runs"] == execute_runs(spec, [0], golden)

    def test_all_runs_pruned_skips_execution(self, monkeypatch):
        events = [FaultEvent(kind="memory", at_cycle=50 * i, bank=i, row=8000,
                             bit=i) for i in range(4)]
        spec = small_spec(runs=4, explicit_events=events)

        def fail(*_a):
            raise AssertionError("nothing should be simulated")
        monkeypatch.setattr(campaign, "execute_runs", fail)
        report = run_campaign(spec)
        assert report["classes"]["masked_voter"] == 4

    def test_dormant_off_gives_identical_report(self, monkeypatch):
        spec = small_spec(runs=12, seed=8, targets=TARGET_KINDS)
        on = run_campaign(spec)

        def config(**kw):
            return SocConfig(dormant_opt=False, **kw)
        monkeypatch.setattr(campaign, "SocConfig", config)
        off = run_campaign(spec)
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)

    def test_jobs_do_not_change_pruned_report(self):
        spec = small_spec(runs=12, seed=8, targets=TARGET_KINDS)
        a = run_campaign(spec, jobs=1)
        b = run_campaign(spec, jobs=2)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_defuse_stays_out_of_the_report(self):
        golden = run_golden(small_spec(runs=0))
        assert golden.defuse is not None
        assert "defuse" not in golden.to_dict()
        soc = Soc(SocConfig())
        soc.load_program(kernels.build_kernel("exit0"))
        assert soc.run().defuse is None


def by_index(records: list[dict]) -> list[dict]:
    return sorted(records, key=lambda r: r["index"])


class TestWriteMaskDerivation:
    """A write-mask or memory-flip run's record comes from the golden
    run's def/use log (``derived_record``) unless the guest can see the
    ECC counters; ``execute_runs`` is the oracle."""

    @staticmethod
    def assert_derived_exactly(spec, golden, events) -> list[dict]:
        spec = replace(spec, runs=len(events), explicit_events=events)
        derived = [derived_record(i, ev, golden)
                   for i, ev in enumerate(events)]
        assert None not in derived
        assert derived == by_index(
            execute_runs(spec, list(range(len(events))), golden))
        return derived

    @pytest.mark.parametrize("kernel,mode,scrub", [
        ("matmul8", "lockstep", 1), ("matmul8", "parallel", 3),
        ("matmul3", "single", 64), ("matmul3", "parallel", 3)])
    def test_flips_around_accesses_equal_simulated(self, kernel, mode,
                                                   scrub):
        # each stored word, flipped just before, at and after a store and
        # the last read before it, with a write mask on its bank at the
        # same cycles: words read or stored both before and after ``at``
        spec = CampaignSpec(kernel=kernel, mode=mode, runs=0,
                            scrub_interval=scrub)
        golden = run_golden(spec, record_trace=False)
        du = golden.defuse
        events = []
        for k, (t, w, _b, _a, _s, read) in enumerate(du.stores[::3][:10]):
            for at in (t - 1, t, t + 1, read, read + 1):
                bank, row, bit = w & 7, w >> 3, (k * 7 + at) % 39
                events.append(FaultEvent(kind="memory", at_cycle=at,
                                         bank=bank, row=row, bit=bit))
                events.append(FaultEvent(kind="write_mask", at_cycle=at,
                                         bank=bank, bit=bit))
        derived = self.assert_derived_exactly(spec, golden, events)
        flips = [r["ecc_correctable"] for r in derived
                 if r["event"]["kind"] == "memory"]
        assert len(set(flips)) == 2     # with and without a correction

    def test_flips_at_a_block_load(self):
        # with the scrubber off, matmul8's input matrices A and B are read
        # only by loads inside translated blocks; a flip in the cycle
        # before a word's last load is corrected by it, one in its cycle
        # or after is not
        spec = small_spec(runs=0, scrub_enabled=False)
        golden = run_golden(spec, record_trace=False)
        du = golden.defuse
        labels = label_map(kernels.build_kernel("matmul8", "lockstep"),
                           SRAM_BASE)
        first, end = ((labels[k] - SRAM_BASE) >> 2 for k in ("A", "C"))
        events = [FaultEvent(kind="memory", at_cycle=du.reads[w] + d,
                             bank=w & 7, row=w >> 3, bit=(w + d) % 39)
                  for w in range(first, end, 11) for d in (-1, 0, 1)]
        derived = self.assert_derived_exactly(spec, golden, events)
        base = sum(golden.ecc_correctable)
        assert [r["ecc_correctable"] - base for r in derived] == \
            [1, 0, 0] * (len(events) // 3)

    def test_flips_at_a_block_fetch(self):
        # with the scrubber off, the words of matmul8's inner loop, one
        # translated block, are read only by fetches; a flip in the cycle
        # before a word's last fetch is corrected by it, one in its cycle
        # or after is not
        spec = small_spec(runs=0, scrub_enabled=False)
        golden = run_golden(spec, record_trace=False)
        du = golden.defuse
        first = (label_map(kernels.build_kernel("matmul8", "lockstep"),
                           SRAM_BASE)["inner"] - SRAM_BASE) >> 2
        events = [FaultEvent(kind="memory", at_cycle=du.reads[w] + d,
                             bank=w & 7, row=w >> 3, bit=(w + d) % 39)
                  for w in range(first, first + 7) for d in (-1, 0, 1)]
        derived = self.assert_derived_exactly(spec, golden, events)
        base = sum(golden.ecc_correctable)
        assert [r["ecc_correctable"] - base for r in derived] == [1, 0, 0] * 7

    def test_store_and_scrub_in_one_cycle(self, tmp_path):
        # a loop stores two values by turns to ``buf``, which the
        # scrubber (one word a cycle) reads in the cycle of a full-word
        # store, and nothing reads it later; the faults come just
        # before, at and after that store
        p = Program()
        p.label("_start")
        p.ins("j", "main")
        p.words([0] * 38)
        p.label("buf")
        p.words([0])
        p.label("main")
        p.ins("la", "s0", "buf")
        p.ins("li", "t0", 0x12345678)
        p.ins("li", "t1", 0x0F0F0F0F)
        p.ins("li", "s1", 8)
        p.label("loop")
        for _ in range(4):
            p.ins("sw", "t0", 0, "s0")
            p.ins("sw", "t1", 0, "s0")
        p.ins("addi", "s1", "s1", -1)
        p.ins("bnez", "s1", "loop")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "x0", 0, "t6")
        w = (label_map(p, SRAM_BASE)["buf"] - SRAM_BASE) >> 2
        spec = replace(self.campaign_of(p, tmp_path, []), scrub_interval=1)
        golden = run_golden(spec, record_trace=False)
        du = golden.defuse
        mine = [s for s in du.stores if s[1] == w]
        # the scrubber's read in the cycle of store 3 is the last before
        # store 4
        t, _w, before, after, strobes, _read = mine[3]
        assert strobes == 0xF and mine[4][5] == t
        assert before != after
        # a write mask on a bit the store changes is corrected by the
        # scrubber's read if it came before the store; a flip before or
        # at the store is erased by it or by the next one
        events = [FaultEvent(kind="write_mask", at_cycle=at, bank=w & 7,
                             bit=b) for b in range(39)
                  if (before ^ after) >> b & 1 for at in (t - 1, t)]
        events += [FaultEvent(kind="memory", at_cycle=at, bank=w & 7,
                              row=w >> 3, bit=b)
                   for at in (t - 1, t, t + 1) for b in (0, 17, 38)]
        derived = self.assert_derived_exactly(spec, golden, events)
        base = sum(golden.ecc_correctable)
        masks = len(events) - 9
        assert [r["ecc_correctable"] - base for r in derived] == \
            [1, 0] * (masks // 2) + [0] * 9

    @pytest.mark.parametrize("kernel,mode,scrub,runs", [
        *(("matmul8", mode, scrub, 16) for mode in kernels.MODES
          for scrub in (1, 3, 64)),
        ("matmul3", "parallel", 1, 16), ("modeswitch", "lockstep", 3, 6)])
    def test_derived_records_equal_simulated(self, kernel, mode, scrub, runs):
        spec = CampaignSpec(kernel=kernel, mode=mode, runs=runs, seed=scrub,
                            targets=("write_mask",), scrub_interval=scrub)
        golden = run_golden(spec, record_trace=False)
        derived = [derived_record(i, generate_event(spec, i, golden.cycles),
                                  golden) for i in range(spec.runs)]
        assert None not in derived
        simulated = execute_runs(spec, list(range(spec.runs)), golden)
        assert derived == by_index(simulated)
        assert any(r["ecc_correctable"] for r in derived)

    def test_derived_runs_simulate_nothing(self, monkeypatch):
        spec = small_spec(runs=8, seed=4, targets=("write_mask",))
        golden = run_golden(spec)
        want = by_index(execute_runs(spec, list(range(spec.runs)), golden))

        def fail(*_a, **_kw):
            raise AssertionError("a derived run was simulated")
        monkeypatch.setattr(campaign, "run_golden", lambda *_a, **_kw: golden)
        monkeypatch.setattr(Soc, "run", fail)
        monkeypatch.setattr(FaultEvent, "apply", fail)
        assert run_campaign(spec)["runs"] == want

    @staticmethod
    def campaign_of(prog: Program, tmp_path, events) -> CampaignSpec:
        image = tmp_path / "prog.bin"
        image.write_bytes(assemble(prog, SRAM_BASE))
        return CampaignSpec(binary=str(image), runs=len(events),
                            explicit_events=events)

    @pytest.mark.parametrize("reader", ["memctl", "odrg"])
    def test_guest_reading_the_counters_is_simulated(self, tmp_path, reader):
        # a store to word 1 (bank 1) the fault leaves one bit wrong, a load
        # that corrects it, then the bank's correctable count (or the sum
        # of all) into the result register
        value, bank = 0x12345678, 1
        p = Program()
        p.label("_start")
        p.ins("j", "main")
        p.label("buf")
        p.words([0])
        p.label("main")
        p.ins("la", "s0", "buf")
        p.ins("li", "t0", value)
        p.ins("sw", "t0", 0, "s0")
        p.ins("lw", "t1", 0, "s0")
        if reader == "memctl":
            p.ins("la", "t2", MEMCTL_BASE + 0x40 + 4 * bank)
            p.ins("lw", "t3", 0, "t2")
        else:   # select the sum of the correctable counts, then read it
            p.ins("la", "t2", ODRG_BASE)
            p.ins("li", "t4", 4)
            p.ins("sw", "t4", REG_ERROR_SELECT, "t2")
            p.ins("lw", "t3", REG_ERROR_OUTPUT, "t2")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "t3", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        assert label_map(p, SRAM_BASE)["buf"] == SRAM_BASE + 4 * bank
        cw = encode(value)
        ev = FaultEvent(kind="write_mask", at_cycle=1, bank=bank,
                        bit=(cw & -cw).bit_length() - 1)
        spec = self.campaign_of(p, tmp_path, [ev])
        golden = run_golden(spec, record_trace=False)
        assert golden.defuse.ecc_regs
        assert derived_record(0, ev, golden) is None
        simulated = execute_runs(spec, [0], golden)
        assert run_campaign(spec)["runs"] == simulated
        # the count the guest saw changed its result: the store log alone
        # gives the right count but not the right outcome
        naive = derived_record(0, ev, replace(
            golden, defuse=replace(golden.defuse, ecc_regs=False)))
        assert naive["ecc_correctable"] == simulated[0]["ecc_correctable"] == 1
        assert naive != simulated[0]

    def test_guest_reading_no_ecc_state_is_derived(self, tmp_path):
        # the scrub position and interval and the error output under
        # select 0 show no ECC state: every flip and write mask of the
        # loaded, stored and read word is derived, and equals simulation
        p = Program()
        p.label("_start")
        p.ins("j", "main")
        p.label("buf")
        p.words([0x0F0F0F0F])
        p.label("main")
        p.ins("la", "s0", "buf")
        p.ins("lw", "a0", 0, "s0")
        p.ins("li", "t0", 0x12345678)
        p.ins("sw", "t0", 0, "s0")
        p.ins("la", "t2", MEMCTL_BASE + 0x84)
        p.ins("lw", "t3", 0, "t2")          # scrub interval
        p.ins("lw", "t4", 4, "t2")          # scrub position
        p.ins("la", "t2", ODRG_BASE)
        p.ins("sw", "x0", REG_ERROR_SELECT, "t2")
        p.ins("lw", "t5", REG_ERROR_OUTPUT, "t2")
        p.ins("lw", "a1", 0, "s0")
        p.ins("add", "a1", "a1", "t3")
        p.ins("add", "a1", "a1", "t4")
        p.ins("add", "a1", "a1", "t5")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a1", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        assert label_map(p, SRAM_BASE)["buf"] == SRAM_BASE + 4
        events = [FaultEvent(kind="write_mask", at_cycle=1, bank=1, bit=b)
                  for b in range(39)]
        events += [FaultEvent(kind="memory", at_cycle=at, bank=1, row=0,
                              bit=b) for at in (1, 20, 40) for b in (0, 9, 38)]
        spec = self.campaign_of(p, tmp_path, events)
        spec = replace(spec, scrub_interval=7)
        golden = run_golden(spec, record_trace=False)
        assert not golden.defuse.ecc_regs
        derived = [derived_record(i, ev, golden)
                   for i, ev in enumerate(events)]
        assert None not in derived
        assert derived == by_index(
            execute_runs(spec, list(range(len(events))), golden))
        assert {r["ecc_correctable"] for r in derived} == {0, 1}

    def test_every_bit_of_a_store_sequence(self, tmp_path):
        # word 1 (bank 1) is read, stored twice with no read between (the
        # second store puts the masked bit back), stored again, merged by a
        # sub-word store and read: each bit of the mask, from cycle 1
        p = Program()
        p.label("_start")
        p.ins("j", "main")
        p.label("buf")
        p.words([0])
        p.label("main")
        p.ins("la", "s0", "buf")
        p.ins("lw", "a0", 0, "s0")
        p.ins("li", "t0", 0x12345678)
        p.ins("sw", "t0", 0, "s0")
        p.ins("sw", "x0", 0, "s0")
        p.ins("sw", "t0", 0, "s0")
        p.ins("li", "t1", 0x9ABC)
        p.ins("sh", "t1", 2, "s0")
        p.ins("lw", "a1", 0, "s0")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a1", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        assert label_map(p, SRAM_BASE)["buf"] == SRAM_BASE + 4
        events = [FaultEvent(kind="write_mask", at_cycle=1, bank=1, bit=b)
                  for b in range(39)]
        spec = self.campaign_of(p, tmp_path, events)
        golden = run_golden(spec, record_trace=False)
        derived = [derived_record(i, ev, golden)
                   for i, ev in enumerate(events)]
        assert derived == by_index(
            execute_runs(spec, list(range(len(events))), golden))
        # a bit set by the first store is corrected by the merge, and one
        # that the merge changes is corrected by the last read
        assert {r["ecc_correctable"] for r in derived} == {0, 1, 2}

    def test_too_many_stores_are_not_logged(self, monkeypatch):
        # matmul8 makes 64 stores: with room for 16, the golden run keeps
        # none and every write mask is simulated, but the rest of the log
        # stays exact, and a flip with no store to its word after it is
        # still derived
        spec = small_spec(runs=6, seed=4, targets=("write_mask",))
        full = run_golden(spec, record_trace=False).defuse
        monkeypatch.setattr(soc_mod, "_STORE_LOG_MAX", 16)
        golden = run_golden(spec, record_trace=False)
        du = golden.defuse
        assert du.stores is None
        assert replace(du, stores=full.stores) == full
        assert all(derived_record(i, generate_event(spec, i, golden.cycles),
                                  golden) is None for i in range(spec.runs))
        assert run_campaign(spec)["runs"] == by_index(
            execute_runs(spec, list(range(spec.runs)), golden))
        w = max(du.writes, key=du.writes.get)      # the last word stored
        late = FaultEvent(kind="memory", bank=w & 7, row=w >> 3, bit=5,
                          at_cycle=max(du.reads[w], du.writes[w]))
        early = replace(late, at_cycle=du.writes[w] - 1)
        r = next(v for v, cycle in enumerate(du.reads) if cycle > 0
                 and v not in du.writes)
        read = FaultEvent(kind="memory", at_cycle=du.reads[r] - 1,
                          bank=r & 7, row=r >> 3, bit=9)
        assert derived_record(0, early, golden) is None
        derived = self.assert_derived_exactly(spec, golden, [late, read])
        assert [r["ecc_correctable"] for r in derived] == [
            sum(golden.ecc_correctable), sum(golden.ecc_correctable) + 1]

    def test_self_modifying_program_is_derived(self, tmp_path):
        # rewrite ``addi a0, a0, 1`` into ``addi a0, a0, 2`` before a loop
        # runs it four times: the log holds the fetches of the rewritten
        # word, so each write mask is derived, and so is a fault on a
        # register that neither version of the instruction reads
        new = Program()
        new.ins("addi", "a0", "a0", 2)
        p = Program()
        p.label("_start")
        p.ins("la", "s0", "patch")
        p.ins("li", "t0", int.from_bytes(assemble(new, SRAM_BASE), "little"))
        p.ins("sw", "t0", 0, "s0")
        p.ins("li", "s1", 4)
        p.ins("li", "a0", 0)
        p.label("patch")
        p.ins("addi", "a0", "a0", 1)
        p.ins("addi", "s1", "s1", -1)
        p.ins("bnez", "s1", "patch")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a0", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
        # runs in the exit cycle; a zero word would decode as a trap that
        # reads every register
        p.ins("nop")
        bank = (label_map(p, SRAM_BASE)["patch"] - SRAM_BASE) >> 2 & 7
        events = [FaultEvent(kind="write_mask", at_cycle=1, bank=bank,
                             bit=b) for b in range(0, 39, 3)]
        spec = self.campaign_of(p, tmp_path, events)
        golden = run_golden(spec, record_trace=False)
        assert golden.checksum == 8
        unread = next(i for i in range(1, 32)
                      if not golden.defuse.loc_reads >> i & 1)
        events.append(FaultEvent(kind="core", at_cycle=1, loc=f"x{unread}",
                                 bit=7))
        self.assert_derived_exactly(spec, golden, events)


class _InlinePool:
    """ProcessPoolExecutor stand-in that runs the shards in-process."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payload):
        return [fn(item) for item in payload]


class TestJobsClamp:
    def run(self, monkeypatch, cpus, jobs, spec):
        _InlinePool.created = []
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(campaign, "ProcessPoolExecutor", _InlinePool)
        return run_campaign(spec, jobs=jobs), _InlinePool.created

    def test_clamped_to_cpu_count(self, monkeypatch):
        spec = small_spec(runs=6)
        report, pools = self.run(monkeypatch, 3, 64, spec)
        assert pools == [3]
        assert report == run_campaign(spec)

    def test_clamped_to_simulated_runs(self, monkeypatch):
        events = [FaultEvent(kind="core", at_cycle=1000, hart=1, loc="x21",
                             bit=b) for b in range(2)]
        events += [FaultEvent(kind="memory", at_cycle=100, bank=1, row=8000,
                              bit=3)] * 3
        spec = small_spec(runs=5, explicit_events=events)
        _report, pools = self.run(monkeypatch, 16, 8, spec)
        assert pools == [2]

    def test_one_cpu_runs_in_process(self, monkeypatch):
        _report, pools = self.run(monkeypatch, 1, 4, small_spec(runs=4))
        assert pools == []

    def test_unknown_cpu_count_runs_in_process(self, monkeypatch):
        _report, pools = self.run(monkeypatch, None, 4, small_spec(runs=4))
        assert pools == []
