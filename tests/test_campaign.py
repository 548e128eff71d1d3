"""Campaign engine: classification, reproducibility, independence."""

import json

import pytest

from lockstep_mcu.campaign import (
    CampaignError, CampaignSpec, FaultEvent, classify, execute_runs,
    generate_event, run_campaign, run_golden,
)
from lockstep_mcu import kernels
from lockstep_mcu.soc import Soc, SocConfig


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
