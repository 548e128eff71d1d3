"""The benchmark's workloads: inputs from a seed, one repetition, checks.

Every workload drives the package only through its public entry points
(``Soc(SocConfig(...))``, ``load_program``, ``run``,
``kernels.build_kernel`` and ``campaign.run_campaign``) with the default
``SocConfig`` apart from ``mode``, in one process, with ``jobs=1``.

An operation is one simulated program run.  It fails when it raises or
when its result differs from the simulated invariants pinned in
``invariants.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

perf = time.perf_counter

INVARIANTS_PATH = Path(__file__).with_name("invariants.json")


def load_invariants() -> dict:
    return json.loads(INVARIANTS_PATH.read_text())

# Reference cycle counts of the 24x24 matmul on the modelled silicon
# (PAPER.md): single core, and three cores after unlocking.
REF_CYCLES = {"lockstep": 187337, "parallel": 63130}

KERNEL = "matmul24"
DEFAULT_SEED = 1


def canonical_sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pinned_view(res) -> dict:
    """The simulated invariants of a fault-free run."""
    return {
        "cycles": res.cycles,
        "instret": list(res.instret),
        "trace_hash": res.trace_hash,
        "outputs_digest": res.outputs_digest,
        "conflict_stalls": res.conflict_stalls,
        "checksum": res.checksum,
        "exit_code": res.exit_code,
    }


def run_mismatches(res, pinned: dict, host_checksum: int) -> list[str]:
    """Differences between a fault-free RunResult and its pinned values."""
    got = pinned_view(res)
    bad = [f"{k}={got[k]!r} (pinned {pinned[k]!r})"
           for k in got if got[k] != pinned[k]]
    if res.checksum != host_checksum:
        bad.append(f"checksum {res.checksum:#x} != host oracle {host_checksum:#x}")
    if res.timed_out or res.unrecoverable:
        bad.append("timed out or unrecoverable")
    return bad


class Rep:
    """Outcome of one repetition of a workload body."""

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.call_s: list[float] = []         # per Soc.run call, host s
        self.run_s: list[float] = []          # per simulated run, host s
        self.run_kind: list[str] = []         # its fault kind, or "" if none
        self.cycles = 0                       # simulated cycles advanced
        self.ref_err_pct = 0.0
        self.extra: dict = {}

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.errors.append(why)


class Matmul:
    """The fault-free matmul24 kernel in one mode, run repeatedly.

    The kernel's inputs are fixed by the kernel itself, so the seed
    changes nothing here; it is accepted for a uniform interface.
    """

    runs = 1   # program runs per repetition

    def __init__(self, name: str, mode: str, lm, seed: int, tiny: bool):
        self.mode = mode
        self.lm = lm
        self.pinned = load_invariants()[name]
        self.host_checksum = lm.kernels.host_checksum(24)

    def probe_input(self) -> dict:
        return {"mode": self.mode, "spec": None}

    def rep(self, probe) -> Rep:
        lm = self.lm
        r = Rep()
        probe.clear()
        r.attempted = 1
        t0 = perf()
        try:
            prog = lm.kernels.build_kernel(KERNEL, self.mode)
            soc = lm.Soc(lm.SocConfig(mode=self.mode))
            soc.load_program(prog)
            res = soc.run()
        except Exception as e:  # a failed operation, reported below
            r.wall = perf() - t0
            r.fail(1, f"{type(e).__name__}: {e}")
            return r
        r.wall = perf() - t0
        (dt, _cycles, _res), = probe.completed
        r.call_s = list(probe.calls)
        r.run_s.append(dt)
        r.run_kind.append("")
        r.cycles = probe.cycles
        ref = REF_CYCLES[self.mode]
        r.ref_err_pct = abs(res.cycles - ref) / ref * 100.0
        bad = run_mismatches(res, self.pinned, self.host_checksum)
        if bad:
            r.fail(1, "; ".join(bad))
        return r


# Campaign composition.  Each fault kind's injection cycles sit on a
# fixed stratified grid over the golden run, jittered by the seed, and
# the core faults hit a fixed sequence of locations at fixed bits.  The
# seed draws harts, exact cycles and the banks, rows and bits of the
# memory faults, while the simulated work per campaign stays nearly the
# same from seed to seed: with free choices one core fault alone (x23)
# took 0.2 s or 1.2 s depending on its bit, and the campaign's work
# swung by about 15% between seeds.  The campaign is kept short (1.5 to
# 2.5 s) so that one measured run repeats it often enough for a steady
# p90 of each Soc.run call.
CORE_RUNS = 4
MEMORY_RUNS = 4
WRITE_MASK_RUNS = 4
TINY_RUNS_PER_KIND = 2


def campaign_spec(seed: int, golden_cycles: int, core_locs, tiny: bool) -> dict:
    rng = random.Random(seed)
    nloc = len(core_locs)
    n_core = TINY_RUNS_PER_KIND if tiny else CORE_RUNS
    n_mem = TINY_RUNS_PER_KIND if tiny else MEMORY_RUNS
    n_wm = TINY_RUNS_PER_KIND if tiny else WRITE_MASK_RUNS

    def at(i: int, n: int) -> int:
        frac = (i + 0.5 + rng.uniform(-0.25, 0.25)) / n
        return max(1, min(golden_cycles - 1, int(frac * golden_cycles)))

    events = []
    for i in range(n_core):
        # strides coprime with 37 locations and 32 bits: successive
        # faults hit registers far apart and bits spread over the word
        events.append({"kind": "core", "at_cycle": at(i, n_core),
                       "hart": rng.randrange(3),
                       "loc": core_locs[(i * 10) % nloc],
                       "bit": (i * 7) % 32})
    for i in range(n_mem):
        events.append({"kind": "memory", "at_cycle": at(i, n_mem),
                       "bank": rng.randrange(8), "row": rng.randrange(8192),
                       "bit": rng.randrange(39)})
    for i in range(n_wm):
        events.append({"kind": "write_mask", "at_cycle": at(i, n_wm),
                       "bank": rng.randrange(8), "bit": rng.randrange(39)})
    return {
        "kernel": KERNEL,
        "mode": "lockstep",
        "runs": len(events),
        "seed": seed,
        "targets": ["core", "memory", "write_mask"],
        "events": events,
    }


class Campaign:
    """A lockstep matmul24 SEU campaign over core, memory and write-mask
    faults through ``run_campaign``."""

    def __init__(self, name: str, lm, seed: int, tiny: bool):
        self.lm = lm
        invariants = load_invariants()
        self.pinned = invariants[name]
        self.pinned_golden = invariants["matmul24-lockstep"]
        self.host_checksum = lm.kernels.host_checksum(24)
        self.spec_dict = campaign_spec(seed, self.pinned_golden["cycles"],
                                       lm.campaign.CORE_LOCS, tiny)
        self.spec = lm.campaign.CampaignSpec.from_dict(self.spec_dict)
        self.runs = self.spec.runs   # injected runs per repetition
        # pinned records exist for the full campaign at the default seed
        self.pinned_records = (self.pinned["record_sha256"]
                               if seed == DEFAULT_SEED and not tiny else None)
        self.first_records: list[str] | None = None

    def probe_input(self) -> dict:
        return {"mode": "lockstep", "spec": self.spec_dict}

    def rep(self, probe) -> Rep:
        lm = self.lm
        r = Rep()
        probe.clear()
        r.attempted = self.runs + 1
        t0 = perf()
        try:
            report = lm.campaign.run_campaign(self.spec, jobs=1)
        except Exception as e:  # every run of the campaign counts as failed
            r.wall = perf() - t0
            r.fail(r.attempted, f"{type(e).__name__}: {e}")
            return r
        r.wall = perf() - t0
        r.call_s = list(probe.calls)
        r.cycles = probe.cycles
        golden = probe.golden[-1]
        ref = REF_CYCLES["lockstep"]
        r.ref_err_pct = abs(golden.cycles - ref) / ref * 100.0
        bad = run_mismatches(golden, self.pinned_golden, self.host_checksum)
        if bad:
            r.fail(1, "golden: " + "; ".join(bad))

        for kind, dt, _cyc, _res in probe.injected:
            r.run_s.append(dt)
            r.run_kind.append(kind)
        records = report["runs"]
        rec_sha = [canonical_sha(rec)[:16] for rec in records]
        expect = self.pinned_records or self.first_records
        for i, rec in enumerate(records):
            if rec["outcome"] == "silent_data_corruption":
                r.fail(1, f"run {i}: silent data corruption under lockstep")
            elif expect is not None and rec_sha[i] != expect[i]:
                r.fail(1, f"run {i}: record differs from the expected one")
        if len(records) != self.runs or sum(report["classes"].values()) != self.runs:
            r.fail(self.runs - len(records), "report lost runs")
        if self.first_records is None:
            self.first_records = rec_sha
        if self.pinned_records is not None:
            if report["classes"] != self.pinned["classes"]:
                r.fail(0, f"classes {report['classes']} != pinned")
            if canonical_sha(report) != self.pinned["report_sha256"]:
                r.fail(0, "report sha256 differs from the pinned one")

        golden_view = golden.to_dict()
        golden_view.pop("trace_hash")
        identical = 0
        for _kind, _dt, _cyc, res in probe.injected:
            view = res.to_dict()
            view.pop("trace_hash")
            identical += view == golden_view
        n = len(probe.injected)
        r.extra = {
            "golden_identical": identical,
            "injected": n,
            "post_inj_cycles": sum(c for _k, _d, c, _r in probe.injected),
            "sdc": report["classes"]["silent_data_corruption"],
            "resync_events": report["totals"]["resync_events"]
            + golden.resync_events,
        }
        return r


WORKLOADS = {
    "matmul24-lockstep": lambda lm, seed, tiny: Matmul(
        "matmul24-lockstep", "lockstep", lm, seed, tiny),
    "matmul24-parallel": lambda lm, seed, tiny: Matmul(
        "matmul24-parallel", "parallel", lm, seed, tiny),
    "campaign-mixed": lambda lm, seed, tiny: Campaign(
        "campaign-mixed", lm, seed, tiny),
}
