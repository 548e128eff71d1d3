"""Check every campaign record the golden run derives against simulation.

    python3 tools/derivecheck.py

For each kernel, each of its modes and each scrub interval (1, 3 and
64), the tool generates ``RUNS`` core faults, ``RUNS`` memory flips and
``RUNS`` write masks at uniform injection cycles.  The flips go to words the
golden run touched, where the def/use log has something to decide.
It asks ``derived_record`` for every run and simulates the derived
ones with ``execute_runs``; the two records must be equal.  Then it
does the same for the benchmark's campaign-mixed spec (lockstep
matmul24, built by ``perfbench/workloads.py``) with seeds 1 to
``MIXED``.

One line per configuration gives, per fault kind, the runs derived out
of those generated and, in brackets, how many derived runs add ECC
corrections.  The exit status is 1 if any derived record differs from
its simulation.  Standard library only.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

from lockstep_mcu import campaign, kernels  # noqa: E402
from lockstep_mcu.campaign import (  # noqa: E402
    CampaignSpec, FaultEvent, derived_record, execute_runs, run_golden,
)
from lockstep_mcu.memory import NUM_BANKS, TOTAL_WORDS  # noqa: E402

KERNELS = ("hello", "subword", "stress", "matmul3", "matmul8", "modeswitch",
           "relock")
SCRUBS = (1, 3, 64)
RUNS = 24       # events per kind and configuration
SEED = 1        # of the generated events
MIXED = 10      # campaign-mixed seeds 1..MIXED


def generated_events(golden, rng: random.Random) -> list:
    du = golden.defuse
    touched = [w for w in range(TOTAL_WORDS) if du.reads[w] >= 0
               or w in du.writes]
    events = []
    for _ in range(RUNS):
        events.append(FaultEvent(
            kind="core", at_cycle=rng.randrange(1, golden.cycles + 1),
            hart=rng.randrange(3), loc=rng.choice(campaign.CORE_LOCS),
            bit=rng.randrange(32)))
    for _ in range(RUNS):
        w = rng.choice(touched)
        events.append(FaultEvent(
            kind="memory", at_cycle=rng.randrange(1, golden.cycles + 1),
            bank=w % NUM_BANKS, row=w // NUM_BANKS, bit=rng.randrange(39)))
    for _ in range(RUNS):
        events.append(FaultEvent(
            kind="write_mask", at_cycle=rng.randrange(1, golden.cycles + 1),
            bank=rng.randrange(NUM_BANKS), bit=rng.randrange(39)))
    return events


def check(spec: CampaignSpec, golden, name: str, totals: dict) -> int:
    """Print one line for ``spec``, add its counts to ``totals`` and
    return its mismatches."""
    events = spec.explicit_events
    derived = {i: derived_record(i, ev, golden) for i, ev in enumerate(events)}
    derived = {i: r for i, r in derived.items() if r is not None}
    simulated = execute_runs(spec, sorted(derived), golden)
    bad = [r["index"] for r in simulated if r != derived[r["index"]]]
    base = sum(golden.ecc_correctable)
    counts = {kind: [0, 0, 0] for kind in campaign.TARGET_KINDS}
    for i, ev in enumerate(events):
        c = counts[ev.kind]
        c[0] += 1
        if i in derived:
            c[1] += 1
            c[2] += derived[i]["ecc_correctable"] > base
    for kind, c in counts.items():
        totals[kind] = [a + b for a, b in zip(totals[kind], c)]
    print(f"{name}: {fmt(counts)}, {len(bad)} mismatches"
          + (f" (runs {bad})" if bad else ""), flush=True)
    return len(bad)


def fmt(counts: dict) -> str:
    """kind -> [generated, derived, derived with corrections] as text."""
    return ", ".join(f"{kind} {got}/{n} ({corr})"
                     for kind, (n, got, corr) in counts.items())


def main() -> int:
    mismatches = 0
    totals = {kind: [0, 0, 0] for kind in campaign.TARGET_KINDS}
    rng = random.Random(SEED)
    for kernel in KERNELS:
        for mode in kernels.kernel_modes(kernel):
            for scrub in SCRUBS:
                spec = CampaignSpec(kernel=kernel, mode=mode, runs=0,
                                    scrub_interval=scrub)
                golden = run_golden(spec, record_trace=False)
                events = generated_events(golden, rng)
                spec.runs, spec.explicit_events = len(events), events
                mismatches += check(spec, golden,
                                    f"{kernel} {mode} scrub {scrub}", totals)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    cycles = workloads.load_invariants()["matmul24-lockstep"]["cycles"]
    for seed in range(1, MIXED + 1):
        spec = CampaignSpec.from_dict(workloads.campaign_spec(
            seed, cycles, campaign.CORE_LOCS, False))
        golden = run_golden(spec, record_trace=False)
        mismatches += check(spec, golden, f"campaign-mixed seed {seed}",
                            totals)
    print(f"in all: {fmt(totals)}, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
