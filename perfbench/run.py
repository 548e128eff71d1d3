"""The lockstep-mcu benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--profile N] [--tiny]

Run from the root of a checkout: the package is imported from ``src/``.
One process, ``jobs=1``, default ``SocConfig`` apart from the mode.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and writes its spans to
``perfbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a human summary, the
environment and the per-layer table go to standard error and to
``perfbench/out/result-*.json``.  ``--profile N`` writes the cProfile
top-N of one extra repetition to ``perfbench/out/profile-<workload>.txt``.
``--tiny`` shrinks the campaign and the set-up repetitions for the smoke
test.  See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import io
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads as wls  # noqa: E402
from tracing import RunProbe, Tracer  # noqa: E402

perf = time.perf_counter

SETUP_REPEATS = 11

END_TO_END = {
    "setup_s": "s",
    "wall_s_p90": "s",
    "sim_kcyc_per_s": "kcyc/s",
    "ref_cycle_err_pct": "%",
    "runs_per_s": "1/s",
    "run_ms_p90": "ms",
    "run_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}

# name -> unit; "calls"/"self_s" entries read the span of the same prefix
PER_LAYER = {
    "soc.run.self_s": "s",
    "soc.fast_burst.calls": "count",
    "soc.fast_burst.cycles": "cycles",
    "soc.fast_burst.self_s": "s",
    "soc.fast_burst.cycle_share": "ratio",
    "soc.tick_core.calls": "count",
    "soc.tick_core.self_s": "s",
    "soc.bus_cycle.calls": "count",
    "soc.bus_cycle.self_s": "s",
    "soc.vote_cycle.calls": "count",
    "soc.vote_cycle.self_s": "s",
    "soc.split.calls": "count",
    "soc.snapshot.self_s": "s",
    "soc.restore.self_s": "s",
    "soc.outputs_digest.self_s": "s",
    "soc.inject_core_fault.self_s": "s",
    "core.decode.calls": "count",
    "core.dcache.hit_rate": "ratio",
    "core.dump_state.self_s": "s",
    "core.load_state.self_s": "s",
    "memory.read.calls": "count",
    "memory.read.self_s": "s",
    "memory.write.calls": "count",
    "memory.write.self_s": "s",
    "memory.tainted_read_frac": "ratio",
    "memory.logical_image.self_s": "s",
    "memory.snapshot.self_s": "s",
    "memory.restore.self_s": "s",
    "memory.scrub.steps": "count",
    "ecc.encode.calls": "count",
    "ecc.encode.self_s": "s",
    "ecc.decode.calls": "count",
    "ecc.decode.self_s": "s",
    "interconnect.arbitrate.calls": "count",
    "interconnect.arbitrate.self_s": "s",
    "interconnect.conflict_stalls": "cycles",
    "odrg.vote.calls": "count",
    "odrg.vote.self_s": "s",
    "odrg.mismatches": "count",
    "odrg.resync_events": "count",
    "campaign.golden.self_s": "s",
    "campaign.golden.total_s": "s",
    "campaign.classify.self_s": "s",
    "campaign.post_inj_kcycles": "kcyc",
    "campaign.run_ms.core": "ms",
    "campaign.run_ms.memory": "ms",
    "campaign.run_ms.write_mask": "ms",
    "campaign.golden_identical_frac": "ratio",
    "campaign.sdc_frac": "ratio",
    "asm.assemble.self_s": "s",
    "kernels.build.self_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wls.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", type=int, default=0, metavar="N",
                    help="write the cProfile top-N of one extra repetition")
    ap.add_argument("--tiny", action="store_true",
                    help="smallest campaign and one set-up (smoke test)")
    return ap.parse_args(argv)


def load_package():
    """Import lockstep_mcu from this checkout's src/, and nowhere else."""
    init = SRC / "lockstep_mcu" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import lockstep_mcu as lm
    if Path(lm.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {lm.__file__}, expected {init}")
    return lm


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    for f in sorted((SRC / "lockstep_mcu").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(wl, repeats: int) -> list[float]:
    """Cold set-up time, each in a fresh interpreter (see setup_probe.py)."""
    job = json.dumps(wl.probe_input())
    times = []
    for _ in range(repeats):
        p = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=job, capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{p.stderr}")
        times.append(float(p.stdout.strip().splitlines()[-1]))
    return times


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, and the median when that one would be lower."""
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def p90(xs) -> float:
    """Nearest-rank 90th percentile."""
    xs = sorted(xs)
    return xs[math.ceil(0.9 * len(xs)) - 1]


def p90_of(rows) -> list[float]:
    """Position by position, the p90 of equally long rows."""
    return [p90(xs) for xs in zip(*rows)]


def end_to_end(reps, workload, setups) -> tuple[dict, dict]:
    """Every repetition runs the same deterministic simulation, so each
    ``Soc.run`` call is timed once per repetition and summarised by its
    p90 over the repetitions; a repetition's time is the sum of those
    plus the p90 of what lies between the calls.  On a shared host the
    best and the median time move with how busy the neighbours are,
    while the p90 holds (see README.md)."""
    full = [r for r in reps if len(r.run_s) == workload.runs
            and len(r.call_s) == len(reps[0].call_s)] or reps
    sim_s = sum(p90_of(r.call_s for r in full))
    wall = sim_s + p90(r.wall - sum(r.call_s) for r in full)
    samples = [s for r in full for s in r.run_s] or [r.wall for r in full]
    per_run = p90_of(r.run_s for r in full) or samples
    t_val, t_pct, t_n = tail(samples)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s_p90": wall,
        "sim_kcyc_per_s": full[0].cycles / sim_s / 1e3 if sim_s else 0.0,
        "ref_cycle_err_pct": reps[0].ref_err_pct,
        "runs_per_s": workload.runs / wall,
        "run_ms_p90": 1e3 * statistics.median(per_run),
        "run_ms_tail": 1e3 * t_val,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"timed_reps": len(reps), "setup_runs_s": setups,
             "wall_s_median": statistics.median(r.wall for r in reps),
             "rep_wall_s": [r.wall for r in reps],
             "rep_call_s": [r.call_s for r in reps],
             "rep_run_s": [r.run_s for r in reps],
             "run_ms_tail_percentile": t_pct, "run_ms_tail_samples": t_n}
    return values, notes


def traced_snapshot(tracer: Tracer, rep) -> dict:
    names = tracer.names
    return {"calls": dict(zip(names, tracer.calls)),
            "self_s": dict(zip(names, tracer.self_s)),
            "total_s": dict(zip(names, tracer.total_s)),
            "counts": dict(tracer.counts), "dcache": dict(tracer.dcache),
            "cycles": rep.cycles, "extra": dict(rep.extra)}


def counts_of(snap: dict) -> dict:
    """The deterministic part of a traced repetition."""
    return {"calls": snap["calls"], "counts": snap["counts"],
            "dcache": snap["dcache"], "cycles": snap["cycles"],
            "extra": snap["extra"]}


def per_layer(snaps, untraced, traced) -> dict:
    first = snaps[0]
    calls, counts, extra = first["calls"], first["counts"], first["extra"]

    def med_self(name):
        return statistics.median(s["self_s"].get(name, 0.0) for s in snaps)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for metric in PER_LAYER:
        prefix, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls.get(prefix, 0)
        elif field == "self_s":
            values[metric] = med_self(prefix)
    fb_cycles = counts["fast_burst.cycles"]
    kinds: dict[str, list[float]] = {"core": [], "memory": [], "write_mask": []}
    for r in untraced:
        for kind, s in zip(r.run_kind, r.run_s):
            if kind:
                kinds[kind].append(1e3 * s)
    injected = extra.get("injected", 0)
    values.update({
        "soc.fast_burst.cycles": fb_cycles,
        "soc.fast_burst.cycle_share": ratio(fb_cycles, first["cycles"]),
        "core.dcache.hit_rate": ratio(first["dcache"]["hits"],
                                      first["dcache"]["lookups"]),
        "memory.tainted_read_frac": ratio(counts["read.tainted"],
                                          calls.get("memory.read", 0)),
        "memory.scrub.steps": calls.get("memory.scrub", 0),
        "interconnect.conflict_stalls": counts["conflict_stalls"],
        "odrg.mismatches": counts["vote.mismatches"],
        "odrg.resync_events": extra.get("resync_events", 0),
        "campaign.golden.total_s": statistics.median(
            s["total_s"].get("campaign.golden", 0.0) for s in snaps),
        "campaign.post_inj_kcycles": extra.get("post_inj_cycles", 0) / 1e3,
        "campaign.golden_identical_frac": ratio(extra.get("golden_identical", 0),
                                                injected),
        "campaign.sdc_frac": ratio(extra.get("sdc", 0), injected),
        "trace.overhead_s": statistics.median(r.wall for r in traced)
        - statistics.median(r.wall for r in untraced),
    })
    for kind, ms in kinds.items():
        values[f"campaign.run_ms.{kind}"] = statistics.median(ms) if ms else 0.0
    return values


def write_profile(workload, probe, name: str, top: int):
    prof = cProfile.Profile()
    prof.enable()
    rep = workload.rep(probe)
    prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(top)
    OUT.mkdir(exist_ok=True)
    (OUT / f"profile-{name}.txt").write_text(
        f"# cProfile of one {name} repetition ({rep.wall:.3f} s under the "
        f"profiler), top {top} by own time\n" + buf.getvalue())
    return rep


def main(argv=None) -> int:
    args = parse_args(argv)
    lm = load_package()
    env = environment(args)
    workload = wls.WORKLOADS[args.workload](lm, args.seed, args.tiny)
    setups = [] if args.trace else measure_setup(
        workload, 1 if args.tiny else SETUP_REPEATS)

    probe = RunProbe(lm)
    probe.install()
    tracer = Tracer(lm) if args.trace else None
    if tracer is not None:
        tracer.install_dcache_counter()
    done = [workload.rep(probe)]             # warm-up, checked, not timed
    if tracer is not None:
        tracer.uninstall()
    timed, traced, snaps = [], [], []
    t_end = perf() + args.seconds
    while True:
        timed.append(workload.rep(probe))
        if tracer is not None:
            tracer.install()
            tracer.reset_totals()
            tracer.next_run()
            try:
                rep = workload.rep(probe)
            finally:
                tracer.uninstall()
            traced.append(rep)
            snaps.append(traced_snapshot(tracer, rep))
        if perf() >= t_end:
            break
    done += timed + traced
    if args.profile > 0:
        done.append(write_profile(workload, probe, args.workload, args.profile))
    probe.uninstall()

    errors = [e for r in done for e in r.errors]
    if tracer is None:
        metrics, notes = end_to_end(timed, workload, setups)
        units = END_TO_END
    else:
        metrics = per_layer(snaps, timed, traced)
        notes = {"traced_reps": len(traced), "untraced_reps": len(timed),
                 "spans": len(tracer.sp_name),
                 "layers": tracer.layer_table()}
        if any(counts_of(s) != counts_of(snaps[0]) for s in snaps):
            errors.append("traced repetitions disagree on call counts")
        units = PER_LAYER
    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{stem}.bin")
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"env": env, "result": result, "notes": notes, "errors": errors[:50]},
        indent=1))
    report(env, result, notes, errors)
    print(json.dumps(result))
    return 0


def report(env, result, notes, errors) -> None:
    err = sys.stderr
    print(f"perfbench {env['workload']} seed={env['seed']} "
          f"trace={env['trace']} python={env['python']} nproc={env['nproc']} "
          f"commit={env['commit']} src={env['src_sha256'][:12]}", file=err)
    print(f"  {env['platform']}", file=err)
    if "layers" in notes:
        print(f"  {'span':32} {'calls':>10} {'self_s':>10}  (last traced rep)",
              file=err)
        for name, calls, self_s in notes["layers"]:
            print(f"  {name:32} {calls:10d} {self_s:10.4f}", file=err)
    for k, m in result["metrics"].items():
        print(f"  {k:32} {m['value']:>14.6g} {m['unit']}", file=err)
    if "run_ms_tail_percentile" in notes:
        print(f"  run_ms_tail is p{notes['run_ms_tail_percentile']:.1f} of "
              f"{notes['run_ms_tail_samples']} runs; "
              f"{notes['timed_reps']} timed repetitions, median wall "
              f"{notes['wall_s_median']:.4g} s", file=err)
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=err)
    for e in errors[:10]:
        print(f"  error: {e}", file=err)


if __name__ == "__main__":
    sys.exit(main())
