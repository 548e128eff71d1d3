"""Count the bytecodes the simulator executes, by function.

    PYTHONPATH=src python3 tools/opcount.py [--kernel matmul24]
        [--mode lockstep] [--campaign] [--seed 1] [--top 15]

Runs the workload once to warm the decode cache, the translated-block
cache and the per-mnemonic closures, then runs it again under
``sys.settrace`` with opcode events on, and prints the executed opcodes
in all, per simulated run and per retired instruction, with the
functions that execute the most.  ``--kernel``/``--mode`` count one
``Soc.run`` of that kernel with the default ``SocConfig`` apart from
the mode (building and loading the ``Soc`` are not counted);
``--campaign`` runs the benchmark's campaign-mixed spec (built by
``perfbench/workloads.py`` from ``--seed``) through ``run_campaign`` with
``jobs=1``.  A retired instruction is one of the voted core in lockstep
mode and one of any hart otherwise.

The counts are deterministic: they depend on the code and the inputs,
not on the machine or its load, so they compare two trees exactly where
wall-clock pairs are noisy.  Tracing makes the counted run about a
hundred times slower.  Standard library only.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import lockstep_mcu  # noqa: E402
from lockstep_mcu import campaign, kernels  # noqa: E402
from lockstep_mcu.soc import Soc, SocConfig  # noqa: E402


def _retired(res) -> int:
    return res.instret[0] if res.mode == "lockstep" else sum(res.instret)


class Workload:
    """One repetition of the measured workload; ``runs`` lists the
    RunResult of every simulated run it made."""

    def __init__(self, args):
        self.args = args
        self.runs: list = []
        if args.campaign:
            sys.path.insert(0, str(ROOT / "perfbench"))
            import workloads
            golden = workloads.load_invariants()["matmul24-lockstep"]["cycles"]
            self.spec = campaign.CampaignSpec.from_dict(workloads.campaign_spec(
                args.seed, golden, campaign.CORE_LOCS, False))
            self.name = f"campaign-mixed seed {args.seed}"
        else:
            self.prog = kernels.build_kernel(args.kernel, args.mode)
            self.name = f"{args.kernel} {args.mode}"

    def prepare(self):
        """The repetition's measured call: the whole ``run_campaign``, or
        ``Soc.run`` of a loaded ``Soc``."""
        if self.args.campaign:
            return lambda: campaign.run_campaign(self.spec, jobs=1)
        soc = Soc(SocConfig(mode=self.args.mode))
        soc.load_program(self.prog)
        return soc.run


def count(work) -> Counter:
    """Opcodes by (file, first line, qualified name) of one ``work()``."""
    ops: Counter = Counter()
    own = count.__code__.co_filename     # this tool's own frames

    def local(frame, event, _arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return local

    def glob(frame, _event, _arg):
        if frame.f_code.co_filename == own:
            return None
        frame.f_trace_opcodes = True
        return local

    sys.settrace(glob)
    try:
        work()
    finally:
        sys.settrace(None)
    out: Counter = Counter()
    for code, n in ops.items():
        out[(Path(code.co_filename).name, code.co_firstlineno,
             code.co_qualname)] += n
    return out


def _finalize_spy(orig, runs):
    def wrapper(soc):
        res = orig(soc)
        runs.append(res)
        return res
    return wrapper


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--kernel", default="matmul24",
                    choices=[n for n, _ in kernels.list_kernels()])
    ap.add_argument("--mode", default="lockstep",
                    choices=("lockstep", "single", "parallel"))
    ap.add_argument("--campaign", action="store_true",
                    help="count the campaign-mixed spec instead of a kernel")
    ap.add_argument("--seed", type=int, default=1,
                    help="the campaign's seed (default 1)")
    ap.add_argument("--top", type=int, default=15,
                    help="functions to list (default 15)")
    args = ap.parse_args(argv)
    if not args.campaign and args.mode not in kernels.kernel_modes(args.kernel):
        ap.error(f"{args.kernel} has no {args.mode} build")

    work = Workload(args)
    work.prepare()()      # warm-up
    call = work.prepare()
    orig = Soc._finalize
    Soc._finalize = _finalize_spy(orig, work.runs)
    try:
        ops = count(call)
    finally:
        Soc._finalize = orig
    total = sum(ops.values())
    runs = len(work.runs)
    retired = sum(_retired(r) for r in work.runs)
    print(f"{work.name}: {total} opcodes, {runs} simulated runs, "
          f"{retired} retired instructions (Python {sys.version.split()[0]}, "
          f"lockstep_mcu from {Path(lockstep_mcu.__file__).parent})")
    print(f"  per run {total / max(runs, 1):.0f}, "
          f"per retired instruction {total / max(retired, 1):.2f}")
    print(f"  {'opcodes':>10} {'share':>6}  function")
    for (fname, line, qual), n in ops.most_common(args.top):
        print(f"  {n:>10} {n / total:>6.1%}  {qual} ({fname}:{line})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
