"""Command-line entry point: run, kernels, ecc, campaign.

Machine-readable JSON goes to stdout (or ``--report``/``-o`` files);
the human summary goes to stderr.  Exit codes: 0 success, 1 guest
returned a nonzero exit value, 2 timeout, 3 unrecoverable vote,
4 campaign detected silent data corruption, 64 usage or spec errors
(an out-of-range argument, an output file that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, ecc, kernels
from .asm import assemble
from .campaign import CampaignError, load_spec, run_campaign
from .soc import SRAM_BASE, LoadError, Soc, SocConfig

EXIT_OK = 0
EXIT_GUEST_ERROR = 1
EXIT_TIMEOUT = 2
EXIT_UNRECOVERABLE = 3
EXIT_SDC = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _unsigned(bits: int):
    """An argparse type: an integer literal of at most ``bits`` bits."""
    def parse(text: str) -> int:
        value = int(text, 0)
        if not 0 <= value < 1 << bits:
            raise argparse.ArgumentTypeError(
                f"must be in 0..{(1 << bits) - 1:#x}, got {text}")
        return value
    parse.__name__ = f"{bits}-bit unsigned integer"
    return parse


class _OutputError(Exception):
    """An output file could not be written."""


def _write(path: str, data: str | bytes) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with open(path, "wb") as f:
            f.write(data)
    except OSError as e:
        raise _OutputError(f"cannot write {path}: {e.strerror or e}") from None


def _build_parser() -> _Parser:
    p = _Parser(prog="lockstep-mcu",
                description="Triple-core lockstep microcontroller simulator")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a kernel or raw binary")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--kernel", help="built-in kernel name (see `kernels list`)")
    src.add_argument("--binary", help="raw little-endian image loaded at SRAM base")
    run.add_argument("--entry", type=lambda s: int(s, 0), default=None,
                     help="entry address for --binary (default SRAM base)")
    run.add_argument("--mode", choices=("lockstep", "single", "parallel"),
                     default="lockstep")
    run.add_argument("--max-cycles", type=_positive, default=10_000_000)
    run.add_argument("--scrub-interval", type=_positive, default=64,
                     help="cycles between scrubber reads (>= 1)")
    run.add_argument("--no-scrub", action="store_true")
    run.add_argument("--trace", metavar="PATH",
                     help="write a per-retirement text trace")
    run.add_argument("--report", metavar="PATH",
                     help="write the JSON report here instead of stdout")
    run.add_argument("--dump-mem", metavar="PATH",
                     help="dump the final 256 KiB memory image")
    run.add_argument("--seed", type=int, default=0,
                     help="echoed into the report (runs are deterministic)")

    ker = sub.add_parser("kernels", help="list or emit built-in kernels")
    ksub = ker.add_subparsers(dest="kernels_command", required=True)
    ksub.add_parser("list", help="list kernel names, modes and descriptions")
    emit = ksub.add_parser("emit", help="assemble a kernel to a binary image")
    emit.add_argument("name")
    emit.add_argument("-o", "--output", required=True)
    emit.add_argument("--mode", choices=("lockstep", "single", "parallel"),
                      default="lockstep")
    emit.add_argument("--base", type=lambda s: int(s, 0), default=SRAM_BASE)

    ec = sub.add_parser("ecc", help="poke the (39,32) SEC-DED codec")
    esub = ec.add_subparsers(dest="ecc_command", required=True)
    enc = esub.add_parser("encode", help="encode a 32-bit word")
    enc.add_argument("word", type=_unsigned(32))
    dec = esub.add_parser("decode", help="decode a 39-bit codeword")
    dec.add_argument("codeword", type=_unsigned(39))
    esub.add_parser("matrix", help="dump the parity-check matrix")

    camp = sub.add_parser("campaign", help="fault-injection campaigns")
    csub = camp.add_subparsers(dest="campaign_command", required=True)
    crun = csub.add_parser("run", help="execute a campaign spec")
    crun.add_argument("spec", help="campaign spec JSON file")
    crun.add_argument("-o", "--output", help="report path (default stdout)")
    crun.add_argument("--jobs", type=int, default=1)
    return p


def _cmd_run(args) -> int:
    cfg = SocConfig(mode=args.mode, max_cycles=args.max_cycles,
                    scrub_enabled=not args.no_scrub,
                    scrub_interval=args.scrub_interval,
                    trace_lines=bool(args.trace))
    soc = Soc(cfg)
    try:
        if args.kernel:
            soc.load_program(kernels.build_kernel(args.kernel, args.mode),
                             args.entry)
        else:
            with open(args.binary, "rb") as f:
                soc.load_program(f.read(), args.entry)
    except (ValueError, LoadError, OSError) as e:
        print(f"lockstep-mcu: load error: {e}", file=sys.stderr)
        return EXIT_USAGE
    res = soc.run()
    report = res.to_dict()
    report["seed"] = args.seed
    text = json.dumps(report, indent=2)
    if args.report:
        _write(args.report, text + "\n")
    else:
        print(text)
    if args.trace and res.trace_lines is not None:
        _write(args.trace, "\n".join(res.trace_lines) + "\n")
    if args.dump_mem:
        _write(args.dump_mem, soc.banks.dump_image())
    print(f"mode={res.mode} cycles={res.cycles} exit={res.exit_code} "
          f"resyncs={res.resync_events} "
          f"ecc_corr={sum(res.ecc_correctable)}", file=sys.stderr)
    if res.timed_out:
        return EXIT_TIMEOUT
    if res.unrecoverable:
        return EXIT_UNRECOVERABLE
    return EXIT_OK if res.exit_code == 0 else EXIT_GUEST_ERROR


def _cmd_kernels(args) -> int:
    if args.kernels_command == "list":
        for name, desc in kernels.list_kernels():
            modes = ",".join(kernels.kernel_modes(name))
            print(f"{name:12s} {modes:24s} {desc}")
        return EXIT_OK
    try:
        prog = kernels.build_kernel(args.name, args.mode)
        image = assemble(prog, args.base)
    except ValueError as e:
        print(f"lockstep-mcu: {e}", file=sys.stderr)
        return EXIT_USAGE
    _write(args.output, image)
    print(f"{args.name}: {len(image)} bytes at {args.base:#x}", file=sys.stderr)
    return EXIT_OK


def _cmd_ecc(args) -> int:
    if args.ecc_command == "encode":
        cw = ecc.encode(args.word)
        print(json.dumps({"word": f"{args.word:#010x}",
                          "codeword": f"{cw:#011x}",
                          "parity": f"{cw >> 32:#04x}"}))
        return EXIT_OK
    if args.ecc_command == "decode":
        res = ecc.decode(args.codeword)
        print(json.dumps({"codeword": f"{args.codeword:#011x}",
                          "data": f"{res.data:#010x}",
                          "status": res.status,
                          "bit_index": res.bit_index}))
        return EXIT_OK
    print(ecc.matrix_dump())
    return EXIT_OK


def _cmd_campaign(args) -> int:
    try:
        spec = load_spec(args.spec)
        report = run_campaign(spec, jobs=max(1, args.jobs))
    except (CampaignError, OSError) as e:
        print(f"lockstep-mcu: campaign error: {e}", file=sys.stderr)
        return EXIT_USAGE
    text = json.dumps(report, indent=2)
    if args.output:
        _write(args.output, text + "\n")
    else:
        print(text)
    classes = report["classes"]
    print("outcomes: " + " ".join(f"{k}={v}" for k, v in classes.items() if v),
          file=sys.stderr)
    if classes["silent_data_corruption"] > 0:
        return EXIT_SDC
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cmd = {"run": _cmd_run, "kernels": _cmd_kernels,
           "ecc": _cmd_ecc}.get(args.command, _cmd_campaign)
    try:
        return cmd(args)
    except _OutputError as e:
        print(f"lockstep-mcu: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
