"""Instrumentation installed from outside the package.

Nothing here edits the simulator: every probe replaces a module or class
attribute with a wrapper around the original and puts the original back
on ``uninstall``.  Two levels exist:

* ``RunProbe`` is always on.  It times every ``Soc.run`` call, counts
  the simulated cycles each one advanced and remembers which runs follow
  a ``FaultEvent.apply`` (the injected runs of a campaign).  Its cost is
  one extra Python call per ``Soc.run``, so the untraced end-to-end
  figures carry it too.
* ``Tracer`` is installed only for traced repetitions.  It wraps the
  calls into each layer, keeps one span per wrapped call in memory
  (name, start, end, parent span, program-run id), accumulates calls
  and self time per span name, and counts simulated events at the same
  boundaries.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

perf = time.perf_counter


class _Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, obj, attr: str, make) -> None:
        orig = getattr(obj, attr)
        self._saved.append((obj, attr, orig))
        setattr(obj, attr, make(orig))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)


class RunProbe(_Patches):
    """Per-run host time and simulated cycles of every ``Soc.run``."""

    def __init__(self, lm):
        super().__init__()
        self.lm = lm
        self.pending = None
        self.clear()

    def clear(self) -> None:
        self.cycles = 0           # cycles advanced by all Soc.run calls
        self.calls = []           # seconds of every Soc.run call, in order
        self.completed = []       # (seconds, cycles, RunResult), not injected
        self.injected = []        # (kind, seconds, cycles, RunResult)
        self.golden = []          # RunResult of each campaign golden run

    def install(self) -> None:
        probe = self

        def make_run(orig):
            def run(soc, stop_at=None):
                ev, probe.pending = probe.pending, None
                c0 = soc.cycle
                t0 = perf()
                res = orig(soc, stop_at)
                dt = perf() - t0
                adv = soc.cycle - c0
                probe.cycles += adv
                probe.calls.append(dt)
                if ev is not None:
                    probe.injected.append((ev.kind, dt, adv, res))
                elif res is not None:
                    probe.completed.append((dt, adv, res))
                return res
            return run

        def make_apply(orig):
            def apply(ev, soc):
                orig(ev, soc)
                probe.pending = ev
            return apply

        def make_golden(orig):
            def run_golden(*a, **kw):
                res = orig(*a, **kw)
                probe.golden.append(res)
                return res
            return run_golden

        self.patch(self.lm.Soc, "run", make_run)
        self.patch(self.lm.campaign.FaultEvent, "apply", make_apply)
        self.patch(self.lm.campaign, "run_golden", make_golden)


class _CountingCache(dict):
    """Decode cache that counts its lookups (``get`` is the only reader)."""

    __slots__ = ("stats",)

    def get(self, key, default=None):
        entry = dict.get(self, key, default)
        self.stats["lookups"] += 1
        if entry is not None:
            self.stats["hits"] += 1
        return entry


COUNTERS = ("fast_burst.cycles", "read.tainted", "conflict_stalls",
            "vote.mismatches")


class Tracer(_Patches):
    """Spans, per-name calls/self time and simulated counters."""

    def __init__(self, lm):
        super().__init__()
        self.lm = lm
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.run_id = 0
        # one span per wrapped call; the span id is its index
        self.sp_name = array("H")
        self.sp_parent = array("i")
        self.sp_run = array("i")
        self.sp_t0 = array("d")
        self.sp_t1 = array("d")
        self._open: list[list] = []   # [span id, child seconds]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.dcache = {"lookups": 0, "hits": 0}

    def reset_totals(self) -> None:
        """Zero the per-name totals and counters (in place: the wrappers
        hold references to them)."""
        n = len(self.names)
        self.calls[:] = [0] * n
        self.self_s[:] = [0.0] * n
        self.total_s[:] = [0.0] * n
        for key in self.counts:
            self.counts[key] = 0

    def next_run(self) -> None:
        """Spans recorded from now on belong to a new program run."""
        self.run_id += 1

    def _slot(self, name: str) -> int:
        k = self._index.get(name)
        if k is None:
            k = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return k

    def span(self, obj, attr: str, name: str, after=None) -> None:
        """Wrap ``obj.attr`` in a span named ``name``; ``after(args,
        result)`` runs after the call, outside the span's interval."""
        k = self._slot(name)
        tr = self
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        opened = self._open
        names, parents, runs = self.sp_name, self.sp_parent, self.sp_run
        t0s, t1s = self.sp_t0, self.sp_t1

        def make(orig):
            def wrapper(*a, **kw):
                sid = len(names)
                names.append(k)
                parents.append(opened[-1][0] if opened else -1)
                runs.append(tr.run_id)
                frame = [sid, 0.0]
                opened.append(frame)
                t0 = perf()
                t0s.append(t0)
                t1s.append(t0)
                try:
                    res = orig(*a, **kw)
                finally:
                    t1 = perf()
                    t1s[sid] = t1
                    opened.pop()
                    d = t1 - t0
                    calls[k] += 1
                    total_s[k] += d
                    self_s[k] += d - frame[1]
                    if opened:
                        opened[-1][1] += d
                if after is not None:
                    after(a, res)
                return res
            return wrapper

        self.patch(obj, attr, make)

    def install_dcache_counter(self) -> None:
        """Give every new Soc a decode cache that counts lookups and hits.

        A Python-level ``get`` on every fetched instruction costs more
        than the fast burst's own lookup, so this is installed alone, on
        a repetition whose time is not used, and never with the spans.
        """
        stats = self.dcache

        def make_init(orig):
            def init(soc, *a, **kw):
                orig(soc, *a, **kw)
                cache = _CountingCache(soc.dcache)
                cache.stats = stats
                soc.dcache = cache
            return init
        self.patch(self.lm.Soc, "__init__", make_init)

    def install(self) -> None:
        lm = self.lm
        soc_m, mem_m, core_m = lm.soc, lm.memory, lm.core
        Soc = soc_m.Soc
        counts = self.counts
        tracer = self

        def delta(attr: str, key: str, read) -> None:
            """Add what ``attr`` advanced ``read(soc)`` by to counts[key]."""
            def make(orig):
                def wrapper(soc, *a, **kw):
                    before = read(soc)
                    try:
                        return orig(soc, *a, **kw)
                    finally:
                        counts[key] += read(soc) - before
                return wrapper
            self.patch(Soc, attr, make)

        # soc: the engines and the campaign-facing state operations.  The
        # fast burst books its own stalls, so they are read off the
        # crossbar around each run rather than counted at arbitrate.
        delta("run", "conflict_stalls", lambda soc: soc.xbar.conflict_stalls)
        self.span(Soc, "run", "soc.run")
        delta("_fast_burst", "fast_burst.cycles", lambda soc: soc.cycle)
        self.span(Soc, "_fast_burst", "soc.fast_burst")
        self.span(Soc, "_tick_core", "soc.tick_core")
        self.span(Soc, "_bus_cycle", "soc.bus_cycle")
        self.span(Soc, "_vote_cycle", "soc.vote_cycle")
        self.span(Soc, "split", "soc.split")
        self.span(Soc, "snapshot", "soc.snapshot")
        self.span(Soc, "restore", "soc.restore")
        self.span(Soc, "outputs_digest", "soc.outputs_digest")
        self.span(Soc, "inject_core_fault", "soc.inject_core_fault")
        # core: decode-cache misses (as soc imports the decoders), scan chain
        self.span(soc_m, "decode32", "core.decode")
        self.span(soc_m, "decode16", "core.decode")
        self.span(core_m.Core, "dump_state", "core.dump_state")
        self.span(core_m.Core, "load_state", "core.load_state")

        # memory
        def make_read(orig):
            def read(bank, row):
                if row in bank.tainted:
                    counts["read.tainted"] += 1
                return orig(bank, row)
            return read
        self.patch(mem_m.Bank, "read", make_read)
        self.span(mem_m.Bank, "read", "memory.read")
        self.span(mem_m.Bank, "write", "memory.write")
        self.span(mem_m.BankArray, "logical_image", "memory.logical_image")
        self.span(mem_m.BankArray, "snapshot", "memory.snapshot")
        self.span(mem_m.BankArray, "restore", "memory.restore")
        self.span(mem_m.Scrubber, "step", "memory.scrub")
        # ecc, where memory binds the codec
        self.span(mem_m, "_ENC", "ecc.encode")
        self.span(mem_m, "_DEC", "ecc.decode")

        self.span(lm.interconnect.Crossbar, "arbitrate",
                  "interconnect.arbitrate")

        # odrg: the voter as soc binds it; a mismatch is a vote with one
        # dissenting core (all three differing ends the run instead)
        def mismatch(_args, vr):
            if vr.disagreeing is not None and vr.disagreeing != lm.odrg.ALL_DIFFER:
                counts["vote.mismatches"] += 1
        self.span(soc_m, "vote", "odrg.vote", after=mismatch)

        # campaign; a new program run starts after the golden run and
        # after each injected run is classified
        camp = lm.campaign
        self.span(camp, "run_campaign", "campaign.run_campaign")
        self.span(camp, "run_golden", "campaign.golden",
                  after=lambda _a, _r: tracer.next_run())
        self.span(camp, "classify", "campaign.classify",
                  after=lambda _a, _r: tracer.next_run())

        # set-up layers
        self.span(lm.kernels, "build_kernel", "kernels.build")
        self.span(soc_m, "assemble", "asm.assemble")

    def layer_table(self) -> list[tuple[str, int, float]]:
        return [(n, self.calls[k], self.self_s[k])
                for k, n in enumerate(self.names)]

    def write_spans(self, path: Path) -> None:
        """Binary columns plus a JSON header describing them."""
        cols = (("name", self.sp_name), ("parent", self.sp_parent),
                ("run", self.sp_run), ("start", self.sp_t0),
                ("end", self.sp_t1))
        with open(path, "wb") as f:
            for _n, col in cols:
                col.tofile(f)
        header = {
            "spans": len(self.sp_name),
            "names": self.names,
            "columns": [{"name": n, "typecode": col.typecode,
                         "itemsize": col.itemsize} for n, col in cols],
            "layout": "each column in full, in the order listed, native "
                      "byte order; a span's id is its index; parent -1 is "
                      "a root span; start/end are time.perf_counter seconds",
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))


def read_spans(path: Path) -> list[tuple[str, int, int, float, float]]:
    """Read a span file back as (name, parent, run, start, end) rows."""
    header = json.loads(Path(path).with_suffix(".json").read_text())
    n = header["spans"]
    cols = []
    with open(path, "rb") as f:
        for c in header["columns"]:
            col = array(c["typecode"])
            col.fromfile(f, n)
            cols.append(col)
    names = header["names"]
    return [(names[k], p, r, s, e) for k, p, r, s, e in zip(*cols)]
