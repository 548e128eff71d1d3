"""Single-event-upset campaigns: schedule, inject, classify, aggregate.

A campaign is fully determined by its spec and seed: the fault list is
derived per run index from a seeded generator, every run starts from a
snapshot of the fault-free trajectory at the injection cycle, and the
report is aggregated by run index so worker count and completion order
cannot change a byte of it.

Outcome classes (one per run, fixed precedence):

    timeout                  run hit the cycle budget
    detected_uncorrectable   an uncorrectable-ECC flag was raised, or
                             outputs differ while any error was flagged
    crash                    unrecoverable vote / fatal trap exit
    resynced                 golden outputs, >= 1 resync round trip
    corrected_ecc            golden outputs, ECC corrections seen
    masked_voter             golden outputs, nothing visible (voter
                             masking or architecturally dead fault)
    silent_data_corruption   outputs differ and no error was flagged
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

from . import kernels as kern
from .core import LOC_BITS
from .ecc import WORD_BITS
from .memory import NUM_BANKS, ROWS_PER_BANK
from .soc import (
    FATAL_EXIT_BASE, DefUse, LoadError, RunResult, Soc, SocConfig,
)

OUTCOME_CLASSES = (
    "masked_voter", "corrected_ecc", "resynced", "detected_uncorrectable",
    "silent_data_corruption", "crash", "timeout",
)

TARGET_KINDS = ("core", "memory", "write_mask")

# the core locations a sampled campaign draws from by default: a subset
# of ``Soc.CORE_FAULT_LOCS`` without mcause, mtval, mcycle and minstret
CORE_LOCS = tuple(f"x{i}" for i in range(1, 32)) + (
    "pc", "mstatus", "mtvec", "mepc", "mie", "mscratch")


class CampaignError(Exception):
    pass


@dataclass(frozen=True)
class FaultEvent:
    kind: str           # core | memory | write_mask
    at_cycle: int
    hart: int = 0
    loc: str = ""       # core targets
    bank: int = 0       # memory / write_mask targets
    row: int = 0
    bit: int = 0

    def describe(self) -> dict:
        d = {"kind": self.kind, "at_cycle": self.at_cycle, "bit": self.bit}
        if self.kind == "core":
            d["hart"] = self.hart
            d["loc"] = self.loc
        else:
            d["bank"] = self.bank
            if self.kind == "memory":
                d["row"] = self.row
        return d

    def apply(self, soc: Soc) -> None:
        if self.kind == "core":
            soc.inject_core_fault(self.hart, self.loc, self.bit)
        elif self.kind == "memory":
            soc.banks.flip_bit(self.bank, self.row, self.bit)
        else:
            soc.banks.banks[self.bank].write_disable |= 1 << self.bit

    def validate(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise CampaignError(f"bad event kind: {self.kind!r}")
        for name in ("at_cycle", "hart", "bank", "row", "bit"):
            if not _is_int(getattr(self, name)):
                raise CampaignError(
                    f"event {name} must be an integer: {getattr(self, name)!r}")
        if self.at_cycle < 0:
            raise CampaignError(f"event at_cycle must be >= 0: {self.at_cycle}")
        if self.hart not in (0, 1, 2):
            raise CampaignError(f"bad event hart: {self.hart}")
        if self.kind == "core" and self.loc not in Soc.CORE_FAULT_LOCS:
            raise CampaignError(f"bad event loc: {self.loc!r}")
        if not (0 <= self.bank < NUM_BANKS and 0 <= self.row < ROWS_PER_BANK):
            raise CampaignError("event bank/row out of range")
        nbits = 32 if self.kind == "core" else WORD_BITS
        if not 0 <= self.bit < nbits:
            raise CampaignError(
                f"event bit out of range for a {self.kind} fault: {self.bit}")


EVENT_FIELDS = frozenset(f.name for f in fields(FaultEvent))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class CampaignSpec:
    kernel: str = "matmul24"
    binary: str | None = None
    entry: int | None = None
    mode: str = "lockstep"
    runs: int = 100
    seed: int = 1
    max_cycles: int | None = None
    scrub_interval: int = 64
    scrub_enabled: bool = True
    targets: tuple[str, ...] = ("core",)
    harts: tuple[int, ...] = (0, 1, 2)
    locs: tuple[str, ...] = CORE_LOCS
    cycle_window: tuple[float, float] = (0.0, 1.0)
    explicit_events: list[FaultEvent] | None = field(default=None)

    def validate(self) -> None:
        if self.mode not in kern.MODES:
            raise CampaignError(f"bad mode: {self.mode!r}")
        for name in ("runs", "seed", "scrub_interval"):
            if not _is_int(getattr(self, name)):
                raise CampaignError(
                    f"{name} must be an integer: {getattr(self, name)!r}")
        for name in ("max_cycles", "entry"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise CampaignError(f"{name} must be an integer: {value!r}")
        if not isinstance(self.scrub_enabled, bool):
            raise CampaignError(
                f"scrub_enabled must be true or false: {self.scrub_enabled!r}")
        if self.runs < 0:
            raise CampaignError("runs must be >= 0")
        if self.scrub_interval < 1:
            raise CampaignError(f"scrub_interval must be >= 1: {self.scrub_interval}")
        if not self.targets:
            raise CampaignError("no fault targets selected")
        for t in self.targets:
            if t not in TARGET_KINDS:
                raise CampaignError(f"bad target kind: {t!r}")
        for h in self.harts:
            if not _is_int(h) or h not in (0, 1, 2):
                raise CampaignError(f"bad hart: {h!r}")
        for loc in self.locs:
            if loc not in Soc.CORE_FAULT_LOCS:
                raise CampaignError(f"bad core fault location: {loc!r}")
        try:
            lo, hi = self.cycle_window
            window_ok = 0.0 <= lo < hi <= 1.0
        except (TypeError, ValueError):
            window_ok = False
        if not window_ok:
            raise CampaignError(f"bad cycle window: {self.cycle_window}")
        if self.binary is not None and not isinstance(self.binary, str):
            raise CampaignError(f"binary must be a path: {self.binary!r}")
        if self.binary is None:
            try:
                kern.check_mode(self.kernel, self.mode)
            except ValueError as e:
                raise CampaignError(str(e)) from None
        if self.explicit_events is not None:
            for ev in self.explicit_events:
                ev.validate()
            if self.runs != len(self.explicit_events):
                raise CampaignError("runs must equal the number of explicit events")

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignSpec":
        if not isinstance(d, dict):
            raise CampaignError(f"a spec must be an object: {d!r}")
        unknown = set(d) - {f.name for f in _SPEC_FIELDS} - {"events", "schema"}
        if unknown:
            raise CampaignError(f"unknown spec fields: {sorted(unknown)}")

        events = None
        if "events" in d:
            events = d["events"]
            if not isinstance(events, list) or \
                    not all(isinstance(e, dict) for e in events):
                raise CampaignError("events must be a list of objects")
            for e in events:
                unknown = set(e) - EVENT_FIELDS
                if unknown:
                    raise CampaignError(f"unknown event fields: {sorted(unknown)}")
                if "kind" not in e or "at_cycle" not in e:
                    raise CampaignError("every event needs kind and at_cycle")
            events = [FaultEvent(**e) for e in events]
        kw = {}
        for f in _SPEC_FIELDS:
            value = d.get(f.name, f.default)
            if isinstance(f.default, tuple):     # read as a list
                if not isinstance(value, (list, tuple)):
                    raise CampaignError(f"{f.name} must be a list: {value!r}")
                value = tuple(value)
            kw[f.name] = value
        spec = cls(**kw, explicit_events=events)
        spec.validate()
        return spec

    def to_dict(self) -> dict:
        """The spec as JSON, keys in field order, tuples as lists."""
        d = {"schema": "campaign-spec/1"}
        for f in _SPEC_FIELDS:
            value = getattr(self, f.name)
            d[f.name] = list(value) if isinstance(f.default, tuple) else value
        if self.explicit_events is not None:
            d["events"] = [asdict(e) for e in self.explicit_events]
        return d


# the spec's JSON fields, in order; the events are written as "events"
_SPEC_FIELDS = tuple(f for f in fields(CampaignSpec)
                     if f.name != "explicit_events")


def _make_soc(spec: CampaignSpec, record_trace: bool,
              max_cycles: int) -> Soc:
    cfg = SocConfig(mode=spec.mode, max_cycles=max_cycles,
                    scrub_enabled=spec.scrub_enabled,
                    scrub_interval=spec.scrub_interval,
                    record_trace=record_trace)
    soc = Soc(cfg)
    try:
        if spec.binary is not None:
            with open(spec.binary, "rb") as f:
                soc.load_program(f.read(), spec.entry)
        else:
            soc.load_program(kern.build_kernel(spec.kernel, spec.mode),
                             spec.entry)
    except LoadError as e:
        raise CampaignError(str(e)) from None
    return soc


def generate_event(spec: CampaignSpec, index: int, golden_cycles: int) -> FaultEvent:
    """Run ``index``'s fault, fully determined by (spec, seed, index)."""
    if spec.explicit_events is not None:
        return spec.explicit_events[index]
    rng = random.Random(spec.seed * 1_000_003 + index)
    lo_f, hi_f = spec.cycle_window
    lo = max(1, int(golden_cycles * lo_f))
    hi = max(lo + 1, int(golden_cycles * hi_f))
    at = rng.randrange(lo, hi)
    kind = spec.targets[rng.randrange(len(spec.targets))]
    if kind == "core":
        return FaultEvent(
            kind="core", at_cycle=at,
            hart=spec.harts[rng.randrange(len(spec.harts))],
            loc=spec.locs[rng.randrange(len(spec.locs))],
            bit=rng.randrange(32))
    if kind == "memory":
        return FaultEvent(
            kind="memory", at_cycle=at,
            bank=rng.randrange(NUM_BANKS), row=rng.randrange(ROWS_PER_BANK),
            bit=rng.randrange(39))
    return FaultEvent(kind="write_mask", at_cycle=at,
                      bank=rng.randrange(NUM_BANKS), bit=rng.randrange(39))


def classify(res: RunResult, golden: RunResult) -> str:
    """Map one faulty run to its outcome class (function of flags and
    the output diff only)."""
    if res.timed_out:
        return "timeout"
    uncorr = (sum(res.ecc_uncorrectable) > sum(golden.ecc_uncorrectable)
              or res.latent_uncorrectable > golden.latent_uncorrectable)
    outputs_match = res.outputs_digest == golden.outputs_digest
    if uncorr:
        return "detected_uncorrectable"
    if res.unrecoverable:
        return "crash"
    if outputs_match:
        if res.resync_events > golden.resync_events:
            return "resynced"
        if sum(res.ecc_correctable) > sum(golden.ecc_correctable):
            return "corrected_ecc"
        return "masked_voter"
    if (res.exit_code is not None
            and (res.exit_code & 0xFFFF0000) == FATAL_EXIT_BASE):
        return "crash"
    flagged = (res.resync_events > golden.resync_events
               or sum(res.mismatch_count) > sum(golden.mismatch_count))
    if flagged:
        return "detected_uncorrectable"
    return "silent_data_corruption"


def derived_record(index: int, ev: FaultEvent,
                   golden: RunResult) -> dict | None:
    """Run ``index``'s record derived from the golden run, or None when
    the run must be simulated.  It calls neither ``FaultEvent.apply`` nor
    ``Soc.run``.

    Two kinds of run are derived.  A core fault (never on ``pc``) in a
    location that no instruction the golden run decoded reads, injected
    after its last trap or interrupt, retraces the golden trajectory
    cycle for cycle, so its record is the golden record.  A memory flip
    or a write mask leaves one codeword bit wrong, which never changes
    data, timing or control flow, since every read heals it; the run
    only adds the corrections that ``_corrections`` counts from the
    golden run's def/use log, which holds every SRAM read, fetches
    included.
    """
    du = golden.defuse
    at = min(ev.at_cycle, golden.cycles)
    if ev.kind != "core":
        n = _corrections(du, ev, at)
        if n is None:
            return None
        counts = list(golden.ecc_correctable)
        counts[ev.bank] += n
        return _record(index, ev, replace(golden, ecc_correctable=counts),
                       golden)
    if ev.loc == "pc" or at <= du.last_irq_cycle:
        return None
    seen = du.loc_reads & LOC_BITS[ev.loc]
    return None if seen else _record(index, ev, golden, golden)


def _corrections(du: DefUse, ev: FaultEvent, at: int) -> int | None:
    """The ECC corrections that ``ev``, a memory flip or a write mask
    applied after cycle ``at``, adds to the golden run with the def/use
    log ``du``; None when the log cannot tell.

    Per word, the walk keeps whether the stored bit ``ev.bit`` is wrong.
    A read corrects and heals it if it falls at or after the word's last
    store, or after ``at`` when no store came since; so does the merge of
    a sub-word store.  A store replaces a flipped bit.  A frozen bit keeps
    its value at a store, so it is wrong exactly where golden's new
    codeword has the other value.

    The log holds every SRAM read, instruction fetches included, so
    only a fault the guest might see is left to simulation: a run that
    reached the ECC counters (or ``write_disable``, which keeps a bit
    across a store) simulates its write masks and every flip on a word
    it accessed after ``at``.  Past ``_STORE_LOG_MAX`` stores only a flip
    on a word that no store reached after ``at`` is derived.
    """
    if ev.kind == "memory":
        w = ev.row * NUM_BANKS + ev.bank
        late = du.writes.get(w, -1) > at     # a store after the flip
        if du.ecc_regs and (late or du.reads[w] > at):
            return None
        words = {w: (1, at + 1)}    # word -> (bit wrong, first read counted)
        stores = du.stores if late else ()
    elif du.ecc_regs:
        return None
    else:
        words = {}
        stores = du.stores
    if stores is None:
        return None
    frozen = ev.kind == "write_mask"
    n = 0
    for t, w, before, after, strobes, read in stores:
        if t <= at or w & 7 != ev.bank or (not frozen and w not in words):
            continue
        wrong, lo = words.get(w, (0, at + 1))
        if wrong and (read >= lo or strobes != 0xF):
            n += 1      # a read since ``lo``, or the merge, corrects it
            wrong = 0
        # the store replaces a flipped bit; a frozen bit keeps its value,
        # so it is wrong where golden's new codeword has the other value
        wrong = wrong ^ ((before ^ after) >> ev.bit & 1) if frozen else 0
        words[w] = (wrong, t)
    # the word's last read closes the walk
    return n + sum(1 for w, (wrong, lo) in words.items()
                   if wrong and du.reads[w] >= lo)


def _record(index: int, ev: FaultEvent, res: RunResult,
            golden: RunResult) -> dict:
    return {
        "index": index,
        "event": ev.describe(),
        "outcome": classify(res, golden),
        "cycles": res.cycles,
        "exit_code": res.exit_code,
        "resync_events": res.resync_events,
        "mismatches": sum(res.mismatch_count),
        "ecc_correctable": sum(res.ecc_correctable),
        "ecc_uncorrectable": sum(res.ecc_uncorrectable),
    }


def execute_runs(spec: CampaignSpec, indices: list[int],
                 golden: RunResult) -> list[dict]:
    """Simulate the given subset of the campaign; order-independent records."""
    max_cycles = spec.max_cycles or max(golden.cycles * 4, 100_000)
    events = [(i, generate_event(spec, i, golden.cycles)) for i in indices]
    events.sort(key=lambda t: (t[1].at_cycle, t[0]))
    master = _make_soc(spec, False, max_cycles)
    faulty = _make_soc(spec, False, max_cycles)
    records = []
    for index, ev in events:
        at = min(ev.at_cycle, golden.cycles)
        if master.cycle < at:
            master.run(stop_at=at)
        faulty.restore(master.snapshot())
        ev.apply(faulty)
        records.append(_record(index, ev, faulty.run(), golden))
    return records


def _worker(args) -> list[dict]:
    spec_dict, indices, golden_digest = args
    spec = CampaignSpec.from_dict(spec_dict)
    golden = run_golden(spec, record_trace=False)
    if golden.outputs_digest != golden_digest:
        raise CampaignError("golden run diverged between workers")
    return execute_runs(spec, indices, golden)


def run_golden(spec: CampaignSpec, record_trace: bool = True) -> RunResult:
    """The fault-free run, with its def/use summary in ``defuse``."""
    max_cycles = spec.max_cycles or 10_000_000
    soc = _make_soc(spec, record_trace, max_cycles)
    soc.record_def_use()
    return soc.run()


def run_campaign(spec: CampaignSpec, jobs: int = 1) -> dict:
    """Golden run, then ``spec.runs`` injected runs; returns the report.

    Runs whose record the golden run decides are not simulated (see
    ``derived_record``).  The choice is made here, before sharding, so
    ``jobs`` cannot change a byte of the report.
    """
    spec.validate()
    golden = run_golden(spec)
    if golden.timed_out or golden.unrecoverable or golden.exit_code != 0:
        raise CampaignError(
            f"golden run failed: exit={golden.exit_code} "
            f"timed_out={golden.timed_out} unrecoverable={golden.unrecoverable}")
    records = []
    todo = []
    for i in range(spec.runs):
        rec = derived_record(i, generate_event(spec, i, golden.cycles), golden)
        if rec is None:
            todo.append(i)
        else:
            records.append(rec)
    jobs = max(1, min(jobs, os.cpu_count() or 1, len(todo)))
    if jobs == 1:
        if todo:
            records += execute_runs(spec, todo, golden)
    else:
        payload = [(spec.to_dict(), todo[w::jobs], golden.outputs_digest)
                   for w in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_worker, payload):
                records.extend(part)
    records.sort(key=lambda r: r["index"])
    classes = {c: 0 for c in OUTCOME_CLASSES}
    by_target = {t: {c: 0 for c in OUTCOME_CLASSES} for t in TARGET_KINDS}
    for r in records:
        classes[r["outcome"]] += 1
        by_target[r["event"]["kind"]][r["outcome"]] += 1
    return {
        "schema": "campaign-report/1",
        "spec": spec.to_dict(),
        "golden": golden.to_dict(),
        "classes": classes,
        "by_target": {t: by_target[t] for t in TARGET_KINDS},
        "totals": {
            "runs": len(records),
            "resync_events": sum(r["resync_events"] for r in records),
            "mismatches": sum(r["mismatches"] for r in records),
            "ecc_correctable": sum(r["ecc_correctable"] for r in records),
            "ecc_uncorrectable": sum(r["ecc_uncorrectable"] for r in records),
        },
        "runs": records,
    }


def load_spec(path: str) -> CampaignSpec:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        d = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:   # not UTF-8, not JSON, too deep
        raise CampaignError(f"{path} is not a JSON spec: {e}") from None
    return CampaignSpec.from_dict(d)
