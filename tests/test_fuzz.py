"""Differential fuzzing of the fused engines against the reference engine.

Generated programs give each hart its own bounded loop of ALU, mul/div,
compressed ALU (``c.addi`` and the CA/CB ops ``c.srli`` ... ``c.and``),
word and sub-word load and store operations on one small shared buffer,
so stores and loads of different harts keep meeting on the same banks,
and of CSR operations: reads of the cycle and retired instruction
counters (which the fused single-core burst writes back only before
such an instruction and at its exit) and set/clear of ``mscratch``.
Every value read or written ends up in the exit code.  With
``fast_loop`` on and off, a run must give the same report (trace hash
included) and the same full state at a pause and at the end.  The same
holds for a lockstep program with one core fault injected at a random
cycle, with the dormant-fault shortcut on and off;
the shortcut itself may change nothing but the trace hash, since each
core of a split group records its own retirements.  Finally, pausing any
of these runs at a random cycle to take a ``snapshot()`` must not change
it, and a fresh ``Soc`` that restores the snapshot must retire the rest
of the run with the same trace lines.  The example counts
come from the Hypothesis profiles in ``conftest.py``: Tier-1 replays a
fixed set, and
``pytest --hypothesis-profile fuzz-long tests/test_fuzz.py`` searches
afresh with many more.
"""

import pytest

from lockstep_mcu.asm import Program
from lockstep_mcu.soc import SIMCTL_BASE, Soc, SocConfig

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

REGS = ["a0", "a1", "a2", "a3", "a4", "a5"]
ALU = ["add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt", "sltu",
       "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"]
LOADS = {"lw": 4, "lh": 2, "lhu": 2, "lb": 1, "lbu": 1}
STORES = {"sw": 4, "sh": 2, "sb": 1}
COUNTERS = ["mcycle", "minstret", "mcycleh"]
BUF_BYTES = 64      # two words per bank

_reg = st.sampled_from(REGS)
_op = st.one_of(
    st.tuples(st.sampled_from(ALU), _reg, _reg, _reg),
    st.tuples(st.just("addi"), _reg, _reg, st.integers(-2048, 2047)),
    st.tuples(st.just("c.addi"), _reg, st.integers(1, 31)),
    st.tuples(st.sampled_from(["c.srli", "c.srai"]), _reg, st.integers(0, 31)),
    st.tuples(st.just("c.andi"), _reg, st.integers(-32, 31)),
    st.tuples(st.sampled_from(["c.sub", "c.xor", "c.or", "c.and"]), _reg, _reg),
    st.sampled_from(sorted(LOADS | STORES)).flatmap(
        lambda m: st.tuples(
            st.just(m), _reg,
            st.integers(0, BUF_BYTES // (LOADS | STORES)[m] - 1).map(
                lambda i, m=m: i * (LOADS | STORES)[m]))),
    st.one_of(
        st.tuples(st.just("csrr"), _reg, st.sampled_from(COUNTERS)),
        st.tuples(st.sampled_from(["csrs", "csrc"]), st.just("mscratch"),
                  _reg)),
)
_hart = st.fixed_dictionaries({
    "ops": st.lists(_op, min_size=1, max_size=12),
    "loops": st.integers(2, 8),
    "init": st.lists(st.integers(0, 2**32 - 1), min_size=6, max_size=6),
})


def build(harts, wait: bool = True) -> Program:
    """One block per hart; hart 0 waits for the others' done flags (when
    ``wait``), then exits with the xor of its registers and ``mscratch``."""
    p = Program()
    p.label("_start")
    p.ins("csrr", "t0", "mhartid")
    p.ins("la", "s0", "buf")
    p.ins("la", "s2", "flags")
    p.ins("beqz", "t0", "hart0")
    p.ins("li", "t1", 1)
    p.ins("beq", "t0", "t1", "hart1")
    p.ins("j", "hart2")
    for k, h in enumerate(harts):
        p.label(f"hart{k}")
        for r, v in zip(REGS, h["init"]):
            p.ins("li", r, v)
        p.ins("li", "s1", h["loops"])
        p.label(f"loop{k}")
        for op in h["ops"]:
            if op[0] in LOADS or op[0] in STORES:
                p.ins(op[0], op[1], op[2], "s0")
            else:
                p.ins(*op)
        p.ins("addi", "s1", "s1", -1)
        p.ins("bnez", "s1", f"loop{k}")
        if k:
            p.ins("li", "t1", 1)
            p.ins("sw", "t1", 4 * k, "s2")
            p.label(f"park{k}")
            p.ins("wfi")
            p.ins("j", f"park{k}")
            continue
        if wait:
            for j in (1, 2):
                p.label(f"wait{j}")
                p.ins("lw", "t1", 4 * j, "s2")
                p.ins("beqz", "t1", f"wait{j}")
        for r in REGS[1:]:
            p.ins("xor", "a0", "a0", r)
        p.ins("csrr", "t1", "mscratch")
        p.ins("xor", "a0", "a0", "t1")
        p.ins("la", "t6", SIMCTL_BASE)
        p.ins("sw", "a0", 4, "t6")
        p.ins("sw", "x0", 0, "t6")
    p.align(4)
    p.label("flags")
    p.words([0, 0, 0])
    p.label("buf")
    p.words(list(range(0x01020304, 0x01020304 + BUF_BYTES // 4)))
    return p


def make_soc(prog, mode: str, fault=None, **cfg) -> Soc:
    """A ``Soc`` loaded with ``prog``; with ``fault`` = (cycle, hart,
    location, bit), paused just after injecting it."""
    soc = Soc(SocConfig(mode=mode, max_cycles=30_000, **cfg))
    soc.load_program(prog)
    if fault is not None:
        at, hart, loc, bit = fault
        soc.run(stop_at=at)
        soc.inject_core_fault(hart, loc, bit)
    return soc


def states(prog, mode: str, fast: bool, pause: int, scrub: int):
    soc = make_soc(prog, mode, fast_loop=fast, scrub_interval=scrub)
    soc.run(stop_at=pause)
    at_pause = (soc.cycle, soc.snapshot())
    res = soc.run()
    return res.to_dict(), at_pause, soc.snapshot()


def assert_engines_agree(prog, mode, pause, scrub):
    fast = states(prog, mode, True, pause, scrub)
    ref = states(prog, mode, False, pause, scrub)
    assert fast[0] == ref[0]
    for got, want in ((fast[1][1], ref[1][1]), (fast[2], ref[2])):
        for key in want:
            assert got[key] == want[key], key
    assert fast[1][0] == ref[1][0]
    assert ref[0]["exit_code"] is not None and not ref[0]["timed_out"]


@given(harts=st.tuples(_hart, _hart, _hart), pause=st.integers(20, 600),
       scrub=st.sampled_from([1, 3, 7, 64]))
def test_parallel_engines_agree(harts, pause, scrub):
    assert_engines_agree(build(harts), "parallel", pause, scrub)


@given(hart=_hart, pause=st.integers(20, 600),
       scrub=st.sampled_from([1, 3, 7, 64]))
def test_lockstep_engines_agree(hart, pause, scrub):
    assert_engines_agree(build((hart, hart, hart), wait=False), "lockstep",
                         pause, scrub)


def faulty_run(prog, fault, dormant: bool, fast: bool, scrub: int):
    soc = make_soc(prog, "lockstep", fault, fast_loop=fast,
                   dormant_opt=dormant, scrub_interval=scrub)
    return soc.run().to_dict(), soc.snapshot()


_fault = st.tuples(st.integers(20, 600), st.integers(0, 2),
                   st.sampled_from(Soc.CORE_FAULT_LOCS), st.integers(0, 31))


@example(hart={"ops": [("addi", "a0", "a4", -1931), ("mul", "a2", "a2", "a4"),
                       ("mulh", "a4", "a0", "a3"), ("lbu", "a4", 57),
                       ("remu", "a0", "a1", "a2"), ("and", "a4", "a1", "a4"),
                       ("mul", "a4", "a3", "a2"), ("lw", "a4", 44),
                       ("xor", "a5", "a1", "a2"), ("sh", "a4", 36)],
               "loops": 6,
               "init": [358546079, 3043427287, 4090515511, 1777249098,
                        542351185, 2753545384]},
         fault=(260, 1, "x14", 6), scrub=64)
# a dormant fault in rd' of a compressed ALU op (rd' is in bits 9:7)
@example(hart={"ops": [("c.andi", "a0", -2)], "loops": 2,
               "init": [0x55, 1, 2, 3, 4, 5]},
         fault=(40, 1, "x10", 0), scrub=64)
@given(hart=_hart, fault=_fault, scrub=st.sampled_from([1, 3, 7, 64]))
def test_lockstep_faulty_engines_agree(hart, fault, scrub):
    prog = build((hart, hart, hart), wait=False)
    reports = {}
    for dormant in (True, False):
        fast = faulty_run(prog, fault, dormant, True, scrub)
        ref = faulty_run(prog, fault, dormant, False, scrub)
        assert fast[0] == ref[0]
        for key in ref[1]:
            assert fast[1][key] == ref[1][key], key
        reports[dormant] = ref[0]
    for report in reports.values():
        del report["trace_hash"]
    assert reports[True] == reports[False]


_pausable = st.one_of(
    st.tuples(st.tuples(_hart, _hart, _hart), st.none()),
    st.tuples(_hart, st.none()),
    st.tuples(_hart, _fault),
)


@given(run=_pausable, pause=st.integers(0, 600))
def test_snapshot_restore_matches_uninterrupted(run, pause):
    """A three-hart parallel program, a lockstep one, or a lockstep one
    with a core fault (then ``pause`` counts from the injection)."""
    harts, fault = run
    if isinstance(harts, tuple):
        prog, mode = build(harts), "parallel"
    else:
        prog, mode = build((harts, harts, harts), wait=False), "lockstep"
    if fault is not None:
        pause += fault[0]
    whole = make_soc(prog, mode, fault, trace_lines=True).run()
    soc = make_soc(prog, mode, fault, trace_lines=True)
    soc.run(stop_at=pause)
    done = len(soc.trace_lines)
    snap = soc.snapshot()
    rest = soc.run()
    assert rest.to_dict() == whole.to_dict()
    assert rest.trace_lines == whole.trace_lines
    restored = make_soc(prog, mode, trace_lines=True)
    restored.restore(snap)
    assert restored.run().trace_lines == whole.trace_lines[done:]
