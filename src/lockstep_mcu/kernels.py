"""Built-in bare-metal kernels and their host-side reference oracles.

The flagship workload is an n x n 32-bit integer matrix multiply.  The
input matrices are generated by a fixed linear congruential generator
(x <- 1664525*x + 1013904223 mod 2^32; seeds below), embedded in the
image, and the guest reports a position-weighted checksum of C through
the result register:

    checksum = sum over idx of C[idx] * (idx + 1)   (mod 2^32)

The parallel variant splits the outer (row) loop into three contiguous
chunks selected by hart id; workers raise a done-flag in memory and
park in wfi while hart 0 spins on the flags before computing the
checksum, so the flag handshake doubles as the end-of-compute barrier.
"""

from __future__ import annotations

from .asm import Program
from .odrg import REG_MODE
from .soc import (
    ODRG_BASE, REG_CHECKSUM, REG_EXIT, REG_TX, SIMCTL_BASE, UART_BASE,
)

M32 = 0xFFFFFFFF

LCG_MUL = 1664525
LCG_INC = 1013904223
A_SEED = 0x12345678
B_SEED = 0x9ABCDEF0


# ------------------------------------------------------------- oracles

def lcg_words(seed: int, count: int) -> list[int]:
    x = seed & M32
    out = []
    for _ in range(count):
        x = (LCG_MUL * x + LCG_INC) & M32
        out.append(x)
    return out


def input_matrices(n: int, ident: bool = False) -> tuple[list[int], list[int]]:
    """Row-major A and B exactly as embedded in the guest image."""
    a = lcg_words(A_SEED, n * n)
    if ident:
        b = [1 if i == j else 0 for i in range(n) for j in range(n)]
    else:
        b = lcg_words(B_SEED, n * n)
    return a, b


def host_matmul(n: int, ident: bool = False) -> list[int]:
    """Independent product oracle: exact dot products wrapped to 32 bits,
    which is the guest's wrapped multiply-accumulate result."""
    a, b = input_matrices(n, ident)
    cols = [b[j::n] for j in range(n)]
    return [sum(x * y for x, y in zip(a[i * n:(i + 1) * n], col)) & M32
            for i in range(n) for col in cols]


def host_checksum(n: int, ident: bool = False) -> int:
    chk = 0
    for idx, v in enumerate(host_matmul(n, ident)):
        chk = (chk + v * (idx + 1)) & M32
    return chk


def row_chunks(n: int) -> list[int]:
    """Bounds of the three contiguous row chunks: [0, b1, b2, n]."""
    q, r = divmod(n, 3)
    bounds = [0]
    for i in range(3):
        bounds.append(bounds[-1] + q + (1 if i < r else 0))
    return bounds


# ------------------------------------------------------- program pieces

def _emit_exit(p: Program, checksum_reg: str | None = None) -> None:
    p.ins("la", "t1", SIMCTL_BASE)
    if checksum_reg is not None:
        p.ins("sw", checksum_reg, REG_CHECKSUM, "t1")
    p.ins("sw", "x0", REG_EXIT, "t1")


def _emit_matmul_body(p: Program) -> None:
    """Rows [bounds[t0], bounds[t0+1]) of C = A*B.  Clobbers s0-s8, t3-t6, a0-a5."""
    p.ins("la", "s0", "A")
    p.ins("la", "s1", "B")
    p.ins("la", "s2", "C")
    p.ins("la", "a0", "bounds")
    p.ins("slli", "a1", "t0", 2)
    p.ins("add", "a0", "a0", "a1")
    p.ins("lw", "a2", 0, "a0")            # lo row
    p.ins("lw", "a3", 4, "a0")            # hi row
    p.ins("la", "a4", "row_bytes")
    p.ins("lw", "s3", 0, "a4")            # 4*n
    p.ins("mul", "a4", "a2", "s3")
    p.ins("add", "s6", "s0", "a4")        # a_row_base = A + lo*4n
    p.ins("mul", "a5", "a3", "s3")
    p.ins("add", "s7", "s0", "a5")        # row limit
    p.ins("add", "s4", "s2", "a4")        # c_ptr = C + lo*4n
    p.label("row_loop")
    p.ins("bgeu", "s6", "s7", "rows_done")
    p.ins("add", "t6", "s6", "s3")        # a_row_end
    p.ins("mv", "s5", "s1")               # b column pointer
    p.ins("add", "s8", "s1", "s3")        # b column limit
    p.label("col_loop")
    p.ins("mv", "t3", "s6")
    p.ins("mv", "t4", "s5")
    p.ins("li", "t5", 0)
    p.label("inner")
    p.ins("lw", "a0", 0, "t3")
    p.ins("lw", "a1", 0, "t4")
    p.ins("mul", "a2", "a0", "a1")
    p.ins("add", "t5", "t5", "a2")
    p.ins("addi", "t3", "t3", 4)
    p.ins("add", "t4", "t4", "s3")
    p.ins("bne", "t3", "t6", "inner")
    p.ins("sw", "t5", 0, "s4")
    p.ins("addi", "s4", "s4", 4)
    p.ins("addi", "s5", "s5", 4)
    p.ins("bne", "s5", "s8", "col_loop")
    p.ins("add", "s6", "s6", "s3")
    p.ins("j", "row_loop")
    p.label("rows_done")


def _emit_partial_checksum(p: Program) -> None:
    """a3 = sum C[idx]*(idx+1) over this hart's rows [bounds[t0], bounds[t0+1]).

    The weight is the global element index, so the three partial sums
    add up (mod 2^32) to the single-core checksum.  Expects s3 = 4*n
    from the matmul body; clobbers a0-a5.
    """
    p.ins("la", "a0", "bounds")
    p.ins("slli", "a1", "t0", 2)
    p.ins("add", "a0", "a0", "a1")
    p.ins("lw", "a2", 0, "a0")            # lo
    p.ins("lw", "a3", 4, "a0")            # hi
    p.ins("la", "a0", "C")
    p.ins("mul", "a4", "a2", "s3")
    p.ins("add", "a0", "a0", "a4")        # &C[lo*n]
    p.ins("sub", "a5", "a3", "a2")        # row count
    p.ins("srli", "a1", "s3", 2)          # n
    p.ins("mul", "a5", "a5", "a1")        # element count
    p.ins("mul", "a2", "a2", "a1")
    p.ins("addi", "a2", "a2", 1)          # weight = lo*n + 1
    p.ins("li", "a3", 0)
    p.label("chk_loop")
    p.ins("lw", "a4", 0, "a0")
    p.ins("mul", "a4", "a4", "a2")
    p.ins("add", "a3", "a3", "a4")
    p.ins("addi", "a0", "a0", 4)
    p.ins("addi", "a2", "a2", 1)
    p.ins("addi", "a5", "a5", -1)
    p.ins("bnez", "a5", "chk_loop")


def _emit_parallel_tail(p: Program) -> None:
    """Partial-checksum handoff: workers publish a3 and a done-flag and
    park; hart 0 spins on the flags, folds the three partials, exits."""
    p.ins("la", "a0", "parts")
    p.ins("slli", "a1", "t0", 2)
    p.ins("add", "a0", "a0", "a1")
    p.ins("sw", "a3", 0, "a0")
    p.ins("bnez", "t0", "worker_done")
    p.ins("la", "a0", "flags")
    p.label("wait1")
    p.ins("lw", "a1", 4, "a0")
    p.ins("beqz", "a1", "wait1")
    p.label("wait2")
    p.ins("lw", "a1", 8, "a0")
    p.ins("beqz", "a1", "wait2")
    p.ins("la", "a0", "parts")
    p.ins("lw", "a3", 0, "a0")
    p.ins("lw", "a4", 4, "a0")
    p.ins("add", "a3", "a3", "a4")
    p.ins("lw", "a4", 8, "a0")
    p.ins("add", "a3", "a3", "a4")
    _emit_exit(p, "a3")
    p.label("worker_done")
    p.ins("la", "a0", "flags")
    p.ins("slli", "a1", "t0", 2)
    p.ins("add", "a0", "a0", "a1")
    p.ins("li", "a2", 1)
    p.ins("sw", "a2", 0, "a0")
    _emit_park(p)


def _emit_park(p: Program) -> None:
    p.label("park")
    p.ins("wfi")
    p.ins("j", "park")


def _emit_data(p: Program, n: int, bounds: list[int], ident: bool) -> None:
    a, b = input_matrices(n, ident)
    p.align(4)
    p.label("row_bytes")
    p.word(4 * n)
    p.label("bounds")
    p.words(bounds)
    p.label("flags")
    p.words([0, 0, 0])
    p.label("parts")
    p.words([0, 0, 0])
    p.label("A")
    p.words(a)
    p.label("B")
    p.words(b)
    p.label("C")
    p.space(4 * n * n)


# ------------------------------------------------------------- kernels

def matmul_kernel(n: int = 24, variant: str = "single",
                  ident: bool = False) -> Program:
    """n x n integer matmul; ``variant`` is ``single`` or ``parallel3``."""
    if n < 3:
        raise ValueError("matmul kernel needs n >= 3")
    if variant not in ("single", "parallel3"):
        raise ValueError(f"unknown matmul variant: {variant!r}")
    p = Program()
    p.label("_start")
    p.ins("csrr", "t0", "mhartid")
    if variant == "single":
        p.ins("bnez", "t0", "park")       # spare harts sit in wfi
        _emit_matmul_body(p)
        _emit_partial_checksum(p)
        _emit_exit(p, "a3")
        _emit_park(p)
        _emit_data(p, n, [0, n, n, n], ident)
        return p
    _emit_matmul_body(p)
    _emit_partial_checksum(p)
    _emit_parallel_tail(p)
    _emit_data(p, n, row_chunks(n), ident)
    return p


def modeswitch_matmul_kernel(n: int = 24) -> Program:
    """Boot locked, switch to performance at a wfi barrier, then run the
    three-way parallel matmul."""
    p = Program()
    p.label("_start")
    p.ins("la", "t1", ODRG_BASE)
    p.ins("lw", "t2", REG_MODE, "t1")
    p.ins("bnez", "t2", "_body")          # already unlocked
    p.ins("li", "t3", 1)
    p.ins("sw", "t3", REG_MODE, "t1")     # request performance mode
    p.ins("wfi")                          # barrier; wake comes unlocked
    p.label("_body")
    p.ins("csrr", "t0", "mhartid")
    _emit_matmul_body(p)
    _emit_partial_checksum(p)
    _emit_parallel_tail(p)
    _emit_data(p, n, row_chunks(n), False)
    return p


def relock_roundtrip_kernel() -> Program:
    """Lockstep -> performance -> lockstep; phase 2 re-enters from the
    reset vector and exits with a marker checksum."""
    p = Program()
    p.label("_start")
    p.ins("la", "s0", "phase_flag")
    p.ins("lw", "t0", 0, "s0")
    p.ins("bnez", "t0", "_phase2")
    p.ins("li", "t1", 1)
    p.ins("sw", "t1", 0, "s0")
    p.ins("la", "t2", ODRG_BASE)
    p.ins("li", "t3", 1)
    p.ins("sw", "t3", REG_MODE, "t2")     # unlock
    p.ins("wfi")
    # running split now: every hart requests relock and parks
    p.ins("la", "t2", ODRG_BASE)
    p.ins("sw", "x0", REG_MODE, "t2")
    p.label("_parked")
    p.ins("wfi")
    p.ins("j", "_parked")
    p.label("_phase2")
    p.ins("li", "a3", 42)
    _emit_exit(p, "a3")
    p.align(4)
    p.label("phase_flag")
    p.word(0)
    return p


def exit0_kernel() -> Program:
    p = Program()
    p.label("_start")
    _emit_exit(p)
    return p


def hello_kernel(text: bytes = b"hello from the locked cores\n") -> Program:
    p = Program()
    p.label("_start")
    p.ins("la", "t0", UART_BASE)
    for ch in text:
        p.ins("li", "t1", ch)
        p.ins("sw", "t1", REG_TX, "t0")
    _emit_exit(p)
    return p


def park_kernel() -> Program:
    """Immediately parks every hart (idle memory for scrubber runs)."""
    p = Program()
    p.label("_start")
    _emit_park(p)
    return p


def subword_probe_kernel() -> Program:
    """Sub-word store/load probe: builds a word from bytes and halves,
    reads pieces back, and exits with an arithmetic signature."""
    p = Program()
    p.label("_start")
    p.ins("la", "s0", "buf")
    p.ins("li", "t1", 0x11)
    p.ins("sb", "t1", 0, "s0")
    p.ins("li", "t1", 0x22)
    p.ins("sb", "t1", 1, "s0")
    p.ins("li", "t1", 0x7FEE)
    p.ins("sh", "t1", 2, "s0")
    p.ins("lw", "a0", 0, "s0")            # 0x7FEE2211
    p.ins("lb", "a1", 1, "s0")            # 0x22
    p.ins("lhu", "a2", 2, "s0")           # 0x7FEE
    p.ins("lh", "a3", 0, "s0")            # 0x2211
    p.ins("add", "a0", "a0", "a1")
    p.ins("add", "a0", "a0", "a2")
    p.ins("add", "a0", "a0", "a3")
    p.ins("mv", "a3", "a0")
    _emit_exit(p, "a3")
    p.align(4)
    p.label("buf")
    p.word(0)
    return p


def subword_probe_signature() -> int:
    return (0x7FEE2211 + 0x22 + 0x7FEE + 0x2211) & M32


def stress_kernel(iters: int = 20000) -> Program:
    """Register-churning loop; long deterministic run for divergence
    scripting."""
    p = Program()
    p.label("_start")
    p.ins("csrr", "t0", "mhartid")
    p.ins("bnez", "t0", "park")
    p.ins("li", "s0", iters)
    p.ins("li", "s1", 0)
    p.label("loop")
    p.ins("addi", "s1", "s1", 7)
    p.ins("slli", "a0", "s1", 3)
    p.ins("xor", "s1", "s1", "a0")
    p.ins("addi", "s0", "s0", -1)
    p.ins("bnez", "s0", "loop")
    p.ins("mv", "a3", "s1")
    _emit_exit(p, "a3")
    _emit_park(p)
    return p


def stress_checksum(iters: int = 20000) -> int:
    s = 0
    for _ in range(iters):
        s = (s + 7) & M32
        s ^= (s << 3) & M32
    return s


# ------------------------------------------------------------ registry

def _matmul_builder(n):
    def build(mode: str) -> Program:
        variant = "parallel3" if mode == "parallel" else "single"
        return matmul_kernel(n, variant)
    return build


MODES = ("lockstep", "single", "parallel")

# name -> (description, supported modes, builder(mode)).  ``modeswitch``
# unlocks a lockstep group and ``relock`` unlocks and relocks one; in the
# modes left out they never finish: a hart waits for held cores or for a
# mode switch that cannot happen.
KERNELS = {
    "exit0": ("immediate clean exit", MODES, lambda mode: exit0_kernel()),
    "hello": ("UART hello banner", MODES, lambda mode: hello_kernel()),
    "park": ("all harts parked in wfi", MODES, lambda mode: park_kernel()),
    "subword": ("byte/half store-load probe", MODES,
                lambda mode: subword_probe_kernel()),
    "stress": ("long register-churn loop", MODES, lambda mode: stress_kernel()),
    "matmul3": ("3x3 integer matmul", MODES, _matmul_builder(3)),
    "matmul8": ("8x8 integer matmul", MODES, _matmul_builder(8)),
    "matmul24": ("24x24 integer matmul", MODES, _matmul_builder(24)),
    "modeswitch": ("runtime unlock then parallel matmul",
                   ("lockstep", "parallel"),
                   lambda mode: modeswitch_matmul_kernel(24)),
    "relock": ("unlock/relock round trip", ("lockstep",),
               lambda mode: relock_roundtrip_kernel()),
}


def list_kernels() -> list[tuple[str, str]]:
    return [(name, desc) for name, (desc, _m, _b) in KERNELS.items()]


def kernel_modes(name: str) -> tuple[str, ...]:
    """The modes ``name`` supports; ValueError for an unknown kernel."""
    entry = KERNELS.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValueError(f"unknown kernel: {name!r}")
    return entry[1]


def check_mode(name: str, mode: str) -> None:
    """ValueError unless kernel ``name`` exists and runs in ``mode``."""
    modes = kernel_modes(name)
    if mode not in modes:
        raise ValueError(f"kernel {name!r} does not run in mode {mode!r} "
                         f"(supported: {', '.join(modes)})")


def build_kernel(name: str, mode: str = "lockstep") -> Program:
    check_mode(name, mode)
    return KERNELS[name][2](mode)
