"""Kernel library: guest results against independent host oracles."""

import json
from pathlib import Path

import pytest

from lockstep_mcu import kernels
from lockstep_mcu.soc import Soc, SocConfig

M32 = 0xFFFFFFFF


def run(prog, mode="lockstep", **cfg):
    soc = Soc(SocConfig(mode=mode, record_trace=False, **cfg))
    soc.load_program(prog)
    return soc, soc.run()


def pure_python_matmul(n, ident=False):
    """Second independent oracle: the running sum wraps at every step."""
    a_w, b_w = kernels.input_matrices(n, ident)
    c = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = (acc + a_w[i * n + k] * b_w[k * n + j]) & M32
            c[i * n + j] = acc
    return c


class TestHostOracle:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_numpy_oracle_matches_pure_python(self, n):
        assert kernels.host_matmul(n) == pure_python_matmul(n)

    def test_identity_product_is_a(self):
        n = 3
        a, _ = kernels.input_matrices(n, ident=True)
        assert kernels.host_matmul(n, ident=True) == a

    def test_checksum_position_sensitive(self):
        # swapping two C elements must change the weighted checksum
        c = kernels.host_matmul(3)
        chk = sum(v * (i + 1) for i, v in enumerate(c)) & M32
        c2 = list(c)
        c2[0], c2[1] = c2[1], c2[0]
        chk2 = sum(v * (i + 1) for i, v in enumerate(c2)) & M32
        assert chk != chk2

    def test_lcg_documented_constants(self):
        assert kernels.lcg_words(0, 1) == [1013904223]
        assert kernels.lcg_words(1, 1) == [(1664525 + 1013904223) & M32]


class TestMatmulGuest:
    @pytest.mark.parametrize("n", [3, 8, 24])
    def test_single_checksum_matches_oracle(self, n):
        _, res = run(kernels.matmul_kernel(n, "single"))
        assert res.exit_code == 0
        assert res.checksum == kernels.host_checksum(n)

    @pytest.mark.parametrize("n", [3, 8, 24])
    def test_parallel_checksum_matches_single(self, n):
        _, res = run(kernels.matmul_kernel(n, "parallel3"), mode="parallel")
        assert res.exit_code == 0
        assert res.checksum == kernels.host_checksum(n)

    def test_identity_kernel(self):
        _, res = run(kernels.matmul_kernel(3, "single", ident=True))
        assert res.checksum == kernels.host_checksum(3, ident=True)

    def test_row_chunks_contiguous_cover(self):
        for n in (3, 8, 24, 25, 26):
            b = kernels.row_chunks(n)
            assert b[0] == 0 and b[-1] == n
            assert all(b[i] <= b[i + 1] for i in range(3))
            sizes = [b[i + 1] - b[i] for i in range(3)]
            assert max(sizes) - min(sizes) <= 1

    def test_parallel_retires_same_work(self, matmul24_lockstep,
                                        matmul24_parallel):
        # same multiply count overall; dispatch/barrier overhead < 5%
        single = matmul24_lockstep.instret[0]
        total = sum(matmul24_parallel.instret)
        assert abs(total - single) / single < 0.05

    def test_matmul_requires_n3(self):
        with pytest.raises(ValueError):
            kernels.matmul_kernel(2)


class TestOtherKernels:
    def test_subword_probe(self):
        _, res = run(kernels.subword_probe_kernel())
        assert res.checksum == kernels.subword_probe_signature()

    def test_stress_checksum(self):
        _, res = run(kernels.stress_kernel(5000))
        assert res.checksum == kernels.stress_checksum(5000)

    def test_registry_builds_everything(self):
        for name, _desc in kernels.list_kernels():
            prog = kernels.build_kernel(name, "lockstep")
            assert prog.items

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernels.build_kernel("nosuch")

    @pytest.mark.parametrize("name,mode", [
        ("modeswitch", "single"), ("relock", "single"),
        ("relock", "parallel")])
    def test_unsupported_mode_rejected(self, name, mode):
        # these programs wait for a mode switch or for held cores forever
        assert mode not in kernels.kernel_modes(name)
        with pytest.raises(ValueError, match="does not run in mode"):
            kernels.build_kernel(name, mode)


PINS_PATH = Path(__file__).with_name("kernel_pins.json")
KERNEL_MODES = [(n, m) for n, _ in kernels.list_kernels()
                for m in kernels.kernel_modes(n)]


def pinned_view(name, mode):
    """The simulated invariants of ``name`` in ``mode``, default config."""
    soc = Soc(SocConfig(mode=mode))
    soc.load_program(kernels.build_kernel(name, mode))
    res = soc.run()
    return {"cycles": res.cycles, "instret": res.instret,
            "trace_hash": res.trace_hash,
            "outputs_digest": res.outputs_digest,
            "conflict_stalls": res.conflict_stalls,
            "exit_code": res.exit_code}


class TestPinnedReports:
    """Every built-in kernel x mode against its pinned invariants.

    A change that moves a pin on purpose rewrites them with
    ``PYTHONPATH=src python tests/test_kernels.py`` and says which moved
    and why.
    """

    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(PINS_PATH.read_text())

    def test_every_pair_pinned(self, pins):
        assert sorted(pins) == sorted(f"{n}/{m}" for n, m in KERNEL_MODES)

    @pytest.mark.parametrize("name,mode", KERNEL_MODES)
    def test_matches_pin(self, pins, name, mode):
        assert pinned_view(name, mode) == pins[f"{name}/{mode}"]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(
        {f"{n}/{m}": pinned_view(n, m) for n, m in KERNEL_MODES},
        indent=1) + "\n")
    print(f"wrote {PINS_PATH}")
