"""Shared fixtures: expensive golden runs are computed once per session."""

import pytest

from lockstep_mcu import kernels
from lockstep_mcu.soc import Soc, SocConfig

try:
    from hypothesis import HealthCheck, settings
except ImportError:     # tests/test_fuzz.py skips itself
    pass
else:
    _fuzz = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    settings.register_profile("tier1", max_examples=150, derandomize=True, **_fuzz)
    settings.register_profile("fuzz-long", max_examples=3000, **_fuzz)
    settings.load_profile("tier1")


def make_soc(mode="lockstep", program=None, **cfg) -> Soc:
    soc = Soc(SocConfig(mode=mode, **cfg))
    if program is not None:
        soc.load_program(program)
    return soc


def run_kernel(name_or_prog, mode="lockstep", **cfg):
    prog = (kernels.build_kernel(name_or_prog, mode)
            if isinstance(name_or_prog, str) else name_or_prog)
    soc = make_soc(mode, prog, **cfg)
    return soc, soc.run()


@pytest.fixture(scope="session")
def matmul24_lockstep():
    return run_kernel("matmul24", "lockstep")[1]


@pytest.fixture(scope="session")
def matmul24_single():
    return run_kernel("matmul24", "single")[1]


@pytest.fixture(scope="session")
def matmul24_parallel():
    return run_kernel("matmul24", "parallel")[1]


@pytest.fixture(scope="session")
def matmul24_checksum():
    return kernels.host_checksum(24)
