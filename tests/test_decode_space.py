"""The decoders' whole input space against pinned digests.

Each section hashes, for every encoding it covers, the decode result's
(rd, text, reads, writes, template).  A result with no template is a
hand-written closure (a trap, a CSR op, ``mret`` or ``wfi``); its action
code and the trap cause and value it leaves on a scratch core are
hashed too.  The sections:

* every 16-bit value at two pcs, decoded as the fetch unit decodes it:
  by ``decode16``, or by ``decode32`` when its low bits are 11 (the low
  half of a 32-bit word, here with a zero upper half);
* every 7-bit opcode x funct3 x funct7, with fixed register fields;
* the base opcodes x funct3 x funct7 in {0x00, 0x01, 0x20}, with rd,
  rs1 and rs2 each in {0, 1, 2, 8, 15, 31};
* the base opcodes x funct3 with immediate corners in bits 31:7;
* 100,000 seeded random 32-bit words with their low bits 11.

A change that moves a digest on purpose rewrites them with
``PYTHONPATH=src python tests/test_decode_space.py`` and says which
moved and why.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from lockstep_mcu.core import Core, decode16, decode32

PINS_PATH = Path(__file__).with_name("decode_space_pins.json")
PCS = (0x1C000000, 0xFFFFFFFE)
BASE_OPS = (0x03, 0x0F, 0x13, 0x17, 0x23, 0x33, 0x37, 0x63, 0x67, 0x6F, 0x73)
REGS = (0, 1, 2, 8, 15, 31)


class _Clock:
    cycle = 1000


def _digest(words, pc: int) -> str:
    core = Core(0, _Clock)
    h = hashlib.sha256()
    for w in words:
        ex, *view = (decode32 if w & 3 == 3 else decode16)(w, pc)
        if view[4] is None:
            core.ev_cause = core.ev_tval = None
            view += (ex(core), core.ev_cause, core.ev_tval)
        h.update(repr((w, view)).encode())
    return h.hexdigest()


def _word(op, f3=0, f7=0, rd=0, rs1=0, rs2=0) -> int:
    return f7 << 25 | rs2 << 20 | rs1 << 15 | f3 << 12 | rd << 7 | op


def _immediate_corners():
    """Bits 31:7 at the corners of every immediate layout: the sign bit,
    all ones, all zeros and the extremes of each field, plus every single
    bit set and cleared."""
    hi = (0x000, 0x001, 0x7FF, 0x800, 0xFFE, 0xFFF)    # bits 31:20
    mid = (0x00, 0x01, 0x80, 0xFF)                     # bits 19:12
    lo = (0x00, 0x01, 0x10, 0x1F)                      # bits 11:7
    fields = {h << 13 | m << 5 | low for h in hi for m in mid for low in lo}
    full = (1 << 25) - 1
    fields |= {1 << b for b in range(25)} | {full ^ 1 << b for b in range(25)}
    return [f << 7 & ~0x7000 | f3 << 12 | op
            for op in BASE_OPS for f3 in range(8) for f in sorted(fields)]


def _random_words(n: int = 100_000):
    rng = random.Random(23)
    return [rng.getrandbits(32) | 3 for _ in range(n)]


SECTIONS = {
    **{f"halves@{pc:#x}": (lambda pc=pc: (range(65536), pc)) for pc in PCS},
    "opcode-funct": lambda: ([_word(op, f3, f7, 8, 15, 31) for op in range(128)
                              for f3 in range(8) for f7 in range(128)],
                             PCS[0]),
    "registers": lambda: ([_word(op, f3, f7, rd, rs1, rs2) for op in BASE_OPS
                           for f3 in range(8) for f7 in (0x00, 0x01, 0x20)
                           for rd in REGS for rs1 in REGS for rs2 in REGS],
                          PCS[0]),
    "immediates": lambda: (_immediate_corners(), PCS[0]),
    "random": lambda: (_random_words(), PCS[1]),
}


def section_digests() -> dict:
    return {name: _digest(*make()) for name, make in SECTIONS.items()}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def test_every_section_pinned(pins):
    assert sorted(pins) == sorted(SECTIONS)


@pytest.mark.parametrize("name", SECTIONS)
def test_section_matches_pin(pins, name):
    assert _digest(*SECTIONS[name]()) == pins[name]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(section_digests(), indent=1) + "\n")
    print(f"wrote {PINS_PATH}")
