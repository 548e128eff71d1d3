"""Eight word-interleaved SRAM banks with per-bank SEC-DED codecs.

Each bank stores 8192 39-bit codewords (8 x 32 KiB = 256 KiB of data).
Consecutive words map to consecutive banks (bank = word_address mod 8),
which spreads parallel-mode traffic across banks.

A per-bank ``tainted`` set tracks rows whose stored codeword is not a
pristine encoder output (injected flips, write-disable freezes).  Rows
outside the set are guaranteed zero-syndrome, so the hot read path is a
mask; only tainted rows pay for a full decode.

Sub-word stores are acknowledged immediately but occupy the bank for
one extra cycle (internal read-merge-encode-store); the scheduler
honours ``busy_until`` when arbitrating.
"""

from __future__ import annotations

import struct

from . import ecc

NUM_BANKS = 8
ROWS_PER_BANK = 8192
TOTAL_WORDS = NUM_BANKS * ROWS_PER_BANK
TOTAL_BYTES = TOTAL_WORDS * 4

_ENC = ecc.encode
_DEC = ecc.decode_raw
_DATA_MASK = ecc.DATA_MASK
_ALL_WORDS = struct.Struct(f"<{TOTAL_WORDS}Q")
_WORD = struct.Struct("<I")

# read/write status codes shared with the bus layer
OK = 0
CORRECTED = 1
UNCORRECTABLE = 2

_STROBE_MASKS = [
    ((0xFF if s & 1 else 0)
     | (0xFF00 if s & 2 else 0)
     | (0xFF0000 if s & 4 else 0)
     | (0xFF000000 if s & 8 else 0))
    for s in range(16)
]


def bank_of(addr: int) -> tuple[int, int]:
    """Map a byte address (SRAM-relative) to (bank, row)."""
    word = addr >> 2
    return word & 7, word >> 3


class Bank:
    __slots__ = ("cws", "tainted", "write_disable", "correctable_count",
                 "uncorrectable_count", "busy_until")

    def __init__(self):
        self.cws = [0] * ROWS_PER_BANK  # encode(0) == 0, so zeroed is clean
        self.tainted: set[int] = set()
        self.write_disable = 0  # 39-bit mask; set bits are frozen at store time
        self.correctable_count = 0
        self.uncorrectable_count = 0
        self.busy_until = -1

    def read(self, row: int) -> tuple[int, int]:
        """Return (data, status); corrects the stored word in place."""
        cw = self.cws[row]
        if row not in self.tainted:
            return cw & _DATA_MASK, OK
        data, code, pos = _DEC(cw)
        if code == 0:
            self.tainted.discard(row)
            return data, OK
        if code == 1:
            self.cws[row] = cw ^ (1 << pos)
            self.tainted.discard(row)
            self.correctable_count += 1
            return data, CORRECTED
        self.uncorrectable_count += 1
        return data, UNCORRECTABLE

    def write(self, row: int, data: int, strobes: int = 0xF) -> int:
        """Store ``data`` under ``strobes``; returns a status code.

        A full-word store replaces the codeword outright.  A sub-word
        store merges with the current content: a correctable error in
        the old word is healed by the re-encode (and counted as a read
        correction), an uncorrectable one suppresses the store so the
        poison stays detectable instead of being laundered into a valid
        codeword.
        """
        status = OK
        if strobes != 0xF:
            old, st = self.read(row)
            if st == UNCORRECTABLE:
                return UNCORRECTABLE
            status = st
            m = _STROBE_MASKS[strobes]
            data = (data & m) | (old & ~m)
        cw = _ENC(data)
        wd = self.write_disable
        if wd:
            cw = (cw & ~wd) | (self.cws[row] & wd)
            self.cws[row] = cw
            self.tainted.add(row)
        else:
            self.cws[row] = cw
            self.tainted.discard(row)
        return status

    def flip_bit(self, row: int, bit: int) -> None:
        self.cws[row] ^= 1 << bit
        self.tainted.add(row)


class BankArray:
    """The eight banks plus image load/dump helpers."""

    __slots__ = ("banks",)

    def __init__(self):
        self.banks = [Bank() for _ in range(NUM_BANKS)]

    def flip_bit(self, bank: int, row: int, bit: int) -> None:
        if not (0 <= bank < NUM_BANKS and 0 <= row < ROWS_PER_BANK and 0 <= bit < ecc.WORD_BITS):
            raise ValueError(f"flip target out of range: bank={bank} row={row} bit={bit}")
        self.banks[bank].flip_bit(row, bit)

    def read_word_by_index(self, word_index: int) -> tuple[int, int]:
        return self.banks[word_index & 7].read(word_index >> 3)

    def write_word_by_index(self, word_index: int, data: int, strobes: int = 0xF) -> int:
        return self.banks[word_index & 7].write(word_index >> 3, data, strobes)

    def load_image(self, image: bytes, word_offset: int = 0) -> None:
        if len(image) % 4:
            image = image + b"\x00" * (4 - len(image) % 4)
        words = struct.unpack(f"<{len(image) // 4}I", image)
        if word_offset + len(words) > TOTAL_WORDS:
            raise ValueError("image does not fit in SRAM")
        banks = self.banks
        for i, w in enumerate(words):
            idx = word_offset + i
            banks[idx & 7].write(idx >> 3, w)

    def _image(self) -> bytearray:
        """Little-endian image of the data bits of every stored word,
        assembled one bank slice at a time (bank b holds words b, b + 8,
        ...)."""
        words = [0] * TOTAL_WORDS
        for b_idx, bank in enumerate(self.banks):
            words[b_idx::NUM_BANKS] = bank.cws
        wide = _ALL_WORDS.pack(*words)      # 8 bytes a word, data first
        out = bytearray(4 * TOTAL_WORDS)
        for k in range(4):
            out[k::4] = wide[k::8]
        return out

    def dump_image(self) -> bytes:
        """Raw little-endian data image (tainted rows dump their raw bits)."""
        return bytes(self._image())

    def logical_image(self) -> bytes:
        """The ECC-decoded view: correctable deviations are healed, so a
        recoverable word hashes like its original data.  Uncorrectable
        words keep their raw (poisoned) bits."""
        out = self._image()
        for b_idx, bank in enumerate(self.banks):
            for row in bank.tainted:
                _WORD.pack_into(out, 4 * (row * NUM_BANKS + b_idx),
                                _DEC(bank.cws[row])[0])
        return bytes(out)

    def latent_uncorrectable(self) -> int:
        """Words whose stored codeword is uncorrectable right now."""
        n = 0
        for bank in self.banks:
            for row in bank.tainted:
                if _DEC(bank.cws[row])[1] == 2:
                    n += 1
        return n

    def counters(self) -> dict:
        return {
            "correctable": [b.correctable_count for b in self.banks],
            "uncorrectable": [b.uncorrectable_count for b in self.banks],
        }

    def snapshot(self) -> tuple:
        return (
            [list(b.cws) for b in self.banks],
            [set(b.tainted) for b in self.banks],
            [b.write_disable for b in self.banks],
            [b.correctable_count for b in self.banks],
            [b.uncorrectable_count for b in self.banks],
            [b.busy_until for b in self.banks],
        )

    def restore(self, snap: tuple) -> None:
        cws, taints, wds, corr, uncorr, busy = snap
        for i, b in enumerate(self.banks):
            b.cws = list(cws[i])
            b.tainted = set(taints[i])
            b.write_disable = wds[i]
            b.correctable_count = corr[i]
            b.uncorrectable_count = uncorr[i]
            b.busy_until = busy[i]


class Scrubber:
    """Background sweeper: reads one word per interval, fixes what it can.

    The scrubber has the lowest arbitration priority and skips (without
    advancing) whenever an external access wants the same bank in the
    same cycle, so it never perturbs guest timing.  Uncorrectable words
    are counted and left in place; the scrubber never traps.
    """

    __slots__ = ("enabled", "interval", "next_address", "next_cycle",
                 "corrections", "uncorrectable_seen", "sweep_length")

    def __init__(self, interval: int = 64, enabled: bool = True):
        self.enabled = enabled
        self.interval = interval
        self.next_address = 0  # global word index
        self.next_cycle = interval
        self.corrections = 0
        self.uncorrectable_seen = 0
        self.sweep_length = TOTAL_WORDS

    def target_bank(self) -> int:
        return self.next_address & 7

    def tick(self, banks: BankArray, now: int, blocked: bool) -> int:
        """The tick due at ``now``: one scrub step unless ``blocked`` (the
        caller's bank-contention check), after which the next tick is
        ``interval`` cycles away either way.  Returns the word index
        scrubbed, or -1 when blocked."""
        idx = -1
        if not blocked:
            idx = self.next_address
            self.step(banks)
        self.next_cycle = now + self.interval
        return idx

    def step(self, banks: BankArray) -> None:
        """One scrub read (caller already checked for bank contention)."""
        idx = self.next_address
        bank = banks.banks[idx & 7]
        row = idx >> 3
        if row in bank.tainted:
            before = bank.correctable_count
            _data, status = bank.read(row)
            if status == CORRECTED or bank.correctable_count > before:
                self.corrections += 1
            elif status == UNCORRECTABLE:
                self.uncorrectable_seen += 1
        self.next_address = (idx + 1) % self.sweep_length

    def snapshot(self) -> tuple:
        return (self.enabled, self.interval, self.next_address, self.next_cycle,
                self.corrections, self.uncorrectable_seen)

    def restore(self, snap: tuple) -> None:
        (self.enabled, self.interval, self.next_address, self.next_cycle,
         self.corrections, self.uncorrectable_seen) = snap
