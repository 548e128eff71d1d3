"""Bank model: interleaving, roundtrips, error counters, scrubber."""

import random

import pytest

from lockstep_mcu.memory import (
    CORRECTED, OK, UNCORRECTABLE, Bank, BankArray, Scrubber,
    NUM_BANKS, ROWS_PER_BANK, TOTAL_BYTES, TOTAL_WORDS, bank_of,
)


class TestBankOf:
    def test_interleave_rule(self):
        assert bank_of(0x000) == (0, 0)
        assert bank_of(0x004) == (1, 0)
        assert bank_of(0x020) == (0, 1)

    def test_low_order_word_interleave(self):
        for word in range(64):
            b, r = bank_of(word * 4)
            assert b == word % 8
            assert r == word // 8

    def test_capacity(self):
        assert TOTAL_BYTES == 262144
        assert NUM_BANKS * ROWS_PER_BANK == TOTAL_WORDS


class TestBank:
    def test_fresh_memory_is_clean_zero(self):
        b = Bank()
        assert b.read(17) == (0, OK)

    def test_write_read_roundtrip(self):
        b = Bank()
        b.write(5, 0xCAFEBABE)
        assert b.read(5) == (0xCAFEBABE, OK)

    def test_subword_merge_all_strobes(self):
        rng = random.Random(42)
        for strobes in range(1, 16):
            b = Bank()
            old = rng.getrandbits(32)
            new = rng.getrandbits(32)
            b.write(3, old)
            b.write(3, new, strobes)
            want = 0
            for lane in range(4):
                src = new if strobes & (1 << lane) else old
                want |= src & (0xFF << (lane * 8))
            assert b.read(3) == (want, OK)

    def test_single_flip_corrected_and_counted(self):
        b = Bank()
        b.write(9, 0x12345678)
        b.flip_bit(9, 20)
        data, status = b.read(9)
        assert (data, status) == (0x12345678, CORRECTED)
        assert b.correctable_count == 1
        # correction rewrote the stored word: next read is clean
        assert b.read(9) == (0x12345678, OK)
        assert b.correctable_count == 1

    def test_double_flip_uncorrectable_raw_data(self):
        b = Bank()
        b.write(9, 0x12345678)
        b.flip_bit(9, 2)
        b.flip_bit(9, 36)
        data, status = b.read(9)
        assert status == UNCORRECTABLE
        assert data == 0x12345678 ^ 0b100  # raw bits, poisoned
        assert b.uncorrectable_count == 1

    def test_flip_is_involution(self):
        b = Bank()
        b.write(4, 0xAAAA5555)
        b.flip_bit(4, 11)
        b.flip_bit(4, 11)
        assert b.read(4) == (0xAAAA5555, OK)
        assert b.correctable_count == 0

    def test_parity_bit_flip_corrected(self):
        b = Bank()
        b.write(2, 0xFF00FF00)
        b.flip_bit(2, 38)
        assert b.read(2) == (0xFF00FF00, CORRECTED)

    def test_write_disable_freezes_bits(self):
        b = Bank()
        b.write(7, 0)
        b.write_disable = 1 << 5
        b.write(7, 0xFFFFFFFF)
        # stored bit 5 kept its old value (0); read corrects it back on
        data, status = b.read(7)
        assert status == CORRECTED
        assert data == 0xFFFFFFFF

    def test_write_disable_off_resumes_clean(self):
        b = Bank()
        b.write_disable = 1 << 5
        b.write(7, 0xFFFFFFFF)
        b.write_disable = 0
        b.write(7, 0x0F0F0F0F)
        assert b.read(7) == (0x0F0F0F0F, OK)

    def test_subword_rmw_heals_single_error(self):
        b = Bank()
        b.write(1, 0x11223344)
        b.flip_bit(1, 0)
        b.write(1, 0xAA, 0b0001)  # RMW reads, corrects, merges
        assert b.read(1) == (0x112233AA, OK)
        assert b.correctable_count == 1  # the internal read counted

    def test_subword_rmw_suppressed_on_poison(self):
        b = Bank()
        b.write(1, 0x11223344)
        b.flip_bit(1, 0)
        b.flip_bit(1, 1)
        st = b.write(1, 0xAA, 0b0001)
        assert st == UNCORRECTABLE
        assert b.uncorrectable_count == 1
        # word still poisoned, not laundered into a valid codeword
        assert b.read(1)[1] == UNCORRECTABLE

    def test_read_after_write_randomized(self):
        rng = random.Random(7)
        b = Bank()
        model = {}
        for _ in range(500):
            row = rng.randrange(64)
            data = rng.getrandbits(32)
            strobes = rng.randrange(1, 16)
            old = model.get(row, 0)
            b.write(row, data, strobes)
            want = 0
            for lane in range(4):
                src = data if strobes & (1 << lane) else old
                want |= src & (0xFF << (lane * 8))
            model[row] = want
            assert b.read(row) == (want, OK)


class TestBankArray:
    def test_image_roundtrip(self):
        rng = random.Random(3)
        arr = BankArray()
        image = bytes(rng.getrandbits(8) for _ in range(4096))
        arr.load_image(image)
        assert arr.dump_image()[:4096] == image

    def test_images_match_per_word_loop(self):
        # the per-bank slice builders against a plain word-by-word decode
        import struct
        from lockstep_mcu.ecc import DATA_MASK, decode_raw
        rng = random.Random(9)
        arr = BankArray()
        arr.load_image(bytes(rng.getrandbits(8) for _ in range(8192)))
        arr.flip_bit(3, 17, 5)                 # correctable flipped row
        arr.flip_bit(6, 40, 1)                 # uncorrectable word
        arr.flip_bit(6, 40, 30)
        arr.banks[2].write_disable = 1 << 4    # frozen bit at store time
        arr.banks[2].write(90, 0xFFFFFFFF)
        assert 90 in arr.banks[2].tainted
        raw = [arr.banks[i & 7].cws[i >> 3] for i in range(TOTAL_WORDS)]
        dump = struct.pack(f"<{TOTAL_WORDS}I", *(w & DATA_MASK for w in raw))
        logical = struct.pack(f"<{TOTAL_WORDS}I", *(
            decode_raw(w)[0] if (i >> 3) in arr.banks[i & 7].tainted
            else w & DATA_MASK for i, w in enumerate(raw)))
        assert dump != logical
        assert arr.dump_image() == dump
        assert arr.logical_image() == logical

    def test_image_too_large(self):
        arr = BankArray()
        with pytest.raises(ValueError, match="does not fit"):
            arr.load_image(b"\x00" * (TOTAL_BYTES + 4))

    def test_flip_validation(self):
        arr = BankArray()
        with pytest.raises(ValueError):
            arr.flip_bit(8, 0, 0)
        with pytest.raises(ValueError):
            arr.flip_bit(0, ROWS_PER_BANK, 0)
        with pytest.raises(ValueError):
            arr.flip_bit(0, 0, 39)

    def test_snapshot_restore(self):
        arr = BankArray()
        arr.write_word_by_index(100, 0xDEADBEEF)
        arr.flip_bit(3, 50, 7)
        snap = arr.snapshot()
        arr.write_word_by_index(100, 0)
        arr.banks[3].read(50)
        arr.restore(snap)
        assert arr.read_word_by_index(100) == (0xDEADBEEF, OK)
        assert 50 in arr.banks[3].tainted

    def test_any_single_flip_per_word_recoverable(self):
        rng = random.Random(9)
        arr = BankArray()
        written = {}
        for _ in range(200):
            idx = rng.randrange(TOTAL_WORDS)
            val = rng.getrandbits(32)
            arr.write_word_by_index(idx, val)
            written[idx] = val
        for idx, val in written.items():
            arr.flip_bit(idx & 7, idx >> 3, rng.randrange(39))
        for idx, val in written.items():
            data, status = arr.read_word_by_index(idx)
            assert data == val
            assert status in (OK, CORRECTED)


class TestScrubber:
    def test_clean_sweep_advances_without_counting(self):
        arr = BankArray()
        s = Scrubber(interval=4)
        for _ in range(20):
            s.step(arr)
        assert s.next_address == 20
        assert s.corrections == 0

    def test_corrects_latent_error(self):
        arr = BankArray()
        arr.write_word_by_index(5, 0x5555AAAA)
        arr.flip_bit(5, 0, 9)   # word index 5 -> bank 5, row 0
        s = Scrubber(interval=1)
        for _ in range(8):
            s.step(arr)
        assert s.corrections == 1
        assert arr.read_word_by_index(5) == (0x5555AAAA, OK)

    def test_uncorrectable_left_in_place(self):
        arr = BankArray()
        arr.flip_bit(2, 0, 1)
        arr.flip_bit(2, 0, 2)
        s = Scrubber(interval=1)
        for _ in range(8):
            s.step(arr)
        assert s.uncorrectable_seen == 1
        assert 0 in arr.banks[2].tainted  # still poisoned

    def test_wraps_modulo_sweep_length(self):
        arr = BankArray()
        s = Scrubber(interval=1)
        s.next_address = TOTAL_WORDS - 1
        s.step(arr)
        assert s.next_address == 0
