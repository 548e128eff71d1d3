"""Codec tests: matrix invariants, roundtrips, exhaustive flip behavior."""

import random

import pytest

from lockstep_mcu import ecc


def slow_parity(data, columns):
    """Independent GF(2) matrix-vector product over the data columns."""
    acc = 0
    for i in range(32):
        if (data >> i) & 1:
            acc ^= columns[i]
    return acc


@pytest.fixture(scope="module")
def matrix():
    return ecc.build_matrix()


class TestMatrix:
    def test_column_count_and_positions(self, matrix):
        assert len(matrix.columns) == 39
        assert matrix.data_positions == tuple(range(32))
        assert matrix.parity_positions == tuple(range(32, 39))

    def test_columns_nonzero(self, matrix):
        assert all(c != 0 for c in matrix.columns)

    def test_columns_odd_weight(self, matrix):
        assert all(bin(c).count("1") % 2 == 1 for c in matrix.columns)

    def test_columns_distinct(self, matrix):
        assert len(set(matrix.columns)) == 39

    def test_parity_columns_are_unit_vectors(self, matrix):
        # Forced by the systematic layout: parity bit j has column e_j.
        for j in range(7):
            assert matrix.columns[32 + j] == 1 << j

    def test_data_columns_all_weight_three(self, matrix):
        # 35 weight-3 columns exist for 7 rows, so the greedy pick never
        # needs weight 5; verified by running the construction.
        assert all(bin(c).count("1") == 3 for c in matrix.columns[:32])

    def test_row_balance(self, matrix):
        weights = matrix.row_weights()
        assert max(weights) - min(weights) <= 1

    def test_deterministic_construction(self, matrix):
        again = ecc.build_matrix()
        assert again.columns == matrix.columns


class TestEncode:
    def test_zero_maps_to_zero(self):
        assert ecc.encode(0) == 0

    def test_known_word_parity(self, matrix):
        # Oracle: explicit matrix-vector multiply, independent of the
        # byte-table fast path.
        want = slow_parity(0xDEADBEEF, matrix.columns)
        cw = ecc.encode(0xDEADBEEF)
        assert cw >> 32 == want
        # Frozen regression value computed with the oracle above.
        assert cw >> 32 == 0x5C

    def test_parity_matches_oracle_randomized(self, matrix):
        rng = random.Random(101)
        for _ in range(500):
            w = rng.getrandbits(32)
            assert ecc.encode(w) >> 32 == slow_parity(w, matrix.columns)

    def test_linearity(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            assert ecc.encode(a ^ b) == ecc.encode(a) ^ ecc.encode(b)


class TestDecode:
    def test_roundtrip_clean(self):
        rng = random.Random(3)
        for _ in range(1000):
            w = rng.getrandbits(32)
            res = ecc.decode(ecc.encode(w))
            assert res.status == ecc.CLEAN
            assert res.data == w

    def test_single_flip_exhaustive_positions(self):
        rng = random.Random(11)
        for _ in range(50):
            w = rng.getrandbits(32)
            cw = ecc.encode(w)
            for i in range(39):
                res = ecc.decode(cw ^ (1 << i))
                assert res.status == ecc.CORRECTED
                assert res.bit_index == i
                assert res.data == w

    def test_double_flip_exhaustive_pairs(self):
        rng = random.Random(13)
        for _ in range(5):
            w = rng.getrandbits(32)
            cw = ecc.encode(w)
            n_pairs = 0
            for i in range(39):
                for j in range(i + 1, 39):
                    res = ecc.decode(cw ^ (1 << i) ^ (1 << j))
                    assert res.status == ecc.UNCORRECTABLE
                    n_pairs += 1
            assert n_pairs == 741

    def test_uncorrectable_returns_raw_data(self):
        w = 0x12345678
        cw = ecc.encode(w) ^ 0b11  # two data-bit flips
        res = ecc.decode(cw)
        assert res.status == ecc.UNCORRECTABLE
        assert res.data == w ^ 0b11

