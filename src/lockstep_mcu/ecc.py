"""Hsiao (39,32) SEC-DED codec used by every SRAM bank.

A 32-bit data word is extended with 7 parity bits to a 39-bit codeword.
The parity-check matrix uses distinct minimum-odd-weight columns with
balanced row weights, so a zero syndrome means "clean", an odd-weight
syndrome locates a single flipped bit, and an even-weight nonzero
syndrome flags an uncorrectable double error.

Codeword layout: data bits occupy positions 0..31, parity bits
positions 32..38 (parity bit j at position 32+j).
"""

from __future__ import annotations

from dataclasses import dataclass

DATA_BITS = 32
PARITY_BITS = 7
WORD_BITS = DATA_BITS + PARITY_BITS
DATA_MASK = (1 << DATA_BITS) - 1

CLEAN = "clean"
CORRECTED = "corrected"
UNCORRECTABLE = "uncorrectable"


@dataclass(frozen=True)
class ParityMatrix:
    """Parity-check matrix as 39 seven-bit column vectors.

    ``columns[p]`` is the 7-bit syndrome produced by flipping codeword
    bit ``p``.  Data columns have weight 3, parity columns weight 1.
    """

    columns: tuple[int, ...]
    data_positions: tuple[int, ...]
    parity_positions: tuple[int, ...]

    def row_weights(self) -> list[int]:
        return [sum((c >> r) & 1 for c in self.columns) for r in range(PARITY_BITS)]


@dataclass(frozen=True)
class DecodeResult:
    data: int
    status: str
    bit_index: int | None = None


def build_matrix() -> ParityMatrix:
    """Construct the fixed (39,32) parity-check matrix.

    Data columns are picked greedily from the weight-3 seven-bit vectors
    (weight-1 vectors are reserved for the parity identity block): at
    each step the candidate minimizing the resulting row-weight
    imbalance wins, ties broken toward the smallest integer value.
    The construction is deterministic, so every build yields the same
    matrix.
    """
    candidates = [v for v in range(1, 1 << PARITY_BITS) if bin(v).count("1") == 3]
    row_weight = [0] * PARITY_BITS
    chosen: list[int] = []
    for _ in range(DATA_BITS):
        best = None
        best_imb = None
        for v in candidates:
            trial = list(row_weight)
            for r in range(PARITY_BITS):
                if (v >> r) & 1:
                    trial[r] += 1
            imb = max(trial) - min(trial)
            if best_imb is None or imb < best_imb:
                best, best_imb = v, imb
        assert best is not None
        candidates.remove(best)
        chosen.append(best)
        for r in range(PARITY_BITS):
            if (best >> r) & 1:
                row_weight[r] += 1
    columns = tuple(chosen) + tuple(1 << j for j in range(PARITY_BITS))
    return ParityMatrix(
        columns=columns,
        data_positions=tuple(range(DATA_BITS)),
        parity_positions=tuple(range(DATA_BITS, WORD_BITS)),
    )


_MATRIX = build_matrix()

# Per-byte parity lookup tables: parity(word) folds four table hits.
_PARITY_TABLES: list[list[int]] = []
for _byte_idx in range(4):
    _tab = [0] * 256
    for _b in range(256):
        _p = 0
        for _j in range(8):
            if (_b >> _j) & 1:
                _p ^= _MATRIX.columns[_byte_idx * 8 + _j]
        _tab[_b] = _p
    _PARITY_TABLES.append(_tab)

_T0, _T1, _T2, _T3 = _PARITY_TABLES

# Syndrome -> flipped bit position (all 39 columns are distinct).
_SYN_TO_POS = {col: pos for pos, col in enumerate(_MATRIX.columns)}


def matrix() -> ParityMatrix:
    """The process-wide singleton matrix (construction is deterministic)."""
    return _MATRIX


def parity_of(data: int) -> int:
    """7-bit parity of a 32-bit data word."""
    return (
        _T0[data & 0xFF]
        ^ _T1[(data >> 8) & 0xFF]
        ^ _T2[(data >> 16) & 0xFF]
        ^ _T3[(data >> 24) & 0xFF]
    )


def encode(data: int) -> int:
    """Encode a 32-bit word into a 39-bit codeword (as an int)."""
    data &= DATA_MASK
    return data | (parity_of(data) << DATA_BITS)


def decode_raw(codeword: int) -> tuple[int, int, int]:
    """Fast-path decode: returns (data, status_code, bit_index).

    status_code: 0 clean, 1 corrected, 2 uncorrectable.  bit_index is
    -1 unless a single error was corrected.  On an uncorrectable word
    the raw (unmodified) data bits come back and must be treated as
    poisoned by the caller.
    """
    data = codeword & DATA_MASK
    syn = parity_of(data) ^ (codeword >> DATA_BITS)
    if syn == 0:
        return data, 0, -1
    pos = _SYN_TO_POS.get(syn, -1)
    if pos < 0:
        return data, 2, -1
    if pos < DATA_BITS:
        data ^= 1 << pos
    return data, 1, pos


def decode(codeword: int) -> DecodeResult:
    """Decode a 39-bit codeword into data plus an error status."""
    data, code, pos = decode_raw(codeword)
    if code == 0:
        return DecodeResult(data, CLEAN)
    if code == 1:
        return DecodeResult(data, CORRECTED, pos)
    return DecodeResult(data, UNCORRECTABLE)


def matrix_dump() -> str:
    """Human-readable row dump of the parity-check matrix."""
    lines = []
    for r in range(PARITY_BITS):
        bits = "".join(str((c >> r) & 1) for c in _MATRIX.columns)
        lines.append(f"row {r}: {bits}")
    lines.append("columns (hex, bit 0..38): " + " ".join(f"{c:02x}" for c in _MATRIX.columns))
    return "\n".join(lines)
