"""Error-correcting-code substrates for the Section 8 analysis.

The paper argues (Section 8.1, Fig. 15) that the observed RowHammer BER
overwhelms widely deployed ECC:

- **SECDED (72,64)** corrects one and detects two bitflips per 64-bit word;
  the paper counts hundreds of thousands of words with more than two flips.
- a **Hamming(7,4)** code *could* correct the observed worst case but at a
  prohibitive 75% storage overhead.

Both codecs are implemented bit-exactly so the word-level analysis can
classify real flip patterns (corrected / detected / miscorrected /
undetected) instead of assuming the textbook guarantees.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


class DecodeStatus(enum.Enum):
    """Outcome of decoding one codeword."""

    OK = "ok"
    CORRECTED = "corrected"
    DETECTED = "detected_uncorrectable"
    MISCORRECTED = "miscorrected"


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class SecdedCodec:
    """Extended Hamming SECDED(72,64) over bit arrays.

    Codeword layout follows the classic construction: positions 1..71 hold
    the Hamming(71,64) code (check bits at power-of-two positions), and an
    overall parity bit extends it to single-error-correct /
    double-error-detect.
    """

    data_bits: int = 64

    @property
    def check_bits(self) -> int:
        """Hamming check bits required for ``data_bits`` (7 for 64)."""
        r = 0
        while (1 << r) < self.data_bits + r + 1:
            r += 1
        return r

    @property
    def codeword_bits(self) -> int:
        """Total codeword length including overall parity (72 for 64)."""
        return self.data_bits + self.check_bits + 1

    @functools.cached_property
    def _data_positions(self) -> np.ndarray:
        """Codeword indices of the data bits (non-power-of-two slots)."""
        positions = [p for p in range(1, self.codeword_bits)
                     if not _is_power_of_two(p)]
        return np.array(positions[: self.data_bits])

    @functools.cached_property
    def _parity_groups(self) -> List[np.ndarray]:
        """Per check bit ``1 << r``: every position whose index has bit
        ``r`` set, the check bit itself included."""
        return [np.array([p for p in range(1, self.codeword_bits)
                          if p & (1 << r)])
                for r in range(self.check_bits)]

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data_bits`` bits into a ``codeword_bits`` array.

        Index 0 of the returned array is the overall parity bit; indices
        1.. hold the Hamming codeword positions.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.data_bits,):
            raise ValueError(f"expected {self.data_bits} data bits")
        codeword = np.zeros(self.codeword_bits, dtype=np.uint8)
        codeword[self._data_positions] = data
        # A group holds no other check bit, and its own is still zero
        # here, so XOR-ing the whole group yields the check bit.
        for r, group in enumerate(self._parity_groups):
            codeword[1 << r] = np.bitwise_xor.reduce(codeword[group])
        codeword[0] = np.bitwise_xor.reduce(codeword[1:])
        return codeword

    def decode(self, codeword: np.ndarray) -> Tuple[np.ndarray,
                                                    DecodeStatus]:
        """Decode, correcting single errors and detecting double errors.

        Three or more errors may silently decode (``OK``-looking) or
        miscorrect; the return status reflects what the *decoder believes*,
        which is exactly the security-relevant behaviour.
        """
        codeword = np.asarray(codeword, dtype=np.uint8).copy()
        if codeword.shape != (self.codeword_bits,):
            raise ValueError(f"expected {self.codeword_bits} codeword bits")
        syndrome = 0
        for r, group in enumerate(self._parity_groups):
            if np.bitwise_xor.reduce(codeword[group]):
                syndrome |= 1 << r
        overall = int(np.bitwise_xor.reduce(codeword))
        if syndrome == 0 and overall == 0:
            return codeword[self._data_positions], DecodeStatus.OK
        if overall == 1:
            # Decoder believes: single error (possibly in the parity bit).
            if 0 < syndrome < self.codeword_bits:
                codeword[syndrome] ^= 1
            status = DecodeStatus.CORRECTED
            return codeword[self._data_positions], status
        # Non-zero syndrome with even parity: double error detected.
        return codeword[self._data_positions], DecodeStatus.DETECTED

    def evaluate_flips(self, data: np.ndarray,
                       flip_positions: np.ndarray) -> DecodeStatus:
        """Ground-truth outcome of flipping codeword bits of ``data``.

        Encodes, applies the flips, decodes, and compares against the true
        data to distinguish a real correction from a miscorrection and a
        detected error from a silent one.
        """
        encoded = self.encode(data)
        corrupted = encoded.copy()
        flip_positions = np.asarray(flip_positions, dtype=int)
        if flip_positions.size:
            if (flip_positions.min() < 0
                    or flip_positions.max() >= self.codeword_bits):
                raise ValueError("flip position out of codeword range")
            corrupted[flip_positions] ^= 1
        decoded, status = self.decode(corrupted)
        truth = encoded[self._data_positions]
        if status is DecodeStatus.DETECTED:
            return DecodeStatus.DETECTED
        if np.array_equal(decoded, truth):
            return status
        return DecodeStatus.MISCORRECTED


@dataclass(frozen=True)
class Hamming74Codec:
    """Hamming(7,4): corrects one bitflip per 4 data bits.

    Storage overhead is 3 parity bits per 4 data bits (75%), the cost the
    paper cites to argue ECC alone is an impractical RowHammer defense.
    """

    @property
    def storage_overhead(self) -> float:
        """Parity bits per data bit (0.75)."""
        return 3.0 / 4.0

    def encode(self, nibble: np.ndarray) -> np.ndarray:
        """Encode 4 data bits into a 7-bit codeword (positions 1..7)."""
        nibble = np.asarray(nibble, dtype=np.uint8)
        if nibble.shape != (4,):
            raise ValueError("expected 4 data bits")
        code = np.zeros(8, dtype=np.uint8)  # index 0 unused
        code[[3, 5, 6, 7]] = nibble
        code[1] = code[3] ^ code[5] ^ code[7]
        code[2] = code[3] ^ code[6] ^ code[7]
        code[4] = code[5] ^ code[6] ^ code[7]
        return code[1:]

    def decode(self, codeword: np.ndarray) -> Tuple[np.ndarray,
                                                    DecodeStatus]:
        """Decode a 7-bit codeword, correcting up to one error."""
        codeword = np.asarray(codeword, dtype=np.uint8)
        if codeword.shape != (7,):
            raise ValueError("expected 7 codeword bits")
        code = np.zeros(8, dtype=np.uint8)
        code[1:] = codeword
        s1 = code[1] ^ code[3] ^ code[5] ^ code[7]
        s2 = code[2] ^ code[3] ^ code[6] ^ code[7]
        s4 = code[4] ^ code[5] ^ code[6] ^ code[7]
        syndrome = s1 | (s2 << 1) | (s4 << 2)
        status = DecodeStatus.OK
        if syndrome:
            code[syndrome] ^= 1
            status = DecodeStatus.CORRECTED
        return code[[3, 5, 6, 7]], status

    def words_per_row(self, row_bits: int = 8192) -> int:
        """Number of 4-bit datawords protected in one row."""
        return row_bits // 4


def classify_flip_count(flips_in_word: int) -> str:
    """SECDED guarantee class for a word with ``flips_in_word`` bitflips.

    Mirrors the Section 8 argument: one flip is correctable, two are
    detectable but uncorrectable, three or more can escape detection.
    """
    if flips_in_word < 0:
        raise ValueError("flip count must be non-negative")
    if flips_in_word == 0:
        return "clean"
    if flips_in_word == 1:
        return "correctable"
    if flips_in_word == 2:
        return "detectable_uncorrectable"
    return "potentially_undetectable"
