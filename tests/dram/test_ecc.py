"""Tests for the SECDED and Hamming(7,4) codecs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.ecc import (DecodeStatus, Hamming74Codec, SecdedCodec,
                            classify_flip_count)

_codec = SecdedCodec()

_data_bits = st.lists(st.integers(min_value=0, max_value=1),
                      min_size=64, max_size=64).map(
    lambda bits: np.array(bits, dtype=np.uint8))


class TestSecdedStructure:
    def test_72_64_geometry(self):
        assert _codec.data_bits == 64
        assert _codec.check_bits == 7
        assert _codec.codeword_bits == 72


class TestSecdedRoundtrip:
    @given(_data_bits)
    @settings(max_examples=60)
    def test_clean_roundtrip(self, data):
        decoded, status = _codec.decode(_codec.encode(data))
        assert status is DecodeStatus.OK
        assert np.array_equal(decoded, data)

    @given(_data_bits, st.integers(min_value=0, max_value=71))
    @settings(max_examples=60)
    def test_single_error_corrected(self, data, position):
        corrupted = _codec.encode(data)
        corrupted[position] ^= 1
        decoded, status = _codec.decode(corrupted)
        assert status is DecodeStatus.CORRECTED
        assert np.array_equal(decoded, data)

    @given(_data_bits,
           st.sets(st.integers(min_value=0, max_value=71), min_size=2,
                   max_size=2))
    @settings(max_examples=60)
    def test_double_error_detected(self, data, positions):
        corrupted = _codec.encode(data)
        for position in positions:
            corrupted[position] ^= 1
        __, status = _codec.decode(corrupted)
        assert status is DecodeStatus.DETECTED

    def test_triple_error_can_miscorrect(self):
        """Three flips escape the SECDED guarantee (Section 8.1)."""
        rng = np.random.default_rng(0)
        outcomes = set()
        for __ in range(200):
            data = rng.integers(0, 2, 64).astype(np.uint8)
            positions = rng.choice(72, size=3, replace=False)
            outcomes.add(_codec.evaluate_flips(data, positions))
        assert DecodeStatus.MISCORRECTED in outcomes

    def test_evaluate_flips_clean(self):
        data = np.zeros(64, dtype=np.uint8)
        assert _codec.evaluate_flips(data, np.array([], dtype=int)) \
            is DecodeStatus.OK

    def test_evaluate_flips_out_of_range(self):
        data = np.zeros(64, dtype=np.uint8)
        with pytest.raises(ValueError):
            _codec.evaluate_flips(data, np.array([72]))

    def test_wrong_data_width_rejected(self):
        with pytest.raises(ValueError):
            _codec.encode(np.zeros(63, dtype=np.uint8))
        with pytest.raises(ValueError):
            _codec.decode(np.zeros(71, dtype=np.uint8))


def _reference_data_positions(codec):
    positions = [p for p in range(1, codec.codeword_bits)
                 if p & (p - 1)]
    return np.array(positions[: codec.data_bits])


def _reference_encode(codec, data):
    """The original list-comprehension encoder, kept as an oracle."""
    codeword = np.zeros(codec.codeword_bits, dtype=np.uint8)
    codeword[_reference_data_positions(codec)] = data
    for r in range(codec.check_bits):
        parity_pos = 1 << r
        covered = [p for p in range(1, codec.codeword_bits)
                   if (p & parity_pos) and p != parity_pos]
        codeword[parity_pos] = np.bitwise_xor.reduce(codeword[covered])
    codeword[0] = np.bitwise_xor.reduce(codeword[1:])
    return codeword


def _reference_decode(codec, codeword):
    """The original list-comprehension decoder, kept as an oracle."""
    codeword = np.asarray(codeword, dtype=np.uint8).copy()
    data_positions = _reference_data_positions(codec)
    syndrome = 0
    for r in range(codec.check_bits):
        parity_pos = 1 << r
        covered = [p for p in range(1, codec.codeword_bits)
                   if p & parity_pos]
        if np.bitwise_xor.reduce(codeword[covered]):
            syndrome |= parity_pos
    overall = int(np.bitwise_xor.reduce(codeword))
    if syndrome == 0 and overall == 0:
        return codeword[data_positions], DecodeStatus.OK
    if overall == 1:
        if 0 < syndrome < codec.codeword_bits:
            codeword[syndrome] ^= 1
        return codeword[data_positions], DecodeStatus.CORRECTED
    return codeword[data_positions], DecodeStatus.DETECTED


def _reference_evaluate_flips(codec, data, flip_positions):
    encoded = _reference_encode(codec, data)
    corrupted = encoded.copy()
    corrupted[np.asarray(flip_positions, dtype=int)] ^= 1
    decoded, status = _reference_decode(codec, corrupted)
    if status is DecodeStatus.DETECTED:
        return DecodeStatus.DETECTED
    if np.array_equal(decoded, encoded[_reference_data_positions(codec)]):
        return status
    return DecodeStatus.MISCORRECTED


class TestSecdedCachedTables:
    """The cached index tables reproduce the original codec exactly."""

    def _flip_sets(self):
        rng = np.random.default_rng(99)
        singles = [(p,) for p in range(72)]
        doubles = list(itertools.combinations(range(72), 2))
        multis = [tuple(rng.choice(72, size=int(rng.integers(3, 7)),
                                   replace=False)) for __ in range(200)]
        assert len(singles) == 72 and len(doubles) == 2556
        return singles + doubles + multis

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_codec(self, seed):
        data = np.random.default_rng(seed).integers(
            0, 2, 64).astype(np.uint8)
        encoded = _codec.encode(data)
        assert np.array_equal(encoded, _reference_encode(_codec, data))
        for flips in self._flip_sets():
            positions = np.array(flips)
            corrupted = encoded.copy()
            corrupted[positions] ^= 1
            decoded, status = _codec.decode(corrupted)
            ref_decoded, ref_status = _reference_decode(_codec, corrupted)
            assert status is ref_status, flips
            assert np.array_equal(decoded, ref_decoded), flips
            assert (_codec.evaluate_flips(data, positions)
                    is _reference_evaluate_flips(_codec, data, positions))

    def test_tables_built_once(self):
        codec = SecdedCodec()
        assert codec._data_positions is codec._data_positions
        assert codec._parity_groups is codec._parity_groups


class TestHamming74:
    codec = Hamming74Codec()

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=4,
                    max_size=4))
    @settings(max_examples=32)
    def test_clean_roundtrip(self, bits):
        nibble = np.array(bits, dtype=np.uint8)
        decoded, status = self.codec.decode(self.codec.encode(nibble))
        assert status is DecodeStatus.OK
        assert np.array_equal(decoded, nibble)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=4,
                    max_size=4),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=60)
    def test_single_error_corrected(self, bits, position):
        nibble = np.array(bits, dtype=np.uint8)
        codeword = self.codec.encode(nibble)
        codeword[position] ^= 1
        decoded, status = self.codec.decode(codeword)
        assert status is DecodeStatus.CORRECTED
        assert np.array_equal(decoded, nibble)

    def test_storage_overhead_is_75_percent(self):
        """Section 8.1: 3 parity bits per 4 data bits."""
        assert self.codec.storage_overhead == 0.75

    def test_words_per_row(self):
        assert self.codec.words_per_row(8192) == 2048

    def test_wrong_widths_rejected(self):
        with pytest.raises(ValueError):
            self.codec.encode(np.zeros(5, dtype=np.uint8))
        with pytest.raises(ValueError):
            self.codec.decode(np.zeros(8, dtype=np.uint8))


class TestClassification:
    @pytest.mark.parametrize("flips,expected", [
        (0, "clean"),
        (1, "correctable"),
        (2, "detectable_uncorrectable"),
        (3, "potentially_undetectable"),
        (16, "potentially_undetectable"),
    ])
    def test_classes(self, flips, expected):
        assert classify_flip_count(flips) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_flip_count(-1)
