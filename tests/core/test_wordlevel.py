"""Tests for the Section 8 word-level / ECC analysis."""

from typing import Dict

import numpy as np
import pytest

from repro.core.wordlevel import (_distribute_flips, secded_outcomes,
                                  word_level_study)
from repro.dram.cell_model import WORD_BITS, WORD_CLUSTER_ALPHA


@pytest.fixture(scope="module")
def study():
    from repro.chips.profiles import make_chip

    return word_level_study(make_chip(4), rows_per_channel=512)


class TestHistogram:
    def test_all_patterns_present(self, study):
        assert set(study.histogram) == {
            "Rowstripe0", "Rowstripe1", "Checkered0", "Checkered1"}

    def test_buckets_structure(self, study):
        for buckets in study.histogram.values():
            assert set(buckets) == {1, 2, 3}
            assert all(v >= 0 for v in buckets.values())

    def test_substantial_words_beyond_secded(self, study):
        """Section 8: words with >2 bitflips are plentiful (974,935 of
        18M, i.e. ~5%, for Checkered0 in the paper)."""
        beyond = study.words_beyond_secded("Checkered0")
        fraction = beyond / study.total_words
        assert 0.005 < fraction < 0.15

    def test_most_flipped_words_have_multiple_flips(self, study):
        """'Most words with at least one bitflip actually have more than
        one' (Section 8.1)."""
        assert study.multi_flip_fraction("Checkered0") > 0.5

    def test_max_flips_reaches_double_digits(self, study):
        """The paper finds a word with 16 bitflips."""
        assert study.max_flips["Checkered0"] >= 8

    def test_max_flips_bounded_by_word(self, study):
        assert all(value <= 64 for value in study.max_flips.values())

    def test_secded_classes(self, study):
        classes = study.secded_classes("Checkered0")
        assert classes["correctable"] == study.histogram["Checkered0"][1]
        assert classes["potentially_undetectable"] == \
            study.histogram["Checkered0"][3]


class TestSecdedOutcomes:
    def test_outcomes_sum(self, study):
        outcomes = secded_outcomes(study, "Checkered0", sample_size=200)
        total = (outcomes.ok + outcomes.corrected + outcomes.detected
                 + outcomes.miscorrected)
        assert total == outcomes.sampled_words == 200

    def test_single_flips_always_corrected(self, study):
        outcomes = secded_outcomes(study, "Checkered0", sample_size=300)
        assert outcomes.corrected > 0

    def test_silent_failures_exist(self, study):
        """>2-flip words can silently miscorrect — the security payload
        of the Section 8 argument."""
        outcomes = secded_outcomes(study, "Checkered0", sample_size=400)
        assert outcomes.miscorrected > 0
        assert outcomes.silent_failure_fraction > 0.0


def _reference_distribute_flips(flips_per_row, words_per_row, rng,
                                alpha=WORD_CLUSTER_ALPHA) -> Dict[int, int]:
    """The original per-row loop, kept verbatim as the equivalence oracle."""
    histogram: Dict[int, int] = {}
    for flips in flips_per_row:
        if flips <= 0:
            continue
        weights = rng.gamma(alpha, size=words_per_row)
        total = weights.sum()
        if total <= 0:
            weights = np.full(words_per_row, 1.0 / words_per_row)
        else:
            weights = weights / total
        counts = rng.multinomial(int(flips), weights)
        counts = np.minimum(counts, WORD_BITS)
        for value in counts[counts > 0]:
            histogram[int(value)] = histogram.get(int(value), 0) + 1
    return histogram


class _ZeroGammaGenerator:
    """Generator stand-in whose Gamma draws are all zero, forcing the
    uniform-weight fallback; every other draw goes to a real stream."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)

    def gamma(self, alpha, size=None):
        return np.zeros(size)

    def standard_gamma(self, alpha, size=None):
        return np.zeros(size)

    def multinomial(self, n, pvals):
        return self.inner.multinomial(n, pvals)


def _assert_same_draws(flips, words_per_row, seed, **kwargs):
    """New tally == reference tally, and both leave ``rng`` in the same
    state (same generator calls in the same order)."""
    reference_rng = np.random.default_rng(seed)
    expected = _reference_distribute_flips(flips, words_per_row,
                                           reference_rng, **kwargs)
    rng = np.random.default_rng(seed)
    actual = _distribute_flips(flips, words_per_row, rng, **kwargs)
    assert actual == expected
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return actual


class TestDistributeFlipsEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 37, 2024])
    def test_random_rows_with_zero_rows(self, seed):
        source = np.random.default_rng(1000 + seed)
        flips = source.binomial(8192, 0.01, size=300)
        flips[source.random(300) < 0.3] = 0
        flips[5] = -1
        histogram = _assert_same_draws(flips, 128, seed)
        assert histogram and 0 not in histogram

    @pytest.mark.parametrize("seed", [0, 3])
    def test_other_alpha(self, seed):
        flips = np.random.default_rng(seed).integers(0, 40, size=100)
        _assert_same_draws(flips, 16, seed, alpha=2.5)

    @pytest.mark.parametrize("flips", [np.zeros(50, dtype=np.int64),
                                       np.zeros(0, dtype=np.int64)])
    def test_all_zero_rows(self, flips):
        assert _assert_same_draws(flips, 128, 11) == {}

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_word_bits_clipping(self, seed):
        flips = np.random.default_rng(seed).integers(100, 400, size=40)
        histogram = _assert_same_draws(flips, 2, seed)
        assert max(histogram) == WORD_BITS

    @pytest.mark.parametrize("seed", [0, 4])
    def test_zero_gamma_fallback(self, seed):
        flips = np.random.default_rng(seed).integers(0, 90, size=60)
        reference_rng = _ZeroGammaGenerator(seed)
        expected = _reference_distribute_flips(flips, 8, reference_rng)
        rng = _ZeroGammaGenerator(seed)
        assert _distribute_flips(flips, 8, rng) == expected
        assert (rng.inner.bit_generator.state
                == reference_rng.inner.bit_generator.state)
