"""Counter-based streams: the block mask generator, the sequential
`StreamRng` and the one-call draws against the scalar reference definition
of the stream."""

from __future__ import annotations

import pytest

from cycsets import sampling
from cycsets.bitgraph import bits_of
from cycsets.sampling import (
    StreamRng,
    retention_mask,
    retention_masks,
    stream_base,
    stream_below,
    stream_pick,
    stream_word,
)

PROBABILITIES = [(0, 1), (1, 3), (1, 2), (7, 10), (1, 1)]


def _reference(seed, lo, hi, m, p_num, p_den):
    return [(retention_mask(seed, i, m, p_num, p_den), stream_base(seed, i)) for i in range(lo, hi)]


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 600])
@pytest.mark.parametrize("p_num,p_den", PROBABILITIES)
def test_block_masks_match_the_scalar_stream(m, p_num, p_den):
    for seed, lo, hi in ((0, 0, 5), (12345, 3, 11), (-7, 2**40, 2**40 + 3)):
        got = list(retention_masks(seed, lo, hi, m, p_num, p_den))
        assert got == _reference(seed, lo, hi, m, p_num, p_den)


def test_block_masks_across_chunk_boundaries():
    # m = 600 packs 109 samples per chunk, so 50..400 spans four chunks
    rows = sampling.MASK_CHUNK_WORDS // 600
    lo, hi = 50, 400
    assert lo // rows != (hi - 1) // rows
    assert list(retention_masks(9, lo, hi, 600, 1, 2)) == _reference(9, lo, hi, 600, 1, 2)


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65])
@pytest.mark.parametrize("p_num,p_den", PROBABILITIES)
def test_block_masks_with_small_chunks(monkeypatch, m, p_num, p_den):
    # chunks of one or a few rows exercise every chunk edge at small m
    monkeypatch.setattr(sampling, "MASK_CHUNK_WORDS", 130)
    got = list(retention_masks(4, 7, 40, m, p_num, p_den))
    assert got == _reference(4, 7, 40, m, p_num, p_den)


def test_block_masks_empty_range_and_smallest_threshold():
    assert list(retention_masks(1, 5, 5, 10, 1, 2)) == []
    assert list(retention_masks(1, 6, 5, 10, 1, 2)) == []
    # the smallest positive threshold is exact too: keep iff word * den < 2^64
    tiny = list(retention_masks(3, 0, 50, 64, 1, 1 << 64))
    assert tiny == _reference(3, 0, 50, 64, 1, 1 << 64)


@pytest.mark.parametrize("n", [1, 2, 3, 2**32 + 1, 2**63, 2**64 - 1])
def test_below_is_multiply_shift_of_the_reference_word(n):
    for seed, index in ((0, 0), (12345, 7), (-7, 2**40)):
        rng = StreamRng(seed, index)
        base = stream_base(seed, index)
        got = [rng.below(n) for _ in range(40)]
        assert got == [(stream_word(base, ctr) * n) >> 64 for ctr in range(40)]
        assert all(0 <= x < n for x in got)


def test_below_one_still_counts_its_word():
    # interleaved single-value draws must leave every other draw on the
    # word it would read without the shortcut
    rng, base = StreamRng(3, 1), stream_base(3, 1)
    got = [rng.below(1 if ctr % 3 else 1000) for ctr in range(30)]
    want = [0 if ctr % 3 else (stream_word(base, ctr) * 1000) >> 64 for ctr in range(30)]
    assert got == want


@pytest.mark.parametrize(
    "mask",
    [0b1, 1 << 70, 0b1011, (1 << 9) - 1, (1 << 64) - 1, (1 << 600) - 1 - (1 << 300),
     sum(1 << v for v in range(0, 600, 7))],
    ids=["one_bit", "one_high_bit", "three", "nine", "word", "600_bits", "every_7th"],
)
def test_stream_pick_is_the_ranked_bit_of_the_reference_draw(mask):
    # ranks below 8 and from 8 up, masks within one word and over ten
    bits = list(bits_of(mask))
    for seed, index in ((0, 0), (12345, 7), (-7, 2**40)):
        base = stream_base(seed, index)
        for ctr in range(60):
            rank = stream_word(base, ctr) * len(bits) >> 64
            assert stream_pick(base, ctr, mask) == bits[rank]
            assert stream_below(base, ctr, len(bits)) == rank
