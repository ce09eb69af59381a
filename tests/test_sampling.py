"""Counter-based streams: the block mask generator against the scalar
reference definition of the stream."""

from __future__ import annotations

import pytest

from cycsets import sampling
from cycsets.sampling import retention_mask, retention_masks, stream_base

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
