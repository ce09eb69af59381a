"""Counter-based deterministic sampling streams and Wilson intervals.

Monte Carlo reproducibility contract: every random draw is a pure function
of (seed, sample_index, counter), so partitioning a sample budget across
any number of workers merges to byte-identical results.  The generator is
a splitmix64-style finalizer chain -- not cryptographic, but plenty for
Monte Carlo and stable across platforms/versions (pure integer ops).

Because every word is a pure function of its coordinates (the
counter-based design of Salmon et al., SC 2011), `retention_masks` draws a
whole block of samples at once with numpy uint64 arithmetic, which wraps
exactly like the `& _M64` of the scalar chain.  It works in chunks of at
most `MASK_CHUNK_WORDS` words (0.5 MB per uint64 temporary) and yields the
same masks and stream bases as `retention_mask` and `stream_base`, which
stay as the reference definition of the stream.  numpy is imported on the
first block, so `import cycsets.sampling` does not load it.

`stream_below` and `stream_pick` draw word k of a stream from its base and
k, with no object, for a caller that keeps its own counter: the rotation
engine in `hamilton`, whose extension step is one `stream_pick` call.
`stream_pick` counts its mask once, draws the rank, and hands both to
`bitgraph.nth_bit`, the one rank-select.
"""

from __future__ import annotations

from statistics import NormalDist

from .bitgraph import nth_bit

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_TAG = 0xD6E8FEB86659FD93
_COUNTER_MUL = 0xC2B2AE3D27D4EB4F
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB

# Words drawn per numpy chunk in `retention_masks`: 2^16 uint64 = 0.5 MB.
MASK_CHUNK_WORDS = 1 << 16

# 99% two-sided normal quantile, fixed once for Wilson intervals.
Z99 = NormalDist().inv_cdf(0.995)


def _mix(z: int) -> int:
    z &= _M64
    z = (z ^ (z >> 30)) * _MIX_MUL1 & _M64
    z = (z ^ (z >> 27)) * _MIX_MUL2 & _M64
    return z ^ (z >> 31)


def stream_base(seed: int, sample_index: int) -> int:
    """Per-(seed, sample) base state; cheap to derive per counter word."""
    return _mix(_mix((seed & _M64) ^ _SEED_TAG) ^ (sample_index * _GOLDEN & _M64))


def stream_word(base: int, counter: int) -> int:
    """counter-th 64-bit word of the stream with the given base state."""
    return _mix(base ^ (counter * _COUNTER_MUL & _M64))


def stream_below(base: int, counter: int, n: int) -> int:
    """Uniform int in [0, n) from word `counter` of the stream with the
    given base (multiply-shift; bias < n/2^64).

    The word is mixed here in one frame: `stream_word` inlined.  A draw
    from a single value (n = 1) is 0 for any word, so it skips the mixing;
    the caller still spends its word."""
    if n == 1:
        return 0
    z = base ^ (counter * _COUNTER_MUL & _M64)
    z = (z ^ (z >> 30)) * _MIX_MUL1 & _M64
    z = (z ^ (z >> 27)) * _MIX_MUL2 & _M64
    return (z ^ (z >> 31)) * n >> 64


def stream_pick(base: int, counter: int, mask: int) -> int:
    """The set bit of a nonempty mask of rank `stream_below(base, counter,
    popcount)`, drawn and selected in one call: `stream_below` inlined,
    then `nth_bit` given the popcount counted here, so the mask is counted
    once."""
    n = mask.bit_count()
    if n == 1:
        return mask.bit_length() - 1
    z = base ^ (counter * _COUNTER_MUL & _M64)
    z = (z ^ (z >> 30)) * _MIX_MUL1 & _M64
    z = (z ^ (z >> 27)) * _MIX_MUL2 & _M64
    return nth_bit(mask, (z ^ (z >> 31)) * n >> 64, n)


class StreamRng:
    """Sequential convenience wrapper over the counter-based stream: the
    k-th draw reads word k, `stream_word(base, k)`."""

    __slots__ = ("_base", "_ctr")

    def __init__(self, seed: int, sample_index: int):
        self._base = stream_base(seed, sample_index)
        self._ctr = 0

    def below(self, n: int) -> int:
        """Uniform int in [0, n): `stream_below` on the next word."""
        ctr = self._ctr
        self._ctr = ctr + 1
        return stream_below(self._base, ctr, n)


def retention_mask(seed: int, sample_index: int, m: int, p_num: int, p_den: int) -> int:
    """Vertex-retention sample: keep vertex v iff U_v < p, as an m-bit mask.

    The comparison U < p is done in exact integers (64-bit uniform numerator
    against the rational p), so p = 0 and p = 1 are exact and every worker
    computes the identical mask for the same (seed, sample_index).
    """
    base = stream_base(seed, sample_index)
    threshold = p_num << 64
    mask = 0
    for v in range(m):
        if stream_word(base, v) * p_den < threshold:
            mask |= 1 << v
    return mask


def _mix_inplace(z) -> None:
    """`_mix` on a numpy uint64 array, in place; multiplication wraps mod 2^64."""
    import numpy as np

    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_MUL2)
    z ^= z >> np.uint64(31)


def retention_masks(seed: int, lo: int, hi: int, m: int, p_num: int, p_den: int):
    """Yield (retention_mask(seed, i, ...), stream_base(seed, i)) for
    i = lo .. hi-1, drawn a block of samples at a time.

    The scalar test word * p_den < p_num * 2^64 is the same as the integer
    threshold word < ceil(p_num * 2^64 / p_den); a threshold of 2^64 or more
    (p >= 1) keeps every vertex.  Rows are packed little-endian, so bit v of
    each mask is vertex v.
    """
    import numpy as np

    threshold = -(-(p_num << 64) // p_den)
    seed_state = np.uint64(_mix((seed & _M64) ^ _SEED_TAG))
    counters = np.arange(m, dtype=np.uint64) * np.uint64(_COUNTER_MUL)
    row_bytes = (m + 7) // 8
    rows = max(1, MASK_CHUNK_WORDS // max(m, 1))
    for start in range(lo, hi, rows):
        count = min(rows, hi - start)
        bases = np.arange(start, start + count, dtype=np.uint64) * np.uint64(_GOLDEN)
        bases ^= seed_state
        _mix_inplace(bases)
        if threshold > _M64:
            masks = [(1 << m) - 1] * count
        else:
            words = bases[:, None] ^ counters[None, :]
            _mix_inplace(words)
            keep = words < np.uint64(max(threshold, 0))
            packed = np.packbits(keep, axis=1, bitorder="little")
            buf = packed.tobytes()
            masks = [
                int.from_bytes(buf[r * row_bytes : (r + 1) * row_bytes], "little")
                for r in range(count)
            ]
        yield from zip(masks, bases.tolist())


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 99% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    z = Z99
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * ((phat * (1 - phat) / trials + z2 / (4 * trials * trials)) ** 0.5) / denom
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    return (lo, hi)
