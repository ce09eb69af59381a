"""The anchored reach-set DP (Bellman 1962; Held and Karp 1962), shared by
exact counting and the exact Hamiltonicity decider.

Fix an anchor vertex outside a universe of k local vertices 0..k-1.  For a
mask M over the universe, reach[M] is the set of w in M that end a path
which starts at the anchor and visits exactly {anchor} + M.  The kernel
holds the table bit-parallel, in plain Python ints: R_w is a 2^k-bit int
with bit M set iff w is in reach[M].  It runs one round per popcount
layer.  Round 1 sets bit {w} of R_w for each neighbour w of the anchor,
and each later round is

    R_w <- ((OR over u in N(w) of R_u) & NOT_w) << 2^w,

where NOT_w has bit M set iff w is not in M: a path through M - w that
ends next to w extends to w.  Round t holds exactly the layer |M| = t, so
the sum of popcount(R_w) over all rounds is the number of states,
sum |reach[M]|.

A round holds k ints of 2^k bits, 23 * 2^23 / 8 = 24,117,248 bytes at
k = TABLE_MAX_BITS = 23, and the NOT_w masks take as much again.  While it
builds a round the kernel holds three such sets, 72,351,744 bytes at
k = 23; the exact decider keeps a fourth, the OR of all rounds, for
96,468,992 bytes.  Wider universes are refused before anything is
allocated.  The kernel needs no numpy.
"""

from __future__ import annotations

from .bitgraph import bits_of
from .errors import BudgetExceededError

TABLE_MAX_BITS = 23


def reach_rounds(adj: list[int], seed: int):
    """Iterator over the rounds t = 1..k of the kernel for len(adj) = k
    local vertices: round t is the list of R_w, the layer |M| = t.

    adj[w] is N(w) within the universe, seed is N(anchor) within it.  After
    round 1 the iterator ends at the first round that would be all zero,
    since every later round would be zero too.  Raises BudgetExceededError
    at the call, before allocating, above TABLE_MAX_BITS.
    """
    k = len(adj)
    if k > TABLE_MAX_BITS:
        raise BudgetExceededError(
            f"subset-DP table budget: {k} free vertices > {TABLE_MAX_BITS} "
            f"(one round would take {k << k >> 3} bytes)"
        )
    return _rounds(adj, seed)


def _rounds(adj: list[int], seed: int):
    k = len(adj)
    size = 1 << k
    nbrs = [list(bits_of(a)) for a in adj]
    without = []  # without[w] = NOT_w, built by doubling its period
    for w in range(k):
        x = (1 << (1 << w)) - 1
        period = 2 << w
        while period < size:
            x |= x << period
            period <<= 1
        without.append(x)
    cur = [1 << (1 << w) if seed >> w & 1 else 0 for w in range(k)]
    yield cur
    for _ in range(k - 1):
        nxt = []
        for w in range(k):
            acc = 0
            for u in nbrs[w]:
                acc |= cur[u]
            nxt.append((acc & without[w]) << (1 << w) if acc else 0)
        if not any(nxt):
            return
        cur = nxt
        yield cur
