"""The anchored reach-set DP (Bellman 1962; Held and Karp 1962), shared by
exact counting and the exact Hamiltonicity decider.

Fix an anchor vertex outside a universe of k local vertices 0..k-1.  For a
mask M over the universe, reach[M] is the set of w in M that end a path
which starts at the anchor and visits exactly {anchor} + M.  The table is
built in pull form, one popcount layer at a time: w is in reach[M] iff
w is in M and reach[M - w] meets N(w), and the singletons are seeded from
the anchor's neighbours.  Each layer reads only the layer below it (and,
for w outside M, the still-empty entry of M itself), so the whole layer is
a batch of numpy gathers with no write conflicts.

The table holds 4 * 2^k bytes, and the masks in layer order, cached for
the widest k used so far, another 4 * 2^k.  Widths above TABLE_MAX_BITS
(32 MB of table) are refused before anything is allocated.  numpy is
imported here, on first use, so importing the package does not pay for it.
"""

from __future__ import annotations

from math import comb

from .errors import BudgetExceededError

TABLE_MAX_BITS = 23
_CHUNK = 1 << 10  # masks per gather block: keeps the k x chunk temporaries small


# masks by popcount for the widest k built so far; a narrower width's layers
# are prefixes of these (see masks_by_popcount)
_widest: tuple = ()


def masks_by_popcount(k: int) -> list:
    """Layer j lists every k-bit mask with j bits set, as read-only uint32.

    Width k+1 extends width k: its layer j is layer j of width k followed
    by layer j-1 with bit k set.  So width k's layers are prefixes of any
    wider width's, and one cached table of 4 * 2^K bytes, for the widest K
    asked for, serves every narrower width by slicing.
    """
    import numpy as np

    global _widest
    layers = _widest
    if len(layers) <= k:
        grown = list(layers) or [np.zeros(1, dtype=np.uint32)]
        for b in range(len(grown) - 1, k):
            top = np.uint32(1 << b)
            grown = (
                [grown[0]]
                + [np.concatenate((grown[j], grown[j - 1] | top)) for j in range(1, b + 1)]
                + [grown[b] | top]
            )
        for arr in grown:
            arr.flags.writeable = False
        _widest = layers = tuple(grown)
    return [layers[j][: comb(k, j)] for j in range(k + 1)]


def reach_table(adj: list[int], seed: int):
    """(reach, states): reach[M] for every mask over len(adj) local
    vertices, as uint32, and the number of states sum |reach[M]|.

    adj[w] is N(w) within the universe, seed is N(anchor) within it.
    Raises BudgetExceededError, before allocating, above TABLE_MAX_BITS.
    """
    k = len(adj)
    if k > TABLE_MAX_BITS:
        raise BudgetExceededError(
            f"subset-DP table budget: {k} free vertices > {TABLE_MAX_BITS} "
            f"(the table would take {4 << k} bytes)"
        )
    import numpy as np

    layers = masks_by_popcount(k)
    shifts = np.arange(k, dtype=np.uint32)[:, None]
    bits = np.uint32(1) << shifts
    drop = bits ^ np.uint32((1 << k) - 1)  # row w clears bit w of a mask
    nbr = np.array(adj, dtype=np.uint32)[:, None]
    reach = np.zeros(1 << k, dtype=np.uint32)
    reach[bits[:, 0]] = bits[:, 0] & np.uint32(seed)
    states = (seed & ((1 << k) - 1)).bit_count()
    for layer in layers[2:]:
        for lo in range(0, len(layer), _CHUNK):
            masks = layer[lo : lo + _CHUNK]
            ends = reach[drop & masks]  # row w: reach[M - w], or 0 if w not in M
            ends &= nbr
            np.minimum(ends, 1, out=ends)
            states += int(np.count_nonzero(ends))
            ends <<= shifts
            reach[masks] = np.bitwise_or.reduce(ends, axis=0)
    return reach, states
