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

Twins, vertices of equal N(w), are never adjacent, and N(w) is a union of
whole twin classes: if u is in N(w), so is every twin of u.  So each round
ORs the R_u of a class of two or more members once, builds the OR over
N(w) once per class from one value per class in it, and applies the mask
and shift to each member.  The rounds are the same as those of the
per-vertex formula, and a twin-free universe does exactly its ORs.  The
extremal family's part of size n-1, and each part of K_{n,n}, is one
class, which roughly halves the time of a count or decision there.

A round holds k ints of 2^k bits.  CPython stores 30 bits in every 4 bytes,
so one such int takes 1,118,508 bytes at k = TABLE_MAX_BITS = 23
(`sys.getsizeof`), and a round 25,725,684 bytes.  The NOT_w masks take as
much again.  While it builds a round the kernel holds three such sets and
at most two ints in flight: 3k + 2 ints, 79,414,068 bytes at k = 23.  Twin
classes add one int per class of two or more members, the class's OR, so
at most floor(k/2) ints, 12,303,588 bytes at k = 23.  They are released
before the round is yielded, and a twin-free universe allocates none, so
its peak stays 3k + 2 ints.  The exact decider keeps a fourth set, the OR
of all rounds: at most 4k + 2 + floor(k/2) ints, 117,443,340 bytes at
k = 23.  Wider universes are refused before anything is allocated.  The
kernel needs no numpy.

Its callers add one vertex, the anchor, to the universe, so both of them,
exact counts and the exact decider, take EXACT_BUDGET = TABLE_MAX_BITS + 1
= 24 vertices, and refuse more before they start.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .bitgraph import bits_of
from .errors import BudgetExceededError

TABLE_MAX_BITS = 23
EXACT_BUDGET = TABLE_MAX_BITS + 1  # the anchor plus the DP table's width


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
        # k ints of 2^k bits, each a 24-byte header and a 4-byte digit per 30 bits
        round_bytes = k * (24 + 4 * -(-(1 << k) // 30))
        raise BudgetExceededError(
            f"subset-DP table budget: {k} free vertices > {TABLE_MAX_BITS} "
            f"(one round would take {round_bytes} bytes)"
        )
    return _rounds(adj, seed)


def _rounds(adj: list[int], seed: int):
    k = len(adj)
    size = 1 << k
    classes: dict[int, list[int]] = {}  # N(w) -> its twin class, lowest first
    for w, a in enumerate(adj):
        classes.setdefault(a, []).append(w)
    firsts = sum(1 << members[0] for members in classes.values())
    # N(w) is a union of whole classes, so it reads each class at its lowest
    # member; a class of one is read from the round itself
    plan = [(list(bits_of(a & firsts)), members) for a, members in classes.items()]
    # classes of twins that some vertex sees, ORed once per round
    shared = [members for a, members in classes.items() if a and len(members) > 1]
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
        src = cur.copy()
        for members in shared:
            src[members[0]] = reduce(or_, [cur[u] for u in members])
        nxt = [0] * k
        for heads, members in plan:
            acc = 0
            for u in heads:
                acc |= src[u]
            if acc:
                for w in members:
                    nxt[w] = (acc & without[w]) << (1 << w)
        src = None  # the class unions die before the round is handed out
        if not any(nxt):
            return
        cur = nxt
        yield cur
