"""Seeded generators for in-regime test instances of the constructive
Hamiltonicity routines.

Each generator draws from the counter-based streams, builds an instance
satisfying the corresponding routine's preconditions, and asserts those
preconditions before returning -- a bad instance fails here, not inside
the routine under test.
"""

from __future__ import annotations

from .bitgraph import Cut, Graph, VertexSet, bits_of
from .sampling import StreamRng
from .structures import LinearForest


def _sample_distinct(rng: StreamRng, pool: list[int], k: int) -> list[int]:
    pool = list(pool)
    out = []
    for _ in range(k):
        i = rng.below(len(pool))
        out.append(pool.pop(i))
    return out


def two_cliques_instance(m: int, seed: int) -> tuple[Graph, Cut]:
    """Two near-complete sides of m/2 with a small crossing matching."""
    rng = StreamRng(seed, 0)
    half = m // 2
    xs = list(range(half))
    ys = list(range(half, m))
    xmask = (1 << half) - 1
    ymask = ((1 << m) - 1) ^ xmask
    rows = [(xmask if v < half else ymask) & ~(1 << v) for v in range(m)]
    removals = min(14, m * m // (2 * 10**4))
    for side in (xs, ys):
        dropped = 0
        while dropped < removals:
            u, v = _sample_distinct(rng, side, 2)
            if rows[u] >> v & 1:
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
                dropped += 1
    k = 2 + rng.below(4)
    for u, v in zip(_sample_distinct(rng, xs, k), _sample_distinct(rng, ys, k)):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g = Graph(m, tuple(rows))
    cut = Cut(VertexSet.of(m, xs), VertexSet.of(m, ys))
    for side in (cut.x.mask, cut.y.mask):
        assert 100 * side.bit_count() >= 49 * m
        assert all(100 * (g.rows[v] & side).bit_count() >= m for v in bits_of(side))
        assert 10**4 * g.non_edges_inside(side) <= m * m
    return g, cut


def near_bipartite_instance(m: int, seed: int) -> tuple[Graph, Cut, LinearForest]:
    """Slightly unbalanced sides, dense crossing graph, and a planted
    linear forest of exactly |X| - |Y| edges inside the larger side, in the
    builder's regime with eps = 1/100."""
    rng = StreamRng(seed, 0)
    dmax = (m // 100) // 2
    d = rng.below(dmax + 1)
    na = m // 2 + d
    xs = list(range(na))
    ys = list(range(na, m))
    xmask = (1 << na) - 1
    ymask = ((1 << m) - 1) ^ xmask
    rows = [ymask if v < na else xmask for v in range(m)]
    # delete crossing pairs, but stay above the density threshold
    slack = m * m // 100 - d * d
    for _ in range(rng.below(max(slack // 2, 1))):
        u = xs[rng.below(len(xs))]
        v = ys[rng.below(len(ys))]
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    picks = _sample_distinct(rng, xs, 4 * d) if d else []  # |X|-|Y| = 2d edges
    witness_edges = tuple(
        (min(picks[2 * i], picks[2 * i + 1]), max(picks[2 * i], picks[2 * i + 1]))
        for i in range(2 * d)
    )
    extra = list(witness_edges)
    for _ in range(4):  # distractor within-side edges the builder must ignore
        extra.append(tuple(_sample_distinct(rng, xs, 2)))
        extra.append(tuple(_sample_distinct(rng, ys, 2)))
    for u, v in extra:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g = Graph(m, tuple(rows))
    cut = Cut(VertexSet.of(m, xs), VertexSet.of(m, ys))
    forest = LinearForest(witness_edges)
    amask, bmask = cut.x.mask, cut.y.mask
    assert na - len(ys) == 2 * d <= m // 100
    assert 400 * g.edges_between(amask, bmask) >= 96 * m * m
    assert all((g.rows[v] & bmask).bit_count() * 10 >= m for v in bits_of(amask))
    assert all((g.rows[v] & amask).bit_count() * 10 >= m for v in bits_of(bmask))
    forest.validate(g, amask)
    return g, cut, forest


def dirac_instance(m: int, seed: int) -> tuple[Graph, int, int]:
    """Random graph repaired to min degree >= m/2 + 2, plus endpoints."""
    rng = StreamRng(seed, 0)
    rows = [0] * m
    for u in range(m):
        for v in range(u + 1, m):
            if rng.below(100) < 65:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    target = m // 2 + 2
    full = (1 << m) - 1
    for v in range(m):
        while rows[v].bit_count() < target:
            missing = list(bits_of(full & ~rows[v] & ~(1 << v)))
            w = missing[rng.below(len(missing))]
            rows[v] |= 1 << w
            rows[w] |= 1 << v
    g = Graph(m, tuple(rows))
    assert 2 * g.min_degree() >= m + 2
    a = rng.below(m)
    b = (a + 1 + rng.below(m - 1)) % m
    return g, a, b


def bipartite_instance(
    m: int, seed: int
) -> tuple[Graph, VertexSet, VertexSet, int, int]:
    """Balanced bipartite random graph repaired to crossing degree
    >= m/4 + 2, plus endpoints on opposite sides."""
    rng = StreamRng(seed, 0)
    half = m // 2
    rows = [0] * m
    for u in range(half):
        for v in range(half, m):
            if rng.below(100) < 65:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    lmask = (1 << half) - 1
    rmask = ((1 << m) - 1) ^ lmask
    target = m // 4 + 2
    for v in range(m):
        other = rmask if v < half else lmask
        while (rows[v] & other).bit_count() < target:
            missing = list(bits_of(other & ~rows[v]))
            w = missing[rng.below(len(missing))]
            rows[v] |= 1 << w
            rows[w] |= 1 << v
    g = Graph(m, tuple(rows))
    assert all(4 * (g.rows[v] & rmask).bit_count() >= m + 4 for v in bits_of(lmask))
    assert all(4 * (g.rows[v] & lmask).bit_count() >= m + 4 for v in bits_of(rmask))
    a = rng.below(half)
    b = half + rng.below(half)
    return g, VertexSet(lmask, m), VertexSet(rmask, m), a, b
