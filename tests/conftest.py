"""Shared brute-force oracles and small fixture graphs.

The oracles here are deliberately primitive (plain backtracking, no
bitmask DP, no memoisation) or come from networkx, so they are independent
of the algorithms under test.  `reference_reach_rounds` is the subset DP's
own definition, run one visited set at a time, kept as the reference the
bit-parallel kernel must equal.  The `planted_*` generators draw the
classifier's test graphs from the package's seeded streams; only the tests
classify them.  Likewise only the tests list a graph's edges, build
complete graphs and cycles, relabel a graph or delete its edges, so those
helpers live here too.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx

from cycsets.bitgraph import Graph, bits_of
from cycsets.instances import _sample_distinct
from cycsets.sampling import StreamRng


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.m))
    h.add_edges_from(edge_list(g))
    return h


def isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism oracle: networkx's VF2 on the two edge lists."""
    return nx.is_isomorphic(to_networkx(g), to_networkx(h))


def brute_has_ham_cycle(g: Graph, verts: list[int]) -> bool:
    """Backtracking search for a cycle through exactly `verts`."""
    n = len(verts)
    if n < 3:
        return False
    vset = set(verts)
    adj = {v: [u for u in vset if u != v and g.has_edge(v, u)] for v in vset}
    start = verts[0]
    used = {start}

    def extend(v: int, depth: int) -> bool:
        if depth == n:
            return g.has_edge(v, start)
        for w in adj[v]:
            if w not in used:
                used.add(w)
                if extend(w, depth + 1):
                    return True
                used.remove(w)
        return False

    return extend(start, 1)


def brute_cyclic_count(g: Graph) -> int:
    """Number of S ⊆ V(g) whose induced subgraph has a Hamilton cycle."""
    count = 0
    for mask in range(1 << g.m):
        verts = [v for v in range(g.m) if mask >> v & 1]
        if brute_has_ham_cycle(g, verts):
            count += 1
    return count


def brute_max_linear_forest(g: Graph, verts: list[int]) -> int:
    """Max edge count of a linear forest in g[verts], by edge-subset search."""
    edges = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if g.has_edge(u, v)
    ]
    best = 0
    for emask in range(1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if emask >> i & 1]
        if len(chosen) <= best:
            continue
        deg: dict[int, int] = {}
        parent = {v: v for v in verts}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in chosen:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
            if deg[u] > 2 or deg[v] > 2:
                ok = False
                break
            ru, rv = find(u), find(v)
            if ru == rv:  # would close a cycle
                ok = False
                break
            parent[ru] = rv
        if ok:
            best = len(chosen)
    return best


def brute_min_vertex_cover(g: Graph, verts: list[int]) -> int:
    """Minimum vertex cover of g[verts] by subset enumeration."""
    edges = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if g.has_edge(u, v)
    ]
    if not edges:
        return 0
    for size in range(len(verts) + 1):
        for cmask in range(1 << len(verts)):
            if bin(cmask).count("1") != size:
                continue
            chosen = {verts[i] for i in range(len(verts)) if cmask >> i & 1}
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    return len(verts)


def brute_min_pair_edges(g: Graph) -> int:
    """Least e(A, B) = #{(a, b) in A x B : ab an edge} over every pair of
    half-sets (floor(m/2) or ceil(m/2) vertices each), overlap allowed."""
    sizes = {g.m // 2, (g.m + 1) // 2}
    halves = [c for k in sizes for c in combinations(range(g.m), k)]
    return min(sum(g.has_edge(a, b) for a in sa for b in sb) for sa in halves for sb in halves)


def reference_reach_rounds(adj: list[int], seed: int) -> list[list[int]]:
    """The rounds of `subsetdp.reach_rounds`, one visited set at a time.

    Holds reach[M] as a Python set per mask M and extends every path by one
    vertex per round, then packs round t as the ints R_w with bit M set iff
    w is in reach[M].  Like the kernel it always gives round 1 and stops
    before the first later round that is all zero.
    """
    k = len(adj)
    layer = {1 << w: {w} for w in range(k) if seed >> w & 1}
    rounds = []
    while True:
        rounds.append([sum(1 << mask for mask, ends in layer.items() if w in ends)
                       for w in range(k)])
        grown: dict[int, set[int]] = {}
        for mask, ends in layer.items():
            for u in ends:
                for w in range(k):
                    if adj[u] >> w & 1 and not mask >> w & 1:
                        grown.setdefault(mask | 1 << w, set()).add(w)
        if not grown or len(rounds) == k:
            return rounds
        layer = grown


def random_graph(m: int, seed: int, p: float = 0.5) -> Graph:
    """Erdos–Renyi graph from the stdlib RNG (independent of package RNG)."""
    rnd = random.Random(seed)
    edges = [
        (u, v) for u in range(m) for v in range(u + 1, m) if rnd.random() < p
    ]
    return Graph.from_edges(m, edges)


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """All edges (u, v) with u < v, lexicographic order."""
    return [(u, v) for u in range(g.m) for v in bits_of(g.rows[u] >> (u + 1) << (u + 1))]


def complete(m: int) -> Graph:
    full = (1 << m) - 1
    return Graph(m, tuple(full ^ (1 << v) for v in range(m)))


def cycle(m: int) -> Graph:
    assert m >= 3, "a cycle needs at least 3 vertices"
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex relabeling v -> perm[v]."""
    return Graph.from_edges(g.m, [(perm[u], perm[v]) for u, v in edge_list(g)])


def without_edges(g: Graph, edges) -> Graph:
    rows = list(g.rows)
    for u, v in edges:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph(g.m, tuple(rows))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def planted_two_cliques(m: int, seed: int) -> Graph:
    """Two complete halves joined by a crossing perfect matching; the
    minimum degree is exactly m/2, the sparse-cut regime for classify."""
    rng = StreamRng(seed, 0)
    half = m // 2
    xmask = (1 << half) - 1
    ymask = ((1 << m) - 1) ^ xmask
    rows = [(xmask if v < half else ymask) & ~(1 << v) for v in range(m)]
    shift = rng.below(half)
    for i in range(half):
        j = half + (i + shift) % half
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(m, tuple(rows))


def planted_near_bipartite(m: int, seed: int) -> Graph:
    """Complete bipartite halves plus a couple of within-side edges; min
    degree m/2, the dense-crossing regime for classify."""
    rng = StreamRng(seed, 0)
    half = m // 2
    xmask = (1 << half) - 1
    ymask = ((1 << m) - 1) ^ xmask
    rows = [ymask if v < half else xmask for v in range(m)]
    for _ in range(rng.below(3)):
        u, v = _sample_distinct(rng, list(range(half)), 2)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(m, tuple(rows))
