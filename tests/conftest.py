"""Shared brute-force oracles and small fixture graphs.

The oracles here are deliberately primitive (plain backtracking, no
bitmask DP, no memoisation) or come from networkx, so they are independent
of the algorithms under test.  `reference_reach_rounds` is the subset DP's
own definition, run one popcount layer and one visited set at a time, and
`reference_table`, the OR of its layers, is the reference the bit-parallel
kernel's fixpoint must equal; `expand_table` turns the kernel's twin-class
states back into per-vertex masks to compare them, and
`reference_exact_decision` is the exact decider on the reference table,
its work the reference's states counted by twin class and class counts.
`reference_subsets_by_size` weighs the kernel's states one at a time.
`twin_planted_graph` draws graphs made of twin classes for both, and
`join_planted_graph` complete bipartite graphs with a path-and-cycle graph
inside one part, for the auto decider's join tier.
`reference_toughness_cut` is the toughness refuter's candidate search
with no gate and no prunes, and `reference_cut_vertices` finds cut
vertices by deleting each vertex and counting components.
`refute_scope` and `join_scope` run the refuter and the join tier
themselves on the twin-class map and sorted degrees, built as the auto
decider builds them; `joined_class` finds the join tier's twin class by
its plain definition.
`closure_is_complete` computes the Bondy–Chvátal closure by its plain
rule, an oracle for the auto decider's degree tier.  The
`planted_*` generators draw the classifier's test graphs from the
package's seeded streams; only the tests classify them.  `low_near_bipartite` and `low_two_cliques` put
vertices of low crossing or side degree into the dense-regime builders'
instances, so their arms, cherries and connectors run.  Likewise only the
tests list a graph's edges, build complete graphs and cycles, relabel a
graph or delete its edges, so those helpers live here too.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import networkx as nx

from cycsets import hamilton
from cycsets.bitgraph import Cut, Graph, VertexSet, bits_of, twin_classes
from cycsets.instances import _sample_distinct, near_bipartite_instance
from cycsets.sampling import StreamRng
from cycsets.structures import LinearForest


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


def closure_is_complete(g: Graph, mask: int) -> bool:
    """Whether the Bondy–Chvátal closure of g[mask] is complete: join
    non-adjacent u, v while d(u) + d(v) >= s, degrees in the graph built so
    far, until no pair qualifies.  A complete closure proves the scope of
    s >= 3 vertices Hamiltonian (Bondy and Chvátal 1976)."""
    verts = [v for v in range(g.m) if mask >> v & 1]
    s = len(verts)
    nbrs = {v: {u for u in verts if u != v and g.has_edge(u, v)} for v in verts}
    added = True
    while added:
        added = False
        for u, v in combinations(verts, 2):
            if v not in nbrs[u] and len(nbrs[u]) + len(nbrs[v]) >= s:
                nbrs[u].add(v)
                nbrs[v].add(u)
                added = True
    return all(len(nbrs[v]) == s - 1 for v in verts)


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
    """The reach-set DP one popcount layer at a time, one visited set at a
    time.

    Holds reach[M] as a Python set per mask M and extends every path by one
    vertex per round, then packs round t, the layer |M| = t, as the ints R_w
    with bit M set iff w is in reach[M].  It always gives round 1 and stops
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


def reference_table(adj: list[int], seed: int) -> list[int]:
    """The OR of the `reference_reach_rounds` layers: bit M of R_w is set
    iff w is in reach[M], whatever |M|."""
    table = [0] * len(adj)
    for reach in reference_reach_rounds(adj, seed):
        for w, r in enumerate(reach):
            table[w] |= r
    return table


def expand_table(q) -> list[int]:
    """The table of a `subsetdp.Quotient` as per-vertex ints: bit M of R_w
    is set iff w is in M and the state of M is set in R_j for w's class j.

    The state of M is the sum over w in M of the weight of w's digit.  The
    result is what `reference_table` gives when the quotient is right.
    """
    k = len(q.digit)
    state = [0] * (1 << k)
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        state[mask] = state[mask ^ 1 << low] + q.weight[q.digit[low]]
    table = q.table()
    return [
        sum(1 << mask for mask in range(1 << k)
            if mask >> w & 1 and table[q.digit[w]] >> state[mask] & 1)
        for w in range(k)
    ]


def reference_subsets_by_size(q, x: int) -> list[int]:
    """What `subsetdp.Quotient.subsets_by_size` gives, one state at a time:
    each set bit of x is decoded into its class counts c_C, by divmod over
    q.classes in digit order (digit j has radix |C_j| + 1), and adds
    prod binom(|C|, c_C) at sum c_C."""
    out = [0] * (len(q.digit) + 1)
    for state in bits_of(x):
        size, sets = 0, 1
        for c in q.classes:
            state, d = divmod(state, len(c) + 1)
            size += d
            sets *= comb(len(c), d)
        out[size] += sets
    return out


def reference_exact_decision(g: Graph, scope_mask: int) -> tuple[str, tuple | None, int]:
    """(status, cycle order or None, work) of the per-vertex exact DP on
    g[scope]: anchored at the lowest scope vertex, and the certificate
    backtracked from the full mask, each step taking the lowest vertex w
    next to the one after it with w in reach[M].  Built on
    `reference_table`, one visited set at a time.  work counts the distinct
    pairs (class of w, counts of M in every class) over the states (M, w)
    with w in reach[M], where a class is a set of free vertices with the
    same free neighbours and the same adjacency to the anchor; on a
    twin-free scope that is sum |reach[M]|."""
    verts = list(bits_of(scope_mask))
    s = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [sum(1 << idx[u] for u in bits_of(g.rows[v] & scope_mask)) for v in verts]
    free_adj = [a >> 1 for a in adj[1:]]
    seed = adj[0] >> 1
    table = reference_table(free_adj, seed)
    classes: dict[tuple[int, int], int] = {}
    for w, a in enumerate(free_adj):
        classes[a, seed >> w & 1] = classes.get((a, seed >> w & 1), 0) | 1 << w
    work = len({
        (classes[a, seed >> w & 1], tuple((mask & c).bit_count() for c in classes.values()))
        for w, (a, r) in enumerate(zip(free_adj, table)) for mask in bits_of(r)
    })
    mask = (1 << (s - 1)) - 1
    want = seed
    order = []
    while mask:
        p = next((w for w in bits_of(want) if table[w] >> mask & 1), None)
        if p is None:
            return "not_hamiltonian", None, work
        order.append(p + 1)
        mask ^= 1 << p
        want = free_adj[p]
    order.append(0)
    return "hamiltonian", tuple(verts[i] for i in reversed(order)), work


def reference_toughness_cut(g: Graph, scope_mask: int) -> int:
    """The toughness refuter's plain candidate search, with no degree gate
    and no prunes: the first X in order such that g[S] - X has more than
    |X| components, or 0.  The order: the lone neighbour of the first
    vertex of scope-degree 1; for a disconnected scope, the lowest vertex
    of its first largest component; the smaller colour class of an
    unbalanced connected bipartite scope; then, for each twin class C (equal
    N(v) & S) in order of its lowest vertex, C and then N_S(C).  Every
    candidate is checked by listing the components of g[S - X]."""
    verts = list(bits_of(scope_mask))
    nbrs = [g.rows[v] & scope_mask for v in verts]
    candidates = [x for x in nbrs if x.bit_count() == 1][:1]
    comps = list(g.components(scope_mask))
    if len(comps) > 1:
        big = max(comps, key=int.bit_count)
        candidates.append(big & -big)
    else:
        colour = {verts[0]: 0}
        queue = [verts[0]]
        for v in queue:
            for u in bits_of(g.rows[v] & scope_mask):
                if u not in colour:
                    colour[u] = 1 - colour[v]
                    queue.append(u)
        sides = [sum(1 << v for v in verts if colour[v] == c) for c in (0, 1)]
        bipartite = all(
            colour[u] != colour[v] for v in verts for u in bits_of(g.rows[v] & scope_mask)
        )
        small, large = sorted(sides, key=int.bit_count)
        if bipartite and small.bit_count() < large.bit_count():
            candidates.append(small)
    classes: dict[int, int] = {}
    for v, x in zip(verts, nbrs):
        classes[x] = classes.get(x, 0) | 1 << v
    for x, cls in classes.items():
        candidates += [cls, x]
    for x in candidates:
        if x and len(list(g.components(scope_mask & ~x))) > x.bit_count():
            return x
    return 0


def _classes_and_degrees(g: Graph, scope_mask: int) -> tuple[dict[int, int], list[int]]:
    """The twin-class map and sorted degrees of g[scope], built as
    `decide_hamiltonian_auto` builds them from one read of the scope rows."""
    srows = hamilton._scope_rows(g.rows, scope_mask)
    return twin_classes(scope_mask, srows), sorted(map(int.bit_count, srows))


def refute_scope(g: Graph, scope_mask: int) -> hamilton.NotHamCert | None:
    """`hamilton.refute_toughness` on g[scope], given the twin-class map
    and sorted degrees as `decide_hamiltonian_auto` builds them."""
    return hamilton.refute_toughness(g, scope_mask, *_classes_and_degrees(g, scope_mask))


def join_scope(g: Graph, scope_mask: int) -> hamilton.HamDecision | None:
    """The auto decider's join tier (`hamilton._join_decision`) on
    g[scope], given the twin-class map and sorted degrees as the decider
    builds them."""
    return hamilton._join_decision(g, scope_mask, *_classes_and_degrees(g, scope_mask))


def joined_class(g: Graph, scope_mask: int) -> int:
    """The first twin class C of g[S], in order of its lowest vertex, that
    is joined: every member of C is adjacent to every vertex of a nonempty
    T = S - C, and no vertex of T has more than two neighbours in T.  0
    when there is none.  By the plain definition: vertex sets and
    `has_edge`, every pair looked at."""
    verts = list(bits_of(scope_mask))
    nbrs = {v: frozenset(u for u in verts if g.has_edge(u, v)) for v in verts}
    for v in verts:
        cls = [u for u in verts if nbrs[u] == nbrs[v]]
        if cls[0] != v:
            continue  # the class was tried at its lowest vertex
        rest = [u for u in verts if u not in cls]
        if (
            rest
            and all(g.has_edge(c, u) for c in cls for u in rest)
            and all(sum(g.has_edge(u, w) for w in rest) <= 2 for u in rest)
        ):
            return sum(1 << c for c in cls)
    return 0


def reference_cut_vertices(g: Graph, scope_mask: int) -> int:
    """The vertices whose deletion leaves g[scope] with more components."""
    whole = len(list(g.components(scope_mask)))
    return sum(
        1 << v for v in bits_of(scope_mask)
        if len(list(g.components(scope_mask & ~(1 << v)))) > whole
    )


def twin_planted_graph(m: int, seed: int) -> Graph:
    """A random graph on m vertices made of twin classes: a stdlib-random
    base graph whose vertices are blown up into independent sets of one to
    three vertices with the same neighbourhood, then relabelled at random."""
    rnd = random.Random(seed)
    sizes = []
    while sum(sizes) < m:
        sizes.append(min(rnd.choice([1, 1, 2, 3]), m - sum(sizes)))
    base = random_graph(len(sizes), seed, p=0.55)
    owner = [i for i, c in enumerate(sizes) for _ in range(c)]
    perm = list(range(m))
    rnd.shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(m) for v in range(u + 1, m)
             if base.has_edge(owner[u], owner[v])]
    return Graph.from_edges(m, edges)


def join_planted_graph(a: int, b: int, seed: int) -> Graph:
    """K_{a,b} with a stdlib-random graph of maximum degree at most 2 added
    inside the part of a vertices (each pair taken with probability 0.6
    while both ends have fewer than two such edges), then relabelled at
    random."""
    rnd = random.Random(seed)
    m = a + b
    edges = [(u, v) for u in range(a) for v in range(a, m)]
    deg = [0] * a
    pairs = list(combinations(range(a), 2))
    rnd.shuffle(pairs)
    for u, v in pairs:
        if deg[u] < 2 and deg[v] < 2 and rnd.random() < 0.6:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    perm = list(range(m))
    rnd.shuffle(perm)
    return Graph.from_edges(m, [(perm[u], perm[v]) for u, v in edges])


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


def low_near_bipartite(m: int, seed: int) -> tuple[Graph, Cut, LinearForest]:
    """`near_bipartite_instance(m, seed)` with the crossing degree of a few
    vertices cut to m // 6 (below m/5, so low for the near-bipartite
    builder, and at least m/10): one or two ends of the witness paths, when
    there is a witness, two vertices of X off the witness and two of Y.
    Each keeps a random m // 6 of its crossing neighbours; a later cut may
    take one more edge from an earlier one."""
    g, cut, forest = near_bipartite_instance(m, seed)
    rng = StreamRng(seed, 1)
    amask, bmask = cut.x.mask, cut.y.mask
    ends = [v for path in forest.paths() for v in (path[0], path[-1])]
    low = _sample_distinct(rng, ends, 1 + rng.below(2)) if ends else []
    low += _sample_distinct(rng, list(bits_of(amask & ~forest.vertex_mask())), 2)
    low += _sample_distinct(rng, list(bits_of(bmask)), 2)
    rows = list(g.rows)
    for v in low:
        nbrs = list(bits_of(rows[v] & (bmask if amask >> v & 1 else amask)))
        for w in _sample_distinct(rng, nbrs, len(nbrs) - m // 6):
            rows[v] ^= 1 << w
            rows[w] ^= 1 << v
    return Graph(m, tuple(rows)), cut, forest


def low_two_cliques(at_end: bool, seed: int) -> tuple[Graph, Cut]:
    """Two complete sides of 1000 vertices (m = 2000) joined by a random
    crossing matching of 2 to 5 edges, with one vertex of each side cut to
    side degree 600 = 0.3m, low for the two-cliques builder: 399 missing
    side edges against the regime's m^2/10^4 = 400.  With `at_end` the low
    vertices are ends of the two crossing edges the builder takes (the
    lowest matched vertex of X and its partner), so each side path starts
    or ends with an arm; otherwise they are unmatched, and each gets a
    cherry."""
    m, half = 2000, 1000
    rng = StreamRng(seed, 0)
    xmask = (1 << half) - 1
    ymask = ((1 << m) - 1) ^ xmask
    rows = [(xmask if v < half else ymask) & ~(1 << v) for v in range(m)]
    k = 2 + rng.below(4)
    xs = _sample_distinct(rng, list(range(half)), k)
    ys = _sample_distinct(rng, list(range(half, m)), k)
    for u, v in zip(xs, ys):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if at_end:
        low = [min(xs), ys[xs.index(min(xs))]]
    else:
        low = [
            _sample_distinct(rng, [v for v in range(half) if v not in xs], 1)[0],
            _sample_distinct(rng, [v for v in range(half, m) if v not in ys], 1)[0],
        ]
    for v in low:
        side = list(bits_of(rows[v] & (xmask if v < half else ymask)))
        for w in _sample_distinct(rng, side, len(side) - 600):
            rows[v] ^= 1 << w
            rows[w] ^= 1 << v
    return Graph(m, tuple(rows)), Cut(VertexSet(xmask, m), VertexSet(ymask, m))
