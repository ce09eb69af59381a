"""Certified combinatorial primitives on bitgraphs.

Matchings, vertex covers (Konig dual + exact branch-and-bound), linear
forests (exact subset-DP and an edge-coloring lower bound) and k-good
cuts.  Every returned structure can be re-validated against
its host graph; tie-breaking is lowest-vertex-index-first throughout so all
outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .bitgraph import Cut, Graph, VertexSet, bits_of
from .errors import BudgetExceededError, PreconditionError

DEFAULT_NODE_BUDGET = 10**7


def _find(parent: dict[int, int], x: int) -> int:
    """Root of x in a union-find forest kept as a dict (path halving)."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


@dataclass(frozen=True)
class Matching:
    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertex_mask(self) -> int:
        m = 0
        for u, v in self.edges:
            m |= (1 << u) | (1 << v)
        return m

    def validate(self, g: Graph, scope_mask: int | None = None) -> None:
        seen = 0
        for u, v in self.edges:
            if not g.has_edge(u, v):
                raise PreconditionError(f"matching pair ({u},{v}) is not an edge")
            pair = (1 << u) | (1 << v)
            if seen & pair:
                raise PreconditionError(f"vertex reused in matching at ({u},{v})")
            if scope_mask is not None and pair & ~scope_mask:
                raise PreconditionError(f"matching edge ({u},{v}) leaves the scope")
            seen |= pair


@dataclass(frozen=True)
class VertexCover:
    vertices: VertexSet
    scope: VertexSet | None = None
    alpha: float | None = None  # size / sqrt(ref_n) when a reference n was supplied

    @property
    def size(self) -> int:
        return self.vertices.size

    def validate(self, g: Graph) -> None:
        scope_mask = self.scope.mask if self.scope is not None else g.full_mask()
        cov = self.vertices.mask
        if cov & ~scope_mask:
            raise PreconditionError("cover contains vertices outside its scope")
        for v in bits_of(scope_mask & ~cov):
            if g.rows[v] & scope_mask & ~cov:
                u = next(bits_of(g.rows[v] & scope_mask & ~cov))
                raise PreconditionError(f"edge ({v},{u}) not covered")


@dataclass(frozen=True)
class LinearForest:
    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertex_mask(self) -> int:
        m = 0
        for u, v in self.edges:
            m |= (1 << u) | (1 << v)
        return m

    def validate(self, g: Graph, scope_mask: int | None = None) -> None:
        deg: dict[int, int] = {}
        parent: dict[int, int] = {}
        for u, v in self.edges:
            if not g.has_edge(u, v):
                raise PreconditionError(f"forest pair ({u},{v}) is not an edge")
            if scope_mask is not None and ((1 << u) | (1 << v)) & ~scope_mask:
                raise PreconditionError(f"forest edge ({u},{v}) leaves the scope")
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
            if deg[u] > 2 or deg[v] > 2:
                raise PreconditionError(f"degree > 2 at forest edge ({u},{v})")
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                raise PreconditionError(f"cycle closed by forest edge ({u},{v})")
            parent[ru] = rv

    def paths(self) -> list[list[int]]:
        """The forest's paths as vertex lists (each path from its lower end)."""
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen: set[int] = set()
        out = []
        ends = sorted(v for v, nb in adj.items() if len(nb) == 1)
        for e in ends:
            if e in seen:
                continue
            path = [e]
            seen.add(e)
            cur, prev = e, None
            while True:
                nxt = [w for w in adj[cur] if w != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                path.append(cur)
                seen.add(cur)
            out.append(path)
        return out


# ---------------------------------------------------------------------------
# matchings and covers
# ---------------------------------------------------------------------------


def greedy_maximal_matching(g: Graph, scope: VertexSet) -> Matching:
    """Maximal (not maximum) matching in g[scope] by lexicographic edge scan."""
    used = 0
    out = []
    smask = scope.mask
    for u in bits_of(smask):
        if used >> u & 1:
            continue
        cand = g.rows[u] & smask & ~used
        cand &= ~((1 << (u + 1)) - 1)  # only v > u; lower v already scanned
        if cand:
            v = next(bits_of(cand))
            out.append((u, v))
            used |= (1 << u) | (1 << v)
    return Matching(tuple(out))


def hopcroft_karp(g: Graph, left: VertexSet, right: VertexSet) -> Matching:
    """Maximum matching of the bipartite restriction g[left, right]."""
    L = left.members()
    R = right.members()
    rmask = right.mask
    INF = float("inf")
    match_l: dict[int, int | None] = {u: None for u in L}
    match_r: dict[int, int | None] = {v: None for v in R}

    def bfs() -> bool:
        from collections import deque

        dist = {}
        q = deque()
        for u in L:
            if match_l[u] is None:
                dist[u] = 0
                q.append(u)
        found = False
        while q:
            u = q.popleft()
            for v in bits_of(g.rows[u] & rmask):
                w = match_r[v]
                if w is None:
                    found = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        bfs.dist = dist  # type: ignore[attr-defined]
        return found

    def dfs(u: int) -> bool:
        dist = bfs.dist  # type: ignore[attr-defined]
        for v in bits_of(g.rows[u] & rmask):
            w = match_r[v]
            if w is None or (dist.get(w) == dist.get(u, INF) + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in L:
            if match_l[u] is None:
                dfs(u)
    edges = tuple(
        (u, match_l[u]) if u < match_l[u] else (match_l[u], u)  # type: ignore[operator]
        for u in L
        if match_l[u] is not None
    )
    return Matching(edges)


def konig_min_cover(g: Graph, left: VertexSet, right: VertexSet) -> tuple[Matching, VertexCover]:
    """Maximum matching + minimum vertex cover of g[left, right] via Konig.

    Rejects inputs whose restriction has an intra-part edge.
    """
    if left.mask & right.mask:
        raise PreconditionError("left/right overlap")
    for side in (left.mask, right.mask):
        for u in bits_of(side):
            if g.rows[u] & side:
                v = next(bits_of(g.rows[u] & side))
                raise PreconditionError(f"intra-part edge ({u},{v}) in bipartite restriction")
    matching = hopcroft_karp(g, left, right)
    matched_of = {}
    for u, v in matching.edges:
        # orient: which endpoint is on the left
        lu = u if left.contains(u) else v
        rv = v if lu == u else u
        matched_of[lu] = rv
        matched_of[rv] = lu
    rmask = right.mask
    # Z = unmatched-left plus everything alternating-reachable from it
    frontier = [u for u in left.members() if u not in matched_of]
    z = 0
    for u in frontier:
        z |= 1 << u
    while frontier:
        nxt = []
        for u in frontier:
            for v in bits_of(g.rows[u] & rmask):
                if z >> v & 1:
                    continue
                z |= 1 << v
                w = matched_of.get(v)
                if w is not None and not z >> w & 1:
                    z |= 1 << w
                    nxt.append(w)
        frontier = nxt
    cover_mask = (left.mask & ~z) | (right.mask & z)
    cover = VertexCover(VertexSet(cover_mask, g.m), VertexSet(left.mask | right.mask, g.m))
    cover.validate(g.bipartite_restriction(left.mask, right.mask))
    if cover.size != matching.size:
        raise AssertionError("Konig equality violated (implementation bug)")
    return matching, cover


def min_vertex_cover_exact(
    g: Graph,
    scope: VertexSet,
    node_budget: int = DEFAULT_NODE_BUDGET,
    ref_n: int | None = None,
) -> VertexCover:
    """Exact minimum vertex cover of g[scope] by branch and bound.

    Greedy-matching lower bounds, pendant reductions, direct solution once
    max degree <= 2; branches on the highest-degree vertex (include it, or
    include its whole neighborhood).  Raises BudgetExceededError carrying
    best-known bounds if the node budget runs out.
    """
    sub, verts = g.induced(scope.mask)
    s = sub.m
    full = (1 << s) - 1
    rows = sub.rows

    # greedy 2-approximation as the initial incumbent
    greedy = greedy_maximal_matching(sub, VertexSet.full(s))
    best_mask = greedy.vertex_mask()
    best_size = best_mask.bit_count()
    nodes = 0

    def matching_lb(mask: int) -> int:
        used = 0
        cnt = 0
        for u in bits_of(mask):
            if used >> u & 1:
                continue
            cand = rows[u] & mask & ~used & ~((1 << (u + 1)) - 1)
            if cand:
                v = next(bits_of(cand))
                used |= (1 << u) | (1 << v)
                cnt += 1
        return cnt

    def solve_deg2(mask: int) -> int:
        """Optimal cover mask of a union of paths/cycles (all degrees <= 2)."""
        out = 0
        seen = 0
        for v in bits_of(mask):
            if seen >> v & 1:
                continue
            deg_v = (rows[v] & mask).bit_count()
            if deg_v == 0:
                seen |= 1 << v
                continue
            if deg_v == 1:
                # walk the path from this end, covering every second vertex
                comp = [v]
                seen |= 1 << v
                prev, cur = None, v
                while True:
                    nxts = rows[cur] & mask & ~seen
                    if not nxts:
                        break
                    cur = next(bits_of(nxts))
                    seen |= 1 << cur
                    comp.append(cur)
                for i in range(1, len(comp), 2):
                    out |= 1 << comp[i]
            # cycles handled when reached from branching; find them anyway
        for v in bits_of(mask & ~seen):
            if seen >> v & 1:
                continue
            # remaining components are cycles: ceil(k/2) alternating vertices
            comp = [v]
            seen |= 1 << v
            cur = v
            while True:
                nxts = rows[cur] & mask & ~seen
                if not nxts:
                    break
                cur = next(bits_of(nxts))
                seen |= 1 << cur
                comp.append(cur)
            k = len(comp)
            cmask = 1 << comp[0]
            taken = 1
            i = 2
            while taken < (k + 1) // 2:
                cmask |= 1 << comp[i % k]
                taken += 1
                i += 2
            out |= cmask
        return out

    def rec(mask: int, acc_mask: int, acc: int) -> None:
        nonlocal best_mask, best_size, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                "vertex-cover node budget exceeded",
                lower=acc + matching_lb(mask),
                upper=best_size,
            )
        # reductions: drop isolated, force pendant neighbors
        changed = True
        while changed:
            changed = False
            for v in bits_of(mask):
                d = (rows[v] & mask).bit_count()
                if d == 0:
                    mask &= ~(1 << v)
                    changed = True
                elif d == 1:
                    u = next(bits_of(rows[v] & mask))
                    acc_mask |= 1 << u
                    acc += 1
                    mask &= ~((1 << v) | (1 << u))
                    changed = True
                    break
        if acc >= best_size:
            return
        if not mask:
            if acc < best_size:
                best_size, best_mask = acc, acc_mask
            return
        if acc + matching_lb(mask) >= best_size:
            return
        degs = [((rows[v] & mask).bit_count(), v) for v in bits_of(mask)]
        dmax, vmax = max(degs, key=lambda t: (t[0], -t[1]))
        if dmax <= 2:
            cov = solve_deg2(mask)
            tot = acc + cov.bit_count()
            if tot < best_size:
                best_size, best_mask = tot, acc_mask | cov
            return
        # branch 1: vmax in the cover
        rec(mask & ~(1 << vmax), acc_mask | (1 << vmax), acc + 1)
        # branch 2: all neighbors of vmax in the cover
        nb = rows[vmax] & mask
        rec(mask & ~nb & ~(1 << vmax), acc_mask | nb, acc + nb.bit_count())

    rec(full, 0, 0)
    orig = 0
    for i in bits_of(best_mask):
        orig |= 1 << verts[i]
    alpha = best_size / sqrt(ref_n) if ref_n else None
    cover = VertexCover(VertexSet(orig, g.m), scope, alpha)
    cover.validate(g)
    return cover


# ---------------------------------------------------------------------------
# linear forests
# ---------------------------------------------------------------------------


def _path_cycle_forest(rows, comp) -> list[tuple[int, int]] | None:
    """If the component is a path or cycle, its max linear forest directly."""
    verts = list(bits_of(comp))
    degs = [(rows[v] & comp).bit_count() for v in verts]
    if any(d > 2 for d in degs):
        return None
    ends = [v for v, d in zip(verts, degs) if d == 1]
    start = min(ends) if ends else verts[0]
    order = [start]
    seen = 1 << start
    cur = start
    while True:
        nxts = rows[cur] & comp & ~seen
        if not nxts:
            break
        cur = next(bits_of(nxts))
        order.append(cur)
        seen |= 1 << cur
    # path: all consecutive pairs; cycle: same (the closing edge is dropped)
    return [tuple(sorted((order[i], order[i + 1]))) for i in range(len(order) - 1)]


def _component_dp_forest(rows, comp) -> list[tuple[int, int]]:
    """Max linear forest of one component = min path cover via subset DP."""
    verts = list(bits_of(comp))
    s = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * s
    for i, v in enumerate(verts):
        for u in bits_of(rows[v] & comp):
            adj[i] |= 1 << idx[u]
    size = 1 << s
    INF = 0xFF
    dp = bytearray([INF]) * (size * s)
    for v in range(s):
        dp[(1 << v) * s + v] = 1
    full = size - 1
    for mask in range(1, size):
        base = mask * s
        rest = full ^ mask
        for last in bits_of(mask):
            c = dp[base + last]
            if c == INF:
                continue
            ext = adj[last] & rest
            for u in bits_of(ext):
                t = (mask | (1 << u)) * s + u
                if c < dp[t]:
                    dp[t] = c
            c1 = c + 1
            for u in bits_of(rest):
                t = (mask | (1 << u)) * s + u
                if c1 < dp[t]:
                    dp[t] = c1
    base = full * s
    best_last = min(range(s), key=lambda v: (dp[base + v], v))
    # backtrack by recomputing predecessors
    edges = []
    mask, last = full, best_last
    while mask:
        c = dp[mask * s + last]
        prev_mask = mask & ~(1 << last)
        if not prev_mask:
            break
        done = False
        for u in bits_of(adj[last] & prev_mask):
            if dp[prev_mask * s + u] == c:  # extended path edge u-last
                edges.append((verts[u], verts[last]) if verts[u] < verts[last] else (verts[last], verts[u]))
                mask, last = prev_mask, u
                done = True
                break
        if not done:
            for u in bits_of(prev_mask):
                if dp[prev_mask * s + u] == c - 1:  # new path was opened at last
                    mask, last = prev_mask, u
                    done = True
                    break
        if not done:
            raise AssertionError("path-cover backtrack failed (bug)")
    return edges


def max_linear_forest_exact(g: Graph, scope: VertexSet) -> LinearForest:
    """Maximum-size linear forest of g[scope] (exact, |scope| <= 20).

    Solved as minimum path cover per connected component; forest edges =
    |component| - #paths summed over components.
    """
    if scope.size > 20:
        raise BudgetExceededError(f"max_linear_forest_exact budget: |scope|={scope.size} > 20")
    edges: list[tuple[int, int]] = []
    for comp in g.components(scope.mask):
        if comp.bit_count() == 1:
            continue
        direct = _path_cycle_forest(g.rows, comp)
        edges.extend(direct if direct is not None else _component_dp_forest(g.rows, comp))
    forest = LinearForest(tuple(sorted(edges)))
    forest.validate(g, scope.mask)
    return forest


def _break_cycles(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edges have max degree <= 2; drop the lex-largest edge of each cycle."""
    parent: dict[int, int] = {}
    kept = []
    for e in sorted(edges):
        u, v = e
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            continue  # this edge would close its cycle; it is the one dropped
        parent[ru] = rv
        kept.append(e)
    return kept


def _greedy_extend(g: Graph, scope_mask: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    deg: dict[int, int] = {}
    parent: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        parent[_find(parent, u)] = _find(parent, v)
    out = list(edges)
    for u in bits_of(scope_mask):
        if deg.get(u, 0) >= 2:
            continue
        for v in bits_of(g.rows[u] & scope_mask & ~((1 << (u + 1)) - 1)):
            if deg.get(u, 0) >= 2:
                break
            if deg.get(v, 0) >= 2:
                continue
            if (u, v) in out:
                continue
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                continue
            parent[ru] = rv
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
            out.append((u, v))
    return out


def linear_forest_lower_bound(
    g: Graph, scope: VertexSet, eps0: Fraction = Fraction(1, 4)
) -> LinearForest:
    """Linear forest of guaranteed size floor(e / ceil((1+eps0)*Delta/2)).

    Greedy edge coloring into matchings, color classes paired into
    max-degree-2 systems, cycles broken, the best class greedily extended to
    maximality.  The slack eps0 (default 1/4) absorbs the small-Delta cases
    where the asymptotic (1+eps)Delta/2 decomposition bound is not yet tight.
    """
    smask = scope.mask
    all_edges = [
        (u, v)
        for u in bits_of(smask)
        for v in bits_of(g.rows[u] & smask & ~((1 << (u + 1)) - 1))
    ]
    e = len(all_edges)
    if e == 0:
        return LinearForest(())
    delta = max((g.rows[v] & smask).bit_count() for v in bits_of(smask))
    num = (1 + eps0) * delta
    classes_needed = -((-num.numerator) // (2 * num.denominator))  # ceil(num/2)
    bound = e // classes_needed

    # greedy proper edge coloring, lexicographic edge order
    color_at: dict[int, int] = {}  # vertex -> bitmask of colors used
    classes: list[list[tuple[int, int]]] = []
    for u, v in all_edges:
        used = color_at.get(u, 0) | color_at.get(v, 0)
        c = (~used & -~used).bit_length() - 1  # lowest zero bit
        while len(classes) <= c:
            classes.append([])
        classes[c].append((u, v))
        color_at[u] = color_at.get(u, 0) | 1 << c
        color_at[v] = color_at.get(v, 0) | 1 << c

    candidates: list[list[tuple[int, int]]] = []
    for i in range(0, len(classes), 2):
        pair = classes[i] + (classes[i + 1] if i + 1 < len(classes) else [])
        candidates.append(_break_cycles(pair))
    best = max(candidates, key=len)
    best = _greedy_extend(g, smask, best)
    forest = LinearForest(tuple(sorted(best)))
    forest.validate(g, smask)
    if forest.size < bound:
        raise AssertionError(
            f"linear forest lower bound missed: {forest.size} < {bound} (bug)"
        )
    return forest


@dataclass(frozen=True)
class GoodCutResult:
    good: bool
    definite: bool
    witness: LinearForest | None
    side: str | None  # 'x' or 'y': which side carries the witness


def is_k_good_cut(g: Graph, cut: Cut, k: int, exact: bool = True) -> GoodCutResult:
    """Is (X, Y) a k-good cut: larger side holds a linear forest with
    >= k + ||X|-|Y|| edges?

    exact=True uses the subset-DP forest (budget: that side <= 20 vertices);
    otherwise the lower-bound forest, in which case a False is tagged
    indefinite (the bound may simply have missed).
    """
    if k < 0:
        raise PreconditionError("k must be >= 0")
    sides = []
    if cut.x.size >= cut.y.size:
        sides.append(("x", cut.x, k + cut.x.size - cut.y.size))
    if cut.y.size >= cut.x.size:
        sides.append(("y", cut.y, k + cut.y.size - cut.x.size))
    indefinite_false = False
    for name, side, target in sides:
        if target == 0:
            return GoodCutResult(True, True, LinearForest(()), name)
        if exact:
            forest = max_linear_forest_exact(g, side)
        else:
            forest = linear_forest_lower_bound(g, side)
        if forest.size >= target:
            return GoodCutResult(True, True, forest, name)
        if not exact:
            indefinite_false = True
    return GoodCutResult(False, not indefinite_false, None, None)
