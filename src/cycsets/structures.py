"""Certified combinatorial primitives on bitgraphs.

Matchings (a greedy maximal one), vertex covers (exact branch and bound)
and linear forests, the witnesses the near-bipartite builder takes.  Every
structure can be re-validated against its host graph; tie-breaking is
lowest-vertex-index-first throughout so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitgraph import Graph, VertexSet, bits_of
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


def min_vertex_cover_exact(
    g: Graph,
    scope: VertexSet,
    node_budget: int = DEFAULT_NODE_BUDGET,
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
    cover = VertexCover(VertexSet(orig, g.m), scope)
    cover.validate(g)
    return cover
