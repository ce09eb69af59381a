"""Certified combinatorial primitives on bitgraphs.

Vertex covers (exact branch and bound on the scope's rows relabeled by
`bitgraph.local_rows`, bounded by a greedy maximal matching) and linear
forests, the witnesses the near-bipartite builder takes.  Both can be
re-validated against their host graph within a scope; tie-breaking is
lowest-vertex-index-first throughout so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitgraph import Graph, VertexSet, _add_edges, bits_of, local_rows, mask_of, path_cover
from .errors import BudgetExceededError, PreconditionError

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class VertexCover:
    vertices: VertexSet
    scope: VertexSet

    @property
    def size(self) -> int:
        return self.vertices.size

    def validate(self, g: Graph) -> None:
        scope_mask = self.scope.mask
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

    def validate(self, g: Graph, scope_mask: int) -> None:
        """Refuse the forest unless its edges are distinct edges of g
        between vertices of the scope, no vertex has three of them, and
        they close no cycle.  A graph of maximum degree 2 is a forest iff
        it has |V| - #components edges (`bitgraph.path_cover`); a repeated
        edge counts twice, so it closes a cycle."""
        rows = [0] * g.m
        _add_edges(g.m, rows, self.edges)
        mask = self.vertex_mask()
        for v in bits_of(mask):
            extra = rows[v] & ~g.rows[v]
            if extra:
                u = next(bits_of(extra))
                raise PreconditionError(f"forest pair ({v},{u}) is not an edge")
            if not scope_mask >> v & 1:
                raise PreconditionError(f"forest vertex {v} leaves the scope")
            if rows[v].bit_count() > 2:
                raise PreconditionError(f"degree > 2 at forest vertex {v}")
        if mask.bit_count() - len(path_cover(rows, mask)) != self.size:
            raise PreconditionError("cycle closed by the forest's edges")

    def paths(self) -> list[list[int]]:
        """The forest's paths as vertex lists, each from its lower end, in
        order of that end (`bitgraph.path_cover`)."""
        mask = self.vertex_mask()
        rows = [0] * mask.bit_length()
        _add_edges(len(rows), rows, self.edges)
        return path_cover(rows, mask)


# ---------------------------------------------------------------------------
# matchings and covers
# ---------------------------------------------------------------------------


def greedy_matching_mask(rows: tuple[int, ...], mask: int) -> int:
    """The vertices of a maximal (not maximum) matching of the graph with
    bit rows `rows` on the vertices of `mask`, by lexicographic edge scan:
    each unmatched u, lowest first, takes its lowest unmatched neighbour.

    The matching has popcount // 2 edges, a lower bound on every vertex
    cover, and its vertices are a cover of at most twice the minimum.
    """
    used = 0
    for u in bits_of(mask):
        if used >> u & 1:
            continue
        # only v > u; a lower neighbour was scanned already, so it is matched
        cand = rows[u] & mask & ~used & ~((1 << (u + 1)) - 1)
        if cand:
            used |= (1 << u) | (cand & -cand)
    return used


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
    rows, verts = local_rows(g.rows, scope.mask)
    full = (1 << len(rows)) - 1

    # greedy 2-approximation as the initial incumbent
    best_mask = greedy_matching_mask(rows, full)
    best_size = best_mask.bit_count()
    # a matching of the whole scope bounds every cover, whichever branch is open
    root_lower = best_size // 2
    nodes = 0

    def rec(mask: int, acc_mask: int, acc: int) -> None:
        nonlocal best_mask, best_size, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                "vertex-cover node budget exceeded", lower=root_lower, upper=best_size
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
        if acc + greedy_matching_mask(rows, mask).bit_count() // 2 >= best_size:
            return
        degs = [((rows[v] & mask).bit_count(), v) for v in bits_of(mask)]
        dmax, vmax = max(degs, key=lambda t: (t[0], -t[1]))
        if dmax <= 2:  # the reductions leave no degree below 2: only cycles
            # every second vertex round each cycle of k vertices, ceil(k/2)
            cov = mask_of(v for cyc in path_cover(rows, mask) for v in cyc[::2])
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
