"""Deterministic builders for the graph families under study.

The main family lives on 2n vertices: a complete bipartite graph between a
part A of size n+1 (indices 0..n) and an independent part B of size n-1,
plus a 2-factor (disjoint cycles, laid out consecutively) inside A.  The
result is (n+1)-regular.  Alongside it: balanced complete bipartite graphs,
a star-augmented variant, a star-packed competitor with n = k^2, and an
exhaustive up-to-isomorphism enumeration of all (n+1)-regular graphs on 2n
vertices for small n.  Every builder re-validates the degree properties it
promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bitgraph import Graph, VertexSet, mask_of
from .errors import BudgetExceededError, PreconditionError

REPAIR_STEPS = 10**6  # switchings pairing_model_repaired tries before it gives up


@dataclass(frozen=True)
class ExtremalGraph:
    n: int
    graph: Graph
    part_a: VertexSet
    part_b: VertexSet
    cycles: tuple[tuple[int, ...], ...]

    @cached_property
    def cycle_spans(self) -> tuple[tuple[int, int], ...]:
        """(offset, length) per cycle; cycles occupy consecutive indices."""
        return tuple((c[0], len(c)) for c in self.cycles)

    @cached_property
    def cycle_masks(self) -> tuple[int, ...]:
        """The vertex mask of each cycle."""
        return tuple(mask_of(c) for c in self.cycles)

    def validate(self) -> None:
        g, n = self.graph, self.n
        if g.m != 2 * n:
            raise PreconditionError("graph must live on 2n vertices")
        if self.part_a.size != n + 1 or self.part_b.size != n - 1:
            raise PreconditionError("parts must have sizes n+1 and n-1")
        if self.part_a.mask | self.part_b.mask != g.full_mask():
            raise PreconditionError("parts must cover the vertex set")
        if any(d != n + 1 for d in g.degrees()):
            raise PreconditionError("graph is not (n+1)-regular")
        bmask = self.part_b.mask
        for v in self.part_b.members():
            if g.rows[v] & bmask:
                raise PreconditionError("part B is not independent")
            if g.rows[v] != self.part_a.mask:
                raise PreconditionError("A x B is not complete bipartite")
        factor = [0] * g.m  # 2-factor neighbours of each vertex
        for cyc in self.cycles:
            if len(cyc) < 3:
                raise PreconditionError("cycle shorter than 3")
            for i, u in enumerate(cyc):
                v = cyc[(i + 1) % len(cyc)]
                if not g.has_edge(u, v):
                    raise PreconditionError(f"missing 2-factor edge ({u},{v})")
                factor[u] |= 1 << v
                factor[v] |= 1 << u
        # B is independent, so a declared cycle through B also meets A, and
        # there factor[a] holds a bit outside A
        amask = self.part_a.mask
        if any(g.rows[a] & amask != factor[a] for a in self.part_a.members()):
            raise PreconditionError("edges inside A are not exactly the 2-factor")
        # `cycle_spans` and `gn_criterion_mask` read each cycle as an index run
        for cyc in self.cycles:
            if tuple(cyc) != tuple(range(cyc[0], cyc[0] + len(cyc))):
                raise PreconditionError(f"cycle {cyc} is not on consecutive indices")


def gn_criterion_mask(eg: ExtremalGraph, smask: int) -> bool:
    """Exact cyclic-subset test for members of the extremal family, on the
    subset given by its vertex mask, O(#cycles) per call.

    With T = A-part survivors and d = |T| - |B-part survivors|: subsets
    smaller than 3 fail; B-free subsets succeed exactly when T is the whole
    vertex set of a single 2-factor cycle; otherwise success means d >= 0
    and the 2-factor edges induced on T (capped at len-1 for a fully chosen
    cycle) number at least d.  It reads only the parts and the cycle layout
    of `eg`, so its callers load no Hamiltonicity decider.
    """
    if smask >> eg.graph.m:
        raise PreconditionError("subset leaves the graph")
    if smask.bit_count() < 3:
        return False
    t = smask & eg.part_a.mask
    bcount = (smask & eg.part_b.mask).bit_count()
    if bcount == 0:
        return t in eg.cycle_masks
    d = t.bit_count() - bcount
    if d < 0:
        return False
    if d == 0:
        return True
    maxlf = 0
    for lo, ell in eg.cycle_spans:
        full = (1 << ell) - 1
        bits = (t >> lo) & full
        if not bits:
            continue
        if bits == full:
            maxlf += ell - 1
        else:
            rot = (bits >> 1) | ((bits & 1) << (ell - 1))
            maxlf += (bits & rot).bit_count()
        if maxlf >= d:
            return True
    return False


@dataclass(frozen=True)
class CompetitorGraph:
    k: int
    graph: Graph
    centers_left: VertexSet
    centers_right: VertexSet

    @property
    def n(self) -> int:
        return self.k * self.k

    def validate(self) -> None:
        g, n, k = self.graph, self.n, self.k
        if g.m != 2 * n:
            raise PreconditionError("graph must live on 2n vertices")
        if any(d != n + 1 for d in g.degrees()):
            raise PreconditionError("graph is not (n+1)-regular")
        if self.centers_left.size != k or self.centers_right.size != k:
            raise PreconditionError("need k centers per part")


def build_extremal(n: int, cycle_lengths: list[int]) -> ExtremalGraph:
    """Member of the extremal family with the requested 2-factor type."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    lengths = list(cycle_lengths)
    if any(ell < 3 for ell in lengths):
        raise PreconditionError(f"cycle lengths must be >= 3, got {lengths}")
    if sum(lengths) != n + 1:
        raise PreconditionError(
            f"cycle lengths must sum to n+1 = {n + 1}, got sum {sum(lengths)}"
        )
    m = 2 * n
    amask = (1 << (n + 1)) - 1
    bmask = ((1 << m) - 1) ^ amask
    rows = [bmask] * (n + 1) + [amask] * (n - 1)
    cycles = []
    off = 0
    for ell in lengths:
        cyc = tuple(range(off, off + ell))
        cycles.append(cyc)
        for i, u in enumerate(cyc):
            v = cyc[(i + 1) % ell]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        off += ell
    eg = ExtremalGraph(
        n, Graph(m, tuple(rows)), VertexSet(amask, m), VertexSet(bmask, m), tuple(cycles)
    )
    eg.validate()
    return eg


def build_knn(n: int) -> Graph:
    """Balanced complete bipartite graph, parts {0..n-1} and {n..2n-1}."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return Graph.complete_bipartite(n, n)


def build_star_augmented(n: int) -> Graph:
    """K_{n,n} plus two disjoint spanning stars in each part, centers joined.

    Within each part: a star on the first ceil(n/2) vertices and a star on
    the rest, plus an edge between the two centers.  Leaves end up with
    degree exactly n+1; centers exceed it, so the graph is irregular but
    has minimum degree >= n+1.
    """
    if n < 3:
        raise PreconditionError("n must be >= 3")
    g = build_knn(n)
    extra = []
    half = (n + 1) // 2
    for off in (0, n):
        c1, c2 = off, off + half
        extra.extend((c1, v) for v in range(off + 1, off + half))
        extra.extend((c2, v) for v in range(off + half + 1, off + n))
        extra.append((c1, c2))
    g = g.with_edges(extra)
    if g.min_degree() < n + 1:
        raise AssertionError("star augmentation broke the degree floor (bug)")
    return g


def build_competitor(k: int) -> CompetitorGraph:
    """Star-packed competitor on 2k^2 vertices, exactly (n+1)-regular.

    Each part is partitioned into k stars of k vertices (center first, then
    its k-1 leaves).  All crossing edges are present except a circulant
    (k-2)-regular pattern between the center sets: left center i misses
    right centers i+1, ..., i+k-2 (mod k).
    """
    if k < 3:
        raise PreconditionError("k must be >= 3")
    n = k * k
    m = 2 * n
    left = (1 << n) - 1
    rows = [left << n] * n + [left] * n
    for off in (0, n):
        for c in range(off, off + n, k):
            rows[c] |= ((1 << (k - 1)) - 1) << (c + 1)
            for leaf in range(c + 1, c + k):
                rows[leaf] |= 1 << c
    for i in range(k):
        u = i * k
        for d in range(1, k - 1):
            v = n + ((i + d) % k) * k
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
    cg = CompetitorGraph(
        k,
        Graph(m, tuple(rows)),
        VertexSet(mask_of(range(0, n, k)), m),
        VertexSet(mask_of(range(n, m, k)), m),
    )
    cg.validate()
    return cg


def _cycle_partitions(total: int) -> list[list[int]]:
    """Non-increasing partitions of total into parts >= 3."""
    out: list[list[int]] = []

    def rec(rest: int, cap: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(list(acc))
            return
        for part in range(min(cap, rest), 2, -1):
            if rest - part != 0 and rest - part < 3:
                continue
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(total, total, [])
    return out


def _disjoint_cycles(m: int, lengths: list[int]) -> Graph:
    rows = [0] * m
    off = 0
    for ell in lengths:
        for i in range(ell):
            u, v = off + i, off + (i + 1) % ell
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        off += ell
    return Graph(m, tuple(rows))


def enumerate_regular_complements(n: int) -> list[Graph]:
    """All (n+1)-regular graphs on 2n vertices, up to isomorphism.

    Generated through complements, which are (n-2)-regular: empty (n=2),
    a perfect matching (n=3), or a disjoint union of cycles (n=4).  Two
    2-regular graphs are isomorphic exactly when they have the same cycle
    lengths, so the n=4 complements, one per partition of 8 into parts
    >= 3 ([8], [5, 3], [4, 4]), are pairwise non-isomorphic and need no
    deduplication.  Beyond n=4 the complement is 3-regular or denser and
    this complement trick no longer enumerates anything, so larger n is
    rejected.
    """
    if n == 2:
        return [Graph.empty(4).complement()]
    if n == 3:
        pm = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        return [pm.complement()]
    if n == 4:
        return [_disjoint_cycles(8, part).complement() for part in _cycle_partitions(8)]
    raise PreconditionError(
        f"supported for n in {{2, 3, 4}} only (got n={n}); the (n-2)-regular "
        "complement is no longer a union of cycles beyond that"
    )


def _pairing(m: int, d: int, rng):
    """The pairs (u, v) of a uniform random perfect matching of the d
    points of each of m vertices, drawn lazily with rng (a StreamRng or
    random.Random-compatible object exposing below(n)): the last free
    point, then a uniform pick among the others, one draw per pair."""
    if m * d % 2:
        raise PreconditionError("m*d must be even")
    points = list(range(m * d))
    while points:
        a = points.pop()
        b = points.pop(rng.below(len(points)))
        yield a // d, b // d


def pairing_model_regular(m: int, d: int, rng) -> Graph | None:
    """One attempt at a d-regular simple graph on m vertices (pairing model).

    Each vertex gets d points; points are paired by a uniform random perfect
    matching (`_pairing`).  Returns None at the first loop or repeated
    edge, with no further draw; callers retry.
    """
    rows = [0] * m
    for u, v in _pairing(m, d, rng):
        if u == v or rows[u] >> v & 1:
            return None
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(m, tuple(rows))


def pairing_model_repaired(m: int, d: int, rng) -> Graph:
    """Pairing-model d-regular graph with defect-directed switchings.

    Whole-graph rejection dies for dense degrees (the chance of a simple
    pairing is about e^{-lam-lam^2}, lam = (d-1)/2 -- hopeless already at
    d ~ m/2).  Instead the defective pairs (loops, repeats) of one pairing
    (`_pairing`) are rejected individually: each is re-wired by a random
    degree-preserving double swap that strictly reduces the defect count,
    for at most REPAIR_STEPS steps.  Deterministic given rng; distribution is near-uniform, which is
    all the instance tests need.
    """
    pairs = list(_pairing(m, d, rng))
    mult: dict[tuple[int, int], int] = {}
    for u, v in pairs:
        mult[_key(u, v)] = mult.get(_key(u, v), 0) + 1

    def defective(uv: tuple[int, int]) -> bool:
        return uv[0] == uv[1] or mult[_key(*uv)] > 1

    for _ in range(REPAIR_STEPS):
        bad = [i for i, uv in enumerate(pairs) if defective(uv)]
        if not bad:
            break
        i = bad[rng.below(len(bad))]
        j = rng.below(len(pairs))
        if j == i:
            continue
        (u, v), (x, y) = pairs[i], pairs[j]
        if rng.below(2):
            x, y = y, x
        new1, new2 = (u, x), (v, y)
        if u == x or v == y:
            continue
        mult[_key(u, v)] -= 1
        mult[_key(x, y)] -= 1
        if (
            mult.get(_key(*new1), 0)
            or mult.get(_key(*new2), 0)
            or _key(*new1) == _key(*new2)
        ):
            mult[_key(u, v)] += 1
            mult[_key(x, y)] += 1
            continue
        pairs[i], pairs[j] = new1, new2
        mult[_key(*new1)] = mult.get(_key(*new1), 0) + 1
        mult[_key(*new2)] = mult.get(_key(*new2), 0) + 1
    else:
        raise BudgetExceededError("pairing repair did not converge")
    rows = [0] * m
    for u, v in pairs:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(m, tuple(rows))


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)
