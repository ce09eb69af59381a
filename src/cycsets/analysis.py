"""Structural analyzers: bi-density, the dense-graph trichotomy, and the
cut/cover bound checks.

Edge counts between vertex sets use the ordered-pair convention
e(A,B) = #{(a,b) in A x B : ab is an edge}, so overlapping sets count their
shared edges twice and e(A,B) = e(B,A) always.  Half-set means floor(m/2)
or ceil(m/2) vertices.

The classifier is a heuristic with exact witness verification: candidate
sets come from hill-climbing (sparsest cut for the two-cliques case, max
cut for the near-bipartite case), but a case is only returned after its
defining inequalities re-verify exactly on the candidate.  Up to
CLASSIFY_EXACT_MAX = 14 vertices everything is exhaustive.  Case order:
two_cliques, then bi_dense, then near_bipartite — the cases overlap, and
this order keeps complete graphs in bi_dense while balanced complete
bipartite graphs land in near_bipartite.

The split has two constants: eps, which the caller sets within
0 < eps <= 1/320, and GAMMA = 1/10, the near-bipartite case's least
crossing degree as a fraction of m/2.  The proof needs gamma >= 32*eps,
which eps <= 1/320 already gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .bitgraph import Cut, Graph, VertexSet, bits_of, mask_of
from .errors import PreconditionError
from .families import pairing_model_regular, pairing_model_repaired
from .sampling import StreamRng
from .structures import min_vertex_cover_exact

CLASSIFY_EXACT_MAX = 14
GAMMA = Fraction(1, 10)
CLIMB_RESTARTS = 4
# strict pairing-model draws random_regular_graph makes before it repairs
STRICT_PAIRING_TRIES = 60


@dataclass(frozen=True)
class BidenseReport:
    ok: bool
    minimum: int
    pair_a: VertexSet
    pair_b: VertexSet
    threshold: Fraction


def _half_sizes(m: int) -> tuple[int, ...]:
    lo, hi = m // 2, (m + 1) // 2
    return (lo,) if lo == hi else (lo, hi)


def _sample_subset(rng: StreamRng, m: int, k: int) -> int:
    arr = list(range(m))
    for i in range(k):
        j = i + rng.below(m - i)
        arr[i], arr[j] = arr[j], arr[i]
    return mask_of(arr[:k])


def _descend_pair(g: Graph, amask: int, bmask: int, rounds: int) -> tuple[int, int, int]:
    """Greedy single-swap descent minimizing e(A,B) at fixed sizes."""
    m = g.m
    full = g.full_mask()
    best = g.edges_between(amask, bmask)
    for _ in range(rounds):
        improved = False
        # best swap inside A (B fixed): e changes by |N(in)&B| - |N(out)&B|
        for cur, other, is_a in ((amask, bmask, True), (bmask, amask, False)):
            out_v, out_cost = -1, -1
            for v in bits_of(cur):
                c = (g.rows[v] & other).bit_count()
                if c > out_cost:
                    out_v, out_cost = v, c
            in_v, in_cost = -1, m + 1
            for v in bits_of(full & ~cur):
                c = (g.rows[v] & other).bit_count()
                if c < in_cost:
                    in_v, in_cost = v, c
            if out_v >= 0 and in_v >= 0 and in_cost < out_cost:
                cur2 = (cur & ~(1 << out_v)) | (1 << in_v)
                if is_a:
                    amask = cur2
                else:
                    bmask = cur2
                best = g.edges_between(amask, bmask)
                improved = True
        if not improved:
            break
    return best, amask, bmask


def _bidense_exact(g: Graph, eps: Fraction) -> BidenseReport:
    """`check_bidense` by enumerating every pair of half-sets."""
    import numpy as np

    m = g.m
    adj = np.zeros((m, m), dtype=np.int32)
    for v in range(m):
        for u in bits_of(g.rows[v]):
            adj[v, u] = 1
    best = None
    for ka in _half_sizes(m):
        seta = list(combinations(range(m), ka))
        ma = np.zeros((len(seta), m), dtype=np.int32)
        for i, c in enumerate(seta):
            ma[i, list(c)] = 1
        da = ma @ adj
        for kb in _half_sizes(m):
            if kb == ka:
                setb, mb = seta, ma
            else:
                setb = list(combinations(range(m), kb))
                mb = np.zeros((len(setb), m), dtype=np.int32)
                for i, c in enumerate(setb):
                    mb[i, list(c)] = 1
            counts = da @ mb.T
            i, j = np.unravel_index(np.argmin(counts), counts.shape)
            val = int(counts[i, j])
            if best is None or val < best[0]:
                best = (val, mask_of(seta[i]), mask_of(setb[j]))
    val, am, bm = best
    return BidenseReport(val >= eps * m * m, val, VertexSet(am, m), VertexSet(bm, m), eps * m * m)


def check_bidense(
    g: Graph,
    eps: Fraction,
    samples: int = 400,
    seed: int = 0,
    extra_pairs: list[tuple[int, int]] | None = None,
) -> BidenseReport:
    """Does every half-set pair (A,B), overlap allowed, span e(A,B) >= eps*m^2?

    Draws `samples` random pairs, each from its own counter-based stream,
    follows the best ones (and any extra_pairs masks supplied by a caller)
    with greedy single-swap descent, and reports the smallest pair found.
    The minimum found never undercuts the true one, so `ok` may hold where
    an exhaustive search would find a sparser pair.  `_bidense_exact`
    enumerates every pair instead; `classify` runs it up to
    CLASSIFY_EXACT_MAX vertices.
    """
    m = g.m
    sizes = _half_sizes(m)
    cands: list[tuple[int, int, int]] = []
    for i in range(samples):
        rng = StreamRng(seed, i)
        am = _sample_subset(rng, m, sizes[i % len(sizes)])
        bm = _sample_subset(rng, m, sizes[(i // 2) % len(sizes)])
        cands.append((g.edges_between(am, bm), am, bm))
    for am, bm in extra_pairs or []:
        cands.append((g.edges_between(am, bm), am, bm))
    cands.sort(key=lambda t: t[0])
    best = cands[0]
    for val, am, bm in cands[: min(4, len(cands))]:
        got = _descend_pair(g, am, bm, rounds=8 * m)
        if got[0] < best[0]:
            best = got
    val, am, bm = best
    return BidenseReport(val >= eps * m * m, val, VertexSet(am, m), VertexSet(bm, m), eps * m * m)


@dataclass(frozen=True)
class Classification:
    case: str  # 'bi_dense' | 'two_cliques' | 'near_bipartite'
    set_a: VertexSet | None
    confidence: str  # 'exact' | 'sampled'
    data: dict = field(default_factory=dict)


def _climb_cut(g: Graph, sizes: range, seed: int, maximize: bool) -> int:
    """Hill-climb e(A, complement) over |A| in sizes; swap + resize moves,
    from CLIMB_RESTARTS random starts."""
    m = g.m
    full = g.full_mask()
    sign = -1 if maximize else 1

    def score(am: int) -> int:
        return sign * g.edges_between(am, full & ~am)

    best_mask, best_val = 0, None
    for r in range(CLIMB_RESTARTS):
        rng = StreamRng(seed, 1000 + r)
        am = _sample_subset(rng, m, sizes[r % len(sizes)])
        val = score(am)
        while True:
            cand = None
            for v in bits_of(am):
                for u in bits_of(full & ~am):
                    am2 = (am & ~(1 << v)) | (1 << u)
                    s2 = score(am2)
                    if cand is None or s2 < cand[0]:
                        cand = (s2, am2)
            if am.bit_count() + 1 in sizes or am.bit_count() - 1 in sizes:
                for v in bits_of(am):
                    if am.bit_count() - 1 in sizes:
                        am2 = am & ~(1 << v)
                        s2 = score(am2)
                        if cand is None or s2 < cand[0]:
                            cand = (s2, am2)
                for u in bits_of(full & ~am):
                    if am.bit_count() + 1 in sizes:
                        am2 = am | (1 << u)
                        s2 = score(am2)
                        if cand is None or s2 < cand[0]:
                            cand = (s2, am2)
            if cand is None or cand[0] >= val:
                break
            val, am = cand
        if best_val is None or val < best_val:
            best_val, best_mask = val, am
    return best_mask


def _two_cliques_holds(g: Graph, am: int, eps: Fraction) -> tuple[bool, dict]:
    m = g.m
    size = am.bit_count()
    boundary = g.edges_between(am, g.full_mask() & ~am)
    ok = (
        2 * size >= m
        and size <= (Fraction(1, 2) + 16 * eps) * m
        and boundary <= 6 * eps * m * m
    )
    return ok, {"set_size": size, "boundary_edges": boundary}


def _near_bipartite_holds(g: Graph, am: int, eps: Fraction) -> tuple[bool, dict]:
    m = g.m
    comp = g.full_mask() & ~am
    crossing = g.edges_between(am, comp)
    mindeg = m
    for v in bits_of(am):
        mindeg = min(mindeg, (g.rows[v] & comp).bit_count())
    for v in bits_of(comp):
        mindeg = min(mindeg, (g.rows[v] & am).bit_count())
    ok = (
        crossing >= (Fraction(1, 4) - 14 * eps) * m * m
        and mindeg >= GAMMA * m / 2
    )
    return ok, {"set_size": am.bit_count(), "crossing_edges": crossing, "min_cross_degree": mindeg}


def classify(
    g: Graph, eps: Fraction = Fraction(1, 320), seed: int = 0, samples: int = 400
) -> Classification:
    """Three-case trichotomy for min degree >= m/2 (verified witnesses),
    at the proof's epsilon `eps`, 0 < eps <= 1/320."""
    if not 0 < eps <= Fraction(1, 320):
        raise PreconditionError("need 0 < eps <= 1/320")
    m = g.m
    if 2 * g.min_degree() < m:
        raise PreconditionError("classify requires min degree >= m/2")
    exact = m <= CLASSIFY_EXACT_MAX
    lo = (m + 1) // 2
    hi = int((Fraction(1, 2) + 16 * eps) * m)
    tc_sizes = range(lo, max(lo, hi) + 1)

    if exact:
        best = None
        for k in tc_sizes:
            for combo in combinations(range(m), k):
                am = mask_of(combo)
                b = g.edges_between(am, g.full_mask() & ~am)
                if best is None or b < best[0]:
                    best = (b, am)
        if best is not None:
            ok, data = _two_cliques_holds(g, best[1], eps)
            if ok:
                return Classification("two_cliques", VertexSet(best[1], m), "exact", data)
        bid = _bidense_exact(g, eps)
        if bid.ok:
            return Classification(
                "bi_dense", None, "exact", {"min_pair_edges": bid.minimum}
            )
        for k in range(1, m):
            for combo in combinations(range(m), k):
                am = mask_of(combo)
                ok, data = _near_bipartite_holds(g, am, eps)
                if ok:
                    return Classification("near_bipartite", VertexSet(am, m), "exact", data)
        return Classification(
            "bi_dense",
            None,
            "sampled",
            {"min_pair_edges": bid.minimum, "note": "no case verified; fallback"},
        )

    sparse_a = _climb_cut(g, tc_sizes, seed, maximize=False)
    ok, data = _two_cliques_holds(g, sparse_a, eps)
    if ok:
        return Classification("two_cliques", VertexSet(sparse_a, m), "sampled", data)
    cross_a = _climb_cut(g, range(m // 2, m // 2 + 1), seed + 1, maximize=True)
    extra = [
        (cross_a, cross_a),
        (g.full_mask() & ~cross_a, g.full_mask() & ~cross_a),
        (sparse_a, g.full_mask() & ~sparse_a),
    ]
    extra = [
        (a, b)
        for a, b in extra
        if a.bit_count() in _half_sizes(m) and b.bit_count() in _half_sizes(m)
    ]
    bid = check_bidense(g, eps, samples=samples, seed=seed, extra_pairs=extra)
    if bid.ok:
        return Classification("bi_dense", None, "sampled", {"min_pair_edges": bid.minimum})
    ok, data = _near_bipartite_holds(g, cross_a, eps)
    if ok:
        return Classification("near_bipartite", VertexSet(cross_a, m), "sampled", data)
    return Classification(
        "bi_dense",
        None,
        "sampled",
        {"min_pair_edges": bid.minimum, "note": "no case verified; fallback"},
    )


@dataclass(frozen=True)
class CoverProductReport:
    cover_x: int
    cover_y: int
    product: int
    holds: bool


def balanced_cut_cover_product(g: Graph, cut: Cut) -> CoverProductReport:
    """On an (n+1)-regular graph on 2n vertices with a balanced cut:
    exact minimum covers A', B' of the two sides, each within the default
    node budget; checks (|A'|+1)(|B'|+1) >= n+1."""
    m = g.m
    if m % 2:
        raise PreconditionError("need an even vertex count 2n")
    n = m // 2
    if any(d != n + 1 for d in g.degrees()):
        raise PreconditionError("graph must be (n+1)-regular")
    if not cut.is_balanced():
        raise PreconditionError("cut must be balanced")
    ca = min_vertex_cover_exact(g, cut.x).size
    cb = min_vertex_cover_exact(g, cut.y).size
    product = (ca + 1) * (cb + 1)
    return CoverProductReport(ca, cb, product, product >= n + 1)


def random_regular_graph(n_vertices: int, degree: int, seed: int) -> Graph:
    """Pairing-model d-regular graph, loops/multi-edges rejected and retried."""
    if n_vertices * degree % 2:
        raise PreconditionError("degree * n_vertices must be even")
    if degree >= n_vertices:
        raise PreconditionError("degree must be < n_vertices")
    for attempt in range(STRICT_PAIRING_TRIES):
        rng = StreamRng(seed, attempt)
        g = pairing_model_regular(n_vertices, degree, rng)
        if g is not None:
            break
    else:
        # dense degrees: whole-graph rejection is hopeless; repair instead
        g = pairing_model_repaired(n_vertices, degree, StreamRng(seed, STRICT_PAIRING_TRIES))
    if any(d != degree for d in g.degrees()):
        raise AssertionError("pairing model produced wrong degrees (bug)")
    return g
