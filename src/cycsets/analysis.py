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
from .errors import PreconditionError, check_seed
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
    """`check_bidense` by enumerating every half-set A.  Since e(A,B) sums
    |N(b) & A| over b in B, the sparsest B of each half size for a fixed A
    is the vertices with the fewest neighbours in A."""
    m = g.m
    sizes = _half_sizes(m)
    best = None
    for ka in sizes:
        for combo in combinations(range(m), ka):
            am = mask_of(combo)
            order = sorted(((row & am).bit_count(), v) for v, row in enumerate(g.rows))
            for kb in sizes:
                val = sum(d for d, _ in order[:kb])
                if best is None or val < best[0]:
                    best = (val, am, mask_of(v for _, v in order[:kb]))
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
    finds the true minimum instead; `classify` runs it up to
    CLASSIFY_EXACT_MAX vertices.
    """
    if samples < 1:
        raise PreconditionError(f"need samples >= 1, got {samples}")
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
            inside, outside = list(bits_of(am)), list(bits_of(full & ~am))
            moves = [(am & ~(1 << v)) | (1 << u) for v in inside for u in outside]
            if am.bit_count() - 1 in sizes:
                moves += [am & ~(1 << v) for v in inside]
            if am.bit_count() + 1 in sizes:
                moves += [am | (1 << u) for u in outside]
            # min keeps the first of equal scores
            nxt = min(moves, key=score, default=am)
            nxt_val = score(nxt)
            if nxt_val >= val:
                break
            am, val = nxt, nxt_val
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
    """Three-case trichotomy for min degree >= m/2 and m >= 1 (verified
    witnesses), at the proof's epsilon `eps`, 0 < eps <= 1/320."""
    if not 0 < eps <= Fraction(1, 320):
        raise PreconditionError("need 0 < eps <= 1/320")
    if samples < 1:  # a sampled verdict on no pairs would be vacuous
        raise PreconditionError(f"need samples >= 1, got {samples}")
    check_seed(seed)
    m = g.m
    if not m:  # no vertex: no cut to witness any case
        raise PreconditionError("classify requires at least one vertex")
    if 2 * g.min_degree() < m:
        raise PreconditionError("classify requires min degree >= m/2")
    full = g.full_mask()
    lo = (m + 1) // 2
    hi = int((Fraction(1, 2) + 16 * eps) * m)
    tc_sizes = range(lo, max(lo, hi) + 1)
    # only the search depends on the size: exhaustive up to
    # CLASSIFY_EXACT_MAX vertices, hill-climbing and sampling beyond
    exact = m <= CLASSIFY_EXACT_MAX
    confidence = "exact" if exact else "sampled"

    if exact:
        sparse_a = min(
            (mask_of(c) for k in tc_sizes for c in combinations(range(m), k)),
            key=lambda am: g.edges_between(am, full & ~am),
        )
    else:
        sparse_a = _climb_cut(g, tc_sizes, seed, maximize=False)
    ok, data = _two_cliques_holds(g, sparse_a, eps)
    if ok:
        return Classification("two_cliques", VertexSet(sparse_a, m), confidence, data)

    if exact:
        bid = _bidense_exact(g, eps)
        cross_cands = (mask_of(c) for k in range(1, m) for c in combinations(range(m), k))
    else:
        cross_a = _climb_cut(g, range(m // 2, m // 2 + 1), seed + 1, maximize=True)
        rest = full & ~cross_a
        extra = [(cross_a, cross_a), (rest, rest), (sparse_a, full & ~sparse_a)]
        halves = _half_sizes(m)
        extra = [(a, b) for a, b in extra if a.bit_count() in halves and b.bit_count() in halves]
        bid = check_bidense(g, eps, samples=samples, seed=seed, extra_pairs=extra)
        cross_cands = [cross_a]
    if bid.ok:
        return Classification("bi_dense", None, confidence, {"min_pair_edges": bid.minimum})
    for am in cross_cands:
        ok, data = _near_bipartite_holds(g, am, eps)
        if ok:
            return Classification("near_bipartite", VertexSet(am, m), confidence, data)
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
