"""Hamiltonicity: exact decision, certified refutation, heuristic search,
constructive builders.

Five layers:

* an exact decider (budget 24 vertices) on the anchored reach-set DP of
  `subsetdp`, the kernel exact counting also runs; it ORs the kernel's
  rounds into one table, reads the answer at the full mask and backtracks
  a certificate from that table, or gives a definitive refusal; at 24
  vertices its ints peak at 105,139,752 bytes, and twin classes in the
  scope add at most 12,303,588 more;
* a toughness refuter (Chvátal 1973): a nonempty X whose removal leaves
  more than |X| components, found among twin classes, their
  neighbourhoods, cut vertices and colour classes, and carried as a
  validated `NotHamCert`; incomplete, never claims Hamiltonicity; it
  first skips every scope that Chvátal's degree-sequence condition
  (Chvátal 1972) proves Hamiltonian, where no such X can exist;
* a seeded rotation-extension engine: sound, incomplete, never claims
  non-Hamiltonicity;
* constructive routines that build Hamilton paths/cycles in dense regimes
  the way the existence arguments do (delete-and-splice, pigeonhole on
  cycle successors, cherry matchings over low-degree vertices, crossing
  connectors of length 2/3), validating every certificate;
* `gn_criterion`, the O(#cycles) exact criterion for subsets of the
  extremal family on a `VertexSet`; the criterion itself is
  `families.gn_criterion_mask`, beside the cycle layout it reads, so its
  callers need not load this module.

The thresholds of the constructive routines are the regime constants
below; soundness never depends on them, because certificates are always
validated.

`ExtremalGraph` (`families`) and `LinearForest` (`structures`) appear here
only in annotations, so they are imported under `TYPE_CHECKING`: a process
that decides Hamiltonicity, such as `cycsets estimate`, loads neither
module.  `gn_criterion` imports `families` when it is called.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, floor
from typing import TYPE_CHECKING

from .bitgraph import Cut, Graph, VertexSet, bits_of, mask_of, nth_bit
from .errors import BudgetExceededError, PreconditionError, VerificationError
from .sampling import StreamRng
from .subsetdp import TABLE_MAX_BITS, reach_rounds

if TYPE_CHECKING:
    from .families import ExtremalGraph
    from .structures import LinearForest

EXACT_BUDGET = TABLE_MAX_BITS + 1  # the anchor plus the DP table's width
ROTATION_RESTARTS = 32
# rotations decide_hamiltonian_auto spends before the exact DP, capped at
# s*s on scopes of at most SMALL_SCOPE vertices, which the DP decides in
# milliseconds anyway
AUTO_ROTATIONS = 20000
SMALL_SCOPE = 16
# regime constants of the constructive builders: a vertex whose side degree
# (two cliques) or crossing degree (near-bipartite) is at most LOW * m is
# low; the near-bipartite cut is balanced within EPS * m, its crossing graph
# misses at most 4 * EPS of the m^2/4 pairs, and every crossing degree is at
# least GAMMA * m / 3
TWO_CLIQUES_LOW = Fraction(3, 10)
NEAR_BIPARTITE_EPS = Fraction(1, 100)
NEAR_BIPARTITE_GAMMA = Fraction(3, 10)
NEAR_BIPARTITE_LOW = Fraction(1, 5)


@dataclass(frozen=True)
class HamCycleCert:
    order: tuple[int, ...]

    def validate(self, g: Graph, scope_mask: int | None = None) -> None:
        n = len(self.order)
        if n < 3:
            raise VerificationError("cycle certificate shorter than 3")
        if len(set(self.order)) != n:
            raise VerificationError("cycle certificate repeats a vertex")
        if scope_mask is not None and mask_of(self.order) != scope_mask:
            raise VerificationError("cycle certificate does not cover the scope")
        for i, u in enumerate(self.order):
            v = self.order[(i + 1) % n]
            if not g.has_edge(u, v):
                raise VerificationError(f"certificate uses non-edge ({u},{v})")


@dataclass(frozen=True)
class HamPathCert:
    order: tuple[int, ...]

    def validate(self, g: Graph, scope_mask: int | None = None) -> None:
        n = len(self.order)
        if n < 2:
            raise VerificationError("path certificate shorter than 2")
        if len(set(self.order)) != n:
            raise VerificationError("path certificate repeats a vertex")
        if scope_mask is not None and mask_of(self.order) != scope_mask:
            raise VerificationError("path certificate does not cover the scope")
        for u, v in zip(self.order, self.order[1:]):
            if not g.has_edge(u, v):
                raise VerificationError(f"certificate uses non-edge ({u},{v})")


@dataclass(frozen=True)
class NotHamCert:
    """A toughness obstruction (Chvátal 1973): a nonempty X inside the scope
    S such that G[S] - X has more than |X| components.  Removing X cuts a
    Hamilton cycle of G[S] into at most |X| arcs, so there is none."""

    x_mask: int

    def validate(self, g: Graph, scope_mask: int) -> None:
        if not self.x_mask:
            raise VerificationError("toughness certificate has an empty X")
        if self.x_mask & ~scope_mask:
            raise VerificationError("toughness certificate leaves the scope")
        if not _splits(g, scope_mask, self.x_mask):
            raise VerificationError(
                f"removing X leaves at most |X| = {self.x_mask.bit_count()} components"
            )


@dataclass(frozen=True)
class HamDecision:
    status: str  # 'hamiltonian' | 'not_hamiltonian' | 'unknown'
    cert: HamCycleCert | NotHamCert | None
    method: str
    work: int

    def __post_init__(self) -> None:
        if self.status == "hamiltonian" and not isinstance(self.cert, HamCycleCert):
            raise VerificationError("hamiltonian decision lacks a cycle certificate")
        if isinstance(self.cert, NotHamCert) and self.status != "not_hamiltonian":
            raise VerificationError("toughness certificate on a non-refusal")


# ---------------------------------------------------------------------------
# exact decision
# ---------------------------------------------------------------------------


def _splits(g: Graph, scope_mask: int, x_mask: int) -> bool:
    """Whether g[scope] - X has more than |X| components."""
    k = x_mask.bit_count()
    rest = scope_mask & ~x_mask
    if rest.bit_count() <= k:  # each component holds a vertex
        return False
    return next(islice(g.components(rest), k, None), 0) != 0


def _cheap_cut(g: Graph, scope_mask: int) -> int:
    """X of one vertex that splits g[scope] (at least 3 vertices): the lone
    neighbour of a vertex of scope-degree 1, else, for a disconnected scope,
    a vertex of its largest component (any vertex when all are single).
    0 when the scope is connected with minimum degree at least 2."""
    for v in bits_of(scope_mask):
        nbrs = g.rows[v] & scope_mask
        if nbrs.bit_count() == 1:
            return nbrs
    comps = list(g.components(scope_mask))
    if len(comps) == 1:
        return 0
    big = max(comps, key=int.bit_count)
    return big & -big


def _unbalanced_side(g: Graph, scope_mask: int) -> int:
    """The smaller colour class of a connected bipartite g[scope] whose
    classes differ in size; 0 otherwise."""
    sides = [0, 0]
    layer = seen = scope_mask & -scope_mask
    depth = 0
    while layer:
        nbrs = 0
        for v in bits_of(layer):
            nbrs |= g.rows[v]
        if nbrs & layer:  # an edge inside a BFS layer closes an odd cycle
            return 0
        sides[depth & 1] |= layer
        layer = nbrs & scope_mask & ~seen
        seen |= layer
        depth += 1
    small, large = sorted(sides, key=int.bit_count)
    return small if small.bit_count() < large.bit_count() else 0


def _twin_cut(g: Graph, scope_mask: int) -> int:
    """X = C or X = N_S(C) for a twin class C (vertices with equal
    N(v) & S, hence independent) such that X splits g[scope]; 0 if none."""
    classes: dict[int, int] = {}
    for v in bits_of(scope_mask):
        nbrs = g.rows[v] & scope_mask
        classes[nbrs] = classes.get(nbrs, 0) | 1 << v
    for nbrs, cls in classes.items():
        for x in (cls, nbrs):
            if _splits(g, scope_mask, x):
                return x
    return 0


def _chvatal(g: Graph, scope_mask: int) -> bool:
    """Chvátal's degree-sequence condition (Chvátal 1972) on g[scope], s >= 3
    vertices: with scope degrees d_1 <= ... <= d_s, no i < s/2 has both
    d_i <= i and d_{s-i} < s - i.  When it holds, g[scope] is Hamiltonian."""
    rows = g.rows
    degs = []
    rest = scope_mask
    while rest:
        low = rest & -rest
        degs.append((rows[low.bit_length() - 1] & scope_mask).bit_count())
        rest ^= low
    degs.sort()
    s = len(degs)
    # degs[i - 1] is d_i
    return all(
        degs[i - 1] > i or degs[s - i - 1] >= s - i for i in range(1, (s + 1) // 2)
    )


def refute_toughness(g: Graph, scope_mask: int) -> NotHamCert | None:
    """A validated toughness certificate for g[scope], or None.

    A scope that meets Chvátal's degree condition (`_chvatal`) is
    Hamiltonian, hence 1-tough, so no X exists and None is returned before
    any candidate is tried.  Candidates for X, cheapest first: the lone
    neighbour of a vertex of scope-degree 1; one vertex of a disconnected
    scope; the smaller colour class of an unbalanced bipartite scope; and,
    for every twin class C (singletons included), X = C and X = N_S(C).  A
    cut vertex never has a twin, so the singleton classes try every cut
    vertex.  On a member of the extremal family, C = the B-part survivors
    gives both refutations of `gn_criterion`: X = N_S(C) = T when d < 0,
    and X = C when e(T) < d.

    None decides nothing: the Petersen graph is not Hamiltonian and has no
    such X.
    """
    if scope_mask.bit_count() < 3 or _chvatal(g, scope_mask):
        return None
    x = (
        _cheap_cut(g, scope_mask)
        or _unbalanced_side(g, scope_mask)
        or _twin_cut(g, scope_mask)
    )
    if not x:
        return None
    cert = NotHamCert(x)
    cert.validate(g, scope_mask)
    return cert


def is_hamiltonian_exact(g: Graph, scope: VertexSet) -> HamDecision:
    """Definitive decision on g[scope] by the reach-set DP of `subsetdp`.

    Paths are anchored at the lowest scope vertex; a certificate is
    backtracked when the final state closes to the anchor, each step
    taking the lowest vertex that fits.  `work` is the number of
    (visited-set, endpoint) states, sum |reach[M]|.  Budget: 24 vertices,
    i.e. a universe of at most 23 vertices besides the anchor.  A scope with a
    vertex of scope-degree 1, or a disconnected one, is refused before the
    DP with a `NotHamCert` and work 0; the DP's own refusals carry none.
    """
    if scope.size > EXACT_BUDGET:
        raise BudgetExceededError(
            f"exact Hamiltonicity budget: |scope|={scope.size} > {EXACT_BUDGET}"
        )
    smask = scope.mask
    s = scope.size
    if s < 3:
        return HamDecision("not_hamiltonian", None, "dp", 0)
    x = _cheap_cut(g, smask)
    if x:
        cert = NotHamCert(x)
        cert.validate(g, smask)
        return HamDecision("not_hamiltonian", cert, "dp", 0)

    verts = scope.members()
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * s
    for i, v in enumerate(verts):
        for u in bits_of(g.rows[v] & smask):
            adj[i] |= 1 << idx[u]
    # the anchor is local 0; the kernel runs over locals 1..s-1, shifted by 1
    free_adj = [a >> 1 for a in adj[1:]]
    seed = adj[0] >> 1
    # table[w] is the OR of R_w over all rounds: bit M set iff w in reach[M]
    table = [0] * (s - 1)
    for reach in reach_rounds(free_adj, seed):
        for w, r in enumerate(reach):
            table[w] |= r
    work = sum(r.bit_count() for r in table)
    mask = (1 << (s - 1)) - 1
    want = seed  # the last vertex closes to the anchor
    order_local = []
    while mask:
        # the lowest w next to the vertex after it that ends a path through mask
        p = next((w for w in bits_of(want) if table[w] >> mask & 1), None)
        if p is None:
            if not order_local:
                return HamDecision("not_hamiltonian", None, "dp", work)
            raise VerificationError("DP backtrack failed (bug)")
        order_local.append(p + 1)
        mask ^= 1 << p
        want = free_adj[p]
    order_local.append(0)
    order = tuple(verts[i] for i in reversed(order_local))
    cert = HamCycleCert(order)
    cert.validate(g, smask)
    return HamDecision("hamiltonian", cert, "dp", work)


# ---------------------------------------------------------------------------
# rotation-extension engine
# ---------------------------------------------------------------------------


def find_ham_cycle_rotation(
    g: Graph, scope: VertexSet, budget: int = 20000, seed: int = 0
) -> HamDecision:
    """Seeded rotation-extension search: hamiltonian-or-unknown, never a
    refusal.  Deterministic given seed; budget counts rotations across all
    restarts."""
    smask = scope.mask
    s = scope.size
    if s < 3:
        return HamDecision("unknown", None, "rotation", 0)
    verts = scope.members()
    rotations = 0
    per_restart = max(budget // ROTATION_RESTARTS, 4 * s)
    for restart in range(ROTATION_RESTARTS):
        if rotations >= budget:
            break
        rng = StreamRng(seed, restart)
        start = verts[rng.below(s)]
        path = [start]
        on_path = 1 << start
        spent = 0
        while spent < per_restart and rotations < budget:
            end = path[-1]
            ext = g.rows[end] & smask & ~on_path
            if ext:
                v = nth_bit(ext, rng.below(ext.bit_count()))
                path.append(v)
                on_path |= 1 << v
                continue
            if on_path == smask and g.has_edge(end, path[0]):
                cert = HamCycleCert(tuple(path))
                cert.validate(g, smask)
                return HamDecision("hamiltonian", cert, "rotation", rotations)
            if len(path) < 3:
                break
            # rotate: pick a path neighbor of the endpoint, reverse the tail
            nbrs = g.rows[end] & on_path & ~(1 << path[-2]) & ~(1 << end)
            opts = [i for i in range(len(path) - 2) if nbrs >> path[i] & 1]
            if not opts:
                break
            i = opts[rng.below(len(opts))]
            path[i + 1 :] = reversed(path[i + 1 :])
            rotations += 1
            spent += 1
    return HamDecision("unknown", None, "rotation", rotations)


def decide_hamiltonian_auto(g: Graph, scope: VertexSet, seed: int = 0) -> HamDecision:
    """Tiered policy, every answer certified:

    1. `refute_toughness`: a `NotHamCert`, method 'toughness'; a scope
       that meets Chvátal's degree condition skips its candidates;
    2. rotation, within AUTO_ROTATIONS rotations, capped at s*s on scopes of at
       most SMALL_SCOPE vertices, which bounds the cost of a refuter miss;
    3. the exact DP, for scopes within its budget of 24 vertices.

    Beyond 24 vertices a scope neither refuted nor rotated stays unknown.
    """
    s = scope.size
    if s < 3:
        return HamDecision("not_hamiltonian", None, "auto", 0)
    cert = refute_toughness(g, scope.mask)
    if cert is not None:
        return HamDecision("not_hamiltonian", cert, "toughness", 0)
    budget = min(AUTO_ROTATIONS, s * s) if s <= SMALL_SCOPE else AUTO_ROTATIONS
    dec = find_ham_cycle_rotation(g, scope, budget=budget, seed=seed)
    if dec.status == "hamiltonian" or s > EXACT_BUDGET:
        return dec
    return is_hamiltonian_exact(g, scope)


# ---------------------------------------------------------------------------
# constructive builders (dense regimes)
# ---------------------------------------------------------------------------


def _cycle_in_scope(g: Graph, scope_mask: int, seed: int) -> list[int]:
    """Hamilton cycle of g[scope] via rotation (200 rotations per vertex,
    at least 20000), exact fallback when small."""
    size = scope_mask.bit_count()
    scope = VertexSet(scope_mask, g.m)
    dec = find_ham_cycle_rotation(g, scope, budget=max(20000, 200 * size), seed=seed)
    if dec.status != "hamiltonian" and size <= EXACT_BUDGET:
        dec = is_hamiltonian_exact(g, scope)
    if dec.status != "hamiltonian":
        raise BudgetExceededError(
            f"cycle engine gave up on a {size}-vertex scope (work {dec.work})"
        )
    return list(dec.cert.order)


def _dirac_path_scoped(
    g: Graph, scope_mask: int, a: int, b: int, seed: int = 0
) -> list[int]:
    """Hamilton path of g[scope] from a to b under the Dirac-plus-one bound.

    Deletes a and b, finds a Hamilton cycle of the rest, then splices at a
    cycle edge x-y with a~x and b~y, which the degree counting guarantees.
    """
    size = scope_mask.bit_count()
    if a == b:
        raise PreconditionError("endpoints must differ")
    if not (scope_mask >> a & 1 and scope_mask >> b & 1):
        raise PreconditionError("endpoints must lie in the scope")
    mindeg = min((g.rows[v] & scope_mask).bit_count() for v in bits_of(scope_mask))
    if 2 * mindeg < size + 2:
        raise PreconditionError(
            f"need min degree >= m/2 + 1 in the scope (have {mindeg}, m={size})"
        )
    if size == 2:
        raise PreconditionError("scope too small")
    if size == 3:
        mid = next(bits_of(scope_mask & ~(1 << a) & ~(1 << b)))
        path = [a, mid, b]
        HamPathCert(tuple(path)).validate(g, scope_mask)
        return path
    rest = scope_mask & ~(1 << a) & ~(1 << b)
    cyc = _cycle_in_scope(g, rest, seed)
    k = len(cyc)
    for i in range(k):
        x, y = cyc[i], cyc[(i + 1) % k]
        if g.has_edge(a, x) and g.has_edge(b, y):
            # walk backwards from x around to y
            mid = [cyc[(i - j) % k] for j in range(k)]
            path = [a] + mid + [b]
            HamPathCert(tuple(path)).validate(g, scope_mask)
            return path
    raise VerificationError("pigeonhole splice found no cycle edge (out of regime)")


def ham_path_dirac(g: Graph, a: int, b: int, seed: int = 0) -> HamPathCert:
    """Hamilton path between any two vertices when min degree >= m/2 + 1."""
    path = _dirac_path_scoped(g, g.full_mask(), a, b, seed)
    return HamPathCert(tuple(path))


def _bipartite_path_scoped(
    g: Graph, lmask: int, rmask: int, a: int, b: int, seed: int = 0
) -> list[int]:
    """Hamilton path a..b of the crossing graph on lmask|rmask, with
    |left| = |right|, a on the left, b on the right, crossing min degree
    >= m/4 + 1.  Within-side edges are ignored."""
    if lmask & rmask:
        raise PreconditionError("sides overlap")
    nl, nr = lmask.bit_count(), rmask.bit_count()
    if nl != nr:
        raise PreconditionError(f"sides must balance (|L|={nl}, |R|={nr})")
    if not lmask >> a & 1:
        raise PreconditionError("a must be on the left side")
    if not rmask >> b & 1:
        raise PreconditionError("b must be on the right side")
    m = nl + nr
    scope_mask = lmask | rmask
    for v in bits_of(lmask):
        if 4 * (g.rows[v] & rmask).bit_count() < m + 4:
            raise PreconditionError(f"crossing degree of {v} below m/4 + 1")
    for v in bits_of(rmask):
        if 4 * (g.rows[v] & lmask).bit_count() < m + 4:
            raise PreconditionError(f"crossing degree of {v} below m/4 + 1")
    cross = g.bipartite_restriction(lmask, rmask)
    if nl == 2:
        # remainder is a single crossing edge; wire directly
        r2 = next(bits_of(rmask & ~(1 << b)))
        l2 = next(bits_of(lmask & ~(1 << a)))
        path = [a, r2, l2, b]
        HamPathCert(tuple(path)).validate(cross, scope_mask)
        return path
    rest = scope_mask & ~(1 << a) & ~(1 << b)
    cyc = _cycle_in_scope(cross, rest, seed)
    k = len(cyc)
    pos = {v: i for i, v in enumerate(cyc)}
    # successor pigeonhole: some v ~ a has its successor ~ b
    for v in bits_of(cross.rows[a] & rest):
        w = cyc[(pos[v] + 1) % k]
        if cross.has_edge(b, w):
            i = pos[v]
            mid = [cyc[(i - j) % k] for j in range(k)]
            path = [a] + mid + [b]
            HamPathCert(tuple(path)).validate(cross, scope_mask)
            return path
    raise VerificationError("successor sets failed to intersect (out of regime)")


def ham_path_bipartite(
    g: Graph, left: VertexSet, right: VertexSet, a: int, b: int, seed: int = 0
) -> HamPathCert:
    """Hamilton path from a (left) to b (right) of the crossing graph when
    the sides balance and every crossing degree is >= m/4 + 1."""
    path = _bipartite_path_scoped(g, left.mask, right.mask, a, b, seed)
    return HamPathCert(tuple(path))


def _dense_side_path(
    g: Graph,
    side_mask: int,
    s: int,
    t: int,
    seed: int,
) -> list[int]:
    """Hamilton path s..t of g[side] in the dense-side regime.

    Vertices of side-degree <= TWO_CLIQUES_LOW * g.m are covered first by
    pendant arms (at s, t) and cherries, the pieces are chained through
    common neighbors, and the dense remainder is finished by the Dirac path
    routine.
    """
    # an int degree d has d <= TWO_CLIQUES_LOW * m iff d <= low_cap
    low_cap = floor(TWO_CLIQUES_LOW * g.m)
    low = 0
    for v in bits_of(side_mask):
        if (g.rows[v] & side_mask).bit_count() <= low_cap:
            low |= 1 << v
    high = side_mask & ~low
    used = (1 << s) | (1 << t)

    def take_lowest(mask: int, who: str) -> int:
        if not mask:
            raise VerificationError(f"cherry/arm selection stuck at {who}")
        v = next(bits_of(mask))
        nonlocal used
        used |= 1 << v
        return v

    piece = [s]
    if low >> s & 1:
        piece.append(take_lowest(g.rows[s] & high & ~used, f"arm of {s}"))
    tail = [t]
    if low >> t & 1:
        tail.insert(0, take_lowest(g.rows[t] & high & ~used, f"arm of {t}"))
    cherries = []
    for v in bits_of(low & ~(1 << s) & ~(1 << t)):
        used |= 1 << v
        x = take_lowest(g.rows[v] & high & ~used, f"cherry of {v}")
        y = take_lowest(g.rows[v] & high & ~used, f"cherry of {v}")
        cherries.append([x, v, y])
    for ch in cherries:
        end = piece[-1]
        z = g.rows[end] & g.rows[ch[0]] & high & ~used
        if z:
            piece.extend([take_lowest(z, f"join {end}-{ch[0]}")] + ch)
            continue
        z = g.rows[end] & g.rows[ch[2]] & high & ~used
        if not z:
            raise VerificationError(f"merge failure at endpoints ({end}, {ch[0]})")
        piece.extend([take_lowest(z, f"join {end}-{ch[2]}")] + ch[::-1])
    # finish through the dense remainder with a Dirac path
    pmask = mask_of(piece)
    tmask = mask_of(tail)
    rest = side_mask & ~pmask & ~tmask
    if not rest:
        path = piece if piece[-1] == t else piece + tail
        if mask_of(path) != side_mask:
            raise VerificationError("side path missed vertices (out of regime)")
        HamPathCert(tuple(path)).validate(g, side_mask)
        return path
    end = piece[-1]
    r1 = g.rows[end] & rest
    if not r1:
        raise VerificationError(f"merge failure at endpoints ({end}, remainder)")
    r1v = next(bits_of(r1))
    head = tail[0]
    r2 = g.rows[head] & rest & ~(1 << r1v)
    if not r2:
        raise VerificationError(f"merge failure at endpoints ({head}, remainder)")
    r2v = next(bits_of(r2))
    mid = _dirac_path_scoped(g, rest, r1v, r2v, seed)
    path = piece + mid + tail
    HamPathCert(tuple(path)).validate(g, side_mask)
    return path


def ham_cycle_two_cliques(g: Graph, cut: Cut, seed: int = 0) -> HamCycleCert:
    """Hamilton cycle when both cut sides are near-cliques joined by at
    least two disjoint crossing edges.

    Regime: both sides >= 0.49m, inside min degree >= m/100, inside
    non-edges <= m^2/10^4.  Each side gets a Hamilton path between the
    crossing endpoints (low-degree vertices first via cherries, dense rest
    via the Dirac routine); the two paths and the two crossing edges close
    the cycle.
    """
    m = g.m
    xmask, ymask = cut.x.mask, cut.y.mask
    for name, side in (("X", xmask), ("Y", ymask)):
        size = side.bit_count()
        if 100 * size < 49 * m:
            raise PreconditionError(f"side {name} smaller than 0.49m")
        mindeg = min((g.rows[v] & side).bit_count() for v in bits_of(side))
        if 100 * mindeg < m:
            raise PreconditionError(f"inside min degree of {name} below m/100")
        non = g.non_edges_inside(side)
        if 10**4 * non > m * m:
            raise PreconditionError(f"side {name} has too many inside non-edges")
    # two disjoint crossing edges, lexicographically first
    a1 = b1 = a2 = b2 = -1
    for u in bits_of(xmask):
        c = g.rows[u] & ymask
        if c:
            a1, b1 = u, next(bits_of(c))
            break
    if a1 >= 0:
        for u in bits_of(xmask & ~(1 << a1)):
            c = g.rows[u] & ymask & ~(1 << b1)
            if c:
                a2, b2 = u, next(bits_of(c))
                break
    if a2 < 0:
        raise PreconditionError("need two disjoint crossing edges")
    px = _dense_side_path(g, xmask, a1, a2, seed)
    py = _dense_side_path(g, ymask, b2, b1, seed + 1)
    cert = HamCycleCert(tuple(px + py))
    cert.validate(g, g.full_mask())
    return cert


def ham_cycle_near_bipartite(
    g: Graph,
    cut: Cut,
    k_good_witness: LinearForest,
    seed: int = 0,
) -> HamCycleCert:
    """Hamilton cycle for a near-balanced cut with dense crossing graph.

    The witness must be a linear forest inside the larger side X with
    exactly |X| - |Y| edges; its paths supply the within-side edges of the
    cycle.  Low-crossing-degree vertices are wrapped in cherries or pendant
    arms, all pieces are chained by crossing-only connectors of length 2 or
    3, and the balanced remainder is closed through the bipartite path
    routine.
    """
    m = g.m
    amask, bmask = cut.x.mask, cut.y.mask
    na, nb = amask.bit_count(), bmask.bit_count()
    if na < nb:
        raise PreconditionError("X must be the larger (or equal) side")
    if na > nb + NEAR_BIPARTITE_EPS * m:
        raise PreconditionError(f"imbalance {na - nb} exceeds eps*m")
    f = na - nb
    crossing = g.edges_between(amask, bmask)
    if 4 * crossing < (1 - 4 * NEAR_BIPARTITE_EPS) * m * m:
        raise PreconditionError("crossing graph too sparse")
    # an int d has d < gamma * m iff d < gamma_cap
    gamma_cap = ceil(NEAR_BIPARTITE_GAMMA * m)
    for v in bits_of(amask):
        if (g.rows[v] & bmask).bit_count() * 3 < gamma_cap:
            raise PreconditionError(f"crossing degree of {v} below gamma*m/3")
    for v in bits_of(bmask):
        if (g.rows[v] & amask).bit_count() * 3 < gamma_cap:
            raise PreconditionError(f"crossing degree of {v} below gamma*m/3")
    k_good_witness.validate(g, amask)
    if k_good_witness.size != f:
        raise PreconditionError(
            f"witness must have exactly |X|-|Y| = {f} edges, has {k_good_witness.size}"
        )

    low_cap = floor(NEAR_BIPARTITE_LOW * m)
    low_a = 0
    for v in bits_of(amask):
        if (g.rows[v] & bmask).bit_count() <= low_cap:
            low_a |= 1 << v
    low_b = 0
    for v in bits_of(bmask):
        if (g.rows[v] & amask).bit_count() <= low_cap:
            low_b |= 1 << v
    high_a, high_b = amask & ~low_a, bmask & ~low_b
    used = 0

    def grab(mask: int, who: str) -> int:
        nonlocal used
        if not mask:
            raise VerificationError(f"merge failure at endpoints ({who})")
        v = next(bits_of(mask))
        used |= 1 << v
        return v

    pieces: list[list[int]] = []
    fmask = k_good_witness.vertex_mask()
    used |= fmask
    for path in k_good_witness.paths():
        p, q = path[0], path[-1]
        piece = list(path)
        if low_a >> p & 1:
            piece.insert(0, grab(g.rows[p] & high_b & ~used, f"arm of {p}"))
        if low_a >> q & 1:
            piece.append(grab(g.rows[q] & high_b & ~used, f"arm of {q}"))
        pieces.append(piece)
    for v in bits_of((low_a | low_b) & ~fmask):
        used |= 1 << v
        other_high = high_b if amask >> v & 1 else high_a
        x = grab(g.rows[v] & other_high & ~used, f"cherry of {v}")
        y = grab(g.rows[v] & other_high & ~used, f"cherry of {v}")
        pieces.append([x, v, y])

    def side_of(v: int) -> int:
        return 0 if amask >> v & 1 else 1

    if not pieces:
        a0 = next(bits_of(high_a))
        b0 = grab(g.rows[a0] & high_b, f"partner of {a0}")
        used |= 1 << a0
        path = [a0, b0]
    else:
        path = pieces[0]
        for nxt in pieces[1:]:
            end = path[-1]
            attached = False
            for cand in (nxt, nxt[::-1]):
                w = cand[0]
                free = ~used & (amask | bmask)
                if side_of(end) == side_of(w):
                    # length-2 connector through the opposite side
                    zpool = g.rows[end] & g.rows[w] & free
                    zpool_high = zpool & (high_a | high_b)
                    z = zpool_high or zpool
                    if z:
                        path = path + [grab(z, f"connector {end}-{w}")] + cand
                        attached = True
                        break
                else:
                    # length-3 connector: end - z - z2 - w, crossing only
                    z2pool = g.rows[w] & free & (high_a | high_b)
                    found = False
                    for z2 in bits_of(z2pool):
                        zpool = g.rows[end] & g.rows[z2] & free & ~(1 << z2)
                        zpool &= bmask if side_of(end) == 0 else amask
                        if zpool:
                            z = grab(zpool, f"connector {end}-{w}")
                            used |= 1 << z2
                            path = path + [z, z2] + cand
                            found = True
                            break
                    if found:
                        attached = True
                        break
            if not attached:
                raise VerificationError(
                    f"merge failure at endpoints ({path[-1]}, {nxt[0]})"
                )
    # force the chain to end on opposite sides
    if side_of(path[0]) == side_of(path[-1]):
        other_high = high_b if side_of(path[-1]) == 0 else high_a
        path.append(grab(g.rows[path[-1]] & other_high & ~used, "side-fix arm"))
    used = mask_of(path)
    a_end = path[0] if side_of(path[0]) == 0 else path[-1]
    b_end = path[-1] if a_end == path[0] else path[0]
    if path[0] != a_end:
        path = path[::-1]
    rest_a = amask & ~used
    rest_b = bmask & ~used
    if rest_a.bit_count() != rest_b.bit_count():
        raise VerificationError("remainder sides unbalanced (bug)")
    if not rest_a:
        cert = HamCycleCert(tuple(path))
        cert.validate(g, g.full_mask())
        return cert
    x = next(bits_of(g.rows[b_end] & rest_a), -1)
    y = next(bits_of(g.rows[a_end] & rest_b), -1)
    if x < 0 or y < 0:
        raise VerificationError("merge failure at endpoints (remainder hookup)")
    mid = _bipartite_path_scoped(g, rest_a, rest_b, x, y, seed)
    cert = HamCycleCert(tuple(path + mid))
    cert.validate(g, g.full_mask())
    return cert


# ---------------------------------------------------------------------------
# extremal-family criterion
# ---------------------------------------------------------------------------


def gn_criterion(eg: ExtremalGraph, s: VertexSet) -> bool:
    """`families.gn_criterion_mask` on a `VertexSet`: the exact O(#cycles)
    cyclic-subset test for members of the extremal family."""
    from .families import gn_criterion_mask

    return gn_criterion_mask(eg, s.mask)
