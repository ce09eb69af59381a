"""Hamiltonicity: exact decision, certified refutation, heuristic search,
constructive builders.

Five layers:

* an exact decider on the anchored reach-set DP of `subsetdp`, the kernel
  exact counting also runs, over the counts of a path's vertices in each
  twin class of the scope; it relabels the scope with
  `bitgraph.local_rows` and builds the kernel of local anchor 0 with
  `subsetdp.anchored`, as a count builds each anchor's; it takes the
  kernel's table, the fixpoint of at most one in-place pass per vertex
  besides the anchor, reads the answer at the full state and backtracks a
  certificate from that table, or gives a definitive refusal; its `work`
  is the kernel's own state count, the set bits of the table; its only
  budget is the kernel's, `TABLE_MAX_BYTES` (54,806,892 bytes: a twin-free
  scope of 24 vertices, and far more vertices with large twin classes),
  which the kernel checks before it allocates;
* the auto decider's first three tiers, all on one read of the scope
  rows and their sorted degrees: a scope that meets Chvátal's
  degree-sequence condition (Chvátal 1972) is Hamiltonian, carried as a
  `ChvatalCert` that one read of the scope rows checks; otherwise the
  twin-class map, built once, decides a join scope exactly (a twin class
  C joined to a nonempty T = S - C of maximum degree at most 2, as every
  scope of an extremal member that meets both parts is: Hamiltonian iff
  |C| <= |T| and G[T] has at most |C| components), with a woven
  `HamCycleCert` or a `NotHamCert`; otherwise the toughness refuter
  (Chvátal 1973), given the class map and degrees, looks for a nonempty X
  whose removal leaves more than |X| components, among twin classes,
  their neighbourhoods, cut vertices and colour classes, carried as a
  validated `NotHamCert`; the refuter is incomplete and never claims
  Hamiltonicity; it prunes only candidates that cannot split, so the
  first X that splits is the one found; every cut vertex comes from one
  depth-first search, skipped where Bondy's condition (Bondy 1969) rules
  cut vertices out;
* a seeded rotation-extension engine: sound, incomplete, never claims
  non-Hamiltonicity; it keeps the free scope vertices as one mask, so an
  extension step is one AND, one `sampling.stream_pick` call (one stream
  word, drawn and rank-selected) and one XOR; a rotation counts to its
  pivot from the nearer end of the path; the engine itself, `_rotate`, takes
  bare rows and a scope mask and returns a bare vertex list:
  `find_ham_cycle_rotation` wraps it with the scope check and validates the
  cycle, while the builders call it directly;
* constructive routines that build Hamilton paths/cycles in dense regimes
  the way the existence arguments do (delete-and-splice, pigeonhole on
  cycle successors, cherry matchings over low-degree vertices, crossing
  connectors of length 2/3); both cycle builders cover their low-degree
  vertices by pendant arms and cherries and join the pieces in one loop,
  `_chain`, each through its own connector; each builder validates the
  certificate it returns, once, and the helpers under them, the rotation
  engine included, return bare vertex lists, so a cycle rotation finds is
  checked only as part of that certificate; a cut or side over another
  vertex universe than the graph's is refused before any row is read, and
  the crossing graphs are built unchecked (`Graph.bipartite_restriction`);
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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import TYPE_CHECKING

from .bitgraph import (
    Cut, Graph, VertexSet, bits_of, local_rows, mask_of, path_cover, twin_classes,
)
from .errors import BudgetExceededError, PreconditionError, VerificationError
from .sampling import stream_base, stream_below, stream_pick
from .subsetdp import anchored

if TYPE_CHECKING:
    from .families import ExtremalGraph
    from .structures import LinearForest

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


def _check_order(g: Graph, order: tuple[int, ...], scope_mask: int, closed: bool) -> None:
    """Validate a certificate's vertex order in one pass: every vertex in
    0..m-1, every step (and, for a cycle, the last back to the first) an
    edge, no vertex twice, and exactly the scope's vertices."""
    kind = "cycle" if closed else "path"
    m = g.m
    if min(order) < 0 or max(order) >= m:
        raise VerificationError(f"{kind} certificate has a vertex outside 0..{m - 1}")
    rows = g.rows
    u = order[-1] if closed else order[0]
    mask = 0 if closed else 1 << u
    for v in order if closed else order[1:]:
        if not rows[u] >> v & 1:
            raise VerificationError(f"certificate uses non-edge ({u},{v})")
        mask |= 1 << v
        u = v
    if mask.bit_count() != len(order):
        raise VerificationError(f"{kind} certificate repeats a vertex")
    if mask != scope_mask:
        raise VerificationError(f"{kind} certificate does not cover the scope")


def _check_scope(g: Graph, scope_mask: int) -> None:
    """Refuse a scope mask with a bit outside 0..m-1 (or a negative one)
    before a certificate reads the rows of its vertices."""
    if scope_mask >> g.m:
        raise VerificationError(f"scope has a vertex outside 0..{g.m - 1}")


@dataclass(frozen=True)
class HamCycleCert:
    order: tuple[int, ...]

    def validate(self, g: Graph, scope_mask: int) -> None:
        if len(self.order) < 3:
            raise VerificationError("cycle certificate shorter than 3")
        _check_order(g, self.order, scope_mask, closed=True)


@dataclass(frozen=True)
class HamPathCert:
    order: tuple[int, ...]

    def validate(self, g: Graph, scope_mask: int) -> None:
        if len(self.order) < 2:
            raise VerificationError("path certificate shorter than 2")
        _check_order(g, self.order, scope_mask, closed=False)


@dataclass(frozen=True)
class NotHamCert:
    """A toughness obstruction (Chvátal 1973): a nonempty X inside the scope
    S such that G[S] - X has more than |X| components.  Removing X cuts a
    Hamilton cycle of G[S] into at most |X| arcs, so there is none."""

    x_mask: int

    def validate(self, g: Graph, scope_mask: int) -> None:
        if not self.x_mask:
            raise VerificationError("toughness certificate has an empty X")
        _check_scope(g, scope_mask)
        if self.x_mask & ~scope_mask:
            raise VerificationError("toughness certificate leaves the scope")
        if not _splits(g, scope_mask, self.x_mask):
            raise VerificationError(
                f"removing X leaves at most |X| = {self.x_mask.bit_count()} components"
            )


@dataclass(frozen=True)
class ChvatalCert:
    """Chvátal's degree-sequence condition (Chvátal 1972, `_chvatal`) on
    the scope: it proves G[S] Hamiltonian without naming a cycle, and is
    checked from one read of the scope rows."""

    def validate(self, g: Graph, scope_mask: int) -> None:
        _check_scope(g, scope_mask)
        if scope_mask.bit_count() < 3:
            raise VerificationError("degree certificate on fewer than 3 vertices")
        if not _chvatal(sorted(map(int.bit_count, _scope_rows(g.rows, scope_mask)))):
            raise VerificationError("scope degrees fail Chvátal's condition")


@dataclass(frozen=True)
class HamDecision:
    # 'hamiltonian' (with a HamCycleCert, or a ChvatalCert from the auto
    # decider) | 'not_hamiltonian' (a NotHamCert or none) | 'unknown'
    status: str
    cert: HamCycleCert | ChvatalCert | NotHamCert | None
    method: str
    work: int

    def __post_init__(self) -> None:
        proves = isinstance(self.cert, (HamCycleCert, ChvatalCert))
        if self.status == "hamiltonian" and not proves:
            raise VerificationError("hamiltonian decision lacks a cycle or degree certificate")
        if isinstance(self.cert, NotHamCert) and self.status != "not_hamiltonian":
            raise VerificationError("toughness certificate on a non-refusal")
        if isinstance(self.cert, ChvatalCert) and self.status != "hamiltonian":
            raise VerificationError("degree certificate on a non-Hamiltonian decision")


# the auto decider's answer on every scope that meets Chvátal's condition
_CHVATAL_DECISION = HamDecision("hamiltonian", ChvatalCert(), "chvatal", 0)


# ---------------------------------------------------------------------------
# exact decision
# ---------------------------------------------------------------------------


def _more_components(rows, mask: int, k: int) -> bool:
    """Whether g[mask] has more than k components.  The sweep stops once
    the components found plus the vertices left are at most k: each
    component of a vertices spends a - 1 of the |mask| - k vertices that
    more than k components can spare.  It runs `Graph.components`' search
    inline: the generator's frames cost the m = 20 auto decider about 5%."""
    spare = mask.bit_count() - k
    found = 0
    while spare > 0:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & mask & ~comp
            comp |= frontier
        found += 1
        if found > k:
            return True
        spare -= comp.bit_count() - 1
        mask ^= comp
    return False


def _splits(g: Graph, scope_mask: int, x_mask: int) -> bool:
    """Whether g[scope] - X has more than |X| components."""
    return _more_components(g.rows, scope_mask & ~x_mask, x_mask.bit_count())


def _scope_rows(rows, scope_mask: int) -> list[int]:
    """N_S(v) = rows[v] & S for every scope vertex v, in increasing order."""
    srows = []
    rest = scope_mask
    while rest:
        low = rest & -rest
        srows.append(rows[low.bit_length() - 1] & scope_mask)
        rest ^= low
    return srows


def _cheap_cut(g: Graph, scope_mask: int, neighbourhoods, reached: int) -> int:
    """X of one vertex that splits g[scope] (at least 3 vertices): the lone
    neighbour of the first vertex of scope-degree 1, else, for a
    disconnected scope, a vertex of its largest component (any vertex when
    all are single).  `neighbourhoods` are the scope rows (`_scope_rows`)
    or the keys of the twin-class map (`bitgraph.twin_classes`), whose
    order of lowest vertex meets the first vertex of scope-degree 1 first
    too; `reached` is the component of the lowest scope vertex.  0 when
    the scope is connected with minimum degree at least 2."""
    for nbrs in neighbourhoods:
        if nbrs.bit_count() == 1:
            return nbrs
    if reached == scope_mask:
        return 0
    big = max(g.components(scope_mask), key=int.bit_count)
    return big & -big


def _colour_classes(rows, scope_mask: int) -> tuple[int, int, bool]:
    """Breadth-first layers of g[scope] from its lowest vertex: the vertices
    at even depth, those at odd depth, and whether an edge joins two
    vertices of one layer (an odd cycle).  The two masks cover the lowest
    vertex's component; with no such edge they are its colour classes."""
    sides = [0, 0]
    layer = seen = scope_mask & -scope_mask
    depth = 0
    odd_cycle = False
    while layer:
        nbrs = 0
        rest = layer
        while rest:
            low = rest & -rest
            nbrs |= rows[low.bit_length() - 1]
            rest ^= low
        odd_cycle = odd_cycle or bool(nbrs & layer)
        sides[depth & 1] |= layer
        layer = nbrs & scope_mask & ~seen
        seen |= layer
        depth += 1
    return sides[0], sides[1], odd_cycle


def _cut_vertices(rows, scope_mask: int) -> int:
    """The cut vertices of a connected g[scope], from one depth-first search
    (Hopcroft and Tarjan 1973), bit-parallel: the next vertex is the lowest
    unvisited neighbour, and each vertex on the stack carries the OR of the
    rows of its subtree so far.  A non-root v cuts off its child c when the
    rows of c's subtree meet none of v's proper ancestors (an undirected
    search has no cross edges); the root is a cut vertex when it has two
    children."""
    root = scope_mask & -scope_mask
    unseen = scope_mask ^ root
    on_path = root  # the vertices on the stack
    stack = [root]
    nbrs = [rows[root.bit_length() - 1]]
    reach = nbrs[:]
    cuts = 0
    while True:
        nxt = nbrs[-1] & unseen
        if nxt:
            low = nxt & -nxt
            unseen ^= low
            on_path |= low
            row = rows[low.bit_length() - 1]
            stack.append(low)
            nbrs.append(row)
            reach.append(row)
            continue
        top = stack.pop()
        if not stack:
            return cuts
        nbrs.pop()
        sub = reach.pop()
        on_path ^= top
        parent = stack[-1]
        if len(stack) == 1:
            if unseen:  # the root has another child
                cuts |= root
        elif not sub & (on_path ^ parent):
            cuts |= parent
        reach[-1] |= sub


def _bondy(degs: list[int]) -> bool:
    """Bondy's degree-sequence condition for 2-connectivity (Bondy 1969) on
    the sorted degrees d_1 <= ... <= d_s of a connected scope, s >= 3: no
    j <= (s-1)/2 has both d_j <= j and d_{s-1} < s - j.  When it holds, no
    vertex cuts the scope: the smallest component A of S - v, a = |A| <=
    (s-1)/2, would give a vertices of degree at most a, and only v could
    have degree s - a or more."""
    s = len(degs)
    second = degs[s - 2]
    # degs[j - 1] is d_j
    for j in range(1, (s - 1) // 2 + 1):
        if degs[j - 1] <= j and second < s - j:
            return False
    return True


def _may_split(s: int, k: int, delta: int) -> bool:
    """Whether an X of k vertices can split a scope of s vertices with least
    degree delta: every component of S - X holds at least delta - k + 1
    vertices, since each of its vertices keeps delta - k neighbours."""
    return (s - k) // max(delta - k + 1, 1) > k


def _toughness_cut(
    g: Graph, scope_mask: int, classes: dict[int, int], degs: list[int]
) -> int:
    """The first X in `refute_toughness`'s candidate order that splits
    g[scope], or 0; `classes` is the scope's twin-class map
    (`bitgraph.twin_classes`), `degs` the sorted scope degrees.

    Prunes skip only candidates that cannot split, so the order holds.  A
    singleton class {v} splits iff v is a cut vertex: none exists when
    `_bondy` holds, else all are read from one `_cut_vertices` search, run
    at the first singleton.  X = C splits only if `_may_split`.  For
    X = N_S(C) the |C| members of C are isolated in S - X: X splits at once
    when |C| > |X|, else when S - X - C has more than |X| - |C| components
    (`_more_components`, which stops when too few vertices are left)."""
    rows = g.rows
    reached_even, reached_odd, odd_cycle = _colour_classes(rows, scope_mask)
    x = _cheap_cut(g, scope_mask, classes, reached_even | reached_odd)
    if x:
        return x
    small, large = sorted((reached_even, reached_odd), key=int.bit_count)
    if not odd_cycle and small.bit_count() < large.bit_count():
        return small
    s = len(degs)
    cuts = 0 if _bondy(degs) else -1  # -1: not searched yet
    for nbrs, cls in classes.items():
        c = cls.bit_count()
        if c == 1:
            if cuts < 0:
                cuts = _cut_vertices(rows, scope_mask)
            if cuts & cls:
                return cls
        elif _may_split(s, c, degs[0]) and _splits(g, scope_mask, cls):
            return cls
        k = nbrs.bit_count()
        if c > k:
            return nbrs
        if _more_components(rows, scope_mask & ~nbrs & ~cls, k - c):
            return nbrs
    return 0


def _chvatal(degs: list[int]) -> bool:
    """Chvátal's degree-sequence condition (Chvátal 1972) on the sorted
    degrees d_1 <= ... <= d_s of a scope of s >= 3 vertices: no i < s/2 has
    both d_i <= i and d_{s-i} < s - i.  When it holds, the scope is
    Hamiltonian."""
    s = len(degs)
    # degs[i - 1] is d_i
    for i in range(1, (s + 1) // 2):
        if degs[i - 1] <= i and degs[s - i - 1] < s - i:
            return False
    return True


def _join_decision(
    g: Graph, scope_mask: int, classes: dict[int, int], degs: list[int]
) -> HamDecision | None:
    """The exact decision on a join scope, validated, or None when the
    scope is not one.

    A join scope S has a twin class C (`classes`, `bitgraph.twin_classes`)
    whose members are adjacent to every vertex of a nonempty T = S - C, and
    G[T] has maximum degree at most 2: it is C joined to p paths and
    cycles (`bitgraph.path_cover`).
    With c = |C| and t = |T|, G[S] is Hamiltonian iff c <= t and p <= c.
    Twins are never adjacent, so C cuts a Hamilton cycle into c arcs, paths
    of G[T] that cover T; and c paths that cover T, with a member of C
    between each two, close one.  G[T] splits into any number of paths
    from p to t.

    The other classes partition T, so t is at least their number: a scope
    whose largest degree is below that (most twin-free scopes) has no
    joined class, and the classes are not scanned.  A member of T has
    scope degree c + deg_T and one of C degree t, so one bisection of the
    sorted degrees `degs` checks the degree bound, and their sum gives
    e(T).  The answer has method 'join' and work 0:
    X = T when c > t (removing T leaves c isolated vertices); X = C when
    p > c, known from t - e(T) > c before any path is built, since
    p >= t - e(T), else from the path cover; else a `HamCycleCert` woven
    from the p paths, split into c.
    """
    if degs[-1] < len(classes) - 1:
        return None
    s = len(degs)
    for t_mask, c_mask in classes.items():
        if t_mask | c_mask != scope_mask or not t_mask:
            continue
        c, t = c_mask.bit_count(), t_mask.bit_count()
        if s - bisect_right(degs, c + 2) != (c if t > c + 2 else 0):
            continue  # some vertex of T has three neighbours in T
        paths = None
        if c <= t and t - (sum(degs) // 2 - c * t) <= c:
            paths = path_cover(g.rows, t_mask)
        if paths is None or len(paths) > c:
            cert = NotHamCert(t_mask if c > t else c_mask)
            cert.validate(g, scope_mask)
            return HamDecision("not_hamiltonian", cert, "join", 0)
        # a member of C before each path, and before c - p more vertices
        # inside the paths, which splits them into c
        members = bits_of(c_mask)
        extra = c - len(paths)
        order = []
        for path in paths:
            order += (next(members), path[0])
            for v in path[1:]:
                if extra:
                    order.append(next(members))
                    extra -= 1
                order.append(v)
        cycle = HamCycleCert(tuple(order))
        cycle.validate(g, scope_mask)
        return HamDecision("hamiltonian", cycle, "join", 0)
    return None


def refute_toughness(
    g: Graph, scope_mask: int, classes: dict[int, int], degs: list[int]
) -> NotHamCert | None:
    """A validated toughness certificate for g[scope], a scope of at least
    3 vertices, or None.

    `classes` is the scope's twin-class map (`bitgraph.twin_classes`) and
    `degs` the sorted scope degrees, as `decide_hamiltonian_auto` builds
    them once for the join tier and the refuter.  The refuter has no degree
    gate of its own: the decider tests Chvátal's condition (`_chvatal`) on
    the same degrees, and the join tier (`_join_decision`) on the same
    classes, before it calls the refuter.  Called on a Chvátal scope it
    still returns None, since such a scope is Hamiltonian, hence 1-tough,
    so no X splits it.

    Candidates for X (`_toughness_cut`), cheapest first: the lone neighbour
    of a vertex of scope-degree 1; one vertex of a disconnected scope; the
    smaller colour class of an unbalanced bipartite scope; and, for every
    twin class C (singletons included) in order of its lowest vertex,
    X = C and X = N_S(C).  A cut vertex never has a twin, so the singleton
    classes try every cut vertex.  On a member of the extremal family,
    C = the B-part survivors gives both refutations of `gn_criterion`:
    X = N_S(C) = T when d < 0, and X = C when e(T) < d; in the decider the
    join tier settles those scopes first, with the same two X.

    None decides nothing: the Petersen graph is not Hamiltonian and has no
    such X.
    """
    x = _toughness_cut(g, scope_mask, classes, degs)
    if not x:
        return None
    cert = NotHamCert(x)
    cert.validate(g, scope_mask)
    return cert


def is_hamiltonian_exact(g: Graph, scope: VertexSet) -> HamDecision:
    """Definitive decision on g[scope] by the reach-set DP of `subsetdp`.

    Paths are anchored at the lowest scope vertex; a certificate is
    backtracked when the final state closes to the anchor, each step
    taking the lowest vertex that fits.  `work` is the number of states
    the kernel set, the pairs (class j, counts x) with bit x of R_j set:
    sum |reach[M]| on a twin-free scope, one state per twin class and
    count vector where the scope has twins.  A scope with a
    vertex of scope-degree 1, or a disconnected one, is refused before the
    DP with a `NotHamCert` and work 0, at any size; the DP's own refusals
    carry none.  Past that, the kernel's byte budget applies: `Quotient`
    raises BudgetExceededError before it allocates (every twin-free scope
    of more than 24 vertices).  A scope with a vertex outside the graph
    raises PreconditionError.
    """
    smask = scope.mask
    if smask >> g.m:
        raise PreconditionError(f"scope has a vertex outside 0..{g.m - 1}")
    s = scope.size
    if s < 3:
        return HamDecision("not_hamiltonian", None, "dp", 0)
    srows = _scope_rows(g.rows, smask)
    x = _cheap_cut(g, smask, srows, next(g.components(smask)))
    if x:
        cert = NotHamCert(x)
        cert.validate(g, smask)
        return HamDecision("not_hamiltonian", cert, "dp", 0)

    # the anchor is local 0; the kernel runs over locals 1..s-1, shifted by 1
    adj, verts = local_rows(g.rows, smask)
    q = anchored(adj, 0)
    # table[j] has bit x set iff a vertex of class j ends a path through the
    # sets of counts x
    table = q.table()
    work = sum(map(int.bit_count, table))
    digit, weight = q.digit, q.weight
    mask = (1 << (s - 1)) - 1
    state = q.size - 1  # every class digit full: the state of mask
    want = q.seed  # the last vertex closes to the anchor
    order_local = []
    while mask:
        # the lowest w in mask, next to the vertex after it, that ends a path
        # through mask; by symmetry every member of its class in mask does
        p = next((w for w in bits_of(want & mask) if table[digit[w]] >> state & 1), None)
        if p is None:
            if not order_local:
                return HamDecision("not_hamiltonian", None, "dp", work)
            raise VerificationError("DP backtrack failed (bug)")
        order_local.append(p + 1)
        mask ^= 1 << p
        state -= weight[digit[p]]
        want = adj[p + 1] >> 1
    order_local.append(0)
    order = tuple(verts[i] for i in reversed(order_local))
    cert = HamCycleCert(order)
    cert.validate(g, smask)
    return HamDecision("hamiltonian", cert, "dp", work)


# ---------------------------------------------------------------------------
# rotation-extension engine
# ---------------------------------------------------------------------------


def _rotate(rows, scope_mask: int, budget: int, seed: int) -> tuple[list[int] | None, int]:
    """The rotation-extension engine behind `find_ham_cycle_rotation`: a
    Hamilton cycle of the scope (at least 3 vertices, all below len(rows))
    as a bare vertex list, or None, and the rotations spent.  It checks
    neither the scope nor the cycle: the public wrapper does both, and the
    builders validate the certificate each cycle ends up in."""
    s = scope_mask.bit_count()
    rotations = 0
    per_restart = max(budget // ROTATION_RESTARTS, 4 * s)
    for restart in range(ROTATION_RESTARTS):
        if rotations >= budget:
            break
        base = stream_base(seed, restart)
        start = stream_pick(base, 0, scope_mask)
        word = 1  # the next stream word
        path = [start]
        free = scope_mask ^ (1 << start)
        spent = 0
        while spent < per_restart and rotations < budget:
            end = path[-1]
            ext = rows[end] & free
            if ext:
                v = stream_pick(base, word, ext)
                word += 1
                path.append(v)
                free ^= 1 << v
                continue
            if not free and rows[end] >> start & 1:  # rotations keep path[0]
                return path, rotations
            if len(path) < 3:
                break
            # rotate: pick a path neighbour path[i] of the endpoint, i below
            # len(path) - 2, and reverse the tail after it; path[-2] is
            # always a neighbour, the only one not below len(path) - 2
            nbrs = rows[end] & (scope_mask ^ free)
            pivots = nbrs.bit_count() - 1
            if not pivots:
                break
            r = stream_below(base, word, pivots)
            word += 1
            # count to the r-th pivot from whichever end of the path is nearer
            if 2 * r < pivots:
                scan = range(len(path) - 2)
            else:
                scan = range(len(path) - 3, -1, -1)
                r = pivots - 1 - r
            for i in scan:
                if nbrs >> path[i] & 1:
                    if not r:
                        break
                    r -= 1
            path[i + 1 :] = path[:i:-1]
            rotations += 1
            spent += 1
    return None, rotations


def find_ham_cycle_rotation(
    g: Graph, scope: VertexSet, budget: int = 20000, seed: int = 0
) -> HamDecision:
    """Seeded rotation-extension search: hamiltonian-or-unknown, never a
    refusal.  Deterministic given seed; budget counts rotations across all
    restarts.

    Each restart reads its own stream, based at `stream_base(seed,
    restart)`, one word per draw: the start is the rank-`below(s)` vertex
    of the scope, an extension the rank-`below(|ext|)` free neighbour of
    the endpoint (both one `stream_pick` call), a rotation the
    `below(#pivots)`-th pivot in path order (`stream_below`).  `free`
    holds the scope vertices off the path.  The search is the engine
    `_rotate`; this wrapper refuses a scope with a vertex outside the graph
    (PreconditionError), answers unknown below 3 vertices and validates
    the cycle it returns."""
    smask = scope.mask
    if smask >> g.m:
        raise PreconditionError(f"scope has a vertex outside 0..{g.m - 1}")
    if scope.size < 3:
        return HamDecision("unknown", None, "rotation", 0)
    order, rotations = _rotate(g.rows, smask, budget, seed)
    if order is None:
        return HamDecision("unknown", None, "rotation", rotations)
    cert = HamCycleCert(tuple(order))
    cert.validate(g, smask)
    return HamDecision("hamiltonian", cert, "rotation", rotations)


def decide_hamiltonian_auto(g: Graph, scope: VertexSet, seed: int = 0) -> HamDecision:
    """Tiered policy, every answer certified:

    1. one read of the scope rows and their sorted degrees, which the
       first three tiers share: a scope whose degrees meet Chvátal's
       condition (`_chvatal`) is Hamiltonian, with a `ChvatalCert`,
       method 'chvatal' and work 0 (one shared decision, not validated
       again, since validating it is the same test);
    2. the twin-class map (`bitgraph.twin_classes`), built once from those
       rows: a join scope, a twin class joined to a graph of maximum degree
       at most 2 (every scope of an extremal member that meets both parts),
       is decided exactly by `_join_decision`, method 'join' and work 0;
    3. `refute_toughness`, given the class map and the degrees, for a
       `NotHamCert`, method 'toughness';
    4. search: rotation, within AUTO_ROTATIONS rotations, capped at s*s on
       scopes of at most SMALL_SCOPE vertices, which bounds the cost of a
       refuter miss; then the exact DP, for scopes within the kernel's
       byte budget (`subsetdp.TABLE_MAX_BYTES`: twin-free scopes of at
       most 24 vertices, larger ones with large twin classes).

    A scope neither refuted nor rotated that the kernel refuses stays
    unknown, with the rotation's decision.  A scope with a vertex outside
    the graph raises PreconditionError before any row is read.
    """
    smask = scope.mask
    if smask >> g.m:
        raise PreconditionError(f"scope has a vertex outside 0..{g.m - 1}")
    s = scope.size
    if s < 3:
        return HamDecision("not_hamiltonian", None, "auto", 0)
    srows = _scope_rows(g.rows, smask)
    degs = sorted(map(int.bit_count, srows))
    if _chvatal(degs):
        return _CHVATAL_DECISION
    classes = twin_classes(smask, srows)
    dec = _join_decision(g, smask, classes, degs)
    if dec is not None:
        return dec
    cert = refute_toughness(g, smask, classes, degs)
    if cert is not None:
        return HamDecision("not_hamiltonian", cert, "toughness", 0)
    budget = min(AUTO_ROTATIONS, s * s) if s <= SMALL_SCOPE else AUTO_ROTATIONS
    dec = find_ham_cycle_rotation(g, scope, budget=budget, seed=seed)
    if dec.status == "hamiltonian":
        return dec
    try:
        return is_hamiltonian_exact(g, scope)
    except BudgetExceededError:
        return dec


# ---------------------------------------------------------------------------
# constructive builders (dense regimes)
# ---------------------------------------------------------------------------


def _cycle_in_scope(g: Graph, scope_mask: int, seed: int) -> list[int]:
    """Hamilton cycle of g[scope] via the rotation engine `_rotate` (200
    rotations per vertex, at least 20000), exact fallback within the
    kernel's byte budget.  A bare list, unchecked when rotation finds it:
    the builder validates the certificate it is part of.  The scope lies
    within g and has at least 3 vertices, as every builder's checks make
    it."""
    size = scope_mask.bit_count()
    order, work = _rotate(g.rows, scope_mask, max(20000, 200 * size), seed)
    if order is not None:
        return order
    try:
        dec = is_hamiltonian_exact(g, VertexSet(scope_mask, g.m))
    except BudgetExceededError:
        pass
    else:
        if dec.status == "hamiltonian":
            return list(dec.cert.order)
        work = dec.work
    raise BudgetExceededError(
        f"cycle engine gave up on a {size}-vertex scope (work {work})"
    )


def _check_universe(g: Graph, *sets: Cut | VertexSet) -> None:
    """Refuse a cut or side over another vertex universe than g's before a
    builder reads a row: the rotation engine reads rows unchecked."""
    for x in sets:
        if x.m != g.m:
            raise PreconditionError(f"vertex universe of {x.m}, graph of {g.m}")


def _dirac_path_scoped(
    g: Graph, scope_mask: int, a: int, b: int, seed: int = 0
) -> list[int]:
    """Hamilton path of g[scope] from a to b under the Dirac-plus-one bound.

    Deletes a and b, finds a Hamilton cycle of the rest, then splices at a
    cycle edge x-y with a~x and b~y, which the degree counting guarantees.
    A bare list: its caller validates the certificate.
    """
    size = scope_mask.bit_count()
    if a == b:
        raise PreconditionError("endpoints must differ")
    if min(a, b) < 0 or not (scope_mask >> a & 1 and scope_mask >> b & 1):
        raise PreconditionError("endpoints must lie in the scope")
    mindeg = min((g.rows[v] & scope_mask).bit_count() for v in bits_of(scope_mask))
    if 2 * mindeg < size + 2:
        raise PreconditionError(
            f"need min degree >= m/2 + 1 in the scope (have {mindeg}, m={size})"
        )
    rest = scope_mask & ~(1 << a) & ~(1 << b)
    if size == 4:  # only K4 meets the bound; rest is one edge, not a cycle
        x, y = bits_of(rest)
        return [a, x, y, b]
    cyc = _cycle_in_scope(g, rest, seed)
    k = len(cyc)
    for i in range(k):
        x, y = cyc[i], cyc[(i + 1) % k]
        if g.has_edge(a, x) and g.has_edge(b, y):
            # walk backwards from x around to y
            mid = [cyc[(i - j) % k] for j in range(k)]
            return [a] + mid + [b]
    raise VerificationError("pigeonhole splice found no cycle edge (out of regime)")


def ham_path_dirac(g: Graph, a: int, b: int, seed: int = 0) -> HamPathCert:
    """Hamilton path between any two vertices when min degree >= m/2 + 1."""
    cert = HamPathCert(tuple(_dirac_path_scoped(g, g.full_mask(), a, b, seed)))
    cert.validate(g, g.full_mask())
    return cert


def _bipartite_path_scoped(
    cross: Graph, lmask: int, rmask: int, a: int, b: int, seed: int = 0
) -> list[int]:
    """Hamilton path a..b of `cross`, the crossing graph
    `g.bipartite_restriction(lmask, rmask)` of two disjoint sides, with
    |left| = |right|, a on the left, b on the right, crossing min degree
    >= m/4 + 1.  A bare list: its caller validates the certificate."""
    nl, nr = lmask.bit_count(), rmask.bit_count()
    if nl != nr:
        raise PreconditionError(f"sides must balance (|L|={nl}, |R|={nr})")
    if a < 0 or not lmask >> a & 1:
        raise PreconditionError("a must be on the left side")
    if b < 0 or not rmask >> b & 1:
        raise PreconditionError("b must be on the right side")
    m = nl + nr
    scope_mask = lmask | rmask
    rows = cross.rows
    for side in (lmask, rmask):
        for v in bits_of(side):
            if 4 * rows[v].bit_count() < m + 4:
                raise PreconditionError(f"crossing degree of {v} below m/4 + 1")
    if nl == 2:
        # remainder is a single crossing edge; wire directly
        r2 = next(bits_of(rmask & ~(1 << b)))
        l2 = next(bits_of(lmask & ~(1 << a)))
        return [a, r2, l2, b]
    rest = scope_mask & ~(1 << a) & ~(1 << b)
    cyc = _cycle_in_scope(cross, rest, seed)
    k = len(cyc)
    pos = {v: i for i, v in enumerate(cyc)}
    # successor pigeonhole: some v ~ a has its successor ~ b
    for v in bits_of(rows[a] & rest):
        w = cyc[(pos[v] + 1) % k]
        if rows[b] >> w & 1:
            i = pos[v]
            mid = [cyc[(i - j) % k] for j in range(k)]
            return [a] + mid + [b]
    raise VerificationError("successor sets failed to intersect (out of regime)")


def ham_path_bipartite(
    g: Graph, left: VertexSet, right: VertexSet, a: int, b: int, seed: int = 0
) -> HamPathCert:
    """Hamilton path from a (left) to b (right) of the crossing graph when
    the sides balance and every crossing degree is >= m/4 + 1, validated
    against the crossing graph, so it uses no within-side edge.  Sides over
    another vertex universe than g's, or overlapping sides, raise
    PreconditionError."""
    _check_universe(g, left, right)
    lmask, rmask = left.mask, right.mask
    cross = g.bipartite_restriction(lmask, rmask)
    cert = HamPathCert(tuple(_bipartite_path_scoped(cross, lmask, rmask, a, b, seed)))
    cert.validate(cross, lmask | rmask)
    return cert


def _chain(path: list[int], pieces, connect) -> None:
    """Extend `path` by each piece in turn, as given or else reversed,
    through the connector that `connect(end, w)` returns for the path's
    last vertex and the piece's first: the new vertices between them, or
    None when there is none.  Neither end connecting is a merge failure."""
    for piece in pieces:
        end = path[-1]
        for cand in (piece, piece[::-1]):
            via = connect(end, cand[0])
            if via is not None:
                path += via
                path += cand
                break
        else:
            raise VerificationError(f"merge failure at endpoints ({end}, {piece[0]})")


def _dense_side_path(
    g: Graph, side_mask: int, low: int, s: int, t: int, seed: int
) -> list[int]:
    """Hamilton path s..t of g[side] in the dense-side regime.

    A side of at most 5 vertices is complete, since the regime allows a
    graph of at most 10 vertices no missing side edge: its path is s, the
    other side vertices, then t.  Otherwise the vertices of `low`
    (side-degree <= TWO_CLIQUES_LOW * g.m, read by the caller) are covered
    first by pendant arms (at s, t) and cherries, the pieces are chained
    through common neighbours (`_chain`), and the dense remainder is
    finished by the Dirac path routine.  A bare list:
    `ham_cycle_two_cliques` validates the cycle it is part of.
    """
    if side_mask.bit_count() <= 5:
        return [s, *bits_of(side_mask & ~(1 << s) & ~(1 << t)), t]
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
    for v in bits_of(low & ~used):
        used |= 1 << v
        x = take_lowest(g.rows[v] & high & ~used, f"cherry of {v}")
        y = take_lowest(g.rows[v] & high & ~used, f"cherry of {v}")
        cherries.append([x, v, y])

    def connect(end: int, w: int) -> list[int] | None:
        z = g.rows[end] & g.rows[w] & high & ~used
        return [take_lowest(z, f"join {end}-{w}")] if z else None

    _chain(piece, cherries, connect)
    # finish through the dense remainder with a Dirac path
    rest = side_mask & ~used
    if not rest:
        return piece + tail
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
    return piece + _dirac_path_scoped(g, rest, r1v, r2v, seed) + tail


def ham_cycle_two_cliques(g: Graph, cut: Cut, seed: int = 0) -> HamCycleCert:
    """Hamilton cycle when both cut sides are near-cliques joined by at
    least two disjoint crossing edges.

    Regime: both sides >= 0.49m, inside min degree >= m/100, inside
    non-edges <= m^2/10^4.  Each side gets a Hamilton path between the
    crossing endpoints (low-degree vertices first via cherries, dense rest
    via the Dirac routine); the two paths and the two crossing edges close
    the cycle.
    """
    _check_universe(g, cut)
    m = g.m
    xmask, ymask = cut.x.mask, cut.y.mask
    # an int degree d has d <= TWO_CLIQUES_LOW * m iff d <= low_cap
    low_cap = floor(TWO_CLIQUES_LOW * m)
    lows = []
    for name, side in (("X", xmask), ("Y", ymask)):
        size = side.bit_count()
        if 100 * size < 49 * m:
            raise PreconditionError(f"side {name} smaller than 0.49m")
        verts = list(bits_of(side))
        degs = [(g.rows[v] & side).bit_count() for v in verts]
        if 100 * min(degs) < m:
            raise PreconditionError(f"inside min degree of {name} below m/100")
        non = size * (size - 1) // 2 - sum(degs) // 2
        if 10**4 * non > m * m:
            raise PreconditionError(f"side {name} has too many inside non-edges")
        lows.append(mask_of(v for v, d in zip(verts, degs) if d <= low_cap))
    # two disjoint crossing edges, lexicographically first
    ends = []
    free_y = ymask
    for u in bits_of(xmask):
        c = g.rows[u] & free_y
        if c:
            b = next(bits_of(c))
            free_y ^= 1 << b
            ends.append((u, b))
            if len(ends) == 2:
                break
    else:
        raise PreconditionError("need two disjoint crossing edges")
    (a1, b1), (a2, b2) = ends
    px = _dense_side_path(g, xmask, lows[0], a1, a2, seed)
    py = _dense_side_path(g, ymask, lows[1], b2, b1, seed + 1)
    cert = HamCycleCert(tuple(px + py))
    cert.validate(g, g.full_mask())
    return cert


def ham_cycle_near_bipartite(
    g: Graph, cut: Cut, k_good_witness: LinearForest, seed: int = 0
) -> HamCycleCert:
    """Hamilton cycle for a near-balanced cut with dense crossing graph.

    The witness must be a linear forest inside the larger side X with
    exactly |X| - |Y| edges; its paths supply the within-side edges of the
    cycle.  Low-crossing-degree vertices are wrapped in cherries or pendant
    arms, all pieces are chained (`_chain`) by crossing-only connectors of
    length 2 or 3, and the balanced remainder is closed through the
    bipartite path routine, or joined directly when it is one vertex a
    side.
    """
    _check_universe(g, cut)
    m = g.m
    amask, bmask = cut.x.mask, cut.y.mask
    na, nb = amask.bit_count(), bmask.bit_count()
    if na < nb:
        raise PreconditionError("X must be the larger (or equal) side")
    if na > nb + NEAR_BIPARTITE_EPS * m:
        raise PreconditionError(f"imbalance {na - nb} exceeds eps*m")
    f = na - nb
    # each crossing degree is read once: the degrees of A sum to e(A, B)
    cross_degs = [(v, (g.rows[v] & bmask).bit_count()) for v in bits_of(amask)]
    if 4 * sum(d for _, d in cross_degs) < (1 - 4 * NEAR_BIPARTITE_EPS) * m * m:
        raise PreconditionError("crossing graph too sparse")
    cross_degs += [(v, (g.rows[v] & amask).bit_count()) for v in bits_of(bmask)]
    # an int d has d < gamma * m iff d < gamma_cap, and d <= LOW * m iff
    # d <= low_cap
    gamma_cap = ceil(NEAR_BIPARTITE_GAMMA * m)
    low_cap = floor(NEAR_BIPARTITE_LOW * m)
    low = 0
    for v, d in cross_degs:
        if d * 3 < gamma_cap:
            raise PreconditionError(f"crossing degree of {v} below gamma*m/3")
        if d <= low_cap:
            low |= 1 << v
    k_good_witness.validate(g, amask)
    if k_good_witness.size != f:
        raise PreconditionError(
            f"witness must have exactly |X|-|Y| = {f} edges, has {k_good_witness.size}"
        )

    high_a, high_b = amask & ~low, bmask & ~low
    used = k_good_witness.vertex_mask()

    def grab(mask: int, who: str) -> int:
        nonlocal used
        if not mask:
            raise VerificationError(f"merge failure at endpoints ({who})")
        v = next(bits_of(mask))
        used |= 1 << v
        return v

    pieces = []
    for piece in k_good_witness.paths():
        p, q = piece[0], piece[-1]
        if low >> p & 1:
            piece.insert(0, grab(g.rows[p] & high_b & ~used, f"arm of {p}"))
        if low >> q & 1:
            piece.append(grab(g.rows[q] & high_b & ~used, f"arm of {q}"))
        pieces.append(piece)
    for v in bits_of(low & ~used):  # the low vertices off the witness
        used |= 1 << v
        other_high = high_b if amask >> v & 1 else high_a
        x = grab(g.rows[v] & other_high & ~used, f"cherry of {v}")
        y = grab(g.rows[v] & other_high & ~used, f"cherry of {v}")
        pieces.append([x, v, y])
    # every low vertex is on a piece now, so no connector takes one

    def connect(end: int, w: int) -> list[int] | None:
        free = (amask | bmask) & ~used
        end_side = amask >> end & 1
        if end_side == amask >> w & 1:
            # length-2 connector through the opposite side
            z = g.rows[end] & g.rows[w] & free
            return [grab(z, f"connector {end}-{w}")] if z else None
        # length-3 connector: end - z - z2 - w, crossing only
        for z2 in bits_of(g.rows[w] & free):
            z = g.rows[end] & g.rows[z2] & free & (bmask if end_side else amask)
            if z:
                return [grab(z, f"connector {end}-{w}"), grab(1 << z2, f"connector {end}-{w}")]
        return None

    path = pieces[0] if pieces else [grab(high_a, "start")]
    _chain(path, pieces[1:], connect)
    # force the chain to end on opposite sides, then start it in A
    if amask >> path[0] & 1 == amask >> path[-1] & 1:
        other_high = high_b if amask >> path[-1] & 1 else high_a
        path.append(grab(g.rows[path[-1]] & other_high & ~used, "side-fix arm"))
    if not amask >> path[0] & 1:
        path.reverse()
    rest_a, rest_b = amask & ~used, bmask & ~used
    if rest_a.bit_count() != rest_b.bit_count():
        raise VerificationError("remainder sides unbalanced (bug)")
    if rest_a:
        x = next(bits_of(g.rows[path[-1]] & rest_a), -1)
        y = next(bits_of(g.rows[path[0]] & rest_b), -1)
        if x < 0 or y < 0:
            raise VerificationError("merge failure at endpoints (remainder hookup)")
        if rest_a & (rest_a - 1):
            cross = g.bipartite_restriction(rest_a, rest_b)
            path += _bipartite_path_scoped(cross, rest_a, rest_b, x, y, seed)
        else:  # one vertex a side, joined directly
            path += (x, y)
    cert = HamCycleCert(tuple(path))
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
