"""Cyclic-subset counting: exact enumeration, the polynomial-time exact
evaluator for the extremal family, and seeded Monte Carlo estimators.

A subset S is cyclic when G[S] has a Hamilton cycle.  Exact counts run
the reach-set DP of `subsetdp`, the kernel the exact Hamiltonicity
decider also runs, in two forms.  The low anchors a = 0, 1, ... each
count the cyclic S with minimum vertex a, from one kernel table over the
vertices {a+1..m-1} (`subsetdp.anchored`), the fixpoint of in-place
passes (at most one per universe vertex).  The kernel's states are the
counts of M in each twin class of that universe.  The table gives the
closing set of a (`Quotient.closing`): an int with the state x set iff
{a} + M is cyclic for the sets M of counts x.
`Quotient.subsets_by_size` splits it by |M| = t, reading it one digit
run of each larger class at a time down to popcount masks over the
classes of one, and weighs each state by the number of sets M it stands
for: the number of cyclic subsets of size t+1 with minimum a.  Each of
the kernel's ints holds N = 2^s * prod(|C| + 1) bits, s the number of
classes of one and C the larger classes; N = 2^k for a twin-free
universe of k vertices.

Once the suffix {a..m-1} has at most MERGE_MAX_STATES states, prod(|C| + 1)
over its twin classes, read from the rows before any kernel is built, one
every-start kernel (`Quotient(adj, None)`) counts the rest: each cyclic
subset of the suffix once, at its lowest twin class, its closing set split
by size the same way.  On small universes a kernel costs more in
bookkeeping (classes, masks, popcount layers, one Python call per run)
than in big-int work, so one kernel for the whole suffix saves most of a
count of the paper's twin-rich members.  On large ones the every-start
form holds twice the states of the anchor's universe and does more
full-width work, so the large anchors stay one kernel each.

The only budget is the kernel's, in bytes (`subsetdp.TABLE_MAX_BYTES`):
each anchor's `Quotient` refuses before it builds an int of N bits, so a
count holds no vertex limit of its own.  A twin-free graph keeps the limit
of 24 vertices (the anchor 0 plus a universe of 23, refused at once past
it), and graphs with large twin classes, such as the paper's families,
count far past it.  Exact counts run in one process and load no numpy.  Monte
Carlo work partitions by sample index with counter-based streams, so
estimates never depend on worker count or scheduling.

The extremal family evaluator avoids enumeration entirely: for each
2-factor cycle the number of t-vertex subsets forming exactly c arcs is
(l/c) * C(t-1,c-1) * C(l-t-1,c-1), giving the joint profile of (chosen
vertices, induced linear-forest edges, capped at l-1 for the full cycle);
profiles convolve across cycles and combine with binomial prefix sums over
the independent part.

Only what exact counts run is imported at module level, so `cycsets count`
loads `bitgraph`, `errors` and `subsetdp` and nothing else of the package.
The other paths import their modules where they start: the Monte Carlo
block imports `sampling` and resolves its decider once per block, never
per sample, from `hamilton`, or from `families` for the `gn` criterion,
and `mainplus_report` imports `families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import TYPE_CHECKING

from .bitgraph import Graph, VertexSet
from .errors import BudgetExceededError, PreconditionError, check_seed
from .subsetdp import Quotient, anchored

if TYPE_CHECKING:
    from .families import ExtremalGraph

# `_estimate_block` keeps decided answers on graphs this small, where scopes
# repeat.  It pays: 20,000 samples at p = 1/2 (auto) took 14 ms with it and
# 168 ms without on the octahedron, 77 and 269 ms on K_{6,6}, same answers
# (2-core VM, in process); the benchmark's CLI batch runs that octahedron.
MEMO_MAX_VERTICES = 16
# The most states of a suffix that one every-start kernel counts.  Twin-free
# graphs of 18 to 20 vertices, degree 3 to 17, counted within 7% at 2^16
# and 2^17 and 4-21% slower at 2^18 than at 2^16, where one kernel takes
# all or nearly all of the graph; twin-rich ones counted as fast at 2^16 as
# at any smaller bound, or faster (2-core VM, in process).
MERGE_MAX_STATES = 1 << 16


@dataclass(frozen=True)
class CycReport:
    total_subsets: int
    cyclic_count: int
    p_exact: Fraction
    per_size: tuple[int, ...]


@dataclass(frozen=True)
class EstimateReport:
    p_hat: Fraction
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    p_retention: Fraction
    undecided_fraction: Fraction
    successes: int
    decider: str


def _suffix_states(g: Graph, a: int) -> int:
    """The states of the every-start kernel over {a..m-1}: prod(|C| + 1)
    over its twin classes, read from the rows before any int is built."""
    sizes: dict[int, int] = {}
    for r in g.rows[a:]:
        sizes[r >> a] = sizes.get(r >> a, 0) + 1
    return prod(n + 1 for n in sizes.values())


def cyc_count_exact(g: Graph, workers: int = 1) -> CycReport:
    """Exact Cyc(g) by the shared reach-set DP, within the kernel's byte
    budget (`subsetdp.TABLE_MAX_BYTES`), which each `Quotient` checks
    before it allocates.

    Each anchor a = 0, 1, ... counts the cyclic S with minimum a from its
    closing set split by size, each state weighed by the sets it stands
    for, while the suffix {a..m-1} has more than MERGE_MAX_STATES states;
    then one every-start kernel counts every cyclic S of the suffix, at its
    lowest twin class.  So each cyclic S is counted once.  The count runs
    in-process; `workers` is accepted for call compatibility with
    `estimate_h` and does not change the work or the answer.
    """
    m = g.m
    hist = [0] * (m + 1)
    a = 0
    while _suffix_states(g, a) > MERGE_MAX_STATES:  # the empty suffix has one state
        q = anchored(g.rows, a)
        if q is not None:
            for t, n in enumerate(q.subsets_by_size(q.closing()), 1):
                hist[t] += n
        a += 1
    q = Quotient([r >> a for r in g.rows[a:]], None)
    for t, n in enumerate(q.subsets_by_size(q.closing())):
        hist[t] += n
    total = sum(hist)
    return CycReport(1 << m, total, Fraction(total, 1 << m), tuple(hist))


# ---------------------------------------------------------------------------
# exact p for the named families
# ---------------------------------------------------------------------------


def cycle_profile(ell: int) -> dict[tuple[int, int], int]:
    """#subsets of an ell-cycle by (chosen vertices t, forest edges e).

    e counts the induced cycle edges, capped at ell-1 when the whole cycle
    is chosen (a full cycle only yields a path after dropping one edge).
    For 0 < t < ell a subset with c arcs has e = t - c, and there are
    (ell/c) * C(t-1,c-1) * C(ell-t-1,c-1) such subsets.
    """
    if ell < 3:
        raise PreconditionError("cycles have length >= 3")
    prof: dict[tuple[int, int], int] = {(0, 0): 1, (ell, ell - 1): 1}
    for t in range(1, ell):
        for c in range(1, min(t, ell - t) + 1):
            num = ell * comb(t - 1, c - 1) * comb(ell - t - 1, c - 1)
            if num % c:
                raise AssertionError("arc-count formula not integral (bug)")
            prof[(t, t - c)] = prof.get((t, t - c), 0) + num // c
    return prof


def _convolve(p1: dict[tuple[int, int], int], p2: dict[tuple[int, int], int]):
    out: dict[tuple[int, int], int] = {}
    for (t1, e1), c1 in p1.items():
        for (t2, e2), c2 in p2.items():
            key = (t1 + t2, e1 + e2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def p_exact_extremal(n: int, cycle_lengths: list[int]) -> Fraction:
    """Exact p(G) for the extremal member with this 2-factor, no enumeration.

    Sums, over the joint cycle profile (t, e) with t >= 2, the number of
    B-part draws b in [max(1, t-e), min(t, n-1)] — exactly the b for which
    the membership criterion passes — plus one B-empty cyclic subset per
    2-factor cycle.
    """
    if n < 2:
        raise PreconditionError("n must be >= 2")
    if n > 1000:
        raise BudgetExceededError("p_exact_extremal budget: n > 1000")
    lengths = list(cycle_lengths)
    if any(ell < 3 for ell in lengths) or sum(lengths) != n + 1:
        raise PreconditionError(f"invalid cycle type {lengths} for n={n}")
    prof = cycle_profile(lengths[0])
    for ell in lengths[1:]:
        prof = _convolve(prof, cycle_profile(ell))
    nb = n - 1
    prefix = [0] * (nb + 1)  # prefix[j] = sum_{b<=j} C(nb, b)
    run = 0
    for j in range(nb + 1):
        run += comb(nb, j)
        prefix[j] = run
    count = 0
    for (t, e), mult in prof.items():
        if t < 2:
            continue
        lo = max(1, t - e)
        hi = min(t, nb)
        if lo > hi:
            continue
        count += mult * (prefix[hi] - (prefix[lo - 1] if lo else 0))
    count += len(lengths)
    return Fraction(count, 1 << (2 * n))


def p_exact_knn(n: int) -> Fraction:
    """Exact p(K_{n,n}): subsets are cyclic iff both sides draw equally,
    at least 2 each; closed form (C(2n,n) - 1 - n^2) / 4^n."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return Fraction(comb(2 * n, n) - 1 - n * n, 1 << (2 * n))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _sample_decider(g: Graph, decider: str, eg: ExtremalGraph | None):
    """(mask, engine seed) -> (hamiltonian?, undecided?) for one retained-vertex mask."""
    if decider == "gn":
        from .families import gn_criterion_mask

        return lambda mask, engine_seed: (gn_criterion_mask(eg, mask), False)
    from .hamilton import decide_hamiltonian_auto, is_hamiltonian_exact

    def decide(mask: int, engine_seed: int) -> tuple[bool, bool]:
        scope = VertexSet(mask, g.m)
        if decider == "exact":
            return is_hamiltonian_exact(g, scope).status == "hamiltonian", False
        dec = decide_hamiltonian_auto(g, scope, seed=engine_seed)
        return dec.status == "hamiltonian", dec.status == "unknown"
    return decide


def _estimate_block(args) -> tuple[int, int]:
    from .sampling import retention_masks

    g, p_num, p_den, seed, lo, hi, decider, eg = args
    decide = _sample_decider(g, decider, eg)
    succ = undec = 0
    memo: dict[int, bool] | None = {} if g.m <= MEMO_MAX_VERTICES else None
    for mask, base in retention_masks(seed, lo, hi, g.m, p_num, p_den):
        if memo is not None and mask in memo:
            ok, und = memo[mask], False
        else:
            ok, und = decide(mask, base & 0x3FFFFFFF)
            if memo is not None and not und:
                memo[mask] = ok
        succ += ok
        undec += und
    return succ, undec


def estimate_h(
    g: Graph,
    p_retention: Fraction,
    samples: int,
    seed: int,
    decider: str = "auto",
    eg: ExtremalGraph | None = None,
    workers: int = 1,
) -> EstimateReport:
    """Monte Carlo estimate of h(G, p): the probability that independent
    vertex retention with probability p leaves a Hamiltonian subgraph.

    Undecided samples (possible only with decider='auto', on scopes the
    exact kernel refuses) count as failures and are reported, keeping the
    estimate a certified lower bound.  Counter-based streams keyed by sample index
    make the report identical for every worker count.
    """
    from .sampling import wilson_interval

    if samples < 1:
        raise PreconditionError("need samples >= 1")
    check_seed(seed)
    p = Fraction(p_retention)
    if not 0 <= p <= 1:
        raise PreconditionError("retention probability must be in [0, 1]")
    if decider == "gn":
        if eg is None or eg.graph != g:
            raise PreconditionError("decider='gn' needs the matching family labeling")
    elif decider not in ("exact", "auto"):
        raise PreconditionError(f"unknown decider {decider!r}")
    bounds = [
        (samples * w // max(workers, 1), samples * (w + 1) // max(workers, 1))
        for w in range(max(workers, 1))
    ]
    arglist = [
        (g, p.numerator, p.denominator, seed, lo, hi, decider, eg)
        for lo, hi in bounds
        if hi > lo
    ]
    if workers <= 1:
        parts = [_estimate_block(a) for a in arglist]
    else:
        # imported here: the pool machinery costs every CLI process ~15 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_estimate_block, arglist))
    succ = sum(p_[0] for p_ in parts)
    undec = sum(p_[1] for p_ in parts)
    lo_ci, hi_ci = wilson_interval(succ, samples)
    return EstimateReport(
        p_hat=Fraction(succ, samples),
        ci_low=lo_ci,
        ci_high=hi_ci,
        samples=samples,
        seed=seed,
        p_retention=p,
        undecided_fraction=Fraction(undec, samples),
        successes=succ,
        decider=decider,
    )


def mainplus_report() -> list[dict]:
    """Exact p for every 5-regular graph on 8 vertices: the three
    complements of 2-factors, with the extremal family member flagged.

    Every such complement is 2-regular, and 2-regular graphs are isomorphic
    exactly when their cycle lengths agree.  So the flagged row is the one
    whose partition equals the sorted component sizes of the member's
    complement ([5, 3] for K_{3,5} plus a 5-cycle)."""
    from .families import _disjoint_cycles, build_extremal

    co = build_extremal(4, [5]).graph.complement()
    member_type = sorted((c.bit_count() for c in co.components(co.full_mask())), reverse=True)
    rows = []
    for name, part in (("C8", [8]), ("C5+C3", [5, 3]), ("C4+C4", [4, 4])):
        graph = _disjoint_cycles(8, part).complement()
        rep = cyc_count_exact(graph)
        rows.append(
            {
                "complement_of": name,
                "cyclic_count": rep.cyclic_count,
                "p_exact": rep.p_exact,
                "is_extremal_member": part == member_type,
            }
        )
    return rows
