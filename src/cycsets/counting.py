"""Cyclic-subset counting: exact enumeration, the polynomial-time exact
evaluator for the extremal family, and seeded Monte Carlo estimators.

A subset S is cyclic when G[S] has a Hamilton cycle.  Exact counts run
the anchored reach-set DP of `subsetdp`, the kernel the exact Hamiltonicity
decider also runs: every cyclic S is counted at its minimum vertex a, from
one kernel run per anchor over the vertices {a+1..m-1}.  Round t of that
run gives the closing set of a: a 2^k-bit int (k = m-1-a) with bit M set
iff {a} + M is cyclic, for the masks |M| = t; its popcount is the number
of cyclic subsets of size t+1 with minimum a.  The kernel holds at most
three sets of k such ints and two more in flight, 79,414,068 bytes at
k = 23; twin classes in the universe add at most floor(k/2) ints,
12,303,588 bytes at k = 23.  A universe wider than 23 is refused before it
is allocated, whatever `max_vertices` allows.  Exact counts run in one process and load no numpy.  Monte Carlo
work partitions by sample index with counter-based streams, so estimates
never depend on worker count or scheduling.

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
from math import comb
from typing import TYPE_CHECKING

from .bitgraph import Graph, VertexSet, bits_of
from .errors import BudgetExceededError, PreconditionError
from .subsetdp import reach_rounds

if TYPE_CHECKING:
    from .families import ExtremalGraph

CYC_EXACT_MAX = 20
MEMO_MAX_VERTICES = 16


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


def closing_sets(g: Graph, a: int):
    """Yield (t, C) for t = 2, 3, ...: for each mask M of t vertices above
    a, shifted down by a + 1, bit M of C is set iff the vertex set
    {a} + (M << (a+1)) is cyclic.

    C is the OR over w in N(a) of R_w in round t of the anchored kernel:
    the masks whose reach set meets N(a).  Every cyclic set has at least
    three vertices and appears once, in the closing sets of its minimum.
    """
    shift = a + 1
    k = g.m - shift  # universe: vertices a+1 .. m-1, local index v-(a+1)
    anchor_adj = g.rows[a] >> shift
    if k < 2 or not anchor_adj:
        return
    closers = list(bits_of(anchor_adj))
    rounds = reach_rounds([g.rows[shift + i] >> shift for i in range(k)], anchor_adj)
    for t, reach in enumerate(rounds, 1):
        if t >= 2:  # |M| = 1 closes no cycle
            closing = 0
            for w in closers:
                closing |= reach[w]
            yield t, closing


def cyc_count_exact(
    g: Graph, workers: int = 1, max_vertices: int = CYC_EXACT_MAX
) -> CycReport:
    """Exact Cyc(g) by the shared anchored DP (budget 20 vertices).

    Every cyclic S is counted once, at its minimum vertex a, from the
    closing sets of a.  The count runs in-process; `workers` is accepted
    for call compatibility with `estimate_h` and does not change the work
    or the answer.
    """
    m = g.m
    if m > max_vertices:
        raise BudgetExceededError(
            f"exact counting budget: m={m} > {max_vertices}"
        )
    total = 0
    hist = [0] * (m + 1)
    for a in range(m):
        for t, closing in closing_sets(g, a):
            n = closing.bit_count()
            hist[t + 1] += n
            total += n
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

    Undecided samples (possible only with decider='auto' above the exact
    budget) count as failures and are reported, keeping the estimate a
    certified lower bound.  Counter-based streams keyed by sample index
    make the report identical for every worker count.
    """
    from .sampling import wilson_interval

    if samples < 1:
        raise PreconditionError("need samples >= 1")
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
