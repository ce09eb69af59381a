"""Cyclic-subset counting: exact enumeration, the polynomial-time exact
evaluator for the extremal family, and seeded Monte Carlo estimators.

A subset S is cyclic when G[S] has a Hamilton cycle.  Exact counts run
the anchored reach-set DP of `subsetdp`, the kernel the exact Hamiltonicity
decider also runs: every cyclic S is counted at its minimum vertex a, via
reachable-endpoint sets over subsets of {a+1..m-1}, one vectorised table
per anchor.  A table above 2^23 entries is refused before it is allocated,
whatever `max_vertices` allows.  Exact counts run in one process.  Monte
Carlo work partitions by sample index with counter-based streams, so
estimates never depend on worker count or scheduling.

The extremal family evaluator avoids enumeration entirely: for each
2-factor cycle the number of t-vertex subsets forming exactly c arcs is
(l/c) * C(t-1,c-1) * C(l-t-1,c-1), giving the joint profile of (chosen
vertices, induced linear-forest edges, capped at l-1 for the full cycle);
profiles convolve across cycles and combine with binomial prefix sums over
the independent part.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

from .bitgraph import Graph, VertexSet, bits_of
from .errors import BudgetExceededError, PreconditionError
from .families import ExtremalGraph, _disjoint_cycles, build_extremal
from .hamilton import (
    decide_hamiltonian_auto,
    gn_criterion,
    is_hamiltonian_exact,
)
from .sampling import retention_mask, stream_base, wilson_interval
from .structures import is_k_good_cut
from .subsetdp import masks_by_popcount, reach_table

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
    lower_bound_only: bool = False


def cyc_count_exact(
    g: Graph, workers: int = 1, max_vertices: int = CYC_EXACT_MAX
) -> CycReport:
    """Exact Cyc(g) by the shared anchored DP (budget 20 vertices).

    Every cyclic S with |S| >= 3 is counted once, at its minimum vertex a:
    S - a is a mask M over {a+1..m-1} whose reach set meets N(a).  The
    count runs in-process; `workers` is accepted for call compatibility
    with `estimate_h` and does not change the work or the answer.
    """
    import numpy as np

    m = g.m
    if m > max_vertices:
        raise BudgetExceededError(
            f"exact counting budget: m={m} > {max_vertices}"
        )
    total = 0
    hist = [0] * (m + 1)
    for a in range(m):
        shift = a + 1
        k = m - shift  # universe: vertices a+1 .. m-1, local index v-(a+1)
        anchor_adj = g.rows[a] >> shift
        if k < 2 or not anchor_adj:
            continue
        reach, _ = reach_table([g.rows[shift + i] >> shift for i in range(k)], anchor_adj)
        closing = reach & np.uint32(anchor_adj)
        for j, layer in enumerate(masks_by_popcount(k)):
            if j >= 2:  # |M| = 1 closes no cycle
                n = int(np.count_nonzero(closing[layer]))
                hist[j + 1] += n
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


def _decide_sample(
    g: Graph, mask: int, decider: str, eg: ExtremalGraph | None, engine_seed: int
) -> tuple[bool, bool]:
    """(hamiltonian?, undecided?) for one retained-vertex mask."""
    scope = VertexSet(mask, g.m)
    if decider == "gn":
        return gn_criterion(eg, scope), False
    if decider == "exact":
        dec = is_hamiltonian_exact(g, scope)
        return dec.status == "hamiltonian", False
    dec = decide_hamiltonian_auto(g, scope, seed=engine_seed)
    return dec.status == "hamiltonian", dec.status == "unknown"


def _estimate_block(args) -> tuple[int, int]:
    g, p_num, p_den, seed, lo, hi, decider, eg = args
    succ = undec = 0
    memo: dict[int, bool] | None = {} if g.m <= MEMO_MAX_VERTICES else None
    for i in range(lo, hi):
        mask = retention_mask(seed, i, g.m, p_num, p_den)
        if memo is not None and mask in memo:
            ok, und = memo[mask], False
        else:
            engine_seed = int(stream_base(seed, i) & 0x3FFFFFFF)
            ok, und = _decide_sample(g, mask, decider, eg, engine_seed)
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


@dataclass(frozen=True)
class EdgeConcentrationReport:
    samples: int
    seed: int
    mean: Fraction
    variance: Fraction
    expected: Fraction
    deviation_fraction: Fraction
    stderr: float
    mean_within_3se: bool


def edge_concentration_experiment(
    g: Graph, samples: int, seed: int
) -> EdgeConcentrationReport:
    """Samples e(G[1/2]) and reports mean / variance / the fraction of
    samples deviating from e(G)/4 by more than 0.1 e(G)."""
    e = g.edge_count()
    if e < 1:
        raise PreconditionError("need at least one edge")
    if samples < 2:
        raise PreconditionError("need samples >= 2")
    m = g.m
    tot = 0
    tot_sq = 0
    devs = 0
    for i in range(samples):
        mask = retention_mask(seed, i, m, 1, 2)
        es = sum((g.rows[v] & mask).bit_count() for v in bits_of(mask)) // 2
        tot += es
        tot_sq += es * es
        if 10 * abs(4 * es - e) > 4 * e:
            devs += 1
    mean = Fraction(tot, samples)
    var = Fraction(tot_sq, samples - 1) - Fraction(tot * tot, samples * (samples - 1))
    expected = Fraction(e, 4)
    se = sqrt(float(var) / samples)
    within = abs(float(mean - expected)) <= 3 * se
    return EdgeConcentrationReport(
        samples, seed, mean, var, expected, Fraction(devs, samples), se, within
    )


def good_cut_probability(
    g: Graph, cut, k: int, samples: int, seed: int
) -> EstimateReport:
    """Estimates P over S (vertex retention 1/2) that the induced cut of
    G[S] is k-good: the larger surviving side holds a linear forest with
    k + (size difference) edges.

    Sides up to 20 vertices are decided exactly; larger sides fall back to
    the forest lower bound, whose failures are indefinite — those count as
    failures and flag the whole estimate as a lower bound.
    """
    if samples < 1:
        raise PreconditionError("need samples >= 1")
    m = g.m
    succ = 0
    indefinite = 0
    for i in range(samples):
        mask = retention_mask(seed, i, m, 1, 2)
        sub, _ = g.induced(mask)
        rcut = cut.restrict(mask)
        exact = max(rcut.x.size, rcut.y.size) <= 20
        res = is_k_good_cut(sub, rcut, k, exact=exact)
        if res.good:
            succ += 1
        elif not res.definite:
            indefinite += 1
    lo_ci, hi_ci = wilson_interval(succ, samples)
    return EstimateReport(
        p_hat=Fraction(succ, samples),
        ci_low=lo_ci,
        ci_high=hi_ci,
        samples=samples,
        seed=seed,
        p_retention=Fraction(1, 2),
        undecided_fraction=Fraction(indefinite, samples),
        successes=succ,
        decider="linear_forest",
        lower_bound_only=indefinite > 0,
    )


def mainplus_report() -> list[dict]:
    """Exact p for every 5-regular graph on 8 vertices: the three
    complements of 2-factors, with the extremal family member flagged.

    Every such complement is 2-regular, and 2-regular graphs are isomorphic
    exactly when their cycle lengths agree.  So the flagged row is the one
    whose partition equals the sorted component sizes of the member's
    complement ([5, 3] for K_{3,5} plus a 5-cycle)."""
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
