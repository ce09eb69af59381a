"""Exact cyclic-subset counts, closed forms, and Monte Carlo estimators."""

from __future__ import annotations

import random as _random
import re
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import comb, sqrt

import pytest

from conftest import (
    brute_cyclic_count,
    brute_max_linear_forest,
    isomorphic,
    random_graph,
    reference_reach_rounds,
)

from cycsets.bitgraph import Graph, VertexSet, bits_of
from cycsets.counting import (
    cyc_count_exact,
    cycle_profile,
    estimate_h,
    mainplus_report,
    p_exact_extremal,
    p_exact_knn,
)
from cycsets.errors import BudgetExceededError, PreconditionError
from cycsets.families import (
    build_extremal,
    build_knn,
    enumerate_regular_complements,
)
from cycsets.hamilton import is_hamiltonian_exact
from cycsets.subsetdp import TABLE_MAX_BITS, reach_rounds as reach_table


# -- exact counts ------------------------------------------------------------


def test_count_k4():
    rep = cyc_count_exact(Graph.complete(4))
    assert rep.cyclic_count == 5
    assert rep.p_exact == Fraction(5, 16)
    assert rep.total_subsets == 16
    assert rep.per_size[3] == 4 and rep.per_size[4] == 1


def test_count_c5():
    rep = cyc_count_exact(Graph.cycle(5))
    assert rep.cyclic_count == 1
    assert rep.per_size[5] == 1


def test_count_octahedron():
    rep = cyc_count_exact(build_extremal(3, [4]).graph)
    assert rep.cyclic_count == 30
    assert rep.p_exact == Fraction(15, 32)


def test_count_histogram_invariants():
    for seed in range(10):
        g = random_graph(9, seed + 50, p=0.5)
        rep = cyc_count_exact(g)
        assert sum(rep.per_size) == rep.cyclic_count
        assert rep.per_size[0] == rep.per_size[1] == rep.per_size[2] == 0
        assert 0 <= rep.cyclic_count <= rep.total_subsets == 2**9


def test_count_matches_backtracking_oracle():
    for seed in range(12):
        m = 6 + seed % 4
        g = random_graph(m, seed + 640, p=0.45)
        assert cyc_count_exact(g).cyclic_count == brute_cyclic_count(g)


@pytest.mark.parametrize("m", [5, 7, 9, 11])
def test_count_histogram_matches_decider_on_every_subset(m):
    for seed in range(3):
        g = random_graph(m, 900 + 10 * m + seed, p=0.5)
        hist = [0] * (m + 1)
        for mask in range(1 << m):
            if is_hamiltonian_exact(g, VertexSet(mask, m)).status == "hamiltonian":
                hist[mask.bit_count()] += 1
        rep = cyc_count_exact(g)
        assert list(rep.per_size) == hist
        if m <= 9:
            assert rep.cyclic_count == brute_cyclic_count(g)


def test_count_all_4_vertex_graphs():
    from itertools import combinations

    pairs = list(combinations(range(4), 2))
    for code in range(64):
        g = Graph.from_edges(4, [pairs[i] for i in range(6) if code >> i & 1])
        assert cyc_count_exact(g).cyclic_count == brute_cyclic_count(g)


def test_count_worker_invariance():
    g = random_graph(12, 11, p=0.5)
    base = cyc_count_exact(g, workers=1)
    for w in (2, 4, 8):
        assert cyc_count_exact(g, workers=w) == base


def test_count_isomorphism_invariance():
    for seed in range(6):
        g = random_graph(10, seed + 77, p=0.4)
        perm = list(range(10))
        _random.Random(seed).shuffle(perm)
        assert (
            cyc_count_exact(g.relabel(perm)).cyclic_count
            == cyc_count_exact(g).cyclic_count
        )


def test_count_budget():
    with pytest.raises(BudgetExceededError):
        cyc_count_exact(Graph.empty(21))
    with pytest.raises(BudgetExceededError):
        cyc_count_exact(Graph.complete(8), max_vertices=6)


def test_table_cap_refuses_before_allocating():
    with pytest.raises(BudgetExceededError, match="table"):
        reach_table([0] * (TABLE_MAX_BITS + 1), 1)
    with pytest.raises(BudgetExceededError, match="table"):
        cyc_count_exact(build_knn(13), max_vertices=26)


@pytest.mark.parametrize("k", [24, 25])
def test_table_refusal_states_cpython_round_size(k):
    # one round is k ints of 2^k bits, as CPython sizes them
    with pytest.raises(BudgetExceededError) as exc:
        reach_table([0] * k, 1)
    stated = int(re.search(r"would take (\d+) bytes", str(exc.value)).group(1))
    assert stated == k * sys.getsizeof((1 << (1 << k)) - 1)
    if k == 25:
        assert stated == 111_848_800


def _bipartite_universe(a: int, b: int) -> list[int]:
    """K_{a,b} on locals 0..a+b-1, the first a on one side."""
    left = (1 << a) - 1
    right = ((1 << (a + b)) - 1) ^ left
    return [right] * a + [left] * b


def _paired(rows: list[int]) -> list[int]:
    """Each vertex v of `rows` becomes the non-adjacent twins 2v and 2v+1."""
    out = []
    for r in rows:
        wide = sum(3 << 2 * u for u in bits_of(r))
        out += [wide, wide]
    return out


def _complete_universe(k: int) -> list[int]:
    return [((1 << k) - 1) ^ 1 << w for w in range(k)]


def _anchored_universes(g: Graph):
    """(adj, seed) of the kernel run of every anchor of a count of g."""
    for a in range(g.m - 1):
        shift = a + 1
        yield [g.rows[shift + i] >> shift for i in range(g.m - shift)], g.rows[a] >> shift


_C5 = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]
REACH_UNIVERSES = {
    "k0": ([], 0),
    "k1": ([0], 1),
    "k1_unseeded": ([0], 0),
    "k2_edge": ([0b10, 0b01], 0b01),
    "k2_twins": ([0, 0], 0b11),
    "K3_4": (_bipartite_universe(3, 4), 0b1111111),
    "K5_5": (_bipartite_universe(5, 5), 0b0000011111),
    # anchor adjacency splits both classes
    "K4_6_split": (_bipartite_universe(4, 6), 0b0101100110),
    # 0, 3 and 4 are isolated and form one class that nothing reads
    "isolated": ([0, 0b00100, 0b00010, 0, 0], 0b11011),
    "pairs_C5": (_paired(_C5), 0b1100000011),
    "pairs_C5_split": (_paired(_C5), 0b0110100101),
    "pairs_K5": (_paired(_complete_universe(5)), 0b0000000001),
    "K6": (_complete_universe(6), 0b111111),
    "random_10": ([r for r in random_graph(10, 3, p=0.5).rows], 0b1001011010),
}


@pytest.mark.parametrize("adj, seed", REACH_UNIVERSES.values(), ids=REACH_UNIVERSES)
def test_reach_rounds_equal_the_per_vertex_reference(adj, seed):
    assert [list(r) for r in reach_table(adj, seed)] == reference_reach_rounds(adj, seed)


@pytest.mark.parametrize(
    "g",
    [build_extremal(5, [6]).graph, build_extremal(6, [3, 4]).graph, build_knn(5)],
    ids=["extremal_5_6", "extremal_6_3_4", "K5_5"],
)
def test_reach_rounds_equal_the_reference_at_every_anchor(g):
    for adj, seed in _anchored_universes(g):
        assert list(reach_table(adj, seed)) == reference_reach_rounds(adj, seed)


def _traced_peak(adj: list[int], seed: int) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rounds = 0
        for _ in reach_table(adj, seed):
            rounds += 1
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rounds == len(adj)
    return peak


def test_reach_rounds_peak_memory_is_bounded():
    # the subsetdp docstring's bound: 3k + 2 ints of 2^k bits while a round
    # is built, and one more per twin class of two or more members
    k = 16
    one = sys.getsizeof((1 << (1 << k)) - 1)
    assert _traced_peak(_complete_universe(k), 1) <= (3 * k + 2) * one
    pairs = _paired(_complete_universe(k // 2))
    assert _traced_peak(pairs, 1) <= (3 * k + k // 2 + 2) * one


def test_count_monotone_under_edge_addition():
    done = 0
    seed = 0
    while done < 200:
        rnd = _random.Random(10_000 + seed)
        seed += 1
        m = rnd.choice([8, 9, 10, 11, 12])
        g = random_graph(m, 20_000 + seed, p=rnd.uniform(0.2, 0.7))
        non_edges = [
            (u, v)
            for u in range(m)
            for v in range(u + 1, m)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        extra = rnd.choice(non_edges)
        before = cyc_count_exact(g).cyclic_count
        after = cyc_count_exact(g.with_edges([extra])).cyclic_count
        assert after >= before, f"adding {extra} decreased the count"
        done += 1


# -- closed forms for the families -------------------------------------------


def test_cycle_profile_matches_enumeration():
    # joint law of (#vertices, capped linear-forest edges) over subsets of
    # a single cycle, against direct enumeration
    for ell in range(3, 9):
        g = Graph.cycle(ell)
        want: dict[tuple[int, int], int] = defaultdict(int)
        for mask in range(1 << ell):
            t = bin(mask).count("1")
            lf = brute_max_linear_forest(g, list(bits_of(mask)))
            want[(t, lf)] += 1
        assert cycle_profile(ell) == dict(want)


@pytest.mark.parametrize(
    "n,lengths",
    [
        (2, [3]),
        (3, [4]),
        (4, [5]),
        (5, [6]),
        (5, [3, 3]),
    ],
)
def test_p_exact_extremal_equals_enumeration(n, lengths):
    eg = build_extremal(n, lengths)
    rep = cyc_count_exact(eg.graph)
    assert p_exact_extremal(n, lengths) == rep.p_exact


def test_p_exact_extremal_known_values():
    assert p_exact_extremal(2, [3]) == Fraction(5, 16)
    assert p_exact_extremal(3, [4]) == Fraction(15, 32)
    assert p_exact_extremal(4, [5]) == Fraction(143, 256)
    assert p_exact_extremal(5, [6]) == Fraction(621, 1024)
    assert p_exact_extremal(5, [3, 3]) == Fraction(283, 512)


def test_p_exact_extremal_rejects_bad_type():
    with pytest.raises(PreconditionError):
        p_exact_extremal(4, [3, 2])
    with pytest.raises(PreconditionError):
        p_exact_extremal(4, [4])


def test_p_exact_extremal_large_n_in_range():
    p = p_exact_extremal(64, [65])
    assert Fraction(1, 2) < p < 1


def test_pn_table_consistent():
    assert p_exact_extremal(2, [3]) == Fraction(5, 16)
    assert p_exact_extremal(3, [4]) == Fraction(15, 32)
    assert p_exact_extremal(4, [5]) == Fraction(143, 256)


def test_p_exact_knn_closed_form_and_oracle():
    assert p_exact_knn(1) == 0
    assert p_exact_knn(3) == Fraction(5, 32)
    for n in range(1, 7):
        want = cyc_count_exact(build_knn(n)).p_exact
        assert p_exact_knn(n) == want
        assert p_exact_knn(n) == Fraction(comb(2 * n, n) - 1 - n * n, 4**n)


def test_mainplus_report_table():
    rows = mainplus_report()
    assert len(rows) == 3
    by_name = {r["complement_of"]: r for r in rows}
    assert by_name["C8"]["cyclic_count"] == 147
    assert by_name["C5+C3"]["cyclic_count"] == 143
    assert by_name["C4+C4"]["cyclic_count"] == 137
    for r in rows:
        assert r["p_exact"] == Fraction(r["cyclic_count"], 256)
    members = [r["complement_of"] for r in rows if r["is_extremal_member"]]
    assert members == ["C5+C3"]


def test_mainplus_report_rows_pinned():
    rows = mainplus_report()
    assert rows == [
        {"complement_of": "C8", "cyclic_count": 147,
         "p_exact": Fraction(147, 256), "is_extremal_member": False},
        {"complement_of": "C5+C3", "cyclic_count": 143,
         "p_exact": Fraction(143, 256), "is_extremal_member": True},
        {"complement_of": "C4+C4", "cyclic_count": 137,
         "p_exact": Fraction(137, 256), "is_extremal_member": False},
    ]
    assert all(
        list(r) == ["complement_of", "cyclic_count", "p_exact", "is_extremal_member"]
        for r in rows
    )
    # the flag, set from cycle lengths, agrees with an isomorphism oracle
    member = build_extremal(4, [5]).graph
    assert [isomorphic(g, member) for g in enumerate_regular_complements(4)] == [
        r["is_extremal_member"] for r in rows
    ]


# -- Monte Carlo estimator ---------------------------------------------------


def test_estimate_octahedron_hits_exact_value():
    g = build_extremal(3, [4]).graph
    rep = estimate_h(g, Fraction(1, 2), 100_000, seed=7)
    assert rep.undecided_fraction == 0
    se = sqrt((15 / 32) * (17 / 32) / 100_000)
    assert abs(float(rep.p_hat) - 15 / 32) <= 4 * se
    assert rep.ci_low <= float(rep.p_hat) <= rep.ci_high


def test_estimate_degenerate_retention():
    assert estimate_h(Graph.complete(6), Fraction(0), 500, seed=1).p_hat == 0
    assert estimate_h(Graph.cycle(5), Fraction(1), 500, seed=1).p_hat == 1


def test_estimate_deterministic_and_worker_invariant():
    g = build_extremal(3, [4]).graph
    a = estimate_h(g, Fraction(1, 2), 20_000, seed=3, workers=1)
    b = estimate_h(g, Fraction(1, 2), 20_000, seed=3, workers=1)
    assert a == b
    for w in (2, 8):
        assert estimate_h(g, Fraction(1, 2), 20_000, seed=3, workers=w) == a


def test_estimate_decider_agreement_on_family_member():
    eg = build_extremal(4, [5])
    exact = estimate_h(eg.graph, Fraction(1, 2), 50_000, seed=12, decider="exact")
    gn = estimate_h(
        eg.graph, Fraction(1, 2), 50_000, seed=12, decider="gn", eg=eg
    )
    # same seed => same retained sets; both deciders are exact, so the
    # reports agree sample for sample
    assert gn.successes == exact.successes
    assert gn.p_hat == exact.p_hat
    p = float(p_exact_extremal(4, [5]))
    se = sqrt(p * (1 - p) / 50_000)
    assert abs(float(gn.p_hat) - p) <= 4 * se


def test_estimate_auto_matches_gn_at_m40():
    # every refusal is settled by a toughness certificate, not the DP
    eg = build_extremal(20, [21])
    for seed in (5, 6):
        auto = estimate_h(eg.graph, Fraction(1, 2), 500, seed, decider="auto")
        gn = estimate_h(eg.graph, Fraction(1, 2), 500, seed, decider="gn", eg=eg)
        assert auto.successes == gn.successes
        assert auto.undecided_fraction == 0


# successes of estimate_h(G, p, samples, seed=11) as the scalar mask loop
# drew them, before masks were drawn in numpy blocks
ESTIMATE_PINS = [
    ("auto", 10, Fraction(1, 2), 300, 203),
    ("auto", 10, Fraction(1, 3), 300, 141),
    ("auto", 20, Fraction(1, 2), 300, 211),
    ("gn", 300, Fraction(1, 2), 1000, 563),
    ("exact", 3, Fraction(1, 2), 4000, 1837),
    ("exact", 3, Fraction(7, 10), 4000, 3248),
]


@pytest.mark.parametrize("decider,n,p,samples,successes", ESTIMATE_PINS)
@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_successes_pinned(decider, n, p, samples, successes, workers):
    eg = build_extremal(n, [n + 1])
    rep = estimate_h(eg.graph, p, samples, 11, decider=decider,
                     eg=eg if decider == "gn" else None, workers=workers)
    assert rep.successes == successes
    assert rep.undecided_fraction == 0


def test_estimate_gn_requires_matching_graph():
    eg = build_extremal(4, [5])
    with pytest.raises(PreconditionError):
        estimate_h(Graph.complete(8), Fraction(1, 2), 100, seed=0, decider="gn", eg=eg)


def test_estimate_rejects_bad_inputs():
    g = Graph.complete(4)
    with pytest.raises(PreconditionError):
        estimate_h(g, Fraction(3, 2), 100, seed=0)
    with pytest.raises(PreconditionError):
        estimate_h(g, Fraction(1, 2), 0, seed=0)
