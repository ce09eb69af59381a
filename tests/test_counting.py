"""Exact cyclic-subset counts, closed forms, and Monte Carlo estimators."""

from __future__ import annotations

import random as _random
from collections import defaultdict
from fractions import Fraction
from math import comb, sqrt

import pytest

from conftest import brute_cyclic_count, isomorphic, random_graph

from cycsets.bitgraph import Cut, Graph, VertexSet, mask_of
from cycsets.counting import (
    cyc_count_exact,
    cycle_profile,
    edge_concentration_experiment,
    estimate_h,
    good_cut_probability,
    mainplus_report,
    p_exact_extremal,
    p_exact_knn,
)
from cycsets.errors import BudgetExceededError, PreconditionError
from cycsets.families import (
    build_competitor,
    build_extremal,
    build_knn,
    enumerate_regular_complements,
)
from cycsets.hamilton import is_hamiltonian_exact
from cycsets.structures import max_linear_forest_exact
from cycsets.subsetdp import TABLE_MAX_BITS, reach_table


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
            lf = max_linear_forest_exact(g, VertexSet(mask, ell)).size
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


# -- edge concentration ------------------------------------------------------


def test_edge_concentration_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    rep = edge_concentration_experiment(g, 4000, seed=2)
    assert rep.expected == Fraction(1, 4)
    assert rep.mean_within_3se
    # edge survives iff both endpoints do: mean near 1/4
    assert abs(float(rep.mean) - 0.25) <= 3 * rep.stderr


def test_edge_concentration_mean_unbiased():
    g = build_extremal(6, [7]).graph
    rep = edge_concentration_experiment(g, 3000, seed=9)
    assert rep.expected == Fraction(g.edge_count(), 4)
    assert rep.mean_within_3se


def test_edge_concentration_deviation_shrinks_with_scale():
    # the 10%-relative-deviation event is common for a small competitor
    # graph and rare for a large one (variance ~ e, threshold ~ e^2)
    small = edge_concentration_experiment(build_competitor(5).graph, 2000, seed=4)
    assert small.deviation_fraction > Fraction(5, 100)
    big = edge_concentration_experiment(build_competitor(13).graph, 10_000, seed=4)
    assert big.deviation_fraction <= Fraction(1, 100)


# -- good-cut probability ----------------------------------------------------


def test_good_cut_knn_balanced_equality_probability():
    # K_{8,8}: both sides are independent sets, so a 0-good restricted cut
    # means exactly balanced survival: P = C(16,8)/4^8
    g = build_knn(8)
    cut = Cut(VertexSet.of(16, list(range(8))), VertexSet.of(16, list(range(8, 16))))
    rep = good_cut_probability(g, cut, 0, 10_000, seed=5)
    assert rep.undecided_fraction == 0 and not rep.lower_bound_only
    exact = comb(16, 8) / 4**8
    assert rep.ci_low <= exact <= rep.ci_high


def _competitor_cut_probability_oracle(k: int) -> Fraction:
    """Exact P(0-good) for the competitor's natural cut by per-star
    generating functions: each part is k disjoint (k-1)-leaf stars, so the
    joint law of (chosen vertices, max linear-forest edges) convolves."""
    leaves = k - 1
    one_star: dict[tuple[int, int], int] = defaultdict(int)
    for j in range(leaves + 1):  # center absent
        one_star[(j, 0)] += comb(leaves, j)
    for j in range(leaves + 1):  # center present
        one_star[(j + 1, min(j, 2))] += comb(leaves, j)
    part: dict[tuple[int, int], int] = {(0, 0): 1}
    for _ in range(k):
        nxt: dict[tuple[int, int], int] = defaultdict(int)
        for (t1, e1), c1 in part.items():
            for (t2, e2), c2 in one_star.items():
                nxt[(t1 + t2, e1 + e2)] += c1 * c2
        part = dict(nxt)
    n = k * k
    num = 0
    for (tx, ex), cx in part.items():
        for (ty, ey), cy in part.items():
            if (tx >= ty and ex >= tx - ty) or (ty >= tx and ey >= ty - tx):
                num += cx * cy
    return Fraction(num, 4**n)


def test_good_cut_competitor_matches_star_convolution_oracle():
    cg = build_competitor(4)
    n = 16
    cut = Cut(
        VertexSet.of(2 * n, list(range(n))),
        VertexSet.of(2 * n, list(range(n, 2 * n))),
    )
    exact = _competitor_cut_probability_oracle(4)
    assert exact == Fraction(1760574759, 2**31)
    rep = good_cut_probability(cg.graph, cut, 0, 5000, seed=5)
    assert rep.undecided_fraction == 0
    assert rep.ci_low <= float(exact) <= rep.ci_high
    # comfortably above 1/2, in line with the asymptotic value f(1) ~ 0.5596
    assert float(rep.p_hat) >= 0.5


def test_good_cut_impossible_k():
    g = Graph.complete(8)
    cut = Cut(VertexSet.of(8, [0, 1, 2, 3]), VertexSet.of(8, [4, 5, 6, 7]))
    rep = good_cut_probability(g, cut, 8, 2000, seed=1)
    assert rep.p_hat == 0
