"""Structural analyzers: bidense check, three-case classifier, cut bounds."""

from __future__ import annotations

import random as _random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import isomorphic, planted_near_bipartite, planted_two_cliques

from cycsets.analysis import (
    AnalysisParams,
    balanced_cut_cover_product,
    check_bidense,
    classify,
    random_regular_graph,
)
from cycsets.bitgraph import Cut, Graph, VertexSet
from cycsets.errors import PreconditionError
from cycsets.families import build_extremal, build_knn
from cycsets.instances import dirac_instance


# -- bidense check -----------------------------------------------------------


def test_bidense_k8_exact():
    rep = check_bidense(Graph.complete(8), Fraction(1, 10), mode="exact")
    assert rep.ok
    assert rep.minimum >= rep.threshold


def test_bidense_two_k4_false():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(4 + u, 4 + v) for u in range(4) for v in range(u + 1, 4)]
    g = Graph.from_edges(8, edges)
    rep = check_bidense(g, Fraction(1, 100), mode="exact")
    assert not rep.ok
    # the witness pair must actually achieve the reported minimum
    assert g.edges_between(rep.pair_a.mask, rep.pair_b.mask) == rep.minimum
    assert rep.minimum == 0


def test_bidense_edgeless_false():
    rep = check_bidense(Graph.empty(6), Fraction(1, 100), mode="exact")
    assert not rep.ok and rep.minimum == 0


def test_bidense_sampled_sound_vs_exact():
    for seed in range(10):
        rnd = _random.Random(seed)
        edges = [
            (u, v)
            for u in range(10)
            for v in range(u + 1, 10)
            if rnd.random() < 0.4
        ]
        g = Graph.from_edges(10, edges)
        ex = check_bidense(g, Fraction(1, 20), mode="exact")
        sa = check_bidense(g, Fraction(1, 20), mode="sampled", samples=300, seed=seed)
        # a sampled minimum can never undercut the true minimum
        assert sa.minimum >= ex.minimum
        if not sa.ok:
            assert not ex.ok


# -- three-case classifier ---------------------------------------------------


def test_classify_requires_dirac_degree():
    with pytest.raises(PreconditionError):
        classify(Graph.cycle(8), AnalysisParams())


def test_classify_knn_near_bipartite():
    c = classify(build_knn(10), AnalysisParams(), seed=0)
    assert c.case == "near_bipartite"
    side = frozenset(c.set_a.members())
    assert side in (frozenset(range(10)), frozenset(range(10, 20)))


def test_classify_matched_cliques():
    # two K_14's joined by a perfect matching: 14 crossing edges satisfy
    # e(A, rest) <= 6*eps*m^2 = 14.7 at eps = 1/320 (m = 22, the smallest
    #"obvious" version of this instance, is out of regime at compliant eps)
    c = classify(planted_two_cliques(28, 0), AnalysisParams(), seed=0)
    assert c.case == "two_cliques"
    g = planted_two_cliques(28, 0)
    a = c.set_a
    m = 28
    assert m // 2 <= a.size <= (Fraction(1, 2) + 16 * Fraction(1, 320)) * m
    assert g.edges_between(a.mask, a.complement().mask) <= 6 * Fraction(1, 320) * m * m


def test_classify_k20_bi_dense():
    c = classify(Graph.complete(20), AnalysisParams(), seed=0)
    assert c.case == "bi_dense"


def test_classify_exact_small():
    c = classify(Graph.complete(12), AnalysisParams(), seed=0)
    assert c.case == "bi_dense" and c.confidence == "exact"


def test_classify_planted_recovery_30_seeds_each():
    for seed in range(30):
        c = classify(planted_two_cliques(40, seed), AnalysisParams(), seed=seed)
        assert c.case == "two_cliques", f"two_cliques seed={seed} -> {c.case}"
    for seed in range(30):
        c = classify(planted_near_bipartite(40, seed), AnalysisParams(), seed=seed)
        assert c.case == "near_bipartite", f"near_bipartite seed={seed} -> {c.case}"
    for seed in range(30):
        g, _, _ = dirac_instance(40, seed)
        c = classify(g, AnalysisParams(), seed=seed)
        assert c.case == "bi_dense", f"bi_dense seed={seed} -> {c.case}"


def test_classify_near_bipartite_witness_inequalities():
    params = AnalysisParams()
    c = classify(planted_near_bipartite(40, 3), params, seed=3)
    assert c.case == "near_bipartite"
    g = planted_near_bipartite(40, 3)
    a = c.set_a
    crossing = g.edges_between(a.mask, a.complement().mask)
    assert crossing >= (Fraction(1, 4) - 14 * params.eps) * 40 * 40


# -- cover product bound -----------------------------------------------------


def test_cover_product_k4():
    g = Graph.complete(4)
    cut = Cut(VertexSet.of(4, [0, 1]), VertexSet.of(4, [2, 3]))
    rep = balanced_cut_cover_product(g, cut)
    assert rep.holds and rep.product == 4
    assert rep.cover_x == 1 and rep.cover_y == 1


def _balanced_cuts(m):
    half = m // 2
    for rest in combinations(range(1, m), half - 1):
        x = (0,) + rest
        y = tuple(v for v in range(m) if v not in x)
        yield Cut(VertexSet.of(m, list(x)), VertexSet.of(m, list(y)))


def test_cover_product_octahedron_all_cuts():
    g = build_extremal(3, [4]).graph
    cuts = list(_balanced_cuts(6))
    assert len(cuts) == 10
    for cut in cuts:
        rep = balanced_cut_cover_product(g, cut)
        assert rep.holds and rep.product >= 4


def test_cover_product_c8_complement_all_cuts():
    g = Graph.cycle(8).complement()
    cuts = list(_balanced_cuts(8))
    assert len(cuts) == 35
    for cut in cuts:
        rep = balanced_cut_cover_product(g, cut)
        assert rep.holds and rep.product >= 5


def test_cover_product_rejects_irregular():
    g = Graph.cycle(6)  # 2-regular on 6 vertices: not (n+1)-regular
    cut = Cut(VertexSet.of(6, [0, 1, 2]), VertexSet.of(6, [3, 4, 5]))
    with pytest.raises(PreconditionError):
        balanced_cut_cover_product(g, cut)


# -- pairing-model sampler ---------------------------------------------------


def test_random_regular_degrees_grid():
    for n_vertices, degree in [(8, 3), (10, 4), (12, 5), (20, 11), (8, 5), (14, 7)]:
        g = random_regular_graph(n_vertices, degree, seed=11)
        assert g.degrees() == [degree] * n_vertices


def test_random_regular_k4():
    g = random_regular_graph(4, 3, seed=0)
    assert isomorphic(g, Graph.complete(4))


def test_random_regular_deterministic_and_seed_sensitive():
    a = random_regular_graph(16, 5, seed=3)
    b = random_regular_graph(16, 5, seed=3)
    assert a.rows == b.rows
    c = random_regular_graph(16, 5, seed=4)
    assert c.degrees() == [5] * 16


def test_random_regular_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        random_regular_graph(9, 3, seed=0)  # odd degree sum
    with pytest.raises(PreconditionError):
        random_regular_graph(6, 6, seed=0)  # degree >= n
