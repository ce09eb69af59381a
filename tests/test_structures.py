"""Matchings, covers, linear forests, k-good cuts."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import (
    brute_max_linear_forest,
    brute_min_vertex_cover,
    random_graph,
)

from cycsets.bitgraph import Cut, Graph, VertexSet, mask_of
from cycsets.errors import PreconditionError
from cycsets.families import build_extremal
from cycsets.structures import (
    greedy_maximal_matching,
    hopcroft_karp,
    is_k_good_cut,
    konig_min_cover,
    linear_forest_lower_bound,
    max_linear_forest_exact,
    min_vertex_cover_exact,
)


def _full(m: int) -> VertexSet:
    return VertexSet.full(m)


# -- matchings ---------------------------------------------------------------


def test_greedy_matching_examples():
    assert greedy_maximal_matching(Graph.cycle(5), _full(5)).size == 2
    assert greedy_maximal_matching(Graph.empty(6), _full(6)).size == 0
    assert greedy_maximal_matching(Graph.complete(4), _full(4)).size == 2


def test_greedy_matching_is_maximal_and_valid():
    for seed in range(25):
        g = random_graph(11, seed, p=0.35)
        scope = _full(11)
        mm = greedy_maximal_matching(g, scope)
        mm.validate(g, scope.mask)
        used = mm.vertex_mask()
        for u, v in g.edges():
            assert used >> u & 1 or used >> v & 1, "matching not maximal"


def test_hopcroft_karp_matches_brute_on_random_bipartite():
    for seed in range(20):
        g = random_graph(10, seed + 900, p=0.4)
        left = VertexSet.of(10, [0, 1, 2, 3, 4])
        right = left.complement()
        keep = [
            (u, v)
            for u, v in g.edges()
            if (left.contains(u) and right.contains(v))
            or (left.contains(v) and right.contains(u))
        ]
        bg = Graph.from_edges(10, keep)
        mm = hopcroft_karp(bg, left, right)
        mm.validate(bg, bg.full_mask())
        # König: max matching == min cover; brute cover is the oracle
        assert mm.size == brute_min_vertex_cover(bg, list(range(10)))


def test_konig_examples():
    c6 = Graph.cycle(6)
    mm, cov = konig_min_cover(
        c6, VertexSet.of(6, [0, 2, 4]), VertexSet.of(6, [1, 3, 5])
    )
    assert mm.size == 3 and cov.size == 3
    k33 = Graph.complete_bipartite(3, 3)
    mm, cov = konig_min_cover(
        k33, VertexSet.of(6, [0, 1, 2]), VertexSet.of(6, [3, 4, 5])
    )
    assert mm.size == 3 and cov.size == 3
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    mm, cov = konig_min_cover(
        star, VertexSet.of(5, [0]), VertexSet.of(5, [1, 2, 3, 4])
    )
    assert mm.size == 1 and cov.size == 1


def test_konig_equality_and_certificates_random():
    for seed in range(30):
        g = random_graph(12, seed + 40, p=0.3)
        left = VertexSet.of(12, list(range(6)))
        right = left.complement()
        keep = [
            (u, v)
            for u, v in g.edges()
            if left.contains(u) != left.contains(v)
        ]
        bg = Graph.from_edges(12, keep)
        mm, cov = konig_min_cover(bg, left, right)
        assert mm.size == cov.size
        mm.validate(bg, bg.full_mask())
        cov.validate(bg)


def test_konig_rejects_intra_part_edge():
    g = Graph.from_edges(4, [(0, 1), (0, 2)])
    with pytest.raises(PreconditionError):
        konig_min_cover(g, VertexSet.of(4, [0, 1]), VertexSet.of(4, [2, 3]))


# -- vertex covers -----------------------------------------------------------


def test_min_cover_examples():
    assert min_vertex_cover_exact(Graph.cycle(5), _full(5)).size == 3
    assert min_vertex_cover_exact(Graph.complete(4), _full(4)).size == 3
    pm = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert min_vertex_cover_exact(pm, _full(8)).size == 4


def test_min_cover_matches_brute_and_matching_sandwich():
    for seed in range(20):
        g = random_graph(10, seed + 7, p=0.35)
        scope = _full(10)
        cov = min_vertex_cover_exact(g, scope)
        cov.validate(g)
        assert cov.size == brute_min_vertex_cover(g, list(range(10)))
        mm = greedy_maximal_matching(g, scope)
        assert mm.size <= cov.size <= 2 * mm.size


def test_min_cover_alpha_scalar():
    cov = min_vertex_cover_exact(Graph.cycle(5), _full(5), ref_n=25)
    assert cov.alpha == pytest.approx(3 / 5)


# -- linear forests ----------------------------------------------------------


def test_max_linear_forest_examples():
    assert max_linear_forest_exact(Graph.cycle(5), _full(5)).size == 4
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert max_linear_forest_exact(star, _full(4)).size == 2
    assert max_linear_forest_exact(Graph.complete(4), _full(4)).size == 3


def test_max_linear_forest_matches_brute():
    for seed in range(15):
        g = random_graph(7, seed + 300, p=0.5)
        lf = max_linear_forest_exact(g, _full(7))
        lf.validate(g, g.full_mask())
        assert lf.size == brute_max_linear_forest(g, list(range(7)))


def test_max_linear_forest_monotone_under_edge_addition():
    import random as _r

    for seed in range(12):
        rnd = _r.Random(seed)
        g = random_graph(12, seed + 77, p=0.25)
        before = max_linear_forest_exact(g, _full(12)).size
        non_edges = [
            (u, v)
            for u in range(12)
            for v in range(u + 1, 12)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        g2 = g.with_edges([rnd.choice(non_edges)])
        after = max_linear_forest_exact(g2, _full(12)).size
        assert after >= before


def test_linear_forest_lower_bound_examples():
    c5 = Graph.cycle(5)
    lf = linear_forest_lower_bound(c5, _full(5))
    lf.validate(c5, c5.full_mask())
    assert lf.size >= 2
    pm = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    lf = linear_forest_lower_bound(pm, _full(6))
    assert lf.size == 3  # a matching is already a linear forest


def test_linear_forest_lower_bound_meets_contract():
    import math

    from cycsets.analysis import random_regular_graph

    g = random_regular_graph(50, 4, seed=3)
    scope = _full(50)
    lf = linear_forest_lower_bound(g, scope)
    lf.validate(g, scope.mask)
    e = g.edge_count()
    guarantee = e // math.ceil((1 + 0.25) * 4 / 2)
    assert lf.size >= guarantee >= e // 3


def test_linear_forest_lower_bound_below_exact():
    for seed in range(8):
        g = random_graph(14, seed + 11, p=0.3)
        scope = _full(14)
        lo = linear_forest_lower_bound(g, scope)
        hi = max_linear_forest_exact(g, scope)
        assert lo.size <= hi.size


# -- k-good cuts -------------------------------------------------------------


def _octa_cut():
    eg = build_extremal(3, [4])
    return eg.graph, Cut(eg.part_a, eg.part_b)


def test_k_good_cut_octahedron():
    g, cut = _octa_cut()
    r1 = is_k_good_cut(g, cut, 1, exact=True)
    assert r1.good and r1.definite
    r1.witness.validate(g, cut.x.mask)
    assert r1.witness.size >= 1 + cut.x.size - cut.y.size
    r2 = is_k_good_cut(g, cut, 2, exact=True)
    assert not r2.good and r2.definite


def test_k_good_cut_equal_sides_k0():
    g = random_graph(8, 1)
    cut = Cut(VertexSet.of(8, [0, 1, 2, 3]), VertexSet.of(8, [4, 5, 6, 7]))
    r = is_k_good_cut(g, cut, 0, exact=True)
    assert r.good and r.definite


def test_k_good_cut_heuristic_mode_sound():
    # heuristic "good" answers must be backed by a valid witness
    for seed in range(10):
        g = random_graph(12, seed + 60, p=0.45)
        cut = Cut(
            VertexSet.of(12, list(range(7))), VertexSet.of(12, list(range(7, 12)))
        )
        r = is_k_good_cut(g, cut, 1, exact=False)
        if r.good:
            side = cut.x if r.side == "x" else cut.y
            r.witness.validate(g, side.mask)


# -- validator fuzz ----------------------------------------------------------


def test_structure_validators_fuzz():
    for seed in range(100):
        m = 5 + seed % 36  # up to 40 vertices
        g = random_graph(m, seed + 4000, p=0.2)
        scope = _full(m)
        greedy_maximal_matching(g, scope).validate(g, scope.mask)
        linear_forest_lower_bound(g, scope).validate(g, scope.mask)
