"""Matchings, vertex covers, linear forests and their validators."""

from __future__ import annotations

import pytest

from conftest import brute_min_vertex_cover, random_graph

from cycsets.analysis import random_regular_graph
from cycsets.bitgraph import Graph, VertexSet
from cycsets.errors import BudgetExceededError, PreconditionError
from cycsets.instances import near_bipartite_instance
from cycsets.structures import (
    LinearForest,
    Matching,
    VertexCover,
    greedy_maximal_matching,
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


def test_min_cover_budget_reports_its_bounds():
    g = random_regular_graph(24, 9, seed=1)
    best = min_vertex_cover_exact(g, _full(24)).size
    with pytest.raises(BudgetExceededError) as exc:
        min_vertex_cover_exact(g, _full(24), node_budget=3)
    assert exc.value.lower <= best <= exc.value.upper


# -- forged structures -------------------------------------------------------


@pytest.mark.parametrize(
    "edges,scope,reason",
    [
        (((0, 1), (0, 2), (0, 3)), None, "degree > 2"),
        (((0, 1), (1, 2), (0, 2)), None, "cycle closed"),
        (((0, 1), (1, 4)), 0b01111, "leaves the scope"),
        (((2, 4),), None, "is not an edge"),
    ],
    ids=["degree3", "closed_cycle", "leaves_scope", "non_edge"],
)
def test_linear_forest_validate_rejects_forgeries(edges, scope, reason):
    g = Graph.complete(5).without_edges([(2, 4)])
    with pytest.raises(PreconditionError, match=reason):
        LinearForest(edges).validate(g, scope)


@pytest.mark.parametrize(
    "cover,scope,reason",
    [
        ([0, 2], None, "not covered"),
        ([1, 3, 5], [0, 1, 2, 3, 4], "outside its scope"),
    ],
    ids=["uncovered_edge", "outside_scope"],
)
def test_vertex_cover_validate_rejects_forgeries(cover, scope, reason):
    g = Graph.cycle(6)
    forged = VertexCover(
        VertexSet.of(6, cover), VertexSet.of(6, scope) if scope is not None else None
    )
    with pytest.raises(PreconditionError, match=reason):
        forged.validate(g)


@pytest.mark.parametrize(
    "edges,scope,reason",
    [
        (((0, 1), (1, 2)), None, "vertex reused"),
        (((0, 1), (3, 4)), 0b00111, "leaves the scope"),
        (((0, 2),), None, "is not an edge"),
    ],
    ids=["reused_vertex", "leaves_scope", "non_edge"],
)
def test_matching_validate_rejects_forgeries(edges, scope, reason):
    with pytest.raises(PreconditionError, match=reason):
        Matching(edges).validate(Graph.cycle(6), scope)


# -- validator fuzz ----------------------------------------------------------


def test_structure_validators_fuzz():
    for seed in range(100):
        m = 5 + seed % 36  # up to 40 vertices
        g = random_graph(m, seed + 4000, p=0.2)
        scope = _full(m)
        greedy_maximal_matching(g, scope).validate(g, scope.mask)
    # the planted witness forests the near-bipartite builder takes
    sizes = []
    for seed in range(12):
        g, cut, forest = near_bipartite_instance(200 + 40 * seed, seed)
        forest.validate(g, cut.x.mask)
        assert forest.size == cut.x.size - cut.y.size
        # its paths cover exactly its edges, one path per component
        path_edges = {tuple(sorted(e)) for p in forest.paths() for e in zip(p, p[1:])}
        assert path_edges == set(forest.edges)
        assert len(forest.paths()) == forest.vertex_mask().bit_count() - forest.size
        sizes.append(forest.size)
    assert max(sizes) >= 4
