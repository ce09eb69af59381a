"""Greedy matchings, vertex covers, linear forests and their validators."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from conftest import (
    brute_min_vertex_cover,
    complete,
    cycle,
    edge_list,
    random_graph,
    to_networkx,
    without_edges,
)

from cycsets.analysis import random_regular_graph
from cycsets.bitgraph import Graph, VertexSet, bits_of
from cycsets.errors import BudgetExceededError, PreconditionError
from cycsets.instances import near_bipartite_instance
from cycsets.structures import (
    LinearForest,
    VertexCover,
    greedy_matching_mask,
    min_vertex_cover_exact,
)


def _full(m: int) -> VertexSet:
    return VertexSet((1 << m) - 1, m)


# -- matchings ---------------------------------------------------------------


def _matched(g: Graph, mask: int) -> int:
    return greedy_matching_mask(g.rows, mask)


def test_greedy_matching_examples():
    assert _matched(cycle(5), 0b11111) == 0b01111  # edges 01, 23
    assert _matched(Graph.empty(6), 0b111111) == 0
    assert _matched(complete(4), 0b1111) == 0b1111  # edges 01, 23
    assert _matched(cycle(6), 0b111110) == 0b011110  # in scope 1..5: edges 12, 34


def _check_greedy_matching(g: Graph, scope: int) -> None:
    used = _matched(g, scope)
    assert not used & ~scope, "matched vertex outside the scope"
    for u, v in edge_list(g):
        if scope >> u & scope >> v & 1:
            assert used >> u & 1 or used >> v & 1, "matching not maximal"
    # the matched vertices are those of a matching: they span a perfect one
    sub = to_networkx(g).subgraph(bits_of(used))
    assert 2 * len(nx.max_weight_matching(sub, maxcardinality=True)) == used.bit_count()


def test_greedy_matching_is_maximal_and_valid():
    for seed in range(25):
        g = random_graph(11, seed, p=0.35)
        for scope in (g.full_mask(), 0b10110111011):
            _check_greedy_matching(g, scope)


# -- vertex covers -----------------------------------------------------------


def test_min_cover_examples():
    assert min_vertex_cover_exact(cycle(5), _full(5)).size == 3
    assert min_vertex_cover_exact(complete(4), _full(4)).size == 3
    pm = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert min_vertex_cover_exact(pm, _full(8)).size == 4


def test_min_cover_matches_brute_and_matching_sandwich():
    for seed in range(20):
        g = random_graph(10, seed + 7, p=0.35)
        scope = _full(10)
        cov = min_vertex_cover_exact(g, scope)
        cov.validate(g)
        assert cov.size == brute_min_vertex_cover(g, list(range(10)))
        pairs = _matched(g, scope.mask).bit_count() // 2
        assert pairs <= cov.size <= 2 * pairs


def test_min_cover_budget_reports_its_bounds():
    g = random_regular_graph(24, 9, seed=1)
    best = min_vertex_cover_exact(g, _full(24)).size
    assert best == 18
    # at 30 nodes the budget runs out in a branch whose own bound, 19,
    # exceeds the minimum; the reported lower bound must hold for all covers
    for budget in (3, 30):
        with pytest.raises(BudgetExceededError) as exc:
            min_vertex_cover_exact(g, _full(24), node_budget=budget)
        assert exc.value.lower <= best <= exc.value.upper


# -- forged structures -------------------------------------------------------


def test_linear_forest_paths_on_a_planted_forest():
    rnd = random.Random(41)
    for m in (2, 5, 9, 30, 64, 70):
        g = complete(m)
        for _ in range(8):
            # random paths of 2+ vertices over a random subset of 0..m-1
            verts = rnd.sample(range(m), rnd.randint(2, m))
            want = []
            while len(verts) >= 2:
                size = rnd.randint(2, len(verts))
                path, verts = verts[:size], verts[size:]
                want.append(path)
            edges = [e for path in want for e in zip(path, path[1:])]
            rnd.shuffle(edges)
            forest = LinearForest(tuple(edges))
            forest.validate(g)
            # each path from its lower end, in order of that end
            want = sorted((p if p[0] < p[-1] else p[::-1] for p in want), key=lambda p: p[0])
            assert forest.paths() == want


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
    g = without_edges(complete(5), [(2, 4)])
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
    g = cycle(6)
    forged = VertexCover(
        VertexSet.of(6, cover), VertexSet.of(6, scope) if scope is not None else None
    )
    with pytest.raises(PreconditionError, match=reason):
        forged.validate(g)


# -- validator fuzz ----------------------------------------------------------


def test_structure_validators_fuzz():
    for seed in range(100):
        m = 5 + seed % 36  # up to 40 vertices
        g = random_graph(m, seed + 4000, p=0.2)
        scope = _full(m)
        _check_greedy_matching(g, scope.mask)
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
