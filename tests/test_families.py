"""Graph family builders and the regular-graph enumerators/samplers."""

from __future__ import annotations

import hashlib

import pytest

from conftest import complete, cycle, isomorphic, relabel, without_edges

from cycsets.analysis import random_regular_graph
from cycsets.bitgraph import Graph, bits_of, to_graph6
from cycsets.errors import PreconditionError
from cycsets.families import (
    ExtremalGraph,
    build_competitor,
    build_extremal,
    build_knn,
    build_star_augmented,
    enumerate_regular_complements,
    pairing_model_regular,
    pairing_model_repaired,
)
from cycsets.sampling import StreamRng


def _graph6_digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(to_graph6(g).encode() + b"\n")
    return h.hexdigest()


def _disjoint_cycles_graph(m: int, lengths: list[int]) -> Graph:
    edges = []
    base = 0
    for ell in lengths:
        for i in range(ell):
            edges.append((base + i, base + (i + 1) % ell))
        base += ell
    return Graph.from_edges(m, edges)


# -- extremal family ---------------------------------------------------------


def test_extremal_n2_is_k4():
    eg = build_extremal(2, [3])
    assert isomorphic(eg.graph, complete(4))


def test_extremal_n3_is_octahedron():
    eg = build_extremal(3, [4])
    pm = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert isomorphic(eg.graph, pm.complement())


def test_extremal_rejects_bad_partitions():
    with pytest.raises(PreconditionError):
        build_extremal(4, [3, 2])  # 2-cycle
    with pytest.raises(PreconditionError):
        build_extremal(4, [3, 3])  # wrong sum
    with pytest.raises(PreconditionError):
        build_extremal(1, [2])


@pytest.mark.parametrize(
    "n,lengths",
    [(2, [3]), (3, [4]), (4, [5]), (5, [6]), (5, [3, 3]), (7, [4, 4]), (9, [4, 3, 3])],
)
def test_extremal_structure(n, lengths):
    eg = build_extremal(n, lengths)
    g = eg.graph
    assert g.m == 2 * n
    assert g.degrees() == [n + 1] * (2 * n)
    assert eg.part_a.size == n + 1 and eg.part_b.size == n - 1
    assert g.edges_inside(eg.part_b.mask) == 0
    assert g.edges_between(eg.part_a.mask, eg.part_b.mask) == (n + 1) * (n - 1)
    assert g.edges_inside(eg.part_a.mask) == n + 1  # the 2-factor
    assert sorted(len(c) for c in eg.cycles) == sorted(lengths)
    for cyc in eg.cycles:
        for i, v in enumerate(cyc):
            assert g.has_edge(v, cyc[(i + 1) % len(cyc)])


def test_extremal_validate_rejects_wrong_edges_inside_a():
    eg = build_extremal(6, [3, 4])  # A = 0..6, B = 7..11
    for cycles in (
        eg.cycles[:1],  # the declared cycles miss A-edges
        ((0, 7, 2), (3, 4, 5, 6)),  # a declared cycle runs through B
    ):
        bad = ExtremalGraph(eg.n, eg.graph, eg.part_a, eg.part_b, cycles)
        with pytest.raises(PreconditionError) as exc:
            bad.validate()
        assert str(exc.value) == "edges inside A are not exactly the 2-factor"
    swapped = without_edges(eg.graph, [(0, 1), (3, 4)]).with_edges([(0, 4), (1, 3)])
    bad = ExtremalGraph(eg.n, swapped, eg.part_a, eg.part_b, eg.cycles)
    with pytest.raises(PreconditionError) as exc:
        bad.validate()
    assert str(exc.value) == "missing 2-factor edge (0,1)"


def test_extremal_validate_rejects_a_scattered_cycle():
    # A = 0..4 carries the 5-cycle 0-2-4-1-3; `gn_criterion_mask` would read
    # it as 0-1-2-3-4 and disagree with the exact decider on 60 of 256 subsets
    n, cyc = 4, (0, 2, 4, 1, 3)
    a_edges = [(cyc[i], cyc[(i + 1) % 5]) for i in range(5)]
    g = Graph.from_edges(2 * n, a_edges + [(u, v) for u in range(5) for v in range(5, 8)])
    eg = build_extremal(n, [5])
    bad = ExtremalGraph(n, g, eg.part_a, eg.part_b, (cyc,))
    with pytest.raises(PreconditionError) as exc:
        bad.validate()
    assert str(exc.value) == "cycle (0, 2, 4, 1, 3) is not on consecutive indices"


def test_extremal_cycle_order_irrelevant():
    # multi-cycle types exist only at 2n >= 10; the isomorphism is
    # exhibited explicitly: match cycles of equal length block by block,
    # identity on part B.
    for n, lengths in [(5, [3, 3]), (6, [4, 3]), (6, [3, 4]), (9, [4, 3, 3])]:
        a = build_extremal(n, lengths)
        b = build_extremal(n, sorted(lengths, reverse=True))
        unmatched = list(b.cycles)
        perm = [None] * (2 * n)
        for ca in a.cycles:
            cb = next(c for c in unmatched if len(c) == len(ca))
            unmatched.remove(cb)
            for va, vb in zip(ca, cb):
                perm[va] = vb
        for v in range(n + 1, 2 * n):  # part B fixed pointwise
            perm[v] = v
        assert relabel(a.graph, perm).rows == b.graph.rows


# -- bipartite and star-augmented families -----------------------------------


def test_knn_examples():
    g1 = build_knn(1)
    assert g1.m == 2 and g1.edge_count() == 1
    g3 = build_knn(3)
    assert g3.edge_count() == 9 and g3.degrees() == [3] * 6
    g5 = build_knn(5)
    # bipartite: parts are independent sets
    from cycsets.bitgraph import mask_of

    assert g5.edges_inside(mask_of(range(5))) == 0
    assert g5.edges_inside(mask_of(range(5, 10))) == 0
    assert g5.edge_count() == 25


def test_knn_n2_is_c4():
    assert isomorphic(build_knn(2), cycle(4))


def test_star_augmented_degrees():
    g3 = build_star_augmented(3)
    assert g3.min_degree() == 4
    g5 = build_star_augmented(5)
    assert g5.min_degree() >= 6
    # connected (K_{n,n} subgraph already is): every vertex reachable from 0
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in bits_of(g5.rows[v]):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    assert len(seen) == g5.m


def test_competitor_k3():
    cg = build_competitor(3)
    assert cg.k == 3
    g = cg.graph
    assert g.m == 18
    assert g.degrees() == [10] * 18
    assert cg.centers_left.size == 3 and cg.centers_right.size == 3


@pytest.mark.parametrize("k", range(3, 13))
def test_competitor_regular_all_k(k):
    cg = build_competitor(k)
    n = k * k
    assert cg.graph.m == 2 * n
    assert cg.graph.degrees() == [n + 1] * (2 * n)


def test_competitor_graph6_pinned():
    # k = 3..6, as the edge-tuple builder made them
    got = _graph6_digest(build_competitor(k).graph for k in range(3, 7))
    assert got == "d52d6a20c137a06307be5992e9e7ae8b6e5de76ae803ef500e344ec5d5589fec"


def test_competitor_rejects_small_k():
    with pytest.raises(PreconditionError):
        build_competitor(2)


# -- exhaustive (n+1)-regular enumeration ------------------------------------


def test_enumerate_regular_complements_sizes():
    assert len(enumerate_regular_complements(2)) == 1
    assert len(enumerate_regular_complements(3)) == 1
    assert len(enumerate_regular_complements(4)) == 3


def test_enumerate_regular_complements_n4_members():
    got = enumerate_regular_complements(4)
    want = [_disjoint_cycles_graph(8, L).complement() for L in ([8], [5, 3], [4, 4])]
    assert [[isomorphic(g, h) for h in want] for g in got] == [
        [True, False, False],
        [False, True, False],
        [False, False, True],
    ]


def test_enumerate_regular_complements_graph6_pinned():
    # n = 4 lists the complements of C8, C5+C3 and C4+C4, in that order
    got = {n: [to_graph6(g) for g in enumerate_regular_complements(n)] for n in (2, 3, 4)}
    assert got == {2: ["C~"], 3: ["E]~o"], 4: ["GUzvrw", "GUZ~vo", "GQ~vvg"]}


def test_enumerate_regular_complements_are_regular():
    for n in range(2, 5):
        for g in enumerate_regular_complements(n):
            assert g.m == 2 * n
            assert g.degrees() == [n + 1] * (2 * n)


def test_enumerate_regular_complements_range():
    # supported range is {2,3,4}: beyond that the (n-2)-regular complement
    # is no longer a disjoint union of cycles
    with pytest.raises(PreconditionError):
        enumerate_regular_complements(1)
    with pytest.raises(PreconditionError):
        enumerate_regular_complements(5)


# -- pairing-model samplers --------------------------------------------------


def test_pairing_model_sparse_success():
    g = None
    for attempt in range(50):
        g = pairing_model_regular(12, 3, StreamRng(5, attempt))
        if g is not None:
            break
    assert g is not None
    assert g.degrees() == [3] * 12


def test_pairing_model_deterministic():
    a = pairing_model_regular(10, 3, StreamRng(9, 0))
    b = pairing_model_regular(10, 3, StreamRng(9, 0))
    assert (a is None) == (b is None)
    if a is not None:
        assert a.rows == b.rows


def test_pairing_model_regular_stops_at_its_first_defect():
    # replays the recorded draws on the points: an attempt fails exactly
    # when its last draw made the first loop or repeated edge, and
    # succeeds after one draw per pair
    outcomes = set()
    for attempt in range(40):
        rng, draws = StreamRng(7, attempt), []

        class Recorder:
            def below(self, n):
                draws.append(rng.below(n))
                return draws[-1]

        g = pairing_model_regular(12, 3, Recorder())
        points, seen, defects = list(range(36)), set(), []
        for idx in draws:
            u, v = sorted((points.pop() // 3, points.pop(idx) // 3))
            defects.append(u == v or (u, v) in seen)
            seen.add((u, v))
        assert not any(defects[:-1])
        assert defects[-1] == (g is None)
        assert g is None or len(draws) == 18
        outcomes.add(g is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("m,d", [(8, 5), (20, 11), (12, 7), (16, 9)])
def test_pairing_model_repaired_dense(m, d):
    g = pairing_model_repaired(m, d, StreamRng(31, 0))
    assert g.degrees() == [d] * m
    again = pairing_model_repaired(m, d, StreamRng(31, 0))
    assert again.rows == g.rows
    other = pairing_model_repaired(m, d, StreamRng(32, 0))
    assert other.degrees() == [d] * m


@pytest.mark.parametrize(
    "m, d, digest",
    [
        (16, 3, "ea5232775f1b2749d823a4406d9a06cb1d3f1fe3c5d867882060ab8038d3008e"),
        (20, 5, "c69e460fd1a03d11957c828dd800f286f7963dd01543702988ccc978607501ac"),
        (20, 11, "04682bfcc2b37a654d4edbea54fb573e9a3c0a0f2c567721c11ed4f363560dd2"),
        (22, 12, "6bde1d579b5e3c12033ce3eb827726ef38c25455c1025bb22b40af2fc5625d67"),
    ],
)
def test_random_regular_graph_pinned(m, d, digest):
    # seeds 0..19, as the edge-tuple samplers drew them: (16, 3) takes the
    # strict pairing model, (20, 11) and (22, 12) the repaired one, (20, 5) both
    assert _graph6_digest(random_regular_graph(m, d, seed=s) for s in range(20)) == digest
