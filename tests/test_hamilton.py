"""Exact/heuristic Hamiltonicity, constructive cycle builders, fast criterion."""

from __future__ import annotations

import hashlib
from itertools import combinations

import pytest

from conftest import brute_has_ham_cycle, petersen, random_graph

from cycsets import hamilton
from cycsets.analysis import random_regular_graph
from cycsets.bitgraph import Cut, Graph, VertexSet
from cycsets.errors import BudgetExceededError, PreconditionError, VerificationError
from cycsets.families import build_extremal, build_knn
from cycsets.hamilton import (
    HamDecision,
    NotHamCert,
    decide_hamiltonian_auto,
    find_ham_cycle_rotation,
    gn_criterion,
    ham_cycle_near_bipartite,
    ham_cycle_two_cliques,
    ham_path_bipartite,
    ham_path_dirac,
    is_hamiltonian_exact,
    refute_toughness,
)
from cycsets.instances import (
    dirac_instance,
    bipartite_instance,
    near_bipartite_instance,
    two_cliques_instance,
)
from cycsets.sampling import retention_masks
from cycsets.structures import LinearForest


def _full(m: int) -> VertexSet:
    return VertexSet.full(m)


# -- exact decision ----------------------------------------------------------


def test_exact_examples():
    assert is_hamiltonian_exact(Graph.cycle(5), _full(5)).status == "hamiltonian"
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert is_hamiltonian_exact(star, _full(4)).status == "not_hamiltonian"
    assert is_hamiltonian_exact(Graph.complete(3), _full(3)).status == "hamiltonian"


def test_exact_small_scopes_never_hamiltonian():
    g = Graph.complete(5)
    for verts in ([], [1], [1, 3]):
        scope = VertexSet.of(5, verts)
        assert is_hamiltonian_exact(g, scope).status == "not_hamiltonian"


def test_exact_petersen_not_hamiltonian():
    g = petersen()
    assert g.degrees() == [3] * 10
    dec = is_hamiltonian_exact(g, _full(10))
    assert dec.status == "not_hamiltonian"
    # independent confirmation by plain backtracking
    assert not brute_has_ham_cycle(g, list(range(10)))


@pytest.mark.parametrize(
    "graph, status, work",
    [
        (petersen(), "not_hamiltonian", 237),
        (build_knn(5), "hamiltonian", 630),
        (build_extremal(6, [7]).graph, "hamiltonian", 8228),
    ],
    ids=["petersen", "k55", "extremal_6_7"],
)
def test_exact_work_is_the_state_count(graph, status, work):
    # values recorded on the per-mask loop that the vectorised kernel replaced
    dec = is_hamiltonian_exact(graph, _full(graph.m))
    assert (dec.status, dec.work) == (status, work)


@pytest.mark.parametrize(
    "graph, digest",
    [
        (petersen(), "26a44a2ee962afd84f6244e2f05ddddd8a378e483e3547d793a3143c12b55339"),
        (build_extremal(5, [6]).graph,
         "6b41d2a01bfa90d92adf466f831505d58b5f8390429fc4ff9be289ef01384195"),
        (random_regular_graph(12, 6, seed=8),
         "32db36dff2cc4ad1b3d7c2e7ff8939de7de57cb8d0989453867d585c57e7dbd3"),
    ],
    ids=["petersen", "extremal_5_6", "random_6_regular_12"],
)
def test_exact_decisions_are_pinned_on_every_scope(graph, digest):
    # sha256 of repr() of (status, cert.order or None, work) for every scope
    # mask in increasing order, as the numpy layer-table kernel decided them
    rows = []
    for mask in range(1 << graph.m):
        dec = is_hamiltonian_exact(graph, VertexSet(mask, graph.m))
        rows.append((dec.status, getattr(dec.cert, "order", None), dec.work))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_exact_budget_error():
    g = Graph.complete(25)
    with pytest.raises(BudgetExceededError):
        is_hamiltonian_exact(g, _full(25))


def test_exact_agrees_with_backtracking_all_5_vertex_graphs():
    pairs = list(combinations(range(5), 2))
    for code in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if code >> i & 1]
        g = Graph.from_edges(5, edges)
        dec = is_hamiltonian_exact(g, _full(5))
        want = brute_has_ham_cycle(g, list(range(5)))
        assert (dec.status == "hamiltonian") == want
        if dec.status == "hamiltonian":
            dec.cert.validate(g, g.full_mask())


def test_exact_agrees_with_backtracking_random_8_vertex():
    for seed in range(120):
        g = random_graph(8, seed + 2500, p=0.35 + (seed % 4) * 0.15)
        dec = is_hamiltonian_exact(g, _full(8))
        assert (dec.status == "hamiltonian") == brute_has_ham_cycle(
            g, list(range(8))
        )


def test_exact_on_subsets():
    g = Graph.cycle(6).with_edges([(0, 3)])
    # {0,1,2,3} induces a 4-cycle 0-1-2-3-0
    assert (
        is_hamiltonian_exact(g, VertexSet.of(6, [0, 1, 2, 3])).status
        == "hamiltonian"
    )
    # {0,1,2,4} induces a path
    assert (
        is_hamiltonian_exact(g, VertexSet.of(6, [0, 1, 2, 4])).status
        == "not_hamiltonian"
    )


# -- rotation engine ---------------------------------------------------------


def test_rotation_k6():
    dec = find_ham_cycle_rotation(Graph.complete(6), _full(6))
    assert dec.status == "hamiltonian"
    dec.cert.validate(Graph.complete(6), Graph.complete(6).full_mask())


def test_rotation_edgeless_unknown():
    dec = find_ham_cycle_rotation(Graph.empty(8), _full(8), budget=500)
    assert dec.status == "unknown"


def test_rotation_never_claims_not_hamiltonian():
    for seed in range(40):
        g = random_graph(12, seed + 7100, p=0.3)
        dec = find_ham_cycle_rotation(g, _full(12), budget=300, seed=seed)
        assert dec.status in ("hamiltonian", "unknown")
        if dec.status == "hamiltonian":
            dec.cert.validate(g, g.full_mask())


def test_rotation_dirac_instances_all_succeed():
    for seed in range(25):
        g, _, _ = dirac_instance(60, seed)
        dec = find_ham_cycle_rotation(g, _full(60), seed=seed)
        assert dec.status == "hamiltonian"
        dec.cert.validate(g, g.full_mask())


def test_rotation_deterministic():
    g, _, _ = dirac_instance(40, 5)
    a = find_ham_cycle_rotation(g, _full(40), seed=9)
    b = find_ham_cycle_rotation(g, _full(40), seed=9)
    assert a.cert.order == b.cert.order


def test_auto_decider_sound_fuzz():
    for seed in range(150):
        m = 4 + seed % 6
        g = random_graph(m, seed + 9000, p=0.45)
        scope = _full(m)
        dec = decide_hamiltonian_auto(g, scope, seed=seed)
        want = brute_has_ham_cycle(g, list(range(m)))
        assert dec.status in ("hamiltonian", "not_hamiltonian")
        assert (dec.status == "hamiltonian") == want
        if dec.cert is not None:
            dec.cert.validate(g, scope.mask)


def test_rotation_work_stays_within_budget():
    for g in (petersen(), random_graph(12, 4, p=0.3), Graph.complete(9)):
        for b in (0, 1, 9, 100, 1000):
            assert find_ham_cycle_rotation(g, _full(g.m), budget=b).work <= b


# -- toughness refutations ---------------------------------------------------


def test_not_ham_cert_rejects_forgeries():
    g = Graph.cycle(6)
    with pytest.raises(VerificationError, match="empty"):
        NotHamCert(0).validate(g, g.full_mask())
    with pytest.raises(VerificationError, match="leaves the scope"):
        NotHamCert(1 << 5).validate(g, 0b011111)
    for x in (0b1, 0b1001):  # one vertex, two opposite vertices of C_6
        with pytest.raises(VerificationError, match="components"):
            NotHamCert(x).validate(g, g.full_mask())
    # removing two vertices at distance 2 leaves an isolated vertex and a P3
    with pytest.raises(VerificationError, match="components"):
        NotHamCert(0b101).validate(g, g.full_mask())
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    NotHamCert(0b1).validate(star, star.full_mask())


def test_hamiltonian_decision_needs_a_cycle_certificate():
    for cert in (None, NotHamCert(1)):
        with pytest.raises(VerificationError):
            HamDecision("hamiltonian", cert, "dp", 0)
    with pytest.raises(VerificationError):
        HamDecision("unknown", NotHamCert(1), "toughness", 0)


def test_exact_cheap_refusals_carry_certificates():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    path = Graph.cycle(6)  # the scope 0..4 induces a path
    for g, scope, x in (
        (star, 0b1111, 0b1),  # the lone neighbour of a leaf
        (two_triangles, 0b111111, 0b1),  # one vertex of a disconnected scope
        (Graph.empty(4), 0b1111, 0b1),  # all components single vertices
        (path, 0b11111, 0b10),
    ):
        dec = is_hamiltonian_exact(g, VertexSet(scope, g.m))
        assert (dec.status, dec.cert, dec.method, dec.work) == (
            "not_hamiltonian", NotHamCert(x), "dp", 0
        )
        dec.cert.validate(g, scope)
    # only the DP table's own refutations lack a certificate
    assert is_hamiltonian_exact(petersen(), _full(10)).cert is None


def test_petersen_has_no_toughness_certificate():
    g = petersen()
    assert refute_toughness(g, g.full_mask()) is None
    dec = decide_hamiltonian_auto(g, _full(10))
    assert (dec.status, dec.method, dec.cert) == ("not_hamiltonian", "dp", None)


def test_refuter_bipartite_and_cut_vertex_candidates():
    k = Graph.complete_bipartite(3, 5)
    assert refute_toughness(k, k.full_mask()) == NotHamCert(0b111)
    # the balanced K_{4,4} is Hamiltonian: nothing to refute
    assert refute_toughness(build_knn(4), 0xFF) is None
    # two triangles sharing a vertex: the shared vertex is a cut vertex
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert refute_toughness(bowtie, bowtie.full_mask()) == NotHamCert(0b100)


@pytest.mark.parametrize(
    "n, cycles", [(6, [7]), (6, [3, 4]), (7, [4, 4])], ids=str
)
def test_refuter_settles_every_family_refutation(n, cycles):
    # the twin class of the B-part survivors covers both gn_criterion refusals
    eg = build_extremal(n, cycles)
    g = eg.graph
    for mask in range(1 << g.m):
        if mask.bit_count() < 3:
            continue
        cert = refute_toughness(g, mask)
        assert (cert is None) == gn_criterion(eg, VertexSet(mask, g.m)), f"{mask:b}"


@pytest.mark.parametrize(
    "m, p, seed", [(8, 0.6, 1), (9, 0.7, 2), (10, 0.65, 3), (11, 0.75, 4), (12, 0.7, 5)]
)
def test_chvatal_gate_holds_only_on_hamiltonian_scopes(m, p, seed):
    g = random_graph(m, 7700 + seed, p=p)
    held = 0
    for mask in range(1 << m):
        if mask.bit_count() < 3 or not hamilton._chvatal(g, mask):
            continue
        held += 1
        assert is_hamiltonian_exact(g, VertexSet(mask, m)).status == "hamiltonian"
        assert refute_toughness(g, mask) is None
        # nor would any candidate have refuted it without the gate
        assert not (
            hamilton._cheap_cut(g, mask)
            or hamilton._unbalanced_side(g, mask)
            or hamilton._twin_cut(g, mask)
        )
    assert held > 0


def test_chvatal_gate_skips_the_candidates(monkeypatch):
    def unreachable(g, scope_mask):
        raise AssertionError("the refuter searched a Chvátal scope")

    monkeypatch.setattr(hamilton, "_twin_cut", unreachable)
    g = build_extremal(6, [7]).graph
    assert refute_toughness(g, g.full_mask()) is None


def _auto_stream_digest(g: Graph, seed: int, samples: int) -> str:
    """sha256 over the auto decisions of estimate_h's sample stream at
    p = 1/2: (status, method, work, cert order or x_mask) per sample."""
    rows = []
    for mask, base in retention_masks(seed, 0, samples, g.m, 1, 2):
        dec = decide_hamiltonian_auto(g, VertexSet(mask, g.m), seed=base & 0x3FFFFFFF)
        cert = getattr(dec.cert, "order", None) or getattr(dec.cert, "x_mask", None)
        rows.append((dec.status, dec.method, dec.work, cert))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize(
    "graph, digest",
    [
        (build_extremal(10, [11]).graph,
         "c22fb810118d6c5aae9569bca7bf0655f8e806f953eb56e96da0e9c0dd5c83b4"),
        (random_regular_graph(22, 12, seed=4),
         "e0c539cdc50db48409500efe9caae529fdc2cdb10a533b18c2ef960f431c397b"),
    ],
    ids=["extremal_m20", "random_12_regular_22"],
)
def test_auto_decisions_are_pinned_on_the_sample_stream(graph, digest):
    # taken before the Chvátal gate and the cheaper rotation pick
    assert _auto_stream_digest(graph, 1, 600) == digest


@pytest.mark.parametrize(
    "m, p, seeds",
    [(6, 0.5, 3), (8, 0.3, 2), (8, 0.6, 2), (9, 0.45, 2), (11, 0.5, 1), (12, 0.35, 1)],
)
def test_deciders_agree_on_every_scope(m, p, seeds):
    """Refuter, rotation, auto and the DP agree on every scope of >= 3
    vertices, and on m <= 9 with plain backtracking; every certificate
    validates."""
    for seed in range(seeds):
        g = random_graph(m, 7100 + 31 * m + seed, p=p)
        for mask in range(1 << m):
            s = mask.bit_count()
            if s < 3:
                continue
            scope = VertexSet(mask, m)
            exact = is_hamiltonian_exact(g, scope)
            ham = exact.status == "hamiltonian"
            if m <= 9:
                assert ham == brute_has_ham_cycle(g, scope.members())
            cert = refute_toughness(g, mask)
            if cert is not None:
                assert not ham
                cert.validate(g, mask)
            rot = find_ham_cycle_rotation(g, scope, budget=s * s, seed=seed)
            assert rot.status in ("hamiltonian", "unknown")
            if rot.status == "hamiltonian":
                assert ham
            auto = decide_hamiltonian_auto(g, scope, seed=seed)
            assert auto.status == exact.status
            for dec in (exact, rot, auto):
                if dec.cert is not None:
                    dec.cert.validate(g, mask)


# -- Hamilton-connected path builders ----------------------------------------


def test_ham_path_k5():
    g = Graph.complete(5)
    cert = ham_path_dirac(g, 0, 3)
    cert.validate(g, g.full_mask())
    assert cert.order[0] == 0 and cert.order[-1] == 3
    assert len(cert.order) == 5


def test_ham_path_rejects_equal_endpoints():
    with pytest.raises(PreconditionError):
        ham_path_dirac(Graph.complete(5), 2, 2)


def test_ham_path_rejects_low_degree():
    with pytest.raises(PreconditionError):
        ham_path_dirac(Graph.cycle(6), 0, 3)


def test_ham_path_dirac_random_instances():
    for seed in range(20):
        g, a, b = dirac_instance(20, seed)
        assert g.min_degree() >= 12
        cert = ham_path_dirac(g, a, b, seed=seed)
        cert.validate(g, g.full_mask())
        assert cert.order[0] == a and cert.order[-1] == b


def test_ham_path_bipartite_k44():
    g = Graph.complete_bipartite(4, 4)
    left = VertexSet.of(8, [0, 1, 2, 3])
    right = left.complement()
    cert = ham_path_bipartite(g, left, right, 0, 4)
    cert.validate(g, g.full_mask())
    assert cert.order[0] == 0 and cert.order[-1] == 4
    assert len(cert.order) == 8


def test_ham_path_bipartite_k1010_minus_matching():
    g = Graph.complete_bipartite(10, 10).without_edges(
        [(i, 10 + i) for i in range(10)]
    )
    left = VertexSet.of(20, list(range(10)))
    right = left.complement()
    cert = ham_path_bipartite(g, left, right, 0, 11)
    cert.validate(g, g.full_mask())
    assert cert.order[0] == 0 and cert.order[-1] == 11


def test_ham_path_bipartite_same_side_rejected():
    g = Graph.complete_bipartite(4, 4)
    left = VertexSet.of(8, [0, 1, 2, 3])
    with pytest.raises(PreconditionError):
        ham_path_bipartite(g, left, left.complement(), 0, 1)


def test_ham_path_bipartite_random_instances():
    for seed in range(20):
        g, left, right, a, b = bipartite_instance(20, seed)
        cert = ham_path_bipartite(g, left, right, a, b, seed=seed)
        cert.validate(g, g.full_mask())
        assert cert.order[0] == a and cert.order[-1] == b


# -- constructive cycle builders ---------------------------------------------


def test_two_cliques_cycle_on_matched_cliques():
    half = 20
    m = 2 * half
    edges = [(u, v) for u in range(half) for v in range(u + 1, half)]
    edges += [
        (half + u, half + v) for u in range(half) for v in range(u + 1, half)
    ]
    edges += [(i, half + i) for i in range(half)]
    g = Graph.from_edges(m, edges)
    cut = Cut(VertexSet.of(m, list(range(half))), VertexSet.of(m, list(range(half, m))))
    cert = ham_cycle_two_cliques(g, cut)
    cert.validate(g, g.full_mask())
    assert len(cert.order) == m


def test_two_cliques_needs_two_disjoint_crossing_edges():
    half = 20
    m = 2 * half
    edges = [(u, v) for u in range(half) for v in range(u + 1, half)]
    edges += [
        (half + u, half + v) for u in range(half) for v in range(u + 1, half)
    ]
    edges += [(0, half)]  # a single bridge
    g = Graph.from_edges(m, edges)
    cut = Cut(VertexSet.of(m, list(range(half))), VertexSet.of(m, list(range(half, m))))
    with pytest.raises(PreconditionError):
        ham_cycle_two_cliques(g, cut)


def test_two_cliques_builder_instances():
    for seed in range(2):
        g, cut = two_cliques_instance(600, seed)
        cert = ham_cycle_two_cliques(g, cut, seed=seed)
        cert.validate(g, g.full_mask())
        assert len(cert.order) == 600


def test_near_bipartite_cycle_on_knn():
    g = build_knn(50)
    cut = Cut(VertexSet.of(100, list(range(50))), VertexSet.of(100, list(range(50, 100))))
    cert = ham_cycle_near_bipartite(g, cut, LinearForest(()))
    cert.validate(g, g.full_mask())
    assert len(cert.order) == 100


def test_near_bipartite_wrong_witness_rejected():
    g = build_knn(50)
    cut = Cut(VertexSet.of(100, list(range(50))), VertexSet.of(100, list(range(50, 100))))
    with pytest.raises(PreconditionError):
        # balanced cut needs an empty witness, not one edge
        ham_cycle_near_bipartite(g, cut, LinearForest(((0, 1),)))


def test_near_bipartite_builder_instances():
    for seed in range(2):
        g, cut, forest = near_bipartite_instance(600, seed)
        cert = ham_cycle_near_bipartite(g, cut, forest, seed=seed)
        cert.validate(g, g.full_mask())
        assert len(cert.order) == 600


# Instance seeds of the benchmark's certify_dense workload for run seeds 1 and
# 2026, and the sha256 of repr() of the four certificate orders each gives.
BUILDER_ORDER_DIGESTS = {
    2484195175: "89e1fc9ccba248bcaad7a74038f9a73d94d5578973e73f83427f3070bdf7bedd",
    3800690240: "76ae0af13f66ac86497705589c1e9264b3f9b0dd9407ddde278aaad9fc4513e1",
}


@pytest.mark.parametrize("s", sorted(BUILDER_ORDER_DIGESTS))
def test_builder_certificates_are_pinned(s):
    g1, cut1 = two_cliques_instance(600, s)
    g2, cut2, forest = near_bipartite_instance(600, s)
    g3, a3, b3 = dirac_instance(200, s)
    g4, left, right, a4, b4 = bipartite_instance(200, s)
    orders = [
        ham_cycle_two_cliques(g1, cut1, seed=s).order,
        ham_cycle_near_bipartite(g2, cut2, forest, seed=s).order,
        ham_path_dirac(g3, a3, b3, seed=s).order,
        ham_path_bipartite(g4, left, right, a4, b4, seed=s).order,
    ]
    digest = hashlib.sha256(repr(orders).encode()).hexdigest()
    assert digest == BUILDER_ORDER_DIGESTS[s]


# -- fast criterion for the extremal family ----------------------------------


def test_gn_criterion_octahedron_examples():
    eg = build_extremal(3, [4])
    assert gn_criterion(eg, VertexSet.full(6))
    # the 2-factor side alone induces C4: cyclic (full-cycle edge case)
    assert gn_criterion(eg, eg.part_a)
    # two opposite cycle vertices + one B vertex: induced path, not cyclic
    c = eg.cycles[0]
    s = VertexSet.of(6, [c[0], c[2], eg.part_b.members()[0]])
    assert not gn_criterion(eg, s)


def test_gn_criterion_matches_dp_octahedron():
    eg = build_extremal(3, [4])
    for mask in range(1 << 6):
        fast = gn_criterion(eg, VertexSet(mask, 6))
        dp = is_hamiltonian_exact(eg.graph, VertexSet(mask, 6))
        assert fast == (dp.status == "hamiltonian"), f"mask={mask:06b}"


def test_gn_criterion_matches_dp_two_cycle_type():
    eg = build_extremal(5, [3, 3])
    for mask in range(1 << 10):
        fast = gn_criterion(eg, VertexSet(mask, 10))
        dp = is_hamiltonian_exact(eg.graph, VertexSet(mask, 10))
        assert fast == (dp.status == "hamiltonian"), f"mask={mask:010b}"
