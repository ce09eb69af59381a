"""Exact/heuristic Hamiltonicity, constructive cycle builders, fast criterion."""

from __future__ import annotations

import hashlib
from itertools import combinations

import pytest

from conftest import (
    brute_has_ham_cycle,
    closure_is_complete,
    complete,
    cycle,
    join_planted_graph,
    join_scope,
    joined_class,
    petersen,
    random_graph,
    reference_cut_vertices,
    reference_exact_decision,
    reference_toughness_cut,
    refute_scope,
    twin_planted_graph,
    without_edges,
)

from cycsets import bitgraph, hamilton
from cycsets.analysis import random_regular_graph
from cycsets.bitgraph import Cut, Graph, VertexSet, bits_of
from cycsets.errors import BudgetExceededError, PreconditionError, VerificationError
from cycsets.families import build_extremal, build_knn, gn_criterion_mask
from cycsets.hamilton import (
    ChvatalCert,
    HamCycleCert,
    HamDecision,
    HamPathCert,
    NotHamCert,
    decide_hamiltonian_auto,
    find_ham_cycle_rotation,
    gn_criterion,
    ham_cycle_near_bipartite,
    ham_cycle_two_cliques,
    ham_path_bipartite,
    ham_path_dirac,
    is_hamiltonian_exact,
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
    return VertexSet((1 << m) - 1, m)


# -- exact decision ----------------------------------------------------------


def test_exact_examples():
    assert is_hamiltonian_exact(cycle(5), _full(5)).status == "hamiltonian"
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert is_hamiltonian_exact(star, _full(4)).status == "not_hamiltonian"
    assert is_hamiltonian_exact(complete(3), _full(3)).status == "hamiltonian"


def test_exact_small_scopes_never_hamiltonian():
    g = complete(5)
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
        (build_knn(5), "hamiltonian", 9),
        (build_extremal(6, [7]).graph, "hamiltonian", 780),
    ],
    ids=["petersen", "k55", "extremal_6_7"],
)
def test_exact_work_is_the_state_count(graph, status, work):
    # the kernel's own states: Petersen is twin-free, so its 237 are the
    # per-vertex states sum |reach[M]|; K_{5,5} has two classes and 9 states
    dec = is_hamiltonian_exact(graph, _full(graph.m))
    assert (dec.status, dec.work) == (status, work)


@pytest.mark.parametrize(
    "graph, digest",
    [
        (petersen(), "26a44a2ee962afd84f6244e2f05ddddd8a378e483e3547d793a3143c12b55339"),
        (build_extremal(5, [6]).graph,
         "35f9038dde67a218cd5142cda15384cf14b3b120321a70a8da8e2fdd463c712b"),
        (random_regular_graph(12, 6, seed=8),
         "e052ad3fdfb53a5ba10838fa64fa896d2952b331bc11838b6c56ae645bec0dcd"),
    ],
    ids=["petersen", "extremal_5_6", "random_6_regular_12"],
)
def test_exact_decisions_are_pinned_on_every_scope(graph, digest):
    # sha256 of repr() of (status, cert.order or None, work) for every scope
    # mask in increasing order: status and order as the numpy layer-table
    # kernel decided them, work the twin-class kernel's state count
    rows = []
    for mask in range(1 << graph.m):
        dec = is_hamiltonian_exact(graph, VertexSet(mask, graph.m))
        rows.append((dec.status, getattr(dec.cert, "order", None), dec.work))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("m", [9, 11, 12, 14])
def test_exact_decisions_equal_the_per_vertex_reference_on_twin_planted_scopes(m):
    # twin classes of up to three vertices, scopes that keep or split them
    for seed in range(3):
        g = twin_planted_graph(m, 100 * m + seed)
        masks = [(1 << m) - 1] + [random_graph(m, seed + i, p=0.75).rows[0] | 1 for i in range(8)]
        for mask in masks:
            dec = is_hamiltonian_exact(g, VertexSet(mask, m))
            if isinstance(dec.cert, NotHamCert):  # refused before the DP
                assert (dec.status, dec.work) == ("not_hamiltonian", 0)
                assert reference_exact_decision(g, mask)[0] == "not_hamiltonian"
                continue
            status, order, work = reference_exact_decision(g, mask)
            assert (dec.status, getattr(dec.cert, "order", None), dec.method, dec.work) == (
                status, order, "dp", work
            )


def test_exact_budget_error():
    g = complete(25)
    with pytest.raises(BudgetExceededError):
        is_hamiltonian_exact(g, _full(25))


def test_exact_cheap_refusals_come_before_the_budget():
    # K_29 is twin-free, past the kernel's bytes, but vertex 29 hangs on 0 alone
    g = Graph.from_edges(30, [*((u, v) for u in range(29) for v in range(u + 1, 29)), (0, 29)])
    dec = is_hamiltonian_exact(g, _full(30))
    assert (dec.status, dec.method, dec.work) == ("not_hamiltonian", "dp", 0)
    assert isinstance(dec.cert, NotHamCert)
    dec.cert.validate(g, _full(30).mask)


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
    g = cycle(6).with_edges([(0, 3)])
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
    dec = find_ham_cycle_rotation(complete(6), _full(6))
    assert dec.status == "hamiltonian"
    dec.cert.validate(complete(6), complete(6).full_mask())


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
    for g in (petersen(), random_graph(12, 4, p=0.3), complete(9)):
        for b in (0, 1, 9, 100, 1000):
            assert find_ham_cycle_rotation(g, _full(g.m), budget=b).work <= b


# -- toughness refutations ---------------------------------------------------


def test_not_ham_cert_rejects_forgeries():
    g = cycle(6)
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


def test_order_certificates_reject_vertices_outside_the_graph():
    g = Graph.complete_bipartite(3, 3)
    for scope in (None, g.full_mask()):
        with pytest.raises(VerificationError, match="outside"):
            HamCycleCert((0, 3, 1, -1)).validate(g, scope)
        with pytest.raises(VerificationError, match="outside"):
            HamCycleCert((9, 0, 3)).validate(g, scope)
        with pytest.raises(VerificationError, match="outside"):
            HamPathCert((9, 0)).validate(g, scope)
        with pytest.raises(VerificationError, match="outside"):
            HamPathCert((0, -3)).validate(g, scope)
    # in range, the same checks as before: repeats, cover, non-edges
    with pytest.raises(VerificationError, match="repeats"):
        HamCycleCert((0, 3, 0, 4)).validate(g)
    with pytest.raises(VerificationError, match="repeats"):
        HamPathCert((0, 3, 0)).validate(g)
    with pytest.raises(VerificationError, match="cover"):
        HamCycleCert((0, 3, 1, 4)).validate(g, g.full_mask())
    with pytest.raises(VerificationError, match="non-edge"):
        HamCycleCert((0, 3, 1)).validate(g)
    HamCycleCert((0, 3, 1, 4, 2, 5)).validate(g, g.full_mask())
    HamPathCert((0, 3, 1, 4)).validate(g, 0b11011)


def test_hamiltonian_decision_needs_a_cycle_certificate():
    for cert in (None, NotHamCert(1)):
        with pytest.raises(VerificationError):
            HamDecision("hamiltonian", cert, "dp", 0)
    with pytest.raises(VerificationError):
        HamDecision("unknown", NotHamCert(1), "toughness", 0)
    # a degree certificate proves Hamiltonicity, and only that
    HamDecision("hamiltonian", ChvatalCert(), "chvatal", 0)
    for status in ("not_hamiltonian", "unknown"):
        with pytest.raises(VerificationError, match="degree certificate"):
            HamDecision(status, ChvatalCert(), "chvatal", 0)


def test_chvatal_cert_validates_only_dense_scopes():
    k6 = complete(6)
    for mask in range(1 << 6):
        if mask.bit_count() >= 3:
            ChvatalCert().validate(k6, mask)
    ChvatalCert().validate(build_knn(4), 0xFF)
    # neither is Hamiltonian, so no degree certificate can hold
    for g in (petersen(), Graph.complete_bipartite(3, 5)):
        with pytest.raises(VerificationError, match="Chvátal"):
            ChvatalCert().validate(g, g.full_mask())
    with pytest.raises(VerificationError, match="fewer than 3"):
        ChvatalCert().validate(k6, 0b11)


def test_scope_certificates_refuse_a_scope_outside_the_graph():
    # bits at or above m name no vertex: refused before any row is read
    g = build_knn(3)  # m = 6
    with pytest.raises(VerificationError, match="outside 0..5"):
        ChvatalCert().validate(g, 0b1000111)
    with pytest.raises(VerificationError, match="outside 0..5"):
        NotHamCert(1).validate(g, 0b11000001)
    with pytest.raises(VerificationError, match="outside 0..5"):
        ChvatalCert().validate(g, -1)
    # an X outside the graph leaves a scope inside it
    with pytest.raises(VerificationError, match="leaves the scope"):
        NotHamCert(0b1000000).validate(g, g.full_mask())


@pytest.mark.parametrize("m, p", [(8, 0.5), (9, 0.7), (10, 0.6), (10, 0.8)])
def test_chvatal_decisions_have_complete_closures(m, p):
    # the Bondy–Chvátal closure, by its plain rule, is an oracle independent
    # of `_chvatal`: wherever auto answers 'chvatal', the closure is complete
    # and the scope has a Hamilton cycle
    g = random_graph(m, 6600 + 10 * m + int(10 * p), p=p)
    held = 0
    for mask in range(1 << m):
        if mask.bit_count() < 3:
            continue
        dec = decide_hamiltonian_auto(g, VertexSet(mask, m), seed=mask)
        if dec.method != "chvatal":
            continue
        held += 1
        assert (dec.status, dec.cert, dec.work) == ("hamiltonian", ChvatalCert(), 0)
        dec.cert.validate(g, mask)
        assert closure_is_complete(g, mask), f"{mask:b}"
        assert brute_has_ham_cycle(g, list(bits_of(mask))), f"{mask:b}"
    assert held > 0


def test_exact_cheap_refusals_carry_certificates():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    path = cycle(6)  # the scope 0..4 induces a path
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
    assert refute_scope(g, g.full_mask()) is None
    dec = decide_hamiltonian_auto(g, _full(10))
    assert (dec.status, dec.method, dec.cert) == ("not_hamiltonian", "dp", None)


def test_refuter_bipartite_and_cut_vertex_candidates():
    k = Graph.complete_bipartite(3, 5)
    assert refute_scope(k, k.full_mask()) == NotHamCert(0b111)
    # the balanced K_{4,4} is Hamiltonian: nothing to refute
    assert refute_scope(build_knn(4), 0xFF) is None
    # two triangles sharing a vertex: the shared vertex is a cut vertex
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert refute_scope(bowtie, bowtie.full_mask()) == NotHamCert(0b100)


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
        cert = refute_scope(g, mask)
        assert (cert is None) == gn_criterion(eg, VertexSet(mask, g.m)), f"{mask:b}"


def _scope_degrees(g: Graph, mask: int) -> list[int]:
    return sorted((g.rows[v] & mask).bit_count() for v in bits_of(mask))


@pytest.mark.parametrize(
    "m, p, seed", [(8, 0.6, 1), (9, 0.7, 2), (10, 0.65, 3), (11, 0.75, 4), (12, 0.7, 5)]
)
def test_chvatal_gate_holds_only_on_hamiltonian_scopes(m, p, seed):
    g = random_graph(m, 7700 + seed, p=p)
    held = 0
    for mask in range(1 << m):
        if mask.bit_count() < 3 or not hamilton._chvatal(_scope_degrees(g, mask)):
            continue
        held += 1
        assert is_hamiltonian_exact(g, VertexSet(mask, m)).status == "hamiltonian"
        assert refute_scope(g, mask) is None
        # nor would any candidate have refuted it without the gate
        assert reference_toughness_cut(g, mask) == 0
    assert held > 0


def test_chvatal_gate_skips_the_candidates(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the refuter searched a Chvátal scope")

    # the gate is the decider's: a Chvátal scope never reaches the refuter's
    # candidate search
    monkeypatch.setattr(hamilton, "_toughness_cut", unreachable)
    g = build_extremal(6, [7]).graph
    dec = decide_hamiltonian_auto(g, _full(g.m))
    assert (dec.status, dec.method) == ("hamiltonian", "chvatal")
    # the same search runs on a scope that misses the gate
    with pytest.raises(AssertionError, match="Chvátal"):
        decide_hamiltonian_auto(petersen(), _full(10))


def test_auto_reads_the_scope_rows_once_per_decision(monkeypatch):
    # one read serves the degree tier, the join tier and the refuter, and
    # rotation reads none; the extremal member gives the first two kinds of
    # scope, the random graph the scopes with no joined class
    scopes = {}
    for g in (build_extremal(10, [11]).graph, random_regular_graph(22, 12, seed=4)):
        for mask, base in retention_masks(1, 0, 200, g.m, 1, 2):
            scope, seed = VertexSet(mask, g.m), base & 0x3FFFFFFF
            method = decide_hamiltonian_auto(g, scope, seed=seed).method
            scopes.setdefault(method, (g, scope, seed))
    assert {"chvatal", "join", "toughness", "rotation"} <= scopes.keys()
    assert scopes["toughness"][0].m == scopes["rotation"][0].m == 22
    for method in ("toughness", "rotation"):
        g, scope, _ = scopes[method]
        assert joined_class(g, scope.mask) == 0, method
    calls = []
    scope_rows = hamilton._scope_rows

    def counted(rows, scope_mask):
        calls.append(scope_mask)
        return scope_rows(rows, scope_mask)

    monkeypatch.setattr(hamilton, "_scope_rows", counted)
    for method in ("chvatal", "join", "toughness", "rotation"):
        g, scope, seed = scopes[method]
        calls.clear()
        assert decide_hamiltonian_auto(g, scope, seed=seed).method == method
        assert calls == [scope.mask], method


# random graphs at m <= 11, and graphs of twin classes of up to three
# vertices, which exercise X = C and |C| > |N_S(C)|
REFUTER_GRAPHS = {
    **{f"random_{m}_{p}": (m, p) for m in (7, 9, 11) for p in (0.3, 0.5, 0.7)},
    **{f"twins_{m}_{seed}": (m, seed) for m in (9, 11) for seed in range(2)},
}


def _refuter_graph(name: str) -> Graph:
    m, param = REFUTER_GRAPHS[name]
    if name.startswith("twins"):
        return twin_planted_graph(m, 300 * m + param)
    return random_graph(m, 8800 + 10 * m + int(10 * param), p=param)


@pytest.mark.parametrize("name", sorted(REFUTER_GRAPHS))
def test_refuter_finds_the_plain_search_certificate(name):
    # the gate and the prunes skip only candidates that cannot split, so the
    # first X that splits, in the plain search's order, is the one returned
    g = _refuter_graph(name)
    for mask in range(1 << g.m):
        if mask.bit_count() < 3:
            continue
        x = reference_toughness_cut(g, mask)
        assert refute_scope(g, mask) == (NotHamCert(x) if x else None), f"{mask:b}"


@pytest.mark.parametrize("name", sorted(REFUTER_GRAPHS))
def test_auto_equals_its_tiers_composed_on_every_scope(name):
    # the tiers run one after another from their public entries, each
    # reading what it needs, give the decider's (status, method, cert, work)
    g = _refuter_graph(name)
    for mask in range(1 << g.m):
        if mask.bit_count() < 3:
            continue
        scope = VertexSet(mask, g.m)
        if hamilton._chvatal(_scope_degrees(g, mask)):
            want = HamDecision("hamiltonian", ChvatalCert(), "chvatal", 0)
        elif (joined := join_scope(g, mask)) is not None:
            want = joined
        elif (cert := refute_scope(g, mask)) is not None:
            want = HamDecision("not_hamiltonian", cert, "toughness", 0)
        else:
            want = _rotation_then_dp(g, scope, mask)
        assert decide_hamiltonian_auto(g, scope, seed=mask) == want, f"{mask:b}"


# the join tier's graphs: every extremal member with n <= 6, every K_{a,b}
# with a, b <= 5 and a scope of 3 vertices, K_{a,b} with a path-and-cycle
# graph inside one part (m <= 10), and the refuter's graphs
EXTREMAL_SMALL = [(2, [3]), (3, [4]), (4, [5]), (5, [6]), (5, [3, 3]), (6, [7]), (6, [3, 4])]
JOIN_GRAPHS = {
    **{f"extremal_{n}_{'_'.join(map(str, c))}": ("extremal", n, c) for n, c in EXTREMAL_SMALL},
    **{f"K_{a}_{b}": ("knn", a, b) for a in range(1, 6) for b in range(1, 6) if a + b >= 3},
    **{f"join_{a}_{b}_{seed}": ("join", a, b, seed)
       for a, b in ((4, 6), (5, 5), (6, 4), (7, 3), (5, 3)) for seed in range(2)},
    **{name: ("refuter", name) for name in REFUTER_GRAPHS},
}


def _join_graph(name: str) -> Graph:
    kind, *args = JOIN_GRAPHS[name]
    if kind == "extremal":
        return build_extremal(*args).graph
    if kind == "knn":
        return Graph.complete_bipartite(*args)
    if kind == "join":
        return join_planted_graph(*args)
    return _refuter_graph(*args)


@pytest.mark.parametrize("name", sorted(JOIN_GRAPHS))
def test_join_tier_decides_exactly_the_joined_scopes(name):
    # on every scope of at least 3 vertices the tier answers exactly where
    # the plain definition finds a joined class, with the status of plain
    # backtracking and a certificate that validates: X = T or X = C of that
    # class for a refusal
    g = _join_graph(name)
    fired = 0
    for mask in range(1 << g.m):
        if mask.bit_count() < 3:
            continue
        cls = joined_class(g, mask)
        dec = join_scope(g, mask)
        assert (dec is not None) == bool(cls), f"{mask:b}"
        if dec is None:
            continue
        fired += 1
        assert (dec.method, dec.work) == ("join", 0)
        ham = brute_has_ham_cycle(g, list(bits_of(mask)))
        assert (dec.status == "hamiltonian") == ham, f"{mask:b}"
        dec.cert.validate(g, mask)
        if not ham:
            assert dec.cert.x_mask in (cls, mask ^ cls), f"{mask:b}"
    assert fired > 0


@pytest.mark.parametrize("p", [(1, 4), (1, 2), (3, 4)], ids=["1/4", "1/2", "3/4"])
def test_auto_matches_gn_at_the_paper_scale(p):
    # m = 600: every sample is decided by the degree tier or the join tier,
    # with the family criterion's answer, and nothing reaches rotation
    eg = build_extremal(300, [301])
    g = eg.graph
    methods = set()
    for mask, base in retention_masks(7, 0, 200, g.m, *p):
        dec = decide_hamiltonian_auto(g, VertexSet(mask, g.m), seed=base & 0x3FFFFFFF)
        methods.add(dec.method)
        assert (dec.status == "hamiltonian") == gn_criterion_mask(eg, mask), f"{mask:x}"
    assert methods <= {"join", "chvatal"} and "join" in methods


@pytest.mark.parametrize(
    "decide",
    [decide_hamiltonian_auto, is_hamiltonian_exact, find_ham_cycle_rotation],
    ids=["auto", "exact", "rotation"],
)
def test_deciders_refuse_a_scope_outside_the_graph(decide, monkeypatch):
    # refused before any row is read: the scope-row reader is never called,
    # and a scope of one vertex, which needs no row, is refused too
    def unreachable(*args):
        raise AssertionError("a scope row was read")

    monkeypatch.setattr(hamilton, "_scope_rows", unreachable)
    g = build_knn(3)  # m = 6
    for mask in (0b1000111, 0b1000000):
        with pytest.raises(PreconditionError, match="outside 0..5"):
            decide(g, VertexSet(mask, 7))
    monkeypatch.undo()
    # a scope inside the graph, on a larger universe, is still decided
    assert decide(g, VertexSet(0b111111, 7)).status == "hamiltonian"


@pytest.mark.parametrize("name", sorted(REFUTER_GRAPHS))
def test_cut_vertices_from_one_search_equal_delete_and_count(name):
    g = _refuter_graph(name)
    connected = bondy = 0
    for mask in range(1, 1 << g.m):
        if next(g.components(mask)) != mask:
            continue
        connected += 1
        cuts = reference_cut_vertices(g, mask)
        assert hamilton._cut_vertices(g.rows, mask) == cuts, f"{mask:b}"
        # Bondy's condition, which lets the refuter skip the search
        if mask.bit_count() >= 3 and hamilton._bondy(_scope_degrees(g, mask)):
            bondy += 1
            assert cuts == 0, f"{mask:b}"
    assert connected > bondy > 0


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): an outer n-cycle u_i, spokes u_i v_i, inner edges v_i v_{i+k}."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_generalized_petersen_oracle(n):
    # GP(n, 2) is non-Hamiltonian exactly when n = 5 (mod 6) (Alspach 1983)
    g = generalized_petersen(n, 2)
    assert g.degrees() == [3] * (2 * n)
    want = "not_hamiltonian" if n % 6 == 5 else "hamiltonian"
    exact = is_hamiltonian_exact(g, _full(g.m))
    auto = decide_hamiltonian_auto(g, _full(g.m))
    assert (exact.status, auto.status) == (want, want)
    for dec in (exact, auto):
        if dec.cert is not None:
            dec.cert.validate(g, g.full_mask())
    if want == "not_hamiltonian":
        # cubic and 1-tough: no toughness certificate, the DP refuses
        assert refute_scope(g, g.full_mask()) is None
        assert (auto.method, auto.cert) == ("dp", None)


def _rotation_then_dp(g: Graph, scope: VertexSet, seed: int) -> HamDecision:
    """The decision the auto decider's rotation and DP tiers give on a
    scope, with its seed and budget: what it returned on Chvátal scopes
    before the degree tier."""
    s = scope.size
    budget = hamilton.AUTO_ROTATIONS
    if s <= hamilton.SMALL_SCOPE:
        budget = min(budget, s * s)
    dec = find_ham_cycle_rotation(g, scope, budget=budget, seed=seed)
    if dec.status == "hamiltonian":
        return dec
    try:
        return is_hamiltonian_exact(g, scope)
    except BudgetExceededError:
        return dec


def _refuter_then_rest(g: Graph, scope: VertexSet, seed: int) -> HamDecision:
    """The decision the auto decider's refuter, rotation and DP tiers give
    on a scope, with its seed and budget: what it returned on join scopes
    before the join tier."""
    cert = refute_scope(g, scope.mask)
    if cert is not None:
        return HamDecision("not_hamiltonian", cert, "toughness", 0)
    return _rotation_then_dp(g, scope, seed)


def _auto_stream_digests(g: Graph, seed: int, samples: int) -> tuple[str, str, str]:
    """sha256 over the auto decisions of estimate_h's sample stream at
    p = 1/2: (status, method, work, cert order or x_mask) per sample.  The
    three digests are of the stream as the decider gave it before the
    degree tier, before the join tier, and as it is.  The first expands
    every 'chvatal' decision into `_rotation_then_dp`'s and every 'join'
    decision into `_refuter_then_rest`'s; the second expands only the
    'join' decisions.  Every degree and join certificate validates, and no
    expansion changes a status."""
    def row(dec: HamDecision) -> tuple:
        cert = getattr(dec.cert, "order", None) or getattr(dec.cert, "x_mask", None)
        return (dec.status, dec.method, dec.work, cert)

    streams: tuple[list, list, list] = ([], [], [])
    for mask, base in retention_masks(seed, 0, samples, g.m, 1, 2):
        scope, engine_seed = VertexSet(mask, g.m), base & 0x3FFFFFFF
        dec = decide_hamiltonian_auto(g, scope, seed=engine_seed)
        before_chvatal = before_join = dec
        if dec.method == "chvatal":
            dec.cert.validate(g, mask)
            before_chvatal = _rotation_then_dp(g, scope, engine_seed)
        elif dec.method == "join":
            dec.cert.validate(g, mask)
            before_chvatal = before_join = _refuter_then_rest(g, scope, engine_seed)
        assert before_chvatal.status == dec.status
        for stream, d in zip(streams, (before_chvatal, before_join, dec)):
            stream.append(row(d))
    return tuple(hashlib.sha256(repr(r).encode()).hexdigest() for r in streams)


@pytest.mark.parametrize(
    "graph, samples, before_chvatal, before_join, now",
    [
        (build_extremal(10, [11]).graph, 600,
         "c22fb810118d6c5aae9569bca7bf0655f8e806f953eb56e96da0e9c0dd5c83b4",
         "1be214b9ba903a48e62e1d8c6452efcc00de0a3e7e75f9cbe296e1656ba73c14",
         "3a68f7dae7fa94a7cae7a8bbca49bde4084cb68c7ee045d0c131a961d94d75a6"),
        (random_regular_graph(22, 12, seed=4), 600,
         "e0c539cdc50db48409500efe9caae529fdc2cdb10a533b18c2ef960f431c397b",
         "cc1e127270d3940704e735fa31ef17eb3f766cc6b0f3a973d2ed9f7b9bb71aeb",
         "5df8bd7c1bbb021bdc0c498bbbe84c9a13464611b6846bc6bb1f535bb5dd8fec"),
        # 300-vertex scopes: before the degree and join tiers, 6 rotated
        # cycles with 45-383 rotations each, so rank-selects over ten-word
        # masks on rotated paths and pivot picks; 3 before the join tier,
        # none now
        (build_extremal(300, [301]).graph, 16,
         "7a2f359c383eeca342502e0ebf64f53c6357a33ee3d96b3e5236cd7e04b67513",
         "3f8f89f1a7adf33f65dc0771179b090194f3a9edd5bc5ff8567e37becb26a078",
         "e8513241de8856ef0ef57d3b798e04c3360f74537310b60972b8745ce4fa1519"),
    ],
    ids=["extremal_m20", "random_12_regular_22", "extremal_m600"],
)
def test_auto_decisions_are_pinned_on_the_sample_stream(
    graph, samples, before_chvatal, before_join, now
):
    # before_chvatal: m = 20 and 22 taken before the Chvátal gate and the
    # cheaper rotation pick, m = 600 before the word-level rank-select and
    # one-frame draws; before_join: taken with the degree tier; now: taken
    # with the join tier.  The older digests still hold with the newer
    # tiers' decisions expanded, so each tier moved nothing else
    assert _auto_stream_digests(graph, 1, samples) == (before_chvatal, before_join, now)


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
            cert = refute_scope(g, mask)
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
    g = complete(5)
    cert = ham_path_dirac(g, 0, 3)
    cert.validate(g, g.full_mask())
    assert cert.order[0] == 0 and cert.order[-1] == 3
    assert len(cert.order) == 5


def test_ham_path_k4_every_ordered_pair():
    # K4 is the least scope the degree bound admits; with its endpoints
    # removed, two vertices are left, too few for a cycle to splice into
    g = complete(4)
    for a in range(4):
        for b in range(4):
            if a != b:
                cert = ham_path_dirac(g, a, b)
                cert.validate(g, g.full_mask())
                assert cert.order[0] == a and cert.order[-1] == b


def test_ham_path_rejects_equal_endpoints():
    with pytest.raises(PreconditionError):
        ham_path_dirac(complete(5), 2, 2)


def test_ham_path_rejects_low_degree():
    with pytest.raises(PreconditionError):
        ham_path_dirac(cycle(6), 0, 3)


# a negative endpoint is refused before any shift by it (a ValueError)
@pytest.mark.parametrize("a, b", [(-1, 4), (0, -1)], ids=["a", "b"])
def test_ham_path_dirac_refuses_a_negative_endpoint(a, b):
    with pytest.raises(PreconditionError, match="endpoints must lie in the scope"):
        ham_path_dirac(complete(8), a, b)


@pytest.mark.parametrize("a, b", [(-1, 4), (0, -1)], ids=["a", "b"])
def test_ham_path_bipartite_refuses_a_negative_endpoint(a, b):
    left = VertexSet.of(8, [0, 1, 2, 3])
    with pytest.raises(PreconditionError, match="must be on the"):
        ham_path_bipartite(Graph.complete_bipartite(4, 4), left, left.complement(), a, b)


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
    g = without_edges(Graph.complete_bipartite(10, 10), [(i, 10 + i) for i in range(10)])
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


def test_ham_path_bipartite_refuses_a_within_side_edge(monkeypatch):
    # K_{3,3} plus the left edge 0-1; the path is a Hamilton path of g
    g = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)] + [(0, 1)])
    left = VertexSet.of(6, [0, 1, 2])
    path = [3, 0, 1, 4, 2, 5]
    HamPathCert(tuple(path)).validate(g, g.full_mask())
    monkeypatch.setattr(hamilton, "_bipartite_path_scoped", lambda *args: path)
    with pytest.raises(VerificationError, match=r"non-edge \(0,1\)"):
        ham_path_bipartite(g, left, left.complement(), 0, 3)


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


def _builder_calls(s: int):
    """The four builders on the benchmark's instances of seed s, each as a
    call with no arguments."""
    g1, cut1 = two_cliques_instance(600, s)
    g2, cut2, forest = near_bipartite_instance(600, s)
    g3, a3, b3 = dirac_instance(200, s)
    g4, left, right, a4, b4 = bipartite_instance(200, s)
    return {
        "two_cliques": lambda: ham_cycle_two_cliques(g1, cut1, seed=s),
        "near_bipartite": lambda: ham_cycle_near_bipartite(g2, cut2, forest, seed=s),
        "dirac_path": lambda: ham_path_dirac(g3, a3, b3, seed=s),
        "bipartite_path": lambda: ham_path_bipartite(g4, left, right, a4, b4, seed=s),
    }


def test_each_builder_checks_one_certificate_beyond_the_rotation(monkeypatch):
    # two-cliques runs the rotation engine twice (one Dirac path per side),
    # the other builders once; the engine checks none of the cycles it
    # finds, so the certificate each builder returns is the only check
    builds = _builder_calls(2484195175)
    calls = []
    check = hamilton._check_order

    def counted(*args, **kw):
        calls.append(args[1])
        check(*args, **kw)

    monkeypatch.setattr(hamilton, "_check_order", counted)
    counts = []
    for build in builds.values():
        calls.clear()
        build()
        counts.append(len(calls))
    assert counts == [1, 1, 1, 1]


@pytest.mark.parametrize("name", ["near_bipartite", "bipartite_path"])
def test_crossing_graph_builders_build_no_bit_matrix(monkeypatch, name):
    # the crossing graph is derived from a validated graph, so building it
    # runs no symmetry check (the one caller of the bit matrix)
    build = _builder_calls(3800690240)[name]

    def refuse(*args):
        raise AssertionError("bit matrix built")

    monkeypatch.setattr(bitgraph, "_bit_matrix", refuse)
    build()


def _with_non_edge(rows, order: list[int]) -> list[int]:
    """The cycle `order` with one 2-opt move: the first order[i], order[j]
    (j >= i + 2) that are not adjacent become consecutive."""
    for i in range(len(order) - 2):
        for j in range(i + 2, len(order) - (i == 0)):
            if not rows[order[i]] >> order[j] & 1:
                return order[: i + 1] + order[i + 1 : j + 1][::-1] + order[j + 1 :]
    raise AssertionError("the scope is complete")


@pytest.mark.parametrize("name", ["two_cliques", "near_bipartite", "dirac_path", "bipartite_path"])
def test_builders_refuse_a_rotation_cycle_with_a_non_edge(monkeypatch, name):
    # the engine's cycles are checked only inside the builder's certificate
    build = _builder_calls(2484195175)[name]
    engine = hamilton._rotate

    def corrupted(rows, scope_mask, budget, seed):
        order, rotations = engine(rows, scope_mask, budget, seed)
        return _with_non_edge(rows, order), rotations

    monkeypatch.setattr(hamilton, "_rotate", corrupted)
    with pytest.raises(VerificationError, match="non-edge"):
        build()


def _other_universe(m: int) -> tuple[Cut, VertexSet, VertexSet]:
    """A cut of 0..m-1 into halves, and its two sides."""
    left = VertexSet((1 << m // 2) - 1, m)
    right = left.complement()
    return Cut(left, right), left, right


def test_two_cliques_refuses_a_cut_of_another_universe():
    g, _ = two_cliques_instance(40, 1)
    cut, _, _ = _other_universe(80)
    with pytest.raises(PreconditionError, match="vertex universe of 80, graph of 40"):
        ham_cycle_two_cliques(g, cut)


def test_near_bipartite_refuses_a_cut_of_another_universe():
    g, _, _ = near_bipartite_instance(40, 1)
    cut, _, _ = _other_universe(80)
    with pytest.raises(PreconditionError, match="vertex universe of 80, graph of 40"):
        ham_cycle_near_bipartite(g, cut, LinearForest(()))


@pytest.mark.parametrize("a", [0, 45])
def test_bipartite_path_refuses_sides_of_another_universe(a):
    g, _, _, _, b = bipartite_instance(40, 1)
    _, left, right = _other_universe(50)
    with pytest.raises(PreconditionError, match="vertex universe of 50, graph of 40"):
        ham_path_bipartite(g, left, right, a, b)


# -- fast criterion for the extremal family ----------------------------------


def test_gn_criterion_octahedron_examples():
    eg = build_extremal(3, [4])
    assert gn_criterion(eg, _full(6))
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
