"""Exact cyclic-subset counts, closed forms, and Monte Carlo estimators."""

from __future__ import annotations

import gc
import random as _random
import re
import sys
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import comb, sqrt

import pytest

from conftest import (
    brute_cyclic_count,
    brute_has_ham_cycle,
    brute_max_linear_forest,
    complete,
    cycle,
    expand_table,
    isomorphic,
    random_graph,
    reference_reach_rounds,
    reference_subsets_by_size,
    reference_table,
    relabel,
    twin_planted_graph,
)

from cycsets.analysis import random_regular_graph
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
    _cycle_partitions,
    build_competitor,
    build_extremal,
    build_knn,
    build_star_augmented,
    enumerate_regular_complements,
)
from cycsets.hamilton import is_hamiltonian_exact
from cycsets.subsetdp import LAYER_MAX_DIGITS, TABLE_MAX_BYTES, Quotient, anchored


# -- exact counts ------------------------------------------------------------


def test_count_k4():
    rep = cyc_count_exact(complete(4))
    assert rep.cyclic_count == 5
    assert rep.p_exact == Fraction(5, 16)
    assert rep.total_subsets == 16
    assert rep.per_size[3] == 4 and rep.per_size[4] == 1


def test_count_c5():
    rep = cyc_count_exact(cycle(5))
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
            cyc_count_exact(relabel(g, perm)).cyclic_count
            == cyc_count_exact(g).cyclic_count
        )


def test_count_budget():
    # the peak of a twin-free universe of 23 vertices: 2 * 23 + 3 ints of 2^23 bits
    assert TABLE_MAX_BYTES == 49 * sys.getsizeof((1 << (1 << 23)) - 1) == 54_806_892
    # twin-free universes of 24 or more vertices at anchor 0 (the m = 600
    # member's 301-cycle side is twin-free)
    for g in (complete(25), random_regular_graph(26, 13, seed=1), build_extremal(300, [301]).graph):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=f"^subset-DP budget: {g.m - 1} free "):
            cyc_count_exact(g)
        assert time.perf_counter() - start < 1.0
    # past 24 vertices, within the bytes: the empty graph, K_{12,13} and K_{13,13}
    assert cyc_count_exact(Graph.empty(25)).cyclic_count == 0
    for a, b in ((12, 13), (13, 13)):
        rep = cyc_count_exact(Graph.complete_bipartite(a, b))
        assert rep.cyclic_count == sum(comb(a, t) * comb(b, t) for t in range(2, a + 1))


def _traced_peak(run) -> int:
    """The most bytes traced while run() runs, above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _refused(adj: list[int], seed: int) -> None:
    with pytest.raises(BudgetExceededError, match="^subset-DP budget: "):
        Quotient(adj, seed)


def test_table_cap_refuses_before_allocating():
    # the refusal comes from the classes alone: no int of N bits is built
    # (at k = 24 one would take 2,236,982 bytes, at m = 600 over 2^300)
    assert _traced_peak(lambda: _refused(_complete_universe(24), 1)) < 50_000
    g = build_extremal(300, [301]).graph
    adj, seed = [g.rows[v] >> 1 for v in range(1, g.m)], g.rows[0] >> 1
    assert _traced_peak(lambda: _refused(adj, seed)) < 500_000


@pytest.mark.parametrize("k", [24, 25])
def test_table_refusal_states_cpython_round_size(k):
    # a twin-free universe peaks at 2k + 3 ints of 2^k bits, as CPython sizes them
    with pytest.raises(BudgetExceededError) as exc:
        Quotient(_complete_universe(k), 1)
    stated = int(re.search(r"would take (\d+) bytes", str(exc.value)).group(1))
    assert stated == (2 * k + 3) * sys.getsizeof((1 << (1 << k)) - 1)
    if k == 25:
        assert stated == 237_119_456


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
    # the fixpoint is the OR of the popcount layers
    want = reference_table(adj, seed)
    assert expand_table(Quotient(adj, seed)) == want


@pytest.mark.parametrize(
    "g",
    [build_extremal(5, [6]).graph, build_extremal(6, [3, 4]).graph, build_knn(5)],
    ids=["extremal_5_6", "extremal_6_3_4", "K5_5"],
)
def test_reach_rounds_equal_the_reference_at_every_anchor(g):
    for adj, seed in _anchored_universes(g):
        want = reference_table(adj, seed)
        assert expand_table(Quotient(adj, seed)) == want


def test_quotient_layout():
    # K_{4,6} with anchor neighbours 1, 2, 5, 6 and 8: the anchor splits
    # each side in two classes, and no vertex is a class of its own
    q = Quotient(*REACH_UNIVERSES["K4_6_split"])
    assert q.classes == [[1, 2], [0, 3], [5, 6, 8], [4, 7, 9]]
    assert (q.singles, q.weight, q.size) == (0, [1, 3, 9, 36], 3 * 3 * 4 * 4)
    # with every start nothing splits the twins: one class per side
    q = Quotient(REACH_UNIVERSES["K4_6_split"][0], None)
    assert q.classes == [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9]]
    assert (q.singles, q.weight, q.size) == (0, [1, 5], 5 * 7)
    # a twin-free universe keeps the masks: k binary digits, W_w = 2^w
    adj, seed = REACH_UNIVERSES["random_10"]
    q = Quotient(adj, seed)
    assert (q.singles, q.weight, q.size) == (10, [1 << w for w in range(10)], 1 << 10)
    assert q.classes == [[w] for w in range(10)]


@pytest.mark.parametrize(
    "adj, seed",
    [*REACH_UNIVERSES.values(), (_bipartite_universe(1, 6), 0b1111111)],
    ids=[*REACH_UNIVERSES, "K1_6"],
)
def test_subsets_by_size_weighs_every_state(adj, seed):
    # runs of 2^s bits for s = 0..10 (K1_6 has s = 1), read through every
    # larger class down to the popcount layers of the binary digits
    q = Quotient(adj, seed)
    rnd = _random.Random(len(adj) * 1000 + seed)
    for x in (0, (1 << q.size) - 1, *(rnd.getrandbits(q.size) for _ in range(5)),
              1 << rnd.randrange(q.size)):
        assert q.subsets_by_size(x) == reference_subsets_by_size(q, x)


def test_subsets_by_size_peels_the_binary_digits_above_its_masks():
    # 18 classes of one, and 17 beside a pair of isolated twins: the binary
    # digits above LAYER_MAX_DIGITS are read run by run, like a larger class
    for adj in (_complete_universe(18), _complete_universe(17) + [0, 0]):
        q = Quotient(adj, 1)
        k = len(adj)
        assert q.singles > LAYER_MAX_DIGITS
        assert q.subsets_by_size((1 << q.size) - 1) == [comb(k, t) for t in range(k + 1)]
        rnd = _random.Random(k)
        x = sum(1 << rnd.randrange(q.size) for _ in range(2000))
        assert q.subsets_by_size(x) == reference_subsets_by_size(q, x)


def _per_vertex_count(g: Graph) -> tuple[int, ...]:
    """per_size from the reference layers: at each anchor, round t's
    closing set is the OR of R_w over the anchor's neighbours w, one bit
    per cyclic set of size t + 1 for t >= 2."""
    hist = [0] * (g.m + 1)
    for adj, seed in _anchored_universes(g):
        for t, reach in enumerate(reference_reach_rounds(adj, seed), 1):
            closing = 0
            for w in bits_of(seed):
                closing |= reach[w]
            if t >= 2:
                hist[t + 1] += closing.bit_count()
    return tuple(hist)


@pytest.mark.parametrize(
    "g",
    [build_extremal(6, [3, 4]).graph, build_extremal(7, [4, 4]).graph, build_knn(6),
     build_star_augmented(6), build_competitor(3).graph, random_graph(12, 5, p=0.5),
     cycle(12), random_regular_graph(14, 3, seed=1)],
    ids=["extremal_6_3_4", "extremal_7_4_4", "K6_6", "star_6", "competitor_3", "random_12",
         "C12", "random_3_regular_14"],
)
def test_quotient_counts_equal_the_per_vertex_counts(g):
    # C_12's paths from vertex 0 through 11 run down the vertex order, and
    # the 3-regular graph is sparse: the fixpoint needs nearly k passes
    assert cyc_count_exact(g).per_size == _per_vertex_count(g)


def _split_count(g: Graph, t: int) -> tuple[int, ...]:
    """per_size with the anchors 0..t-1 counted one kernel each and the
    suffix {t..m-1} by one every-start kernel (t = 0: the whole graph,
    t = m: per anchor only)."""
    hist = [0] * (g.m + 1)
    for a in range(t):
        q = anchored(g.rows, a)
        if q is not None:
            for size, n in enumerate(q.subsets_by_size(q.closing()), 1):
                hist[size] += n
    q = Quotient([r >> t for r in g.rows[t:]], None)
    for size, n in enumerate(q.subsets_by_size(q.closing())):
        hist[size] += n
    return tuple(hist)


def _brute_per_size(g: Graph) -> tuple[int, ...]:
    hist = [0] * (g.m + 1)
    for mask in range(1 << g.m):
        verts = list(bits_of(mask))
        hist[len(verts)] += brute_has_ham_cycle(g, verts)
    return tuple(hist)


@pytest.mark.parametrize(
    "g",
    [*(random_graph(m, 40 + m, p=0.5) for m in (4, 7, 10, 12)),
     *(twin_planted_graph(m, 50 + m) for m in (6, 9, 12)),
     build_extremal(3, [4]).graph, build_extremal(6, [3, 4]).graph,
     build_extremal(7, [4, 4]).graph, build_knn(5), build_knn(7), build_star_augmented(6),
     build_competitor(3).graph, cycle(12), Graph.from_edges(2, [(0, 1)]),
     Graph.from_edges(3, [(0, 1), (1, 2)]), Graph.from_edges(4, [(0, 3), (2, 3)])],
    ids=["random_4", "random_7", "random_10", "random_12", "twins_6", "twins_9", "twins_12",
         "extremal_3_4", "extremal_6_3_4", "extremal_7_4_4", "K5_5", "K7_7", "star_6",
         "competitor_3", "C12", "K2", "P3", "P3_high"],
)
def test_every_split_point_counts_the_same(g):
    # anchors 0..t-1 one kernel each, then one every-start kernel counting
    # each cyclic set of {t..m-1} at its lowest twin class; the 2-sets its
    # closing drops would close at every split of K2, P3 and C12
    want = _split_count(g, g.m)
    assert want == cyc_count_exact(g).per_size
    if g.m <= 12:
        assert want == _brute_per_size(g)
    for t in range(g.m):
        got = _split_count(g, t)
        assert got == want, t
        assert got[:3] == (0, 0, 0)


# per_size as counted with one kernel per anchor, on graphs with no closed form
PINNED_PER_SIZE = {
    "random_10_regular_18": (
        random_regular_graph(18, 10, seed=1),
        (0, 0, 0, 144, 785, 3492, 11762, 26887, 42387, 48440, 43758, 31824, 18564, 8568,
         3060, 816, 153, 18, 1)),
    "competitor_3": (
        build_competitor(3).graph,
        (0, 0, 0, 96, 1173, 2616, 9120, 16992, 29700, 37380, 38808, 30240, 18564, 8568,
         3060, 816, 153, 18, 1)),
    "star_12": (
        build_star_augmented(12),
        (0, 0, 0, 264, 5076, 11160, 70180, 129800, 447425, 612700, 1370644, 1375308,
         2100384, 1574496, 1648944, 934560, 660825, 279180, 128590, 38500, 10626, 2024,
         276, 24, 1)),
    # sparse, with its paths running against the vertex order
    "C20": (cycle(20), (0,) * 20 + (1,)),
    "twin_planted_22": (
        twin_planted_graph(22, 5),
        (0, 0, 0, 136, 1049, 3609, 13543, 35051, 81598, 131825, 208133, 225168, 250203,
         186819, 146663, 73279, 40468, 12536, 4718, 770, 176, 11, 1)),
}


@pytest.mark.parametrize("g, want", PINNED_PER_SIZE.values(), ids=PINNED_PER_SIZE)
def test_per_size_is_pinned(g, want):
    assert cyc_count_exact(g).per_size == want


def test_subsets_by_size_frees_its_layers():
    # with the cyclic GC off, a read and a whole count leave nothing of
    # their big ints behind, where a kept read holds its 17 popcount masks
    # of 2^16 bits at anchor 0; a count before tracing fills the
    # interpreter's free lists of small objects
    g = complete(20)
    q = anchored(g.rows, 0)
    x = q.closing()
    one = sys.getsizeof(x)
    cyc_count_exact(g)
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        q.subsets_by_size(x)
        after_read = tracemalloc.get_traced_memory()[0] - base
        cyc_count_exact(g)
        after_count = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after_read < one // 16 and after_count < one // 16


@pytest.mark.parametrize("n", [10, 11, 12])
def test_closed_form_extremal_equals_the_dp_past_m10(n):
    for part in _cycle_partitions(n + 1):
        rep = cyc_count_exact(build_extremal(n, part).graph)
        assert rep.cyclic_count == p_exact_extremal(n, part) * (1 << 2 * n), part


def test_closed_form_knn_equals_the_dp_to_n12():
    for n in range(1, 13):
        rep = cyc_count_exact(build_knn(n))
        assert rep.cyclic_count == p_exact_knn(n) * (1 << 2 * n)


def test_closed_forms_equal_the_dp_past_m24():
    # the family's p tends to 1/2; its large twin classes keep the DP small
    for n, part in ((13, [14]), (15, [8, 8]), (18, [19])):
        rep = cyc_count_exact(build_extremal(n, part).graph)
        assert rep.cyclic_count == p_exact_extremal(n, part) * (1 << 2 * n), part
    for n in (13, 20):
        assert cyc_count_exact(build_knn(n)).cyclic_count == p_exact_knn(n) * (1 << 2 * n)


def _blown_up(n: int, seed: int) -> Graph:
    """A random graph on n vertices with each vertex made a pair of twins."""
    return Graph(2 * n, tuple(_paired(random_graph(n, seed, p=0.5).rows)))


def test_reach_rounds_peak_memory_is_bounded():
    # the fixpoint alone: 2d + 3 ints of N bits, for d classes and N states
    for adj in (_complete_universe(16), _paired(_complete_universe(10))):
        q = Quotient(adj, 1)
        one = sys.getsizeof((1 << q.size) - 1)
        table = []
        assert _traced_peak(lambda: table.extend(q.table())) <= (2 * len(q.classes) + 3) * one
        assert any(r >> q.size - 1 for r in table)  # the fixpoint reached the full state
    assert len(q.classes) == 11 and q.size == 4 * 3**9  # the anchor splits one pair
    # a whole count and a whole decision's table and state count at anchor
    # 0, within the bytes the kernel states, and a count within 1.5 times
    # what it holds: twin-free at k = 23 (the budget itself), the extremal
    # member at m = 36 (a class of one beside 18 of two) and pairs of twins
    # (s = 1 beside 11 and 9 classes of two)
    layouts = [complete(24), build_extremal(18, [19]).graph, _blown_up(12, 1), _blown_up(10, 1)]
    for g in layouts:
        q = anchored(g.rows, 0)
        traced = _traced_peak(lambda: q.subsets_by_size(q.closing()))
        assert traced <= q.peak_bytes <= 1.5 * traced
        q = anchored(g.rows, 0)
        assert _traced_peak(lambda: sum(map(int.bit_count, q.table()))) <= q.peak_bytes
    assert anchored(complete(24).rows, 0).peak_bytes == TABLE_MAX_BYTES
    # pairs over 16 vertices (m = 32) are refused from their classes alone
    with pytest.raises(BudgetExceededError,
                       match="^subset-DP budget: 31 free vertices in 16 classes "
                             "would take 133924000 bytes "):
        anchored(_blown_up(16, 1).rows, 0)


def test_exact_decision_on_twin_pairs_past_24_vertices():
    # the m = 28 pairs fit the kernel's 2d + 3 ints (13,180,580 bytes at
    # anchor 0), which a count and a decision share
    g = _blown_up(14, 1)
    dec = is_hamiltonian_exact(g, VertexSet(g.full_mask(), g.m))
    assert dec.status == "hamiltonian"
    dec.cert.validate(g, g.full_mask())


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
        g = cycle(ell)
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
    assert estimate_h(complete(6), Fraction(0), 500, seed=1).p_hat == 0
    assert estimate_h(cycle(5), Fraction(1), 500, seed=1).p_hat == 1


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


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(3, 4)], ids=str)
def test_estimate_auto_matches_gn_at_m20(p):
    # sparse and dense retention: fewer and more scopes the degree tier
    # decides, each counted as the family criterion counts it
    eg = build_extremal(10, [11])
    auto = estimate_h(eg.graph, p, 500, 7, decider="auto")
    gn = estimate_h(eg.graph, p, 500, 7, decider="gn", eg=eg)
    assert auto.successes == gn.successes
    assert auto.undecided_fraction == 0


def test_estimate_auto_decides_every_star_augmented_sample():
    # three samples are scopes of 25-27 vertices that neither the refuter
    # nor rotation settles; their twin classes keep them within the DP's bytes
    g = build_star_augmented(20)
    rep = estimate_h(g, Fraction(1, 2), 300, 1, decider="auto")
    assert rep.undecided_fraction == 0
    assert rep.ci_low <= cyc_count_exact(g).p_exact <= rep.ci_high


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
        estimate_h(complete(8), Fraction(1, 2), 100, seed=0, decider="gn", eg=eg)


def test_estimate_rejects_bad_inputs():
    g = complete(4)
    with pytest.raises(PreconditionError):
        estimate_h(g, Fraction(3, 2), 100, seed=0)
    with pytest.raises(PreconditionError):
        estimate_h(g, Fraction(1, 2), 0, seed=0)
