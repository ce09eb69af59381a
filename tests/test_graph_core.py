"""Graph representation, vertex sets, cuts, and graph6 I/O."""

from __future__ import annotations

import hashlib
import random
import time
import types
from itertools import islice

import networkx as nx
import pytest

from conftest import (
    complete,
    cycle,
    edge_list,
    isomorphic,
    random_graph,
    relabel,
    to_networkx,
)

from cycsets.bitgraph import (
    _BYTE_BITS,
    _BYTE_POPCOUNT,
    _BYTE_SELECT,
    Cut,
    Graph,
    VertexSet,
    bits_of,
    from_graph6,
    local_rows,
    mask_of,
    nth_bit,
    path_cover,
    to_graph6,
    twin_classes,
)
from cycsets.errors import PreconditionError
from cycsets.families import build_extremal, build_knn


def test_mask_bits_round_trip():
    for vertices in ([], [0], [3, 1, 7], list(range(40))):
        mask = mask_of(vertices)
        assert list(bits_of(mask)) == sorted(vertices)


def test_bits_of_matches_the_shift_reference():
    # every width up to 700, so the byte walk ends at every offset of a
    # byte, with set bits on both sides of byte and word boundaries
    rnd = random.Random(7)
    for width in range(701):
        for density in (0.02, 0.5, 0.97):
            mask = mask_of(v for v in range(width) if rnd.random() < density)
            mask |= mask_of(b for b in (7, 8, 63, 64, 127, 128) if b < width)
            assert list(bits_of(mask)) == [i for i in range(width) if mask >> i & 1]


def test_bits_of_is_lazy_and_starts_at_the_lowest_bit():
    rnd = random.Random(8)
    for _ in range(50):
        mask = rnd.getrandbits(600) | 1 << 599
        bits = bits_of(mask)
        assert isinstance(bits, types.GeneratorType)
        assert next(bits) == (mask & -mask).bit_length() - 1


@pytest.mark.parametrize("mask", [-1, -6, -(1 << 600)], ids=["-1", "-6", "-2^600"])
def test_bits_of_refuses_a_negative_mask(mask):
    with pytest.raises(PreconditionError, match="negative mask"):
        list(islice(bits_of(mask), 1000))


@pytest.mark.parametrize("mask", [-1, -6, -(1 << 600)], ids=["-1", "-6", "-2^600"])
def test_nth_bit_refuses_a_negative_mask(mask):
    with pytest.raises(PreconditionError, match="negative mask"):
        nth_bit(mask, 0, mask.bit_count())


def test_byte_tables_match_a_reference():
    assert len(_BYTE_BITS) == len(_BYTE_POPCOUNT) == 256 and len(_BYTE_SELECT) == 2048
    for b in range(256):
        bits = [i for i in range(8) if b >> i & 1]
        assert _BYTE_BITS[b] == tuple(bits)
        assert _BYTE_POPCOUNT[b] == len(bits)
        for r, i in enumerate(bits):
            assert _BYTE_SELECT[8 * b + r] == i


def test_nth_bit_matches_bit_list():
    # every width up to 200, so the top window (ranks in the upper half are
    # counted from the top bit down) ends at every offset from bit 0
    rnd = random.Random(5)
    for width in (*range(1, 201), 300, 600, 700):
        for density in (0.02, 0.5, 0.97):
            mask = mask_of(v for v in range(width) if rnd.random() < density)
            mask |= 1 << (width - 1)
            if density == 0.5:
                mask |= mask_of(b for b in (63, 64, 127, 128) if b < width)
            members = list(bits_of(mask))
            assert [nth_bit(mask, r, mask.bit_count()) for r in range(len(members))] == members
            for r in (-1, len(members)):
                with pytest.raises(PreconditionError):
                    nth_bit(mask, r, mask.bit_count())
    # set bits on both sides of 64-bit word boundaries, and one bit per word
    straddling = [
        mask_of([63, 64]),
        mask_of([127, 128, 129]),
        mask_of([0, 63, 64, 127, 128, 129, 191, 192]),
        mask_of(range(60, 200)),
        mask_of(range(5, 600, 64)),
        mask_of(range(63, 600, 64)),
    ]
    for mask in straddling:
        members = list(bits_of(mask))
        assert [nth_bit(mask, r, mask.bit_count()) for r in range(len(members))] == members


def test_nth_bit_rejects_rank_out_of_range():
    for mask, r in ((0, 0), (0b1011, 3), (0b1011, -1), (1 << 200, 8), (mask_of(range(100)), 100)):
        with pytest.raises(PreconditionError):
            nth_bit(mask, r, mask.bit_count())


def test_vertex_set_algebra():
    a = VertexSet.of(8, [0, 2, 4])
    b = VertexSet.of(8, [2, 3])
    assert a.size == 3 and a.members() == [0, 2, 4]
    assert a.complement().members() == [1, 3, 5, 6, 7]
    assert b.complement().complement() == b
    assert VertexSet(0, 5).complement().size == 5
    assert VertexSet(0, 5).size == 0


def test_graph_builders_and_counts():
    k4 = complete(4)
    assert k4.edge_count() == 6
    assert k4.degrees() == [3, 3, 3, 3]
    c5 = cycle(5)
    assert c5.edge_count() == 5
    assert c5.min_degree() == c5.max_degree() == 2
    b = Graph.complete_bipartite(3, 4)
    assert b.edge_count() == 12
    assert sorted(b.degrees()) == [3, 3, 3, 3, 4, 4, 4]
    assert Graph.empty(6).edge_count() == 0


def test_graph_edge_ops():
    g = Graph.from_edges(5, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    g2 = g.with_edges([(0, 2)])
    assert g2.has_edge(0, 2) and not g.has_edge(0, 2)
    assert sorted(edge_list(g)) == [(0, 1), (1, 2)]


@pytest.mark.parametrize("edge", [(-1, 2), (2, -1), (0, 5), (7, 1), (3, 3)])
def test_edges_outside_the_graph_or_loops_are_refused(edge):
    # with_edges refuses them as from_edges does, before any shift by them
    g = Graph.from_edges(5, [(0, 1), (1, 2)])
    message = f"bad edge ({edge[0]},{edge[1]}) for m=5"
    for build in (lambda: g.with_edges([(0, 2), edge]), lambda: Graph.from_edges(5, [edge])):
        with pytest.raises(PreconditionError) as exc:
            build()
        assert str(exc.value) == message


def _rejection(m: int, rows) -> str:
    with pytest.raises(PreconditionError) as exc:
        Graph(m, tuple(rows))
    return str(exc.value)


def test_graph_rejects_bits_at_or_above_m():
    assert _rejection(3, [0, 1 << 3, 0]) == "row 1 has bits outside 0..2"
    assert _rejection(3, [1 << 70, 0, 0]) == "row 0 has bits outside 0..2"
    assert _rejection(2, [0b10, -1]) == "row 1 has bits outside 0..1"
    assert _rejection(3, [0, 0]) == "row count must equal vertex count"


def test_graph_rejects_self_loop():
    assert _rejection(4, [0, 0, 0b0100, 0]) == "self-loop at 2"
    k4 = list(complete(4).rows)
    k4[3] |= 1 << 3
    assert _rejection(4, k4) == "self-loop at 3"


def test_graph_rejects_asymmetric_pair_in_each_direction():
    # (v, u) set without (u, v), for v < u and for v > u
    assert _rejection(3, [0b100, 0, 0]) == "asymmetric adjacency 0,2"
    assert _rejection(3, [0, 0, 0b001]) == "asymmetric adjacency 2,0"
    assert _rejection(70, [0] * 69 + [1 << 68]) == "asymmetric adjacency 69,68"


def _first_asymmetry(rows) -> str:
    """The pair the row-by-row scan reports: first v, then first u."""
    for v, row in enumerate(rows):
        for u in bits_of(row):
            if not rows[u] >> v & 1:
                return f"asymmetric adjacency {v},{u}"
    raise AssertionError("rows are symmetric")


def test_graph_asymmetry_message_names_first_scanned_pair():
    rnd = random.Random(11)
    for m in (5, 9, 40, 130):
        for seed in range(4):
            rows = list(random_graph(m, 1000 * m + seed, p=0.3).rows)
            for _ in range(1 + seed):
                v, u = rnd.sample(range(m), 2)
                rows[v] ^= 1 << u
            if any(rows[u] >> v & 1 != rows[v] >> u & 1
                   for v in range(m) for u in range(m)):
                assert _rejection(m, rows) == _first_asymmetry(rows)
            else:
                assert Graph(m, tuple(rows)).m == m


def test_complement_involution():
    for seed in range(5):
        g = random_graph(9, seed)
        assert g.complement().complement().rows == g.rows
        total = 9 * 8 // 2
        assert g.edge_count() + g.complement().edge_count() == total


def test_induced_subgraph_and_relabel():
    g = cycle(6)
    rows, verts = local_rows(g.rows, mask_of([0, 1, 2, 5]))
    assert verts == [0, 1, 2, 5]
    # path 5-0-1-2 relabels to 3-0-1-2
    assert sorted(edge_list(Graph(4, tuple(rows)))) == [(0, 1), (0, 3), (1, 2)]
    perm = [2, 0, 1, 3, 4, 5]
    h = relabel(g, perm)
    assert isomorphic(h, g)


def test_components_match_networkx():
    rnd = random.Random(17)
    for m in (0, 1, 2, 5, 13, 27, 40):
        for seed in range(4):
            g = random_graph(m, 1000 * m + seed, p=rnd.choice([0.03, 0.08, 0.2]))
            for _ in range(5):
                mask = rnd.getrandbits(m) if m else 0
                got = list(g.components(mask))
                want = nx.connected_components(to_networkx(g).subgraph(bits_of(mask)))
                assert sorted(got) == sorted(mask_of(c) for c in want)
                # yielded in order of their lowest vertex
                assert got == sorted(got, key=lambda c: c & -c)


def _planted_max_degree_2(rnd: random.Random, m: int, outside: int):
    """A graph on m + outside vertices whose first m (the mask) induce
    isolated vertices, paths and cycles, relabeled at random, and the
    expected path cover: each path from its lower end, in order of that
    end, then each cycle from its lowest vertex towards its lower
    neighbour.  The outside vertices are joined to every other vertex."""
    verts = list(range(m))
    rnd.shuffle(verts)
    paths, cycles, edges = [], [], []
    while verts:
        kind = rnd.choice(["path", "cycle"] if len(verts) >= 3 else ["path"])
        size = rnd.randint(3 if kind == "cycle" else 1, min(len(verts), 9))
        piece, verts = verts[:size], verts[size:]
        edges += zip(piece, piece[1:])
        if kind == "cycle":
            edges.append((piece[-1], piece[0]))
            i = piece.index(min(piece))
            piece = piece[i:] + piece[:i]  # from the lowest vertex
            if piece[-1] < piece[1]:
                piece = piece[:1] + piece[:0:-1]
            cycles.append(piece)
        else:
            paths.append(piece if piece[0] <= piece[-1] else piece[::-1])
    n = m + outside
    edges += [(u, v) for u in range(m, n) for v in range(u)]
    want = sorted(paths, key=lambda p: p[0]) + sorted(cycles, key=lambda c: c[0])
    return Graph.from_edges(n, edges), want


def test_path_cover_matches_a_planted_cover():
    rnd = random.Random(31)
    for m in (*range(0, 12), 20, 40, 63, 64, 65, 130):
        for _ in range(6):
            g, want = _planted_max_degree_2(rnd, m, rnd.choice([0, 3]))
            got = path_cover(g.rows, (1 << m) - 1)
            assert got == want
            assert sorted(v for path in got for v in path) == list(range(m))
            assert all(g.has_edge(u, v) for path in got for u, v in zip(path, path[1:]))


def test_twin_classes_match_grouping_by_row():
    rnd = random.Random(37)
    for q in (1, 2, 4, 7):
        for seed in range(5):
            # a blow-up: each vertex of a random graph on q vertices becomes
            # an independent set of 1-4 twins, relabeled at random
            base = random_graph(q, 100 * q + seed, p=0.5)
            owner = [b for b in range(q) for _ in range(rnd.randint(1, 4))]
            rnd.shuffle(owner)
            m = len(owner)
            g = Graph.from_edges(m, [(u, v) for u in range(m) for v in range(u + 1, m)
                                     if base.has_edge(owner[u], owner[v])])
            for mask in ((1 << m) - 1, rnd.getrandbits(m), rnd.getrandbits(m)):
                want: dict[int, list[int]] = {}
                for v in bits_of(mask):
                    want.setdefault(g.rows[v] & mask, []).append(v)
                srows = [g.rows[v] & mask for v in bits_of(mask)]
                got = twin_classes(mask, srows)
                # equal, in order of each class's lowest vertex
                assert list(got.items()) == [(a, mask_of(c)) for a, c in want.items()]


def test_bipartite_restriction_keeps_only_crossing_edges():
    g = random_graph(12, 5, p=0.5)
    lmask, rmask = mask_of([0, 2, 4, 6]), mask_of([1, 3, 5, 7, 9])
    h = g.bipartite_restriction(lmask, rmask)
    assert h.m == g.m
    assert sorted(edge_list(h)) == sorted(
        (u, v) for u, v in edge_list(g) if (lmask >> u & 1 and rmask >> v & 1)
        or (rmask >> u & 1 and lmask >> v & 1)
    )


def test_bipartite_restriction_refuses_overlapping_sides():
    with pytest.raises(PreconditionError, match="sides overlap"):
        build_knn(3).bipartite_restriction(0b000111, 0b111001)


@pytest.mark.parametrize("lmask, rmask", [(1 << 9, 0b11), (0b11, 1 << 20), (0b11, -4)])
def test_bipartite_restriction_refuses_a_side_outside_the_graph(lmask, rmask):
    with pytest.raises(PreconditionError, match="outside 0..8"):
        random_graph(9, 1).bipartite_restriction(lmask, rmask)


def test_derived_graphs_equal_checked_graphs():
    # complement and bipartite_restriction skip the constructor's check;
    # their rows must be ones the check accepts, equal to the reference
    rnd = random.Random(23)
    for m in (0, 1, 2, 7, 40, 64, 65, 130):
        for seed in range(4):
            g = random_graph(m, 100 * m + seed, p=rnd.choice([0.1, 0.5, 0.9]))
            full = (1 << m) - 1
            co = g.complement()
            assert co == Graph(m, tuple(full ^ r ^ 1 << v for v, r in enumerate(g.rows)))
            for _ in range(3):
                side = [rnd.randrange(3) for _ in range(m)]
                lmask = mask_of(v for v in range(m) if side[v] == 0)
                rmask = mask_of(v for v in range(m) if side[v] == 1)
                h = g.bipartite_restriction(lmask, rmask)
                rows = [r & (rmask if lmask >> v & 1 else lmask if rmask >> v & 1 else 0)
                        for v, r in enumerate(g.rows)]
                assert h == Graph(m, tuple(rows))


def test_edges_between_and_inside():
    g = complete(5)
    x = mask_of([0, 1])
    y = mask_of([2, 3, 4])
    assert g.edges_between(x, y) == 6
    assert g.edges_inside(x) == 1
    assert g.edges_inside(y) == 3
    assert g.non_edges_inside(y) == 0
    assert Graph.empty(5).non_edges_inside(y) == 3


def test_cut_basic():
    x = VertexSet.of(6, [0, 1, 2])
    y = VertexSet.of(6, [3, 4, 5])
    cut = Cut(x, y)
    assert cut.m == 6 and cut.is_balanced()
    unbalanced = Cut(VertexSet.of(6, [0]), VertexSet.of(6, [1, 2, 3, 4, 5]))
    assert not unbalanced.is_balanced()


def test_graph6_round_trip_random():
    for m in range(1, 13):
        for seed in range(3):
            g = random_graph(m, 100 * m + seed)
            assert from_graph6(to_graph6(g)).rows == g.rows


def test_graph6_header_and_whitespace():
    g = random_graph(7, 42)
    # graph6 files may start with a header; the reader skips it
    s = ">>graph6<<" + to_graph6(g)
    assert from_graph6(s).rows == g.rows
    assert from_graph6(to_graph6(g) + "\n").rows == g.rows


def test_graph6_known_octahedron_string():
    # published graph6 string for the octahedron; our builder must agree
    # up to isomorphism, and our own encoding must round-trip
    ours = build_extremal(3, [4]).graph
    theirs = from_graph6("E}lw")
    assert theirs.m == 6
    assert theirs.degrees() == [4, 4, 4, 4, 4, 4]
    assert isomorphic(ours, theirs)


def test_graph6_long_form_large_graph():
    # >62 vertices exercises the extended N(n) encoding
    g = random_graph(70, 7, p=0.1)
    s = to_graph6(g)
    assert from_graph6(s).rows == g.rows


def test_graph6_pinned_output():
    assert to_graph6(build_extremal(3, [4]).graph) == "El~o"
    assert to_graph6(build_knn(6)) == "K??F~z{~Fw^_"
    s = to_graph6(build_extremal(300, [301]).graph)
    assert hashlib.sha256(s.encode()).hexdigest() == (
        "1af27139b79ee533e9f3789b4c127749195b49845bb946473bf19ba815c462f0"
    )


@pytest.mark.parametrize("m", [0, 1, 2, 62, 63, 64, 600])
def test_graph6_round_trip_sizes(m):
    for p in (0.0, 0.5, 1.0):
        g = random_graph(m, m, p=p)
        s = to_graph6(g)
        assert len(s) == (1 if m <= 62 else 4) + (m * (m - 1) // 2 + 5) // 6
        assert from_graph6(s) == g


@pytest.mark.parametrize("m", [2, 3, 62, 63])
def test_graph6_rejects_nonzero_padding(m):
    s = to_graph6(complete(m))
    last = ord(s[-1]) - 63
    pad = -(m * (m - 1) // 2) % 6
    assert pad and last & ((1 << pad) - 1) == 0
    for bit in range(pad):
        with pytest.raises(PreconditionError, match="nonzero padding bits"):
            from_graph6(s[:-1] + chr((last | 1 << bit) + 63))


def _graph6_cases():
    for m in (0, 1, 2, 5, 62, 63, 64, 130):
        for p in (0.1, 0.5, 0.9):
            yield random_graph(m, 1000 * m + int(10 * p), p=p)
    yield build_extremal(300, [301]).graph


def test_graph6_matches_networkx():
    # networkx's codec is the independent oracle, in both directions
    for g in _graph6_cases():
        ours = to_graph6(g)
        assert ours.encode() + b"\n" == nx.to_graph6_bytes(to_networkx(g), header=False)
        theirs = nx.from_graph6_bytes(ours.encode())
        assert sorted(theirs.nodes) == list(range(g.m))
        decoded = from_graph6(ours)
        assert decoded == g
        assert sorted(map(sorted, theirs.edges)) == sorted(map(list, edge_list(decoded)))


@pytest.mark.parametrize("bad", [62, 127, 0])
def test_graph6_refuses_an_out_of_range_body_byte(bad):
    for g in (random_graph(130, 7), build_extremal(300, [301]).graph):
        s = to_graph6(g)
        head = 4  # the long N(n) form
        for at in (head, (head + len(s)) // 2, len(s) - 1):
            planted = s[:at] + chr(bad) + s[at + 1 :]
            with pytest.raises(PreconditionError, match=f"^invalid graph6 byte {bad}$"):
                from_graph6(planted)


def test_graph6_decode_m600_within_half_a_second():
    s = to_graph6(build_extremal(300, [301]).graph)
    start = time.perf_counter()
    g = from_graph6(s)
    assert time.perf_counter() - start < 0.5
    assert g.m == 600 and g.degrees() == [301] * 600


def test_graph6_rejects_garbage():
    for bad in ("", "   ", "\x7f\x7f", "E}l"):  # truncated last one
        with pytest.raises(PreconditionError):
            from_graph6(bad)


def test_relabel_matches_networkx():
    for seed in range(8):
        g = random_graph(8, seed + 500)
        perm = list(range(8))
        random.Random(seed).shuffle(perm)
        h = relabel(g, perm)
        want = nx.relabel_nodes(to_networkx(g), dict(enumerate(perm)))
        assert {frozenset(e) for e in edge_list(h)} == {frozenset(e) for e in want.edges()}
        assert isomorphic(g, h)


def test_relabel_keeps_non_isomorphic_graphs_apart():
    c6, k33 = cycle(6), Graph.complete_bipartite(3, 3)
    assert not isomorphic(c6, k33)
    for seed in range(4):
        perm = list(range(6))
        random.Random(seed).shuffle(perm)
        assert isomorphic(relabel(c6, perm), c6)
        assert not isomorphic(relabel(c6, perm), k33)
