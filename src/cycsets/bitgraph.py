"""Core graph representation: simple undirected graphs as symmetric bit-rows.

Vertices are 0..m-1.  The adjacency matrix is stored as m Python ints
(arbitrary-width bitmasks), one row per vertex, so neighborhood
intersection/union is a single int op regardless of m.  Everything is
immutable after construction; all operations elsewhere in the package are
pure functions of these values.

Also provides VertexSet / Cut wrappers with bitmask semantics, the two
walks of an induced subgraph that the rest of the package shares
(`twin_classes`, `path_cover`), and a bit-exact graph6 reader/writer
(standard N(n) short and extended forms; the reader also takes the optional
>>graph6<< header of graph6 files).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError

GRAPH6_HEADER = ">>graph6<<"


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# Per byte value b: the offsets of its set bits in increasing order
# (`_BYTE_BITS[b]`, read by `bits_of`), their count (`_BYTE_POPCOUNT[b]`)
# and, at 8 * b + r, the offset of its set bit of rank r (`_BYTE_SELECT`,
# 0 for r at or past the count); the last two finish `nth_bit`.
_BYTE_BITS: tuple[tuple[int, ...], ...] = ((),)
for _i in range(8):  # the bits of b + 2^i, for b < 2^i, are those of b, then i
    _BYTE_BITS += tuple(bits + (_i,) for bits in _BYTE_BITS)
del _i
_BYTE_POPCOUNT = bytes(map(len, _BYTE_BITS))
_BYTE_SELECT = b"".join(bytes(bits).ljust(8, b"\0") for bits in _BYTE_BITS)


def bits_of(mask: int):
    """Iterate set bit positions of mask in increasing order, lazily.

    The mask is read once, as little-endian bytes, and each nonzero byte
    yields its offsets from `_BYTE_BITS`, so no m-bit int is built per set
    bit.  A negative mask has no finite bit set: PreconditionError on the
    first `next`."""
    if mask < 0:
        raise PreconditionError("negative mask")
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                yield base + i
        base += 8


def local_rows(rows, mask: int) -> tuple[list[int], list[int]]:
    """The bit rows of the subgraph induced on the masked vertices,
    relabeled 0..k-1, and the vertex list: verts[i] is the original label
    of local vertex i (increasing order).  No `Graph` is built, so nothing
    is validated again."""
    verts = list(bits_of(mask))
    index = {v: i for i, v in enumerate(verts)}
    local = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in bits_of(rows[v] & mask):
            local[i] |= 1 << index[u]
    return local, verts


def twin_classes(mask: int, srows: list[int]) -> dict[int, int]:
    """The twin classes of the subgraph induced on mask: N(v) -> the mask
    of its vertices with that neighbourhood, in order of each class's
    lowest vertex.  `srows` are the rows restricted to mask, rows[v] &
    mask, for its vertices v in increasing order.  Twins are never
    adjacent, since no vertex is its own neighbour, so each class is
    independent and disjoint from its neighbourhood."""
    classes: dict[int, int] = {}
    rest = mask
    for nbrs in srows:
        low = rest & -rest
        classes[nbrs] = classes.get(nbrs, 0) | low
        rest ^= low
    return classes


def path_cover(rows, mask: int) -> list[list[int]]:
    """The components of the subgraph induced on mask, a graph of maximum
    degree at most 2, each as a path through all its vertices: first the
    path components (isolated vertices included), each walked from its
    lower end, in order of that end, then each cycle from its lowest
    vertex.  Every step goes to the lowest unvisited neighbour."""
    ends = 0  # the vertices of degree at most 1 in the subgraph
    for v in bits_of(mask):
        if (rows[v] & mask).bit_count() < 2:
            ends |= 1 << v
    paths = []
    left = mask
    while left:
        start = ends & left or left
        low = start & -start
        left ^= low
        v = low.bit_length() - 1
        path = [v]
        while nxt := rows[v] & left:
            low = nxt & -nxt
            left ^= low
            v = low.bit_length() - 1
            path.append(v)
        paths.append(path)
    return paths


_WORD = (1 << 64) - 1


def nth_bit(mask: int, r: int, n: int) -> int:
    """Position of the set bit of rank r (0-based, increasing order) in mask.

    Equals list(bits_of(mask))[r].  The caller passes the mask's popcount
    as n, which it has counted already; a negative mask or a rank outside
    0..n-1 raises PreconditionError.  On a mask wider
    than one 64-bit word, the window that holds rank r is found by window
    popcounts from the nearer end: for a rank below half the popcount n,
    the words from the low end; else 64-bit windows from the top bit down,
    for rank n - 1 - r from the top, the last window cut at bit 0.  Within
    that window two halvings (32 and 16 bits) leave two bytes; the byte
    popcount table picks the byte and the byte select table the bit
    (rank/select on machine words, Vigna, WEA 2008)."""
    if mask < 0:
        raise PreconditionError("negative mask")
    if not 0 <= r < n:
        raise PreconditionError(f"rank {r} outside 0..{n - 1}")
    pos = 0
    if mask <= _WORD:
        word = mask
    elif 2 * r < n:
        word = mask & _WORD
        while r >= (c := word.bit_count()):
            r -= c
            pos += 64
            word = mask >> pos & _WORD
    else:
        r = n - 1 - r  # the rank from the top
        pos = mask.bit_length() - 64
        word = mask >> pos
        while r >= (c := word.bit_count()):
            r -= c
            if pos > 64:
                pos -= 64
                word = mask >> pos & _WORD
            else:
                word = mask & ((1 << pos) - 1)
                pos = 0
        r = c - 1 - r  # the rank within the window, from its low end
    if r >= (c := (word & 0xFFFFFFFF).bit_count()):
        r -= c
        word >>= 32
        pos += 32
    if r >= (c := (word & 0xFFFF).bit_count()):
        r -= c
        word >>= 16
        pos += 16
    if r >= (c := _BYTE_POPCOUNT[word & 255]):
        r -= c
        word >>= 8
        pos += 8
    return pos + _BYTE_SELECT[(word & 255) << 3 | r]


def _add_edges(m: int, rows: list[int], edges) -> None:
    """OR each edge (u, v) into rows u and v; an edge with an endpoint
    outside 0..m-1, or a loop, raises PreconditionError."""
    for u, v in edges:
        if u == v or not (0 <= u < m and 0 <= v < m):
            raise PreconditionError(f"bad edge ({u},{v}) for m={m}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u


def _bit_matrix(m: int, rows) -> str:
    """The m x m adjacency matrix as one '0'/'1' string, entry (v, u) at
    v*m + u.  Rows must have no bits at or above m."""
    return "".join(f"{row:0{m}b}"[::-1] for row in rows)


@dataclass(frozen=True)
class Graph:
    m: int
    rows: tuple[int, ...]

    def __post_init__(self):
        m, rows = self.m, self.rows
        if m < 0 or len(rows) != m:
            raise PreconditionError("row count must equal vertex count")
        for v, row in enumerate(rows):
            if row >> m:
                raise PreconditionError(f"row {v} has bits outside 0..{m - 1}")
            if row >> v & 1:
                raise PreconditionError(f"self-loop at {v}")
        # symmetric iff every row of the bit matrix equals its column
        bits = _bit_matrix(m, rows)
        if any(bits[v * m : (v + 1) * m] != bits[v::m] for v in range(m)):
            for v, row in enumerate(rows):
                for u in bits_of(row):
                    if not rows[u] >> v & 1:
                        raise PreconditionError(f"asymmetric adjacency {v},{u}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(m: int) -> "Graph":
        return Graph(m, (0,) * m)

    @staticmethod
    def from_edges(m: int, edges) -> "Graph":
        rows = [0] * m
        _add_edges(m, rows, edges)
        return Graph(m, tuple(rows))

    @staticmethod
    def _derived(m: int, rows: tuple[int, ...]) -> "Graph":
        """A `Graph` on rows derived from a validated graph's, built without
        `__post_init__`'s check.  Only `complement` and
        `bipartite_restriction` call it, and their rows are valid by
        construction: each keeps, for every vertex v, a subset of the
        vertices 0..m-1 other than v, and each keeps the pair {u, v}
        whenever it keeps u in row v (the complement of a symmetric matrix
        is symmetric; the restriction to disjoint sides L and R keeps
        rows[v] & R for v in L and rows[v] & L for v in R).  At m = 600 the
        check this skips, the O(m²) symmetry test, costs about 2 ms."""
        g = object.__new__(Graph)
        object.__setattr__(g, "m", m)
        object.__setattr__(g, "rows", rows)
        return g

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "Graph":
        left = (1 << a) - 1
        right = ((1 << (a + b)) - 1) ^ left
        rows = [right] * a + [left] * b
        return Graph(a + b, tuple(rows))

    # -- basic queries -----------------------------------------------------

    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def min_degree(self) -> int:
        return min(self.degrees()) if self.m else 0

    def max_degree(self) -> int:
        return max(self.degrees()) if self.m else 0

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    # -- derived graphs ----------------------------------------------------

    def with_edges(self, edges) -> "Graph":
        rows = list(self.rows)
        _add_edges(self.m, rows, edges)
        return Graph(self.m, tuple(rows))

    def complement(self) -> "Graph":
        """The complement graph, built unchecked (`_derived`): the diagonal
        stays clear and no bit reaches m."""
        full = self.full_mask()
        return Graph._derived(
            self.m, tuple((full ^ r) & ~(1 << v) for v, r in enumerate(self.rows))
        )

    def components(self, mask: int):
        """Yield the vertex masks of the components of g[mask], in order of
        their lowest vertex."""
        rows = self.rows
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= rows[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & mask & ~comp
                comp |= frontier
            yield comp
            mask &= ~comp

    def bipartite_restriction(self, lmask: int, rmask: int) -> "Graph":
        """Only the edges between the disjoint sets L and R, on all m
        vertices (vertices outside L ∪ R become isolated).  Built unchecked
        (`_derived`), which is sound only for disjoint sides of vertices
        0..m-1, so overlapping sides, or a side with a vertex outside,
        raise PreconditionError.  Only the rows of L and R are filled."""
        if lmask & rmask:
            raise PreconditionError("sides overlap")
        if (lmask | rmask) >> self.m:
            raise PreconditionError(f"side has a vertex outside 0..{self.m - 1}")
        rows = [0] * self.m
        for v in bits_of(lmask):
            rows[v] = self.rows[v] & rmask
        for v in bits_of(rmask):
            rows[v] = self.rows[v] & lmask
        return Graph._derived(self.m, tuple(rows))

    # -- edge counts between vertex sets -----------------------------------

    def edges_between(self, amask: int, bmask: int) -> int:
        """e(A,B) = sum over a in A of |N(a) ∩ B|.

        Edges with both endpoints in A ∩ B are counted twice, matching the
        usual convention for possibly-overlapping sets.
        """
        return sum((self.rows[a] & bmask).bit_count() for a in bits_of(amask))

    def edges_inside(self, mask: int) -> int:
        return self.edges_between(mask, mask) // 2

    def non_edges_inside(self, mask: int) -> int:
        k = mask.bit_count()
        return k * (k - 1) // 2 - self.edges_inside(mask)


@dataclass(frozen=True)
class VertexSet:
    mask: int
    m: int

    def __post_init__(self):
        if self.mask & ~((1 << self.m) - 1):
            raise PreconditionError("vertex-set members outside 0..m-1")

    @staticmethod
    def of(m: int, vertices) -> "VertexSet":
        return VertexSet(mask_of(vertices), m)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> list[int]:
        return list(bits_of(self.mask))

    def complement(self) -> "VertexSet":
        return VertexSet(((1 << self.m) - 1) ^ self.mask, self.m)


@dataclass(frozen=True)
class Cut:
    x: VertexSet
    y: VertexSet

    def __post_init__(self):
        if self.x.m != self.y.m:
            raise PreconditionError("cut sides live in different vertex universes")
        if self.x.mask & self.y.mask:
            raise PreconditionError("cut sides overlap")
        if self.x.mask | self.y.mask != (1 << self.x.m) - 1:
            raise PreconditionError("cut sides do not cover the vertex set")

    @property
    def m(self) -> int:
        return self.x.m

    def is_balanced(self) -> bool:
        return self.x.size == self.y.size


# ---------------------------------------------------------------------------
# graph6 interchange format (bit-exact per the standard encoding)
# ---------------------------------------------------------------------------

# The codec converts whole strings at C level: a body byte b holds the six
# bits of b - 63, that is the two octal digits (b - 63) >> 3 and (b - 63) & 7.
_G6_BYTES = bytes(range(63, 127))
_G6_HI_DIGIT = bytes.maketrans(_G6_BYTES, bytes(48 + (v >> 3) for v in range(64)))
_G6_LO_DIGIT = bytes.maketrans(_G6_BYTES, bytes(48 + (v & 7) for v in range(64)))
_G6_HI_BYTE = bytes.maketrans(b"01234567", bytes(8 * d for d in range(8)))
_G6_LO_BYTE = bytes.maketrans(b"01234567", bytes(63 + d for d in range(8)))


def _g6_encode_n(n: int) -> bytes:
    if n < 0:
        raise PreconditionError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in range(30, -1, -6)])
    raise PreconditionError("vertex count too large for graph6")


def to_graph6(g: Graph) -> str:
    """Encode a graph in graph6: N(n) then the upper triangle column-major."""
    m = g.m
    bits = _bit_matrix(m, g.rows)
    # column j of the upper triangle is row j's entries (i, j), i < j
    body = "".join(bits[j * m : j * m + j] for j in range(1, m))
    body += "0" * (-len(body) % 6)
    out = bytearray(_g6_encode_n(m))
    if k := len(body) // 6:
        # each 6-bit group is two octal digits hi, lo and encodes as the
        # byte 8*hi + lo + 63 <= 126, so the two digit strings add without carry
        octal = format(int(body, 2), f"0{2 * k}o").encode()
        hi = int.from_bytes(octal[0::2].translate(_G6_HI_BYTE), "big")
        lo = int.from_bytes(octal[1::2].translate(_G6_LO_BYTE), "big")
        out += (hi + lo).to_bytes(k, "big")
    return out.decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional >>graph6<< header tolerated)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise PreconditionError("empty graph6 string")
    data = s.encode("ascii", errors="strict")
    if bad := data.translate(None, _G6_BYTES):
        raise PreconditionError(f"invalid graph6 byte {bad[0]}")
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise PreconditionError("truncated graph6 size field")
            n = 0
            for b in data[2:8]:
                n = (n << 6) | (b - 63)
            pos = 8
        else:
            if len(data) < 4:
                raise PreconditionError("truncated graph6 size field")
            n = 0
            for b in data[1:4]:
                n = (n << 6) | (b - 63)
            pos = 4
    else:
        n = data[0] - 63
        pos = 1
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != need:
        raise PreconditionError(
            f"graph6 body length {len(data) - pos} != expected {need} for n={n}"
        )
    body = ""
    if raw := data[pos:]:
        # each byte is two octal digits; one base-8 parse yields all the bits
        octal = bytearray(2 * len(raw))
        octal[0::2] = raw.translate(_G6_HI_DIGIT)
        octal[1::2] = raw.translate(_G6_LO_DIGIT)
        body = format(int(octal, 8), f"0{6 * len(raw)}b")
    k = n * (n - 1) // 2
    # lower[j*n + i] is the bit of pair (i, j), i < j: column j of the
    # upper triangle, zero-padded to length n
    lower = "".join(
        body[j * (j - 1) // 2 : j * (j + 1) // 2].ljust(n, "0") for j in range(n)
    )
    rows = tuple(
        int(lower[v * n : (v + 1) * n][::-1], 2) | int(lower[v::n][::-1], 2)
        for v in range(n)
    )
    # trailing pad bits must be zero for a bit-exact encoding
    if "1" in body[k:]:
        raise PreconditionError("nonzero padding bits in graph6 body")
    return Graph(n, rows)
