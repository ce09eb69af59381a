"""The anchored reach-set DP (Bellman 1962; Held and Karp 1962) over
twin-class counts, shared by exact counting and the exact Hamiltonicity
decider.

Fix an anchor vertex outside a universe of k local vertices 0..k-1.  For a
mask M over the universe, reach[M] is the set of w in M that end a path
which starts at the anchor and visits exactly {anchor} + M.

Twins are universe vertices with the same neighbours in the universe and
the same adjacency to the anchor; the anchor can split a set of vertices
that are twins within the universe.  Twins are never adjacent, every N(w)
is a union of whole twin classes, and swapping two twins is an automorphism
that fixes the anchor.  So whether a vertex of class C is in reach[M]
depends only on C and on the counts |M & C'| over the classes C': the
kernel runs over those count vectors, its states.

Each class is one digit of a mixed-radix state number x.  A class of one is
a binary digit in the low bits, in vertex order; a class C of two or more
members is a digit 0..|C| above them.  So every combination of the class
digits is one contiguous block of 2^s bits, s the number of classes of one,
and an int over all states has N = 2^s * prod(|C| + 1) bits.  Digit j has
the weight W_j: 2^i for the i-th class of one, and 2^s times the product of
|C| + 1 over the larger classes before it for a larger class.  A twin-free
universe has k binary digits, W_w = 2^w and N = 2^k: its states are the
masks M themselves.

The kernel holds the table bit-parallel, in plain Python ints: R_j is an
N-bit int with bit x set iff a vertex of class j is in reach[M] for the sets
M of counts x (then so are all of M's members of class j).  It runs one
round per popcount layer.  Round 1 sets bit W_j of R_j for each class j next
to the anchor, and each later round is

    R_j <- ((OR over classes i in N(j) of R_i) & NOTFULL_j) << W_j,

where NOTFULL_j has bit x set iff digit j of x is below |C_j|: a path
through counts x that ends next to class j extends to an unvisited member
of it.  Digits with the same universe neighbours, split by the anchor, share
one OR.  Round t holds exactly the layer |M| = t.  A state x stands for
prod over the classes of binom(|C|, c_C(x)) sets M, and the per-vertex
table's state count sum |reach[M]| counts c_j(x) endpoints of a class j at
each of them.  `subsets` and `endpoints` weigh an int's blocks so, reading
them from one `to_bytes` view: shifting the int once per block would take
time quadratic in its size.

A round holds d ints of N bits, d <= k the number of classes.  CPython
stores 30 bits in every 4 bytes, so an int of N bits takes
24 + 4 * ceil(N / 30) bytes (`sys.getsizeof`).  N <= 2^k, with equality for
a twin-free universe, which is the worst case: one int takes 1,118,508
bytes at k = TABLE_MAX_BITS = 23, and a round 25,725,684 bytes.  The
NOTFULL_j masks take as much again.  While it builds a round the kernel
holds three such sets and at most two ints in flight: 3d + 2 ints,
79,414,068 bytes at k = 23.  Reading the blocks of an int takes one more
copy of N / 8 bytes and one weight per block, prod(|C| + 1) of them; a
twin-free universe has one block and needs neither.  The exact decider
keeps a fourth set, the OR of all rounds: at most 4d + 2 ints, 105,139,752
bytes at k = 23.  Wider universes are refused before anything is
allocated, by vertex count, whatever their classes.  The kernel needs no
numpy.

Its callers add one vertex, the anchor, to the universe, so both of them,
exact counts and the exact decider, take EXACT_BUDGET = TABLE_MAX_BITS + 1
= 24 vertices, and refuse more before they start.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from operator import mul

from .bitgraph import bits_of
from .errors import BudgetExceededError

TABLE_MAX_BITS = 23
EXACT_BUDGET = TABLE_MAX_BITS + 1  # the anchor plus the DP table's width


class Quotient:
    """The kernel on one anchored universe: adj[w] is N(w) within the
    universe, seed is N(anchor) within it.

    `classes[j]` lists the local vertices of digit j, lowest first, the
    classes of one before the larger ones; `digit[w]` is w's digit,
    `weight[j]` is W_j and `size` is N.  With twins=False every vertex is a
    class of its own, so the states are the masks M, as in the per-vertex
    DP.  Raises BudgetExceededError at construction, before allocating,
    above TABLE_MAX_BITS vertices.
    """

    def __init__(self, adj: list[int], seed: int, twins: bool = True):
        k = len(adj)
        if k > TABLE_MAX_BITS:
            # k ints of 2^k bits, each a 24-byte header and a 4-byte digit per 30 bits
            round_bytes = k * (24 + 4 * -(-(1 << k) // 30))
            raise BudgetExceededError(
                f"subset-DP table budget: {k} free vertices > {TABLE_MAX_BITS} "
                f"(one twin-free round would take {round_bytes} bytes)"
            )
        groups: dict[int, list[int]] = {}  # N(w) -> the vertices with it
        for w, a in enumerate(adj):
            groups.setdefault(a, []).append(w)
        self.seed = seed
        larger = []  # the classes of two or more: sets of twins, split by the anchor
        if twins and len(groups) < k:
            for members in groups.values():
                for near in (1, 0):
                    c = [w for w in members if seed >> w & 1 == near]
                    if len(c) > 1:
                        larger.append(c)
        # _plan: (digits of N(w), digits of the vertices w) for each N(w)
        if not larger:  # every class is one vertex: digit w is vertex w
            self.classes = [[w] for w in range(k)]
            self.singles = k
            self.weight = [1 << w for w in range(k)]
            self.size = 1 << k
            self.digit = range(k)
            self._plan = [(list(bits_of(a)), members) for a, members in groups.items()]
            return
        inlarger = sum(1 << w for c in larger for w in c)
        self.classes = [[w] for w in range(k) if not inlarger >> w & 1] + larger
        self.singles = s = k - inlarger.bit_count()
        self.weight = weight = [1 << j for j in range(s)]
        size = 1 << s
        for c in larger:
            weight.append(size)
            size *= len(c) + 1
        self.size = size
        self.digit = digit = [0] * k
        for j, c in enumerate(self.classes):
            for w in c:
                digit[w] = j
        # N(w) is a union of whole classes, so it reads each at its first member
        firsts = sum(1 << c[0] for c in self.classes)
        self._plan = [
            ([digit[u] for u in bits_of(a & firsts)], sorted({digit[w] for w in members}))
            for a, members in groups.items()
        ]

    def rounds(self):
        """Iterator over the rounds t = 1..k: round t is the list of R_j,
        the layer |M| = t.  After round 1 it ends at the first round that
        would be all zero, since every later round would be zero too."""
        classes, weight, size = self.classes, self.weight, self.size
        notfull = []  # the low W_j * |C_j| of every W_j * (|C_j| + 1) bits, by doubling
        for j, c in enumerate(classes):
            x = (1 << weight[j] * len(c)) - 1
            period = weight[j] * (len(c) + 1)
            while period < size:
                x |= x << period
                period <<= 1
            notfull.append(x & (1 << size) - 1 if period > size else x)
        cur = [1 << weight[j] if self.seed >> c[0] & 1 else 0 for j, c in enumerate(classes)]
        yield cur
        for _ in range(len(self.digit) - 1):  # the layer |M| = k is the last
            nxt = [0] * len(classes)
            for heads, members in self._plan:
                acc = 0
                for i in heads:
                    acc |= cur[i]
                if acc:
                    for j in members:
                        nxt[j] = (acc & notfull[j]) << weight[j]
            if not any(nxt):
                return
            cur = nxt
            yield cur

    def closing_sets(self):
        """Yield (t, C) for t = 2, 3, ...: C is the OR of round t's R_j over
        the classes next to the anchor, so bit x of C is set iff
        {anchor} + M is cyclic for the sets M of counts x.  |M| = 1 closes
        no cycle."""
        closers = [j for j, c in enumerate(self.classes) if self.seed >> c[0] & 1]
        for t, reach in enumerate(self.rounds(), 1):
            if t >= 2:
                closing = 0
                for j in closers:
                    closing |= reach[j]
                yield t, closing

    @cached_property
    def _block_subsets(self) -> list[int]:
        """Block b -> prod binom(|C|, c_C(b)) over the larger classes."""
        out = [1]
        for c in self.classes[self.singles :]:
            out = [comb(len(c), v) * w for v in range(len(c) + 1) for w in out]
        return out

    def _block_popcounts(self, x: int) -> list[int]:
        s = self.singles
        if s < 3:  # blocks narrower than a byte: read the set bits
            counts = [0] * (self.size >> s)
            for i in bits_of(x):
                counts[i >> s] += 1
            return counts
        view = memoryview(x.to_bytes(self.size >> 3, "little"))
        if s <= 6:  # blocks of 1, 2, 4 or 8 bytes; a popcount ignores byte order
            return list(map(int.bit_count, view.cast("BHIQ"[s - 3])))
        step = 1 << (s - 3)
        return [
            int.from_bytes(view[i : i + step], "little").bit_count()
            for i in range(0, len(view), step)
        ]

    def subsets(self, x: int) -> int:
        """The number of sets M that the states set in x stand for."""
        if self.size >> self.singles == 1:  # one block: a twin-free universe
            return x.bit_count()
        return sum(map(mul, self._block_popcounts(x), self._block_subsets))

    def states(self, table: list[int]) -> int:
        """The number of per-vertex states (M, w), w in reach[M], that the
        ints R_j of a table stand for: sum |reach[M]|.  A state x of R_j
        counts its sets M once for a class of one, c_j(x) times for a larger
        class."""
        s = self.singles
        if self.size >> s == 1:  # one block: a twin-free universe
            return sum(map(int.bit_count, table))
        total = sum(map(self.subsets, table[:s]))
        for j in range(s, len(table)):
            stride = self.weight[j] >> s
            radix = len(self.classes[j]) + 1
            pops = self._block_popcounts(table[j])
            total += sum(
                p * w * (b // stride % radix)
                for b, (p, w) in enumerate(zip(pops, self._block_subsets))
                if p
            )
        return total
