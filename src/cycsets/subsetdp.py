"""The reach-set DP (Bellman 1962; Held and Karp 1962) over twin-class
counts, anchored or with every start, shared by exact counting, the exact
Hamiltonicity decider and `verify gncriterion`.

Fix an anchor vertex outside a universe of k local vertices 0..k-1.  For a
mask M over the universe, reach[M] is the set of w in M that end a path
which starts at the anchor and visits exactly {anchor} + M.  The second
seed, every start, has no anchor: reach[M] is the set of w in M that end
a path which visits exactly M and starts at a vertex of M's lowest class
(below).

`anchored(rows, a)` is the one layout of an anchor's universe: the
vertices above a, local index v - (a + 1), with N(a) among them as the
seed.  Counts build each anchor's kernel with it, and the exact decider
builds its kernel as anchor 0 of the scope's local rows.

Twins are universe vertices with the same neighbours in the universe and
the same adjacency to the anchor; the anchor can split a set of vertices
that are twins within the universe, and with every start nothing splits
them.  Twins are never adjacent, every N(w) is a union of whole twin
classes, and swapping two twins is an automorphism that fixes the anchor.
So whether a vertex of class C is in reach[M] depends only on C and on the
counts |M & C'| over the classes C': the kernel runs over those count
vectors, its states.

Each class is one digit of a mixed-radix state number x.  A class of one is
a binary digit in the low bits, in vertex order; a class C of two or more
members is a digit 0..|C| above them.  So every combination of the class
digits is one contiguous block of 2^s bits, s the number of classes of one,
and an int over all states has N = 2^s * prod(|C| + 1) bits.  Digit j has
the weight W_j: 2^i for the i-th class of one, and 2^s times the product of
|C| + 1 over the larger classes before it for a larger class.  A twin-free
universe has k binary digits, W_w = 2^w and N = 2^k: its states are the
masks M themselves.  M's lowest class is the class of the lowest nonzero
digit of its state.

The kernel holds the table bit-parallel, in plain Python ints: R_j is an
N-bit int with bit x set iff a vertex of class j is in reach[M] for the sets
M of counts x (then so are all of M's members of class j).  Reachability is
a monotone system, and the table is its least fixpoint.  It starts from bit
W_j of R_j for each class j next to the anchor, or for every class j with
every start.  Each pass walks the
classes, grouped by their universe neighbours, in the order of their lowest
vertices, and applies in place

    R_j <- R_j | ((OR over classes i in N(j) of R_i) & NOTFULL_j) << W_j,

where NOTFULL_j has bit x set iff digit j of x is below |C_j|: a path
through counts x that ends next to class j extends to an unvisited member
of it.  With every start a path also extends into class j only from the
states whose lowest nonzero digit is at or below j, so that its start class
stays the lowest: those are the x with x mod W_{j+1} != 0, and NOTFULL_j,
whose period is W_{j+1} = W_j * (|C_j| + 1) (W_d = N), clears residue 0
as well.  Digits with the same universe neighbours, split by the anchor,
share one OR.  It stops after a pass that changes nothing.  An update reads
the R_i that earlier steps of the same pass have grown, so after pass r
every state of a path through at most r + 1 vertices is set: no pass after the
(k-1)-th changes anything, and a table takes at most k passes (one for
k <= 1).  Dense graphs, which the paper is about, take far fewer: anchored
at vertex 0, `random_regular_graph(18, 10, seed=1)` (k = 17) takes 7 and
`random_regular_graph(24, 13, seed=1)` (k = 23) takes 8.  A sparse universe
whose paths run against the vertex order needs nearly all k: the cycle
0, 1, ..., 19 anchored at 0 takes 19, since the paths through 19, 18, ...
grow by one vertex per pass, as they would layer by layer, and each pass
costs a whole table.

`closing` has bit x set iff the sets M of counts x close a cycle.
Anchored, it is the OR of R_j over the classes next to the anchor, less
the states |M| = 1 the fixpoint starts from, and {anchor} + M is cyclic.
With every start it is, per start class C, the OR of R_j over C's
neighbour classes on the states whose lowest nonzero digit is C's (one
tiled mask of period W_{C+1}), less the 2-sets, which close no cycle, and
M itself is cyclic: a Hamilton cycle of G[M] passes a vertex s of M's
lowest class, and dropping one of its edges at s leaves a path from s to a
neighbour of s, and so of every member of s's class.  So one every-start
kernel counts each cyclic set of its universe once, at its lowest class.
R_j holds no state whose lowest digit is above j, so the OR reads only the
neighbour classes above C.

A state x stands for prod over the classes of binom(|C|, c_C(x)) sets M.
`subsets_by_size` weighs an int's states so, in one recursive read.  The
h = min(s, LAYER_MAX_DIGITS) lowest binary digits are split by popcount
masks; every digit above them, a larger class or a class of one, is
peeled.  For the outermost such class C, of weight W, digit d of x is the
bit run x >> d*W & (2^W - 1).  Each nonempty run is read one class further
in, with d more vertices and binom(|C|, d) times the sets.  A run of the h
low digits (2^h bits) is split by |M| with one mask per popcount u of those
digits, built by the binomial recurrence: its states in mask u add to the
size u plus the digits outside it.  Each class shifts the rest of its run
once per digit and stops when nothing is left, so a read passes over the
int about (|C| + 1) / 2 times per peeled class and makes one call per
nonempty run.  A twin-free universe of k <= 16 vertices is one run of 2^k
bits; one of k > 16 is up to 2^(k-16) runs, so no read builds more than
17 masks of 2^16 bits, however many classes of one there are.

The table holds d ints of N bits, d <= k the number of classes.  CPython
stores 30 bits in every 4 bytes, so an int of N bits takes
24 + 4 * ceil(N / 30) bytes (`sys.getsizeof`).  The NOTFULL_j masks take
as much again, and an update has at most three ints in flight: 2d + 3 ints
while the fixpoint runs.  Splitting an int by size holds fewer: at most 17
popcount masks of 2^16 bits and their predecessors and, per peeled class
on the way in, one run and the rest around it, each at most half as wide
as the run outside it.  The every-start closing set holds the table and at
most four more ints: the OR, a lowest-digit mask, their AND and the set
itself.  So a count and a decision peak at the same 2d + 3 ints.

`Quotient` states that peak from its classes, before it builds any int of
N bits, and refuses a universe whose peak passes TABLE_MAX_BYTES: the peak
of a twin-free universe of 23 vertices (N = 2^23, 49 ints of 1,118,508
bytes), 54,806,892 bytes.  Twin-free universes keep that limit of 23
vertices; every universe of at most 23 vertices fits, whatever its
classes, and a universe with large twin classes fits far past it (the
extremal member with one 19-cycle, m = 36, needs 25.8 MB at anchor 0).
This is the only exact budget: exact counts and the exact decider add one
vertex, the anchor, to the universe and go as far as the kernel takes
them.  The kernel needs no numpy.
"""

from __future__ import annotations

from math import comb, prod

from .bitgraph import bits_of, twin_classes
from .errors import BudgetExceededError


def _int_bytes(bits: int) -> int:
    """sys.getsizeof of an int of `bits` bits: a 24-byte header and a
    4-byte digit per 30 bits."""
    return 24 + 4 * -(-bits // 30)


def _peak_bytes(s: int, larger: list[list[int]]) -> int:
    """The most bytes a count or a decision holds on a universe of s
    classes of one and the larger classes `larger`: 2d + 3 ints of N bits,
    while the fixpoint runs."""
    return (2 * (s + len(larger)) + 3) * _int_bytes(prod(len(c) + 1 for c in larger) << s)


TABLE_MAX_BYTES = _peak_bytes(23, [])  # a twin-free universe of 23 vertices: 54,806,892
# The binary digits `subsets_by_size` splits with popcount masks; it reads
# the ones above them run by run, as it reads a larger class
LAYER_MAX_DIGITS = 16


def _tile(x: int, period: int, size: int) -> int:
    """x, below 2^period, repeated every `period` bits over `size` bits, by
    doubling; `size` is a multiple of `period`."""
    while period < size:
        x |= x << period
        period <<= 1
    return x & (1 << size) - 1 if period > size else x


class Quotient:
    """The kernel on one universe: adj[w] is N(w) within the universe, and
    seed is N(anchor) within it, or None for every start.

    `classes[j]` lists the local vertices of digit j, lowest first, the
    classes of one before the larger ones; `digit[w]` is w's digit,
    `weight[j]` is W_j and `size` is N.  `peak_bytes`, 2d + 3 ints of N
    bits, is the most a count or a decision on the universe holds;
    construction raises BudgetExceededError, before allocating, when it
    passes TABLE_MAX_BYTES.
    """

    def __init__(self, adj: list[int], seed: int | None):
        k = len(adj)
        groups = twin_classes((1 << k) - 1, adj)  # N(w) -> the mask of its vertices
        self.seed = seed
        split = seed or 0  # every start has no anchor to split the twins
        larger = []  # the classes of two or more: sets of twins, split by the anchor
        if len(groups) < k:
            for members in groups.values():
                for part in (members & split, members & ~split):
                    if part & (part - 1):
                        larger.append(list(bits_of(part)))
        s = k - sum(map(len, larger))
        self.peak_bytes = peak = _peak_bytes(s, larger)
        if peak > TABLE_MAX_BYTES:
            need = f"{peak}" if peak.bit_length() <= 64 else f"over 2^{peak.bit_length() - 1}"
            raise BudgetExceededError(
                f"subset-DP budget: {k} free vertices in {s + len(larger)} classes "
                f"would take {need} bytes > {TABLE_MAX_BYTES}"
            )
        inlarger = sum(1 << w for c in larger for w in c)
        self.classes = classes = [[w] for w in range(k) if not inlarger >> w & 1] + larger
        self.singles = s
        self.weight = weight = [1 << j for j in range(s)]
        size = 1 << s
        for c in larger:
            weight.append(size)
            size *= len(c) + 1
        self.size = size
        self.digit = digit = [0] * k
        steps = {a: [] for a in groups}  # N(w) -> the digits of the vertices w
        for j, c in enumerate(classes):
            for w in c:
                digit[w] = j
            steps[adj[c[0]]].append(j)
        # _plan: (digits of N(w), digits of the vertices w) for each N(w);
        # N(w) is a union of whole classes, so it reads each at its first member
        firsts = sum(1 << c[0] for c in classes)
        self._plan = [([digit[u] for u in bits_of(a & firsts)], js) for a, js in steps.items()]

    def table(self) -> list[int]:
        """The least fixpoint of the kernel: R_j has bit x set iff a vertex
        of class j ends a path through the sets of counts x, of any size.

        Each pass walks `_plan` once and grows every R_j in place; the
        last pass is the first that changes nothing."""
        classes, weight, size, seed = self.classes, self.weight, self.size, self.seed
        every = seed is None
        table = [1 << weight[j] if every or seed >> c[0] & 1 else 0
                 for j, c in enumerate(classes)]
        plan = []  # (heads, [(j, NOTFULL_j, W_j) for the members j]) per step of _plan
        for heads, members in self._plan:
            steps = []
            for j in members:
                w, c = weight[j], len(classes[j])
                # NOTFULL_j: the low W_j * |C_j| of every W_j * (|C_j| + 1) =
                # W_{j+1} bits; every start also clears residue 0, the states
                # whose lowest nonzero digit is above j
                steps.append((j, _tile((1 << w * c) - 1 - every, w * (c + 1), size), w))
            plan.append((heads, steps))
        changed = True
        while changed:
            changed = False
            for heads, steps in plan:
                acc = 0
                for i in heads:
                    acc |= table[i]
                if acc:
                    for j, notfull, w in steps:
                        new = table[j] | (acc & notfull) << w
                        if new != table[j]:
                            table[j] = new
                            changed = True
                        del new  # an unchanged one is garbage: at most three ints in flight
        return table

    def closing(self) -> int:
        """Bit x is set iff {anchor} + M is cyclic for the sets M of counts
        x: the OR of the fixpoint's R_j over the classes next to the
        anchor, less the states |M| = 1 that the fixpoint starts from,
        which close no cycle.

        With every start, bit x is set iff M itself is cyclic: per start
        class C, the OR of R_j over C's neighbour classes on the states
        whose lowest nonzero digit is C's, less the 2-sets, which close no
        cycle."""
        table, classes, weight, size = self.table(), self.classes, self.weight, self.size
        out = drop = 0
        if self.seed is not None:
            for j, c in enumerate(classes):
                if self.seed >> c[0] & 1:
                    out |= table[j]
                    drop |= 1 << weight[j]
            return out ^ drop
        for heads, (j,) in self._plan:  # each step is one class: no anchor splits it
            acc = 0
            for i in heads:
                if i > j:  # R_i holds no state whose lowest digit is above i
                    acc |= table[i]
                    drop |= 1 << weight[i] + weight[j]
            if acc:
                w, c = weight[j], len(classes[j])
                # the states whose lowest nonzero digit is j: digit j in
                # 1..|C_j| of every W_{j+1} bits, the digits below it 0
                lowest = sum(1 << d * w for d in range(1, c + 1))
                out |= acc & _tile(lowest, w * (c + 1), size)
        return out ^ drop

    def subsets_by_size(self, x: int) -> list[int]:
        """out[t] is the number of sets M with |M| = t that the states set
        in x stand for."""
        s, classes, weight = self.singles, self.classes, self.weight
        out = [0] * (len(self.digit) + 1)
        if not x:  # nothing to read: build no layers
            return out
        # layers[u] marks the states of the h low binary digits with u of
        # them set, grown one digit at a time by the binomial recurrence
        h = min(s, LAYER_MAX_DIGITS)
        layers = [1]
        for i in range(h):
            layers = [lo | hi << (1 << i) for lo, hi in zip(layers + [0], [0] + layers)]
        # per digit above them, innermost first: W_j, the mask of one run of
        # W_j bits and binom(|C_j|, d) for each digit d
        larger = [(w, (1 << w) - 1, [comb(len(c), d) for d in range(len(c) + 1)])
                  for w, c in zip(weight[h:], classes[h:])]

        def read(run: int, j: int, size: int, sets: int) -> None:
            # run holds the states of the h low digits and larger[:j], each
            # standing for `sets` choices of `size` vertices in the classes
            # outside them
            if not j:
                for t, layer in enumerate(layers, size):
                    if n := (run & layer).bit_count():
                        out[t] += sets * n
                return
            w, low, binoms = larger[j - 1]
            for t, b in enumerate(binoms, size):  # digit d = t - size; run is shifted by d*W_j
                if part := run & low:
                    read(part, j - 1, t, sets * b)
                if not (run := run >> w):
                    break

        read(x, len(larger), 0, 1)
        del read  # it names itself: a reference cycle that would keep the layers
        return out


def anchored(rows, a: int) -> Quotient | None:
    """The kernel of anchor a over the universe of the vertices above it,
    local index v - (a + 1), on the bit rows `rows`; None when no cycle has
    minimum a: fewer than two vertices above a, or none next to it.

    Every cyclic set has at least three vertices and appears once, in the
    closing set (`Quotient.closing`) of its minimum.
    """
    shift = a + 1
    seed = rows[a] >> shift
    if len(rows) - shift < 2 or not seed:
        return None
    return Quotient([r >> shift for r in rows[shift:]], seed)
