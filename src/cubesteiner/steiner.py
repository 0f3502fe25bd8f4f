"""Exact Steiner distance and Steiner trees in the hypercube.

The Steiner distance of a terminal set S is the minimum edge count of a
connected subgraph of Q_n whose vertex set contains S; a minimum subgraph
is always a tree, so d(S) = |S| - 1 + min |A| over the vertex sets A for
which S + A induces a connected subgraph. Three routes compute it:

- steiner_brute_oracle: enumerate vertex supersets W of S by increasing
  size and return |W| - 1 for the first W that induces a connected
  subgraph. Slow but transparently correct; the reference both the DP
  and the Steiner-vertex search are validated against.
- the subset DP (Dreyfus-Wagner) over (terminal subset, vertex) states
  with merge and grow transitions, rooted at one terminal r: it solves
  the other k - 1 terminals and reads d(S) = dp[S - r][r], in
  O(3^(k-1) 2^n + 2^(k-1) 2^n n) time (`_subset_dp`). It takes one weight
  m_b >= 1 per coordinate, the cost of an edge across b; all ones is Q_n.
  `_dp_solve` is its one entry: it takes a reduction of S to a weighted
  cube (below), and rebuilds a tree of Q_n from its values when asked.
- the Steiner-vertex search: a branch-and-bound over the Steiner vertices
  A (`_steiner_vertex_search`), fast when S is dense and A small, exactly
  where the DP's 3^(k-1) merge work is largest. One join step,
  `cube._join`, makes every component state it visits, its start state
  included; the connected-domination search keeps its components with
  the same step.

steiner_exact (distance and witness) and steiner_distance (distance only)
share one dispatch, so both exit on the same sets. One density rule picks
the solver: the search runs only where S has more terminals than Q_n has
coordinates, n < k. A sparser set is answered faster by the DP on its
column classes (below), and the search there mostly runs out of its
allowance first. The budget is charged "subset DP states" in two places.
`_dp_solve` charges the 2^(k-1) rows of 2^c fields it is about to build,
c the coordinate count of the cube it runs on; a single terminal builds
no row and is charged nothing. Before a search, the dispatch charges the
one up-front ceiling `_dp_projection`, the rooted DP's rows at the most
column classes a k-set can have, c = min(n, 2^(k-1) - 1): there
n < k <= 2^(k-1), so it is 2^(k-1) 2^n, above the search's bitmasks of
2^n bits and any DP the search falls back to. The search gets the
rooted DP's work on Q_n as its allowance, (3^(k-1) - 2^k + 1)/2 merge
pairs plus (2^(k-1) - k) n grow steps, with each search node charged its
component count + 1. When the search finds a minimum A,
d(S) = k - 1 + |A| and the witness is `_cut_tree` of S + A, the one
BFS-and-cut step that also lays `bounds.upper_bound_tree`. The cut keeps
the whole BFS spanning tree of S + A, |S| + |A| - 1 = d(S) edges: every
leaf is a terminal, because S + A - a stays connected when a is a leaf,
so a leaf a in A would contradict the minimality of |A|; hence every edge
has a terminal on both sides. Every other set, a single terminal
included, and a search that runs past its allowance go to `_dp_solve` on
S's column classes (`_column_classes`), which rebuilds its tree only when
a witness is asked for. The overlap experiment calls the same entry on
the trivial reduction, one class per coordinate and base 0, so its tree
is the unit-weight DP's tree on S itself on every set (see
`bounds.build_intersection_experiment`).

Column classes. XOR with the first terminal r is an automorphism, so take
r = 0. Coordinate b's column is its bit over the other terminals, in
order; `_columns` is the one reader of a set's columns. Lemma: two
k-sets containing 0 whose columns form equal multisets have the same d.
Pair each coordinate of one set with a coordinate of the other that has
the same column, one to one; the coordinate permutation along the
pairing fixes 0, maps the j-th terminal of one set onto the j-th of the
other for every j, and is an automorphism of Q_n. Both sets have n - z
zero columns, z the number of nonzero ones, so the multiset of the
nonzero columns alone decides; `bounds.sdiam_sandwich` keys its memo by
it. Drop the zero columns and group equal ones into c classes C_i of
m_i coordinates, c <= min(n, 2^(k-1) - 1). Summing the coordinates of each
class maps Q_n onto the grid P of the paths [0, m_i], every edge onto an
edge of P or, across a dropped coordinate, onto one vertex; the prefix
lift (set the first w_i coordinates of each C_i) embeds P back into Q_n.
So d(S) is the Steiner distance of the image of S in P, whose terminals
sit at path ends. By the Hanan grid theorem for rectilinear Steiner trees,
which holds in every dimension (Hanan, SIAM J. Appl. Math. 1966; Snyder,
SIAM J. Comput. 1992), some minimum tree uses path ends only: it lives in
Q_c with weight m_i on direction i, which the DP solves in rows of 2^c
fields. `_column_classes` returns this reduction as the class masks, the
base r and the reduced terminals x_t, with r ^ lift(x_t) = t, and
`_dp_solve` takes it whole. Each edge of class i at x (bit i clear)
lifts to the m_i cube edges that flip C_i's coordinates in increasing
order from r ^ lift(x); distinct edges lift to paths sharing no edge or
inner vertex, so the lifted tree has d(S) edges and only terminal leaves,
and `validate_tree` certifies it. One class per coordinate with base 0
is the trivial reduction, S itself with unit weights, where each edge
lifts to itself; when all n columns are distinct and nonzero, S's own
classes are that too, translated by r.

A SteinerInstance checks its terminals once, when it is built. The
dispatch `_solve` takes its dimension and sorted terminal tuple,
`_column_classes` the tuple, and `_dp_solve` a reduction; none checks
them again, so the `sdiam` sweep passes the tuples it generates straight
in.

The DP keeps each row dp[mask] (one value per vertex) packed in one Python
int, one w-bit field per vertex, and updates whole rows with big-int
arithmetic ("SIMD within a register"). Fields stay below the guard bit
2^(w-1), because dp[mask][v] is at most the sum of the weighted distances
from v to the terminals in mask, hence at most (k-1)*sum(m) for the k - 1
terminals the DP runs over, and the grow step adds some m_b to such a
value before its minimum; w = ((k-1)*sum(m) + max(m)).bit_length() + 1
is the least width with (k-1)*sum(m) + max(m) < 2^(w-1), so neither a
sum of two rows nor a row plus m_b carries into the next field, and the
field-wise minimum reads the guard bit of (a | guard) - b. With unit
weights that is ((k-1)*n + 1).bit_length() + 1, and sum(m) <= n in
general. The merge takes that minimum over the half-splits of a mask;
the grow is the separable weighted L1 distance transform, one pass per
coordinate b relaxing every vertex against its neighbour across b plus
m_b.

DP trees are rebuilt from the packed values alone, deterministically,
starting at the state (S - r, r); field v of a row is read as
(row >> w*v) & (2^w - 1). At a state (mask, v) the first half-split of
mask, in increasing submask order, whose two values sum to dp[mask][v] is
followed; failing that, the smallest neighbour u across some b with
dp[mask][u] = dp[mask][v] - m_b is. A single terminal's state ends in the
reduced geodesic from it to v. Every reduced edge is lifted to Q_n as it
is emitted, so the rebuild yields Q_n edges and never a reduced tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable, Optional

from .cube import (
    Dimension,
    Edge,
    VertexSet,
    _closed_ball,
    _edge,
    _geodesic,
    _join,
    bfs_forest,
    canonical_int,
    check_edge,
    check_vertex,
    parse_vertex,
)
from .errors import DEFAULT_BUDGET, ParseError, check_budget


@dataclass(frozen=True)
class SteinerInstance:
    """A terminal set to span; duplicates are rejected at construction."""

    dim: Dimension
    terminals: VertexSet

    def __post_init__(self) -> None:
        if len(self.terminals) < 1:
            raise ValueError("instance needs at least one terminal")
        if self.terminals.dim != self.dim:
            raise ValueError("terminal set built under a different dimension")

    @classmethod
    def from_vertices(cls, dim: Dimension, vertices: Iterable[int]) -> "SteinerInstance":
        vs = [check_vertex(dim, v) for v in vertices]
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate terminals rejected")
        return cls(dim, VertexSet.of(dim, vs))


@dataclass(frozen=True)
class SteinerTree:
    """An edge set spanning its terminals. Building one checks nothing:
    a tree is certified connected, acyclic, inside Q_n and spanning its
    terminals only by `validate_tree`, which every tree the package
    reports has passed (`_certified_tree`)."""

    dim: Dimension
    edges: frozenset[Edge]
    vertices: frozenset[int]


def validate_tree(tree: SteinerTree, terminals: Iterable[int]) -> None:
    """Re-check every SteinerTree invariant; raises ValueError on failure.

    Checks that every vertex is a vertex of Q_n and every edge a canonical
    edge of Q_n (`check_edge`), the edge endpoints stay inside the vertex
    set, the edge count is |V|-1, one BFS reaches everything, the
    terminals are covered, and every leaf is a terminal (edge-minimality).
    """
    terms = set(terminals)
    if not terms <= tree.vertices:
        raise ValueError("tree does not contain all terminals")
    if len(tree.edges) != len(tree.vertices) - 1:
        raise ValueError(
            f"edge count {len(tree.edges)} != vertex count {len(tree.vertices)} - 1"
        )
    adjacency: dict[int, list[int]] = {check_vertex(tree.dim, v): [] for v in tree.vertices}
    for e in tree.edges:
        u, v = check_edge(tree.dim, e).endpoints()
        if u not in adjacency or v not in adjacency:
            raise ValueError(f"edge {e} leaves the tree's vertex set")
        adjacency[u].append(v)
        adjacency[v].append(u)
    root = min(tree.vertices)
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    if seen != tree.vertices:
        raise ValueError("tree is not connected")
    for v, adj in adjacency.items():
        if len(adj) <= 1 and v not in terms and len(tree.vertices) > 1:
            raise ValueError(f"non-terminal leaf {v}; tree is not edge-minimal")


def _certified_tree(
    dim: Dimension, edges: Iterable[Edge], terminals: Iterable[int]
) -> SteinerTree:
    """The tree on `edges` whose vertices are the terminals and the edge
    endpoints, checked by `validate_tree`: every Steiner tree the package
    reports is built here."""
    edges = frozenset(edges)
    vertices = set(terminals)
    for e in edges:
        vertices.update(e.endpoints())
    tree = SteinerTree(dim, edges, frozenset(vertices))
    validate_tree(tree, terminals)
    return tree


def _cut_tree(dim: Dimension, members: frozenset[int], terminals: Collection[int]) -> SteinerTree:
    """The `bfs_forest` spanning tree of the connected vertex set
    `members`, with each terminal outside it hung on its least neighbour
    inside it, cut down to the edges with a terminal on both sides: the
    unique smallest subtree spanning the terminals, certified by
    `_certified_tree`. `members` must dominate the terminals outside it,
    and `terminals` must answer membership tests in O(1).

    The witness of a Steiner-vertex search (members S + A for a minimum
    A) loses no edge to the cut, since every leaf of its BFS tree is then
    a terminal; `bounds.upper_bound_tree` cuts a connected dominating
    set's tree with it.
    """
    [parent] = bfs_forest(dim.n, members)
    for t in terminals:
        if t not in members:
            parent[t] = min(u for u in (t ^ (1 << b) for b in range(dim.n)) if u in members)

    # below[v] counts the terminals under v; children follow their parents
    # in `parent`, so a reverse pass finishes each count before it is read.
    s = len(terminals)
    below = {v: int(v in terminals) for v in parent}
    edges = []
    for v in reversed(parent):
        p = parent[v]
        if v != p:
            below[p] += below[v]
            if 0 < below[v] < s:
                edges.append(_edge(v, (v ^ p).bit_length() - 1))
    return _certified_tree(dim, edges, terminals)


def shortest_path(dim: Dimension, u: int, v: int) -> list[Edge]:
    """The canonical geodesic: flip differing bits in increasing order."""
    check_vertex(dim, u)
    check_vertex(dim, v)
    return _geodesic(u, v)


def steiner_brute_oracle(
    inst: SteinerInstance, *, budget: int = DEFAULT_BUDGET
) -> int:
    """Minimum |W| - 1 over supersets W of the terminals inducing a
    connected subgraph, found by increasing added-vertex count.

    Any connected W admits a spanning tree with |W| - 1 edges, and a
    Steiner tree's vertex set is such a W, so the first hit is exact. It
    shares no solver code with the DP or the Steiner-vertex search: its
    connectivity test, `bfs_forest`, is called by neither (`_cut_tree`
    uses it only to lay the search's witness tree once A is found), so it
    is the reference for both.
    """
    dim = inst.dim
    terms = frozenset(inst.terminals)
    check_budget("oracle vertex listing", dim.num_vertices - len(terms), budget)
    others = [v for v in range(dim.num_vertices) if v not in terms]
    examined = 0
    for extra in range(len(others) + 1):
        for added in combinations(others, extra):
            examined += 1
            check_budget("oracle superset enumeration", examined, budget)
            if len(bfs_forest(dim.n, terms.union(added))) == 1:
                return len(terms) + extra - 1
    raise AssertionError("hypercube is connected; some superset must work")


def _half_splits(mask: int) -> list[int]:
    """Submasks sub of mask with sub < mask ^ sub, in increasing order.

    These are the nonempty submasks of mask without its top bit, and
    `(sub - rest) & rest` steps from one to the next larger one.
    """
    rest = mask ^ (1 << (mask.bit_length() - 1))
    subs = []
    sub = -rest & rest
    while sub:
        subs.append(sub)
        sub = (sub - rest) & rest
    return subs


def _pmin(a: int, b: int, guard: int, shift: int) -> int:
    """Field-wise minimum of two packed rows whose fields are below the
    guard bit: the guard bit of (a | guard) - b survives where a >= b."""
    t = ((a | guard) - b) & guard
    return a ^ ((a ^ b) & ((t << 1) - (t >> shift)))


def _block_masks(n: int, w: int) -> list[int]:
    """low[b] is all ones on the w-bit fields of the vertices with bit b
    clear, for a row packing one w-bit field per vertex v of Q_n in bits
    w*v .. w*v + w - 1: the lower half of a row for b = n - 1, halved
    blocks below that."""
    low = [0] * n
    m = (1 << (w << n >> 1)) - 1
    for b in reversed(range(n)):
        low[b] = m
        m ^= m << (w << b >> 1)
    return low


def _across(row: int, lo: int, s: int) -> int:
    """Move every field of a row to the vertex across coordinate b, given
    lo = low[b] and s = w << b: the blocks of 2^b fields swap pairwise."""
    return ((row >> s) & lo) | ((row & lo) << s)


def _subset_dp(terms: list[int], weights: tuple[int, ...]) -> tuple[list[int], int]:
    """Every row dp[mask], mask = 0 .. 2^k - 1, packed, and the field width,
    on the cube Q_n, n = len(weights), whose edges across coordinate b
    cost weights[b] >= 1 (all ones is Q_n itself).

    dp[mask][v] is the least weight of a tree spanning the terminals
    selected by mask together with v (dp[0] is all zeros). Row dp[mask] is
    one int holding dp[mask][v] in bits w*v .. w*v + w - 1, with
    w = (k*sum(weights) + max(weights)).bit_length() + 1, the least width
    with k*sum(weights) + max(weights) < 2^(w-1).
    """
    k = len(terms)
    n = len(weights)
    w = (k * sum(weights) + max(weights)).bit_length() + 1
    ones = ((1 << (w << n)) - 1) // ((1 << w) - 1)
    guard = ones << (w - 1)
    shift = w - 1
    low = _block_masks(n, w)
    # the grow increments: weights[b] in every field
    inc = [ones * m for m in weights]

    dp = [0] * (1 << k)
    for i, t in enumerate(terms):
        # Weighted Hamming distance to t: weights[b] per coordinate b where
        # v differs from t.
        dp[1 << i] = sum(
            inc[b] & (low[b] if t >> b & 1 else ~low[b]) for b in range(n)
        )

    # Increasing numeric order visits every submask before its supersets.
    for mask in range(3, 1 << k):
        if not mask & (mask - 1):
            continue

        # Merge step: combine disjoint halves meeting at a common vertex.
        first, *rest = _half_splits(mask)
        arr = dp[first] + dp[mask ^ first]
        for sub in rest:
            arr = _pmin(arr, dp[sub] + dp[mask ^ sub], guard, shift)

        # Grow step: relax every vertex against its neighbour across bit b,
        # one coordinate at a time.
        for b, lo in enumerate(low):
            arr = _pmin(arr, _across(arr, lo, w << b) + inc[b], guard, shift)

        dp[mask] = arr

    return dp, w


def _dp_projection(n: int, k: int) -> int:
    """The up-front ceiling on one exact solve of a k-set of Q_n, k >= 1:
    the rooted DP's 2^(k-1) rows times 2^c fields a row, at the most
    column classes a k-set can have, c = min(n, 2^(k-1) - 1). It bounds
    what `_dp_solve` charges on the column classes of any k-set of Q_n.
    `_solve` charges it before a search, where n < k <= 2^(k-1) makes it
    2^(k-1) 2^n, above the search's 2^n-bit masks; the `sdiam` sweep
    charges it once per swept set."""
    rows = 1 << (k - 1)
    return rows << min(n, rows - 1)


class _OutOfAllowance(Exception):
    """The Steiner-vertex search charged more than its allowance."""


def _steiner_vertex_search(
    n: int, terms: list[int], allowance: int
) -> Optional[tuple[int, ...]]:
    """A minimum vertex set A, in the order its vertices were added, for
    which terms + A induces a connected subgraph of Q_n, or None once the
    search has charged more than `allowance`.

    Inside the search, vertex sets are bitmasks over the 2^n vertices.
    Each component of terms + A is kept with its outside neighbourhood, and
    one step, `cube._join`, makes every state from a vertex and its closed
    ball (`_closed_ball`): the start state is the fold of `_join` over the
    terminals from no component, sorted once by lowest member (the order
    `bfs_forest` gives), and each child is `_join` of its parent's state
    and the added vertex. A node branches on the first component with the
    fewest non-excluded outside neighbours, one of which must join A,
    tries them in increasing order, and excludes each tried vertex from
    its later siblings. One vertex merges at most n components, so c
    components need ceil((c - 1)/(n - 1)) more vertices; a node needing
    more than its limit leaves is cut. The limit on |A| deepens from that
    bound at the root, so the first hit is minimum. Each node is charged
    its component count + 1.
    """
    # Q_1 is connected, so there c = 1 and the divisor never matters.
    per = max(n - 1, 1)
    spent = 0

    def search(
        comps: list[tuple[int, int]], added: tuple[int, ...], excluded: int, left: int
    ) -> Optional[tuple[int, ...]]:
        nonlocal spent
        c = len(comps)
        spent += c + 1
        if spent > allowance:
            raise _OutOfAllowance
        if c == 1:
            return added
        if -((c - 1) // -per) > left:
            return None
        cands = min((nbrs & ~excluded for _, nbrs in comps), key=int.bit_count)
        while cands:
            bit = cands & -cands
            v = bit.bit_length() - 1
            child = _join(comps, v, _closed_ball(n, v))
            found = search(child, added + (v,), excluded, left - 1)
            if found is not None:
                return found
            excluded |= bit
            cands ^= bit
        return None

    comps: list[tuple[int, int]] = []
    for t in terms:
        comps = _join(comps, t, _closed_ball(n, t))
    comps.sort(key=lambda pair: pair[0] & -pair[0])
    limit = -((len(comps) - 1) // -per)
    try:
        while (found := search(comps, (), 0, limit)) is None:
            limit += 1
    except _OutOfAllowance:
        return None
    return found


def _columns(terms: tuple[int, ...]) -> dict[int, int]:
    """The nonzero columns of S, as {coordinate bit: column}, where bit j
    of a column is that coordinate's bit in terms[j + 1] ^ terms[0]; a
    coordinate whose column is zero is left out.

    One pass over the set bits of each t ^ terms[0]. The one reading of a
    terminal set's columns: `_column_classes` groups them into the DP's
    reduction, and `bounds.sdiam_sandwich` keys its memo by their sorted
    values, the column multiset of the module docstring's lemma.
    """
    r = terms[0]
    columns: dict[int, int] = {}
    for j, t in enumerate(terms[1:]):
        x = t ^ r
        while x:
            bit = x & -x
            columns[bit] = columns.get(bit, 0) | 1 << j
            x ^= bit
    return columns


def _column_classes(terms: tuple[int, ...]) -> tuple[list[int], int, tuple[int, ...]]:
    """S's column classes as the reduction `_dp_solve` takes: the
    coordinate masks of the classes, in order of each class's lowest
    coordinate, the base r = terms[0], and the reduced terminals.

    Coordinates with equal `_columns` form a class. All coordinates of a
    class share its column, so each t ^ r holds all of a class's
    coordinates or none, and reduced terminal x_j (for terms[j]) has bit
    i set where bit j - 1 of class i's column is, read off the set bits
    of each class's column: r ^ lift(x_j) = terms[j] and x_0 = 0.
    """
    classes: dict[int, int] = {}
    for bit, column in sorted(_columns(terms).items()):
        classes[column] = classes.get(column, 0) | bit
    reduced = [0] * len(terms)
    for i, column in enumerate(classes):
        while column:
            low = column & -column
            reduced[low.bit_length()] |= 1 << i
            column ^= low
    return list(classes.values()), terms[0], tuple(reduced)


def _dp_solve(
    masks: list[int], base: int, terms: tuple[int, ...], budget: int, *, witness: bool
) -> tuple[int, Optional[set[Edge]]]:
    """d(S) from the rooted DP on the reduced cube Q_c, c = len(masks),
    and, with `witness`, the Q_n edges of the tree rebuilt from its
    values; without `witness` the edges are None for k > 1.

    Direction i of Q_c stands for the coordinates of masks[i] (disjoint
    and nonempty) and weighs their count (`_subset_dp`). `terms` are the
    reduced terminals, a nonempty tuple of distinct vertices of Q_c;
    reduced vertex x stands for base ^ lift(x) of Q_n, lift(x) the OR of
    masks[i] over the bits i of x. `_column_classes` gives S's reduction;
    one class per coordinate with base 0 is S itself on unit weights.
    The DP is rooted at r = terms[0] (Dreyfus-Wagner): it runs over the
    other k - 1 terminals only, and d(S) = dp[full][r] with full the mask
    of all of them, since a tree spanning them together with r spans S.
    A single terminal returns before any row is built, and is charged
    nothing; otherwise the budget is charged the 2^(k-1) rows of 2^c
    fields before the first is built. The tree is rebuilt from the packed
    values, starting at (full, r), and each edge is lifted as it is
    emitted: an edge across i at x (bit i clear) becomes the m_i cube
    edges that flip masks[i]'s coordinates in increasing order from
    base ^ lift(x). Their count must equal d(S); the caller certifies the
    tree.
    """
    k = len(terms)
    if k == 1:
        return 0, set()

    weights = tuple(m.bit_count() for m in masks)
    root, others = terms[0], terms[1:]
    full = (1 << (k - 1)) - 1
    check_budget("subset DP states", (full + 1) << len(masks), budget)
    dp, w = _subset_dp(others, weights)
    field = (1 << w) - 1
    dist = dp[full] >> (w * root) & field
    if not witness:
        return dist, None

    def lift(e: Edge) -> list[Edge]:
        i = e.bit_index
        x = e.even_end & ~(1 << i)
        # the masks are disjoint, so their sum is their OR
        v = base ^ sum(m for j, m in enumerate(masks) if x >> j & 1)
        return _geodesic(v, v ^ masks[i])

    edges: set[Edge] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if mask & (mask - 1) == 0:
            for e in _geodesic(others[mask.bit_length() - 1], v):
                edges.update(lift(e))
            continue
        row = dp[mask]
        at = w * v
        here = row >> at & field
        for sub in _half_splits(mask):
            if (dp[sub] >> at & field) + (dp[mask ^ sub] >> at & field) == here:
                stack.append((sub, v))
                stack.append((mask ^ sub, v))
                break
        else:
            u = min(
                v ^ (1 << b)
                for b, m in enumerate(weights)
                if row >> (w * (v ^ (1 << b))) & field == here - m
            )
            edges.update(lift(_edge(v, (u ^ v).bit_length() - 1)))
            stack.append((mask, u))

    if len(edges) != dist:
        raise AssertionError(f"lifted tree has {len(edges)} edges but DP value is {dist}")
    return dist, edges


def _solve(
    dim: Dimension, terms: tuple[int, ...], budget: int, *, witness: bool
) -> tuple[int, Optional[SteinerTree]]:
    """The dispatch behind `steiner_distance` and `steiner_exact` (see the
    module docstring): where S has more terminals than Q_n has coordinates
    (n < k), the budget charge `_dp_projection`, then the Steiner-vertex
    search within the rooted DP's work on Q_n, whose witness is
    `_cut_tree` of S + A; every other set and a search past its allowance
    go to `_dp_solve` on S's column classes, which charges the rows it
    builds.
    `terms` is sorted, nonempty and inside Q_n, as a `SteinerInstance`
    holds it; nothing here checks that again. Without `witness` the tree
    is None."""
    k = len(terms)
    n = dim.n
    if n < k:
        check_budget("subset DP states", _dp_projection(n, k), budget)
        allowance = (3 ** (k - 1) - (1 << k) + 1) // 2 + ((1 << (k - 1)) - k) * n
        added = _steiner_vertex_search(n, terms, allowance)
        if added is not None:
            dist = k - 1 + len(added)
            if not witness:
                return dist, None
            terminals = frozenset(terms)
            return dist, _cut_tree(dim, terminals.union(added), terminals)
    dist, edges = _dp_solve(*_column_classes(terms), budget, witness=witness)
    return dist, _certified_tree(dim, edges, terms) if witness else None


def steiner_distance(inst: SteinerInstance, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact Steiner distance without a witness tree.

    Same dispatch and budget charges as `steiner_exact`, so both exit on
    the same sets and agree on every value; only the witness is skipped.
    """
    return _solve(inst.dim, inst.terminals.members, budget, witness=False)[0]


def steiner_exact(
    inst: SteinerInstance, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, SteinerTree]:
    """Exact Steiner distance plus a witness tree checked by `validate_tree`.

    When the Steiner-vertex search finds a minimum A, the witness is
    `_cut_tree` of S + A, the whole BFS spanning tree of S + A with
    |S| + |A| - 1 = d(S) edges (the cut drops none); otherwise
    it is the rooted DP's tree on S's column classes, lifted back to Q_n
    (`_dp_solve`).
    """
    dist, tree = _solve(inst.dim, inst.terminals.members, budget, witness=True)
    assert tree is not None
    return dist, tree


def parse_instance_text(text: str) -> SteinerInstance:
    """Instance format: first line "n=<int>" with a plain decimal integer
    (`canonical_int`), then one vertex string per line; blank lines and '#'
    comments are skipped."""
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    if not lines:
        raise ParseError("empty instance: no 'n=' header found")
    header = lines[0]
    if not header.startswith("n="):
        raise ParseError(f"first line must be 'n=<int>', got {header!r}")
    try:
        dim = Dimension(canonical_int(header[2:]))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    vertices = [parse_vertex(dim, line) for line in lines[1:]]
    if not vertices:
        raise ParseError("instance lists no terminals")
    if len(set(vertices)) != len(vertices):
        raise ParseError("duplicate terminal in instance file")
    return SteinerInstance(dim, VertexSet.of(dim, vertices))


def load_instance(path: str) -> SteinerInstance:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"instance file {path!r} is not UTF-8: {exc}") from None
    return parse_instance_text(text)
