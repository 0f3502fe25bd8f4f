"""Exact Steiner distance and Steiner trees in the hypercube.

The Steiner distance of a terminal set S is the minimum edge count of a
connected subgraph of Q_n whose vertex set contains S; a minimum subgraph
is always a tree. Two independent routes compute it:

- steiner_brute_oracle: enumerate vertex supersets W of S by increasing
  size and return |W| - 1 for the first W that induces a connected
  subgraph. Slow but transparently correct; the reference the DP is
  validated against.
- steiner_exact: subset dynamic programming (Dreyfus-Wagner) over
  (terminal subset, vertex) states with merge and grow transitions, in
  O(3^k 2^n + 2^k 2^n n) time, returning a witness tree.

The DP keeps each row dp[mask] (one value per vertex) packed in one Python
int, one w-bit field per vertex, and updates whole rows with big-int
arithmetic ("SIMD within a register"). Fields stay below the guard bit
2^(w-1), because dp[mask][v] is at most the sum of the Hamming distances
from v to the terminals in mask, hence at most k*n, and w is chosen with
k*n + 1 < 2^(w-1); so a sum of two rows or a row plus one never carries
into the next field, and the field-wise minimum reads the guard bit of
(a | guard) - b. The merge takes that minimum over the half-splits of a
mask; the grow is the separable L1 distance transform, one pass per
coordinate b relaxing every vertex against its neighbour across b.

Witnesses are rebuilt from the DP values alone, deterministically. At a
state (mask, v) the first half-split of mask, in increasing submask order,
whose two values sum to dp[mask][v] is followed; failing that, the smallest
neighbor u with dp[mask][u] = dp[mask][v] - 1 is.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .cube import (
    Dimension,
    Edge,
    VertexSet,
    bfs_forest,
    check_vertex,
    parity,
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
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate terminals rejected")
        return cls(dim, VertexSet.of(dim, vs))


@dataclass(frozen=True)
class SteinerTree:
    """An edge set certified connected, acyclic, spanning its terminals."""

    dim: Dimension
    edges: frozenset[Edge]
    vertices: frozenset[int]


def validate_tree(tree: SteinerTree, terminals: Iterable[int]) -> None:
    """Re-check every SteinerTree invariant; raises ValueError on failure.

    Checks that the edge endpoints stay inside the vertex set, the edge
    count is |V|-1, one BFS reaches everything, the terminals are covered,
    and every leaf is a terminal (edge-minimality).
    """
    terms = set(terminals)
    if not terms <= tree.vertices:
        raise ValueError("tree does not contain all terminals")
    if len(tree.edges) != len(tree.vertices) - 1:
        raise ValueError(
            f"edge count {len(tree.edges)} != vertex count {len(tree.vertices)} - 1"
        )
    adjacency: dict[int, list[int]] = {v: [] for v in tree.vertices}
    for e in tree.edges:
        u, v = e.endpoints()
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


def _edge(v: int, bit: int) -> Edge:
    """Canonical edge flipping `bit` at the already validated vertex v."""
    return Edge(v if parity(v) == 0 else v ^ (1 << bit), bit)


def shortest_path(dim: Dimension, u: int, v: int) -> list[Edge]:
    """The canonical geodesic: flip differing bits in increasing order."""
    check_vertex(dim, u)
    check_vertex(dim, v)
    path = []
    cur = u
    diff = u ^ v
    bit = 0
    while diff:
        if diff & 1:
            path.append(_edge(cur, bit))
            cur ^= 1 << bit
        diff >>= 1
        bit += 1
    return path


def steiner_brute_oracle(
    inst: SteinerInstance, *, budget: int = DEFAULT_BUDGET
) -> int:
    """Minimum |W| - 1 over supersets W of the terminals inducing a
    connected subgraph, found by increasing added-vertex count.

    Any connected W admits a spanning tree with |W| - 1 edges, and a
    Steiner tree's vertex set is such a W, so the first hit is exact.
    """
    dim = inst.dim
    terms = frozenset(inst.terminals)
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


_TYPECODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _subset_dp(terms: list[int], n: int) -> list[array]:
    """Every row dp[mask], mask = 0 .. 2^k - 1, one value per vertex.

    dp[mask][v] is the minimum edge count of a tree spanning the terminals
    selected by mask together with v (dp[0] is all zeros). Rows are
    computed packed, field v of a row in bits w*v .. w*v + w - 1, and
    unpacked into arrays at the end.
    """
    k = len(terms)
    w = next(w for w in (8, 16, 32, 64) if (k * n + 1).bit_length() + 1 <= w)
    total = w << n
    ones = ((1 << total) - 1) // ((1 << w) - 1)
    guard = ones << (w - 1)
    shift = w - 1
    # low[b] is all ones on the fields of the vertices with bit b clear:
    # the lower half of the row for b = n - 1, halved blocks below that.
    low = [0] * n
    m = (1 << (total >> 1)) - 1
    for b in reversed(range(n)):
        low[b] = m
        m ^= m << (w << b >> 1)

    dp = [0] * (1 << k)
    for i, t in enumerate(terms):
        # Hamming distance to t: one per coordinate where v differs from t.
        dp[1 << i] = sum(
            ones & (low[b] if t >> b & 1 else ~low[b]) for b in range(n)
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

        # Grow step: relax every vertex against its neighbour across bit b
        # (swap the blocks of 2^b fields), one coordinate at a time.
        for b, lo in enumerate(low):
            s = w << b
            across = ((arr >> s) & lo) | ((arr & lo) << s)
            arr = _pmin(arr, across + ones, guard, shift)

        dp[mask] = arr

    rows = []
    for packed in dp:
        row = array(_TYPECODES[w], packed.to_bytes(total >> 3, "little"))
        if sys.byteorder == "big":
            row.byteswap()
        rows.append(row)
    return rows


def steiner_exact(
    inst: SteinerInstance, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, SteinerTree]:
    """Exact Steiner distance plus a witness tree.

    dp[mask][v] is the minimum edge count of a tree spanning the terminals
    selected by mask together with v (see `_subset_dp`). Singleton rows are
    Hamming distances; a larger row is the field-wise minimum over merges
    at a shared vertex, followed by the separable grow across the n
    coordinates. Rows are packed w bits per vertex, the smallest w in
    8, 16, 32, 64 with k*n + 1 < 2^(w-1): every value is at most the
    summed Hamming distance from v to its terminals, at most k*n, so sums
    and +1 stay below the guard bit. The witness is rebuilt from the
    values and checked by `validate_tree`.
    """
    dim = inst.dim
    terms = list(inst.terminals)
    k = len(terms)
    n = dim.n

    if k == 1:
        tree = SteinerTree(dim, frozenset(), frozenset(terms))
        return 0, tree

    projected = (1 << k) * dim.num_vertices
    check_budget("subset DP states", projected, budget)

    full = (1 << k) - 1
    dp = _subset_dp(terms, n)

    root = terms[0]
    dist = dp[full][root]

    edges: set[Edge] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if mask & (mask - 1) == 0:
            edges.update(shortest_path(dim, terms[mask.bit_length() - 1], v))
            continue
        row = dp[mask]
        sub = next(
            (s for s in _half_splits(mask) if dp[s][v] + dp[mask ^ s][v] == row[v]),
            None,
        )
        if sub is not None:
            stack.append((sub, v))
            stack.append((mask ^ sub, v))
        else:
            u = min(v ^ (1 << b) for b in range(n) if row[v ^ (1 << b)] == row[v] - 1)
            edges.add(_edge(v, (u ^ v).bit_length() - 1))
            stack.append((mask, u))

    vertices: set[int] = set(terms)
    for e in edges:
        vertices.update(e.endpoints())
    tree = SteinerTree(dim, frozenset(edges), frozenset(vertices))
    if len(edges) != dist:
        raise AssertionError(
            f"witness has {len(edges)} edges but DP value is {dist}"
        )
    validate_tree(tree, inst.terminals)
    return dist, tree


def parse_instance_text(text: str) -> SteinerInstance:
    """Instance format: first line "n=<int>", then one vertex string per
    line; blank lines and '#' comments are skipped."""
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
        n = int(header[2:])
    except ValueError:
        raise ParseError(f"bad dimension in header {header!r}") from None
    try:
        dim = Dimension(n)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    vertices = [parse_vertex(dim, line) for line in lines[1:]]
    if not vertices:
        raise ParseError("instance lists no terminals")
    if len(set(vertices)) != len(vertices):
        raise ParseError("duplicate terminal in instance file")
    return SteinerInstance.from_vertices(dim, vertices)


def load_instance(path: str) -> SteinerInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"instance file {path!r} is not UTF-8: {exc}") from None
    return parse_instance_text(text)
