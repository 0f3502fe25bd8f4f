"""Exact Steiner distance and Steiner trees in the hypercube.

The Steiner distance of a terminal set S is the minimum edge count of a
connected subgraph of Q_n whose vertex set contains S; a minimum subgraph
is always a tree. Two independent routes compute it:

- steiner_brute_oracle: enumerate vertex supersets W of S by increasing
  size and return |W| - 1 for the first W that induces a connected
  subgraph. Slow but transparently correct; the reference the DP is
  validated against.
- steiner_exact: subset dynamic programming over (terminal subset, vertex)
  states with merge and grow transitions, the standard exact algorithm.
  The cube stays implicit; neighbors are computed by bit flips. Runs in
  O(3^k 2^n + 2^k 2^n n) time and returns a witness tree.

Witnesses are rebuilt from the DP values alone, deterministically. At a
state (mask, v) the first half-split of mask, in increasing submask order,
whose two values sum to dp[mask][v] is followed; failing that, the smallest
neighbor u with dp[mask][u] = dp[mask][v] - 1 is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add
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
    """Submasks sub of mask with sub < mask ^ sub, in increasing order."""
    subs = []
    sub = mask & (mask - 1)
    while sub:
        if sub < (mask ^ sub):
            subs.append(sub)
        sub = (sub - 1) & mask
    subs.reverse()
    return subs


def steiner_exact(
    inst: SteinerInstance, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, SteinerTree]:
    """Exact Steiner distance plus a witness tree.

    dp[mask][v] is the minimum edge count of a tree spanning the terminals
    selected by mask together with v. Singleton layers are Hamming
    distances; larger layers combine merges at a shared vertex with a
    unit-weight relaxation (bucketed BFS) across the implicit cube.
    """
    dim = inst.dim
    terms = list(inst.terminals)
    k = len(terms)
    n = dim.n
    nverts = dim.num_vertices

    if k == 1:
        tree = SteinerTree(dim, frozenset(), frozenset(terms))
        return 0, tree

    projected = (1 << k) * nverts
    check_budget("subset DP states", projected, budget)

    full = (1 << k) - 1
    dp: list[list[int]] = [[]] * (1 << k)
    for i, t in enumerate(terms):
        dp[1 << i] = [(t ^ v).bit_count() for v in range(nverts)]

    masks_by_size = sorted(range(1, full + 1), key=lambda m: (m.bit_count(), m))
    for mask in masks_by_size:
        if mask.bit_count() < 2:
            continue

        # Merge step: combine disjoint halves meeting at a common vertex.
        first, *rest = _half_splits(mask)
        arr = list(map(add, dp[first], dp[mask ^ first]))
        for sub in rest:
            left = dp[sub]
            right = dp[mask ^ sub]
            for v in range(nverts):
                c = left[v] + right[v]
                if c < arr[v]:
                    arr[v] = c

        # Grow step: unit-weight relaxation from all merged values.
        buckets: dict[int, list[int]] = {}
        for v, c in enumerate(arr):
            buckets.setdefault(c, []).append(v)
        d = min(buckets)
        while buckets:
            for v in buckets.pop(d, ()):
                if arr[v] != d:
                    continue
                for b in range(n):
                    u = v ^ (1 << b)
                    if arr[u] > d + 1:
                        arr[u] = d + 1
                        buckets.setdefault(d + 1, []).append(u)
            d += 1

        dp[mask] = arr

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
        return parse_instance_text(fh.read())
