"""Core hypercube representation: vertices, edges, parity, adjacency.

Conventions used by every other module:

- A vertex of the n-cube is a plain int in [0, 2^n). Bit position i of the
  int holds coordinate v_i of the binary string v_0 v_1 ... v_{n-1}, so the
  LSB is coordinate 0.
- The text form of a vertex is the coordinate string "v_0 v_1 ... v_{n-1}"
  written without spaces; string position i is coordinate i. "110" with
  n=3 therefore denotes the int 0b011 = 3.
- Vertices with an even number of 1-bits form the even parity class, the
  others the odd class; the cube is bipartite between the two.
- An edge joins two vertices differing in exactly one bit. Its canonical
  form stores the even-parity endpoint plus the flipped bit's index, so
  equal edges compare equal bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations
from typing import Iterable, Iterator, NamedTuple

from .errors import DEFAULT_BUDGET, ParseError, check_budget

# Vertices are packed into one machine word.
MAX_DIMENSION = 64


@dataclass(frozen=True, order=True)
class Dimension:
    """The n of the n-cube. All other objects are interpreted under one."""

    n: int

    def __post_init__(self) -> None:
        # type(), not isinstance(): a bool is an int, but True is not n = 1
        if type(self.n) is not int or not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"dimension must be an int in [1, {MAX_DIMENSION}], got {self.n!r}")

    @property
    def num_vertices(self) -> int:
        return 1 << self.n

    @property
    def num_edges(self) -> int:
        # n * 2^(n-1)
        return self.n << (self.n - 1)

    @property
    def coord_mask(self) -> int:
        return (1 << self.n) - 1


def check_vertex(dim: Dimension, v: int) -> int:
    """Validate that v is a vertex of Q_n, a plain int (not a bool) in
    range; returns v for chaining."""
    if type(v) is not int or not 0 <= v < dim.num_vertices:
        raise ValueError(f"vertex {v!r} not valid under dimension n={dim.n}")
    return v


def parity(v: int) -> int:
    """0 for the even class, 1 for the odd class."""
    return v.bit_count() & 1


def _closed_ball(n: int, v: int) -> int:
    """Membership mask over V(Q_n) of the already validated vertex v and
    its n neighbors: bit v and the n bits v ^ 2^b."""
    m = 1 << v
    for b in range(n):
        m |= 1 << (v ^ (1 << b))
    return m


def _coordinate_permutations(n: int) -> list[list[int]]:
    """Vertex-image tables of the n! - 1 non-identity permutations of the
    coordinates of Q_n, in `itertools.permutations` order. The table of
    p moves bit i of each vertex to bit p[i]; it is built by the low-bit
    recurrence img[v] = img[v & (v-1)] | 1 << p[i], i the lowest set bit
    of v. Every table fixes vertex 0 and maps edges to edges."""
    tables = []
    for p in islice(permutations(range(n)), 1, None):
        img = [0] * (1 << n)
        for v in range(1, 1 << n):
            img[v] = img[v & (v - 1)] | 1 << p[(v & -v).bit_length() - 1]
        tables.append(img)
    return tables


def hamming_distance(dim: Dimension, u: int, v: int) -> int:
    """Graph distance between two vertices of Q_n (popcount of the XOR)."""
    check_vertex(dim, u)
    check_vertex(dim, v)
    return (u ^ v).bit_count()


def neighbors(dim: Dimension, v: int) -> list[int]:
    """The n vertices at distance 1, in increasing flipped-bit order."""
    check_vertex(dim, v)
    return [v ^ (1 << i) for i in range(dim.n)]


class Edge(NamedTuple):
    """Canonical hypercube edge: even endpoint plus flipped bit index."""

    even_end: int
    bit_index: int

    @property
    def odd_end(self) -> int:
        return self.even_end ^ (1 << self.bit_index)

    def endpoints(self) -> tuple[int, int]:
        return self.even_end, self.odd_end


def _edge(v: int, bit: int) -> Edge:
    """Canonical edge flipping `bit` at the already validated vertex v."""
    return Edge(v if parity(v) == 0 else v ^ (1 << bit), bit)


def _geodesic(u: int, v: int) -> list[Edge]:
    """The canonical geodesic between two already validated vertices:
    flip the differing bits in increasing order."""
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


def edge_between(dim: Dimension, u: int, v: int) -> Edge:
    """Canonical edge on {u, v}; the endpoints must differ in one bit."""
    check_vertex(dim, u)
    check_vertex(dim, v)
    diff = u ^ v
    if diff.bit_count() != 1:
        raise ValueError(f"vertices {u} and {v} are not adjacent in Q_{dim.n}")
    return _edge(u, diff.bit_length() - 1)


def bfs_forest(n: int, vertices: Iterable[int]) -> list[dict[int, int]]:
    """BFS spanning trees of the subgraph of Q_n induced by `vertices`.

    One {vertex: parent} map per connected component, ordered by smallest
    member. Each component is rooted at its smallest member, which maps to
    itself, and its keys appear in BFS order, neighbors taken by flipping
    bits in increasing order. The vertices must already be valid.
    """
    remaining = set(vertices)
    forest = []
    for root in sorted(remaining):
        if root not in remaining:
            continue
        remaining.discard(root)
        tree = {root: root}
        queue = [root]
        for u in queue:
            for b in range(n):
                w = u ^ (1 << b)
                if w in remaining:
                    remaining.discard(w)
                    tree[w] = u
                    queue.append(w)
        forest.append(tree)
    return forest


def check_edge(dim: Dimension, e: Edge) -> Edge:
    check_vertex(dim, e.even_end)
    if parity(e.even_end) != 0:
        raise ValueError(f"edge {e} does not store its even endpoint")
    if type(e.bit_index) is not int:
        raise ValueError(f"edge {e} has bit index {e.bit_index!r}, not an int")
    if not 0 <= e.bit_index < dim.n:
        raise ValueError(f"edge {e} flips bit {e.bit_index}, outside n={dim.n}")
    return e


def all_edges(dim: Dimension, *, budget: int = DEFAULT_BUDGET) -> list[Edge]:
    """All n*2^(n-1) canonical edges, ordered by (even_end, bit_index)."""
    check_budget("all_edges enumeration", dim.num_edges, budget)
    return [
        Edge(v, b)
        for v in range(dim.num_vertices)
        if parity(v) == 0
        for b in range(dim.n)
    ]


@dataclass(frozen=True)
class VertexSet:
    """An ordered, duplicate-free set of vertices under one dimension.

    Keeps both a sorted tuple (deterministic iteration) and a frozenset
    (membership tests).
    """

    dim: Dimension
    members: tuple[int, ...]

    @classmethod
    def of(cls, dim: Dimension, vertices: Iterable[int]) -> "VertexSet":
        return cls(dim, tuple(sorted(set(vertices))))

    def __post_init__(self) -> None:
        for prev, cur in zip(self.members, self.members[1:]):
            if prev >= cur:
                raise ValueError("VertexSet members must be strictly increasing")
        for v in self.members:
            check_vertex(self.dim, v)
        object.__setattr__(self, "_set", frozenset(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, v: object) -> bool:
        return v in self._set

    def to_strings(self) -> list[str]:
        return [vertex_to_string(self.dim, v) for v in self.members]


def parity_class(
    dim: Dimension, par: int, *, budget: int = DEFAULT_BUDGET
) -> VertexSet:
    """The 2^(n-1) vertices of the requested parity (0 even, 1 odd)."""
    if type(par) is not int or par not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {par!r}")
    check_budget("parity_class enumeration", dim.num_vertices, budget)
    return VertexSet.of(
        dim, (v for v in range(dim.num_vertices) if parity(v) == par)
    )


def vertex_to_string(dim: Dimension, v: int) -> str:
    """Coordinate string v_0 v_1 ... v_{n-1} (position i = coordinate i)."""
    check_vertex(dim, v)
    return format(v, f"0{dim.n}b")[::-1]


def canonical_int(text: str) -> int:
    """A non-negative integer read from outside the program, in its one
    canonical spelling: ASCII digits with no sign, space, '_' or leading
    zero ("0" itself is fine)."""
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and text != "0"):
        raise ParseError(f"expected a plain decimal integer, got {text!r}")
    return int(text)


def parse_vertex(dim: Dimension, s: str) -> int:
    """Inverse of vertex_to_string; rejects wrong length or characters."""
    if len(s) != dim.n:
        raise ParseError(
            f"vertex string {s!r} has length {len(s)}, expected n={dim.n}"
        )
    bits = 0
    for i, ch in enumerate(s):
        if ch == "1":
            bits |= 1 << i
        elif ch != "0":
            raise ParseError(f"vertex string {s!r} has non-binary character {ch!r}")
    return bits
