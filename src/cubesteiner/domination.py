"""Dominating and connected dominating sets of the hypercube.

A set dominates Q_n when every vertex either belongs to it or has a
neighbor in it. Constructions provided:

- greedy: repeatedly take the vertex covering the most uncovered vertices
  (ties to the smallest vertex int). Dominating, rarely connected. A lazy
  heap of stale gains, which only fall, recomputes only the gains that
  reach its top; the budget caps 2^n gains per pick, summed over the
  picks, which bounds what the heap recomputes.
- hamming_code: for n = 2^m - 1, the perfect single-error-correcting code
  of length n; its distance-1 balls tile the cube, so it dominates with
  exactly 2^n/(n+1) words, pairwise at distance >= 3 (never connected for
  n >= 3); the budget caps the 2^n words it scans.
- steinerize: connect a disconnected dominating set by repeatedly joining
  the two closest components along a deterministic geodesic. Components
  live in a union-find, and each vertex probes the distance-d rings
  around it, d = 2 and 3, once, when it enters the set, pushing the cross
  pairs it finds onto one heap (a dominating set's closest components
  lie within distance 3); each round pops the least pair still across
  two components, and the budget caps the probes, C(n, 2) + C(n, 3) per
  vertex.
- exact: a minimum connected dominating set for n <= 5 from one function,
  `exact_connected_dominating_set`: a pruned branch and bound that keeps
  its chosen set as components with their outside neighborhoods, made by
  the join step `cube._join` that the Steiner-vertex search uses too, and
  settles its last vertex in one step instead of branching on it.
  It cuts a node when each vertex still to be added, newly covering at
  most n - 1 vertices because the final set is connected, cannot cover
  the rest; and once a child is refuted it excludes the child's whole
  orbit under the coordinate permutations that fix the node.

`cds_constructions` is the one policy for which of these are affordable
at a given n and which connected set is best. A DominatingSetCertificate
checks domination and computes its size and connectivity itself when it
is built, so a certificate that exists is correct and no constructor is
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from itertools import combinations

from .cube import (
    Dimension,
    VertexSet,
    _closed_ball,
    _coordinate_permutations,
    _geodesic,
    _join,
    bfs_forest,
)
from .errors import DEFAULT_BUDGET, check_budget

METHODS = ("greedy", "hamming_code", "exact", "steinerized")


def closed_neighborhood_masks(dim: Dimension) -> list[int]:
    """closed[v] = membership mask over V(Q_n) of v and its n neighbors."""
    return [_closed_ball(dim.n, v) for v in range(dim.num_vertices)]


def is_connected_subset(members: VertexSet) -> bool:
    return len(bfs_forest(members.dim.n, members)) == 1


def is_dominating(members: VertexSet) -> bool:
    """Whether the closed neighborhoods of the members cover all 2^n
    vertices: the OR of one `_closed_ball` mask per member, O(|members| n)
    bit sets. A set below the sphere-covering floor cannot cover them and
    is answered before any mask is built."""
    dim = members.dim
    if len(members) < sphere_covering_floor(dim):
        return False
    covered = 0
    for v in members:
        covered |= _closed_ball(dim.n, v)
    return covered == (1 << dim.num_vertices) - 1


@dataclass(frozen=True)
class DominatingSetCertificate:
    """A dominating set, checked on build; its connectivity is computed
    once here rather than claimed by the constructor."""

    vertex_set: VertexSet
    method: str
    connected: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown construction method {self.method!r}")
        if not is_dominating(self.vertex_set):
            raise ValueError(f"{self.method} set does not dominate the cube")
        object.__setattr__(self, "connected", is_connected_subset(self.vertex_set))

    @property
    def size(self) -> int:
        return len(self.vertex_set)

    @property
    def dim(self) -> Dimension:
        return self.vertex_set.dim


def sphere_covering_floor(dim: Dimension) -> int:
    """ceil(2^n / (n+1)): each vertex covers itself and n neighbors."""
    return -(dim.num_vertices // -(dim.n + 1))


def greedy_dominating_set(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> DominatingSetCertificate:
    """Max-coverage greedy; deterministic via smallest-vertex tie-breaks.

    Lazy greedy (Minoux): a heap holds (-gain, v) with each vertex's gain
    as last computed. A vertex's gain only falls as vertices are covered,
    so a stale key bounds its true gain from above. Each pick pops the
    top, recomputes its gain and takes it when the gain equals its key:
    every other vertex then gains at most as much, and any tied vertex
    has a key at least that gain and so would sort first if smaller.
    Otherwise the vertex goes back with its true gain. Within one pick a
    vertex is recomputed at most once, and the taken one at most twice, so
    a pick computes at most 2^n + 1 gains. The budget caps the running total
    picks x 2^n, checked before each pick and, at the sphere-covering
    floor of picks, before the 2^n masks are built.
    """
    size = dim.num_vertices
    check_budget("greedy domination sweep", sphere_covering_floor(dim) * size, budget)
    closed = closed_neighborhood_masks(dim)
    uncovered = (1 << size) - 1
    # every vertex first covers its n + 1 closed neighbors; sorted, so a heap
    heap = [(-(dim.n + 1), v) for v in range(size)]
    chosen: list[int] = []
    while uncovered:
        check_budget("greedy domination sweep", (len(chosen) + 1) * size, budget)
        key, v = heap[0]
        while (gain := (uncovered & closed[v]).bit_count()) != -key:
            heapreplace(heap, (-gain, v))
            key, v = heap[0]
        heappop(heap)
        chosen.append(v)
        uncovered &= ~closed[v]
    return DominatingSetCertificate(VertexSet.of(dim, chosen), "greedy")


def hamming_code_dominating_set(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> DominatingSetCertificate:
    """The length-n perfect code as a dominating set, for n = 2^m - 1.

    A word belongs to the code iff its syndrome, the XOR of (i+1) over its
    set bit positions i, vanishes. A non-codeword has nonzero syndrome s
    and is at distance 1 from exactly one codeword (flip position s-1), so
    the distance-1 balls tile the cube: 2^n/(n+1) words, perfect covering.
    Each word's syndrome is that of the word without its lowest set bit,
    XOR that bit's position + 1. The budget is charged the 2^n syndromes
    before the first.
    """
    n = dim.n
    if (n + 1) & n:
        raise ValueError(f"perfect code needs n = 2^m - 1, got n={n}")
    check_budget("perfect code enumeration", dim.num_vertices, budget)
    syndrome = [0] * dim.num_vertices
    for v in range(1, dim.num_vertices):
        syndrome[v] = syndrome[v & (v - 1)] ^ (v & -v).bit_length()
    codewords = [v for v, s in enumerate(syndrome) if s == 0]
    return DominatingSetCertificate(VertexSet.of(dim, codewords), "hamming_code")


def steinerize(
    members: VertexSet, *, budget: int = DEFAULT_BUDGET
) -> DominatingSetCertificate:
    """Connect a dominating set by joining closest component pairs.

    Each round adds the interior of one deterministic geodesic between the
    two components at minimum Hamming distance (ties: smallest vertex
    pair), merging them; a superset of a dominating set still dominates.

    The components live in a union-find over the current vertices, and
    one heap holds cross pairs (distance, low, high) at distance 2 and 3.
    A vertex enters the set once: each member at the start, each geodesic
    interior vertex in a later round. On entering it is united with its
    current neighbors, which also merges any third component an interior
    vertex touches, and then probes its rings v = u ^ x, popcount(x) = d,
    for d = 2, 3 (those that fit in Q_n), pushing every current v in
    another component. Every pair of current vertices is thus seen once,
    by whichever end entered later, so no two components are adjacent and
    the heap holds every cross pair at distance <= 3; pairs whose ends
    have since merged are dropped when they reach the top. Each round pops
    the least pair still across two components. That is the least
    (distance, low, high) over all cross pairs, because a dominating set's
    closest components lie within distance 3, as do those of every
    superset the rounds build. So the heap runs empty exactly when one
    component is left, and each merge adds at most min(2, n-1) vertices.
    The budget caps the running total of probes, C(n, 2) + C(n, 3) per
    entering vertex, checked before each batch of entering vertices: on
    the greedy set of Q_9 that is 120 x 113 = 13,560.
    """
    if not is_dominating(members):
        raise ValueError("steinerize requires a dominating input set")
    n = members.dim.n
    ring = [
        sum(1 << b for b in bits) for d in (2, 3) for bits in combinations(range(n), d)
    ]
    root: dict[int, int] = {}

    def find(v: int) -> int:
        # with path halving
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    heap: list[tuple[int, int, int]] = []
    batch, probes = list(members), 0
    while True:
        probes += len(batch) * len(ring)
        check_budget("steinerize pair scan", probes, budget)
        for u in batch:
            # u enters as the root of its neighbors' components
            root[u] = u
            for bit in range(n):
                if (v := u ^ (1 << bit)) in root:
                    root[find(v)] = u
            for v in root.keys() & map(u.__xor__, ring):
                if find(v) != u:
                    heappush(heap, ((u ^ v).bit_count(), min(u, v), max(u, v)))
        while heap and find(heap[0][1]) == find(heap[0][2]):
            heappop(heap)
        if not heap:
            break
        _, low, high = heappop(heap)
        path = {v for e in _geodesic(low, high) for v in e.endpoints()}
        batch = list(path - root.keys())
    return DominatingSetCertificate(VertexSet.of(members.dim, root), "steinerized")


def exact_connected_dominating_set(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> DominatingSetCertificate:
    """A minimum connected dominating set for n <= 5, by branch and bound.

    By vertex-transitivity some minimum certificate contains vertex 0.
    Each node branches on which closed-neighborhood member covers the
    smallest uncovered vertex, with tried candidates excluded down the
    remaining branches; the sizes are tried in increasing order from the
    sphere-covering floor, so the first witness found is minimum. The
    chosen set is carried as its components, each a vertex mask with its
    outside neighborhood: the root is `_join` of vertex 0 and no
    component, and each child is `_join` of its parent's components, the
    added vertex and that vertex's closed-neighborhood mask. A node whose
    chosen set covers the cube succeeds exactly when one component is
    left. Two cuts prune only subtrees that hold no witness, so the search
    meets the same first witness as the full branching:

    - Coverage. The final set S is connected and holds the nonempty chosen
      set M, so the vertices of S outside M can be ordered with each one
      adjacent to an earlier vertex w of S. That vertex and w both lie in
      the already covered N[w], so it newly covers at most n - 1
      vertices, and a node whose uncovered vertices need more than the
      size limit allows is cut (the divisor is 1 at n = 1, where vertex
      0 alone covers Q_1).
    - Orbits. The coordinate permutations fix vertex 0 and act on the
      search. Each node carries, as vertex-image tables, permutations that
      fix its chosen set and its excluded set; the root carries all
      n! - 1 non-identity ones. Once a child c is refuted, its whole orbit
      under the node's tables is excluded: a witness through g(c) would map
      under g^-1 to one through c. A child keeps the tables that fix c,
      which are exactly those that fix its chosen and excluded sets, since
      the excluded set grows by whole orbits; deep nodes carry none.

    A node with one vertex left to add does not branch. That vertex must
    cover every uncovered vertex, so it lies outside the chosen set M, and
    M plus it is connected exactly when it lies in the outside
    neighborhood of every component of M. So the candidates are the
    non-excluded members of the intersection of those closed and outside
    neighborhoods; they are exactly the children that would succeed, every
    other child failing at once, and the lowest is the first witness of
    the full branching. Only the nodes that are entered are charged: the
    budget caps their count (8 for Q_3, 43 for Q_4, 4,372 for Q_5).
    """
    if dim.n > 5:
        raise ValueError("exact connected domination limited to n <= 5")
    closed = closed_neighborhood_masks(dim)
    full = (1 << dim.num_vertices) - 1
    ball = max(dim.n - 1, 1)
    nodes = 0

    def search(
        comps: list[tuple[int, int]],
        covered: int,
        excluded: int,
        left: int,
        group: list[list[int]],
    ) -> int:
        # returns the witness mask, or 0; `left` vertices may still be
        # added, excluded vertices lie in no witness down this subtree, and
        # every table in `group` fixes both the chosen set and `excluded`
        # setwise
        nonlocal nodes
        nodes += 1
        check_budget("connected domination search", nodes, budget)
        if covered == full:
            return comps[0][0] if len(comps) == 1 else 0
        uncovered = full & ~covered
        if -(uncovered.bit_count() // -ball) > left:
            return 0
        if left == 1:
            cand = full & ~excluded
            for _, nbrs in comps:
                cand &= nbrs
            while uncovered and cand:
                low = uncovered & -uncovered
                cand &= closed[low.bit_length() - 1]
                uncovered ^= low
            if not cand:
                return 0
            return sum(comp for comp, _ in comps) | (cand & -cand)
        cand = closed[(uncovered & -uncovered).bit_length() - 1] & ~excluded
        while cand:
            low = cand & -cand
            c = low.bit_length() - 1
            # `excluded` only ever grows by whole orbits of `group`, so the
            # child's group is the stabiliser of c
            stab = [g for g in group if g[c] == c]
            child = _join(comps, c, closed[c])
            found = search(child, covered | closed[c], excluded, left - 1, stab)
            if found:
                return found
            orbit = low
            for g in group:
                orbit |= 1 << g[c]
            excluded |= orbit
            cand &= ~orbit
        return 0

    perms = _coordinate_permutations(dim.n)
    for limit in range(sphere_covering_floor(dim), dim.num_vertices + 1):
        found = search(_join([], 0, closed[0]), closed[0], 0, limit - 1, perms)
        if found:
            members = [v for v in range(dim.num_vertices) if (found >> v) & 1]
            return DominatingSetCertificate(VertexSet.of(dim, members), "exact")
    raise AssertionError("unreachable; the full cube dominates itself")


def exact_connected_domination_number(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> int:
    """Size of `exact_connected_dominating_set` (n <= 5)."""
    return exact_connected_dominating_set(dim, budget=budget).size


def cds_constructions(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> tuple[dict[str, DominatingSetCertificate], DominatingSetCertificate]:
    """Every affordable construction for Q_n by name, and the best
    connected one.

    Builds, in this order and each once: "greedy", "steinerized_greedy",
    "hamming" and "steinerized_hamming" when n = 2^m - 1, and "exact"
    when n <= 4. The n = 5 search takes 0.014-0.018 s (five fresh
    processes on a shared 2-core Xeon), but the gate stays: at n = 5 its
    size-10 set would replace the size-12 steinerized greedy set that
    `cds --n 5` and `bound --n 5` print and the benchmark pins. The best
    is the smallest of the exact, steinerized greedy and steinerized
    perfect-code sets, ties kept in that order; a raw greedy or
    perfect-code set is never chosen.
    """
    built = {"greedy": greedy_dominating_set(dim, budget=budget)}
    built["steinerized_greedy"] = steinerize(built["greedy"].vertex_set, budget=budget)
    if (dim.n + 1) & dim.n == 0:
        built["hamming"] = hamming_code_dominating_set(dim, budget=budget)
        built["steinerized_hamming"] = steinerize(
            built["hamming"].vertex_set, budget=budget
        )
    if dim.n <= 4:
        built["exact"] = exact_connected_dominating_set(dim, budget=budget)
    ranked = ("exact", "steinerized_greedy", "steinerized_hamming")
    best = min((built[m] for m in ranked if m in built), key=lambda c: c.size)
    return built, best


def certificate_to_text(cert: DominatingSetCertificate) -> str:
    """Serialized block: method, size, connected flag, vertex strings."""
    lines = [
        f"method: {cert.method}",
        f"size: {cert.size}",
        f"connected: {str(cert.connected).lower()}",
        "vertices: " + " ".join(cert.vertex_set.to_strings()),
    ]
    return "\n".join(lines)
