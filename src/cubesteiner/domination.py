"""Dominating and connected dominating sets of the hypercube.

A set dominates Q_n when every vertex either belongs to it or has a
neighbor in it. Constructions provided:

- greedy: repeatedly take the vertex covering the most uncovered vertices
  (ties to the smallest vertex int). Dominating, rarely connected; the
  budget caps the 2^n gains each pick scans, summed over the picks.
- hamming_code: for n = 2^m - 1, the perfect single-error-correcting code
  of length n; its distance-1 balls tile the cube, so it dominates with
  exactly 2^n/(n+1) words, pairwise at distance >= 3 (never connected for
  n >= 3); the budget caps the 2^n words it scans.
- steinerize: connect a disconnected dominating set by repeatedly joining
  the two closest components along a deterministic geodesic. Each round
  finds the closest pair by probing the distance-d rings, d = 2, 3, ...,
  around the members outside the largest component (every cross pair
  has such an end, and no two components are adjacent); the budget caps
  the probes its rounds make.
- exact: a minimum connected dominating set for n <= 5 from one function,
  `exact_connected_dominating_set`: a pruned branch and bound over vertex
  bitmasks that tests connectivity by a flood fill over closed-neighborhood
  masks and settles its last vertex in one step instead of branching on it.
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
from itertools import combinations

from .cube import (
    Dimension,
    VertexSet,
    _closed_ball,
    _coordinate_permutations,
    _geodesic,
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

    Each pick scans the gains of all 2^n vertices. The budget caps the
    running total picks x 2^n, checked before each pick's scan and, at
    the sphere-covering floor of picks, before the 2^n masks are built.
    """
    size = dim.num_vertices
    check_budget("greedy domination sweep", sphere_covering_floor(dim) * size, budget)
    closed = closed_neighborhood_masks(dim)
    uncovered = (1 << size) - 1
    chosen: list[int] = []
    while uncovered:
        check_budget("greedy domination sweep", (len(chosen) + 1) * size, budget)
        gains = list(map(int.bit_count, map(uncovered.__and__, closed)))
        best_v = gains.index(max(gains))
        chosen.append(best_v)
        uncovered &= ~closed[best_v]
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

    A round labels the current vertices by component and probes the rings
    v = u ^ x, popcount(x) = d, around each vertex u outside the largest
    component, for d = 2, 3, ...; the first ring that reaches another
    component gives the round's pair, the least (min(u, v), max(u, v))
    found in it. This is the closest pair over all components: every
    pair across two components has an end outside the largest one, no
    two components are adjacent (so d = 1 finds nothing), and among the
    pairs at the least distance the least (low, high) is the least
    (distance, low, high). A dominating set's closest components are
    within distance 3, so each round probes at most three rings and each
    merge adds at most min(2, n-1) vertices. The budget caps the running
    total of probes, (|current| - |largest|) C(n, d) per ring, checked
    before each ring.
    """
    if not is_dominating(members):
        raise ValueError("steinerize requires a dominating input set")
    n = members.dim.n
    current, probes = set(members), 0
    while len(comps := bfs_forest(n, current)) > 1:
        label = {v: i for i, comp in enumerate(comps) for v in comp}
        largest = comps.index(max(comps, key=len))
        outside = [(u, i) for u, i in label.items() if i != largest]
        for d in range(2, n + 1):
            ring = [sum(1 << b for b in bits) for bits in combinations(range(n), d)]
            probes += len(outside) * len(ring)
            check_budget("steinerize pair scan", probes, budget)
            pairs = [
                (min(u, v), max(u, v))
                for u, i in outside
                for x in ring
                if label.get(v := u ^ x, i) != i
            ]
            if pairs:
                break
        for e in _geodesic(*min(pairs)):
            current.update(e.endpoints())
    return DominatingSetCertificate(VertexSet.of(members.dim, current), "steinerized")


def _is_connected_mask(closed: list[int], members: int) -> bool:
    """Whether the vertex mask `members` induces a connected subgraph,
    by a flood fill over the closed-neighborhood masks from its lowest
    member. The empty set is not connected."""
    reached = frontier = members & -members
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= closed[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & members & ~reached
        reached |= frontier
    return reached == members and members != 0


def exact_connected_dominating_set(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> DominatingSetCertificate:
    """A minimum connected dominating set for n <= 5, by branch and bound.

    By vertex-transitivity some minimum certificate contains vertex 0.
    Each node branches on which closed-neighborhood member covers the
    smallest uncovered vertex, with tried candidates excluded down the
    remaining branches; the sizes are tried in increasing order from the
    sphere-covering floor, so the first witness found is minimum. The
    chosen set is carried as a vertex mask, and connectivity is tested by
    `_is_connected_mask` only where the cube is covered. Two cuts prune
    only subtrees that hold no witness, so the search meets the same first
    witness as the full branching:

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
    cover every uncovered vertex, so the candidates are the non-excluded
    members of the intersection of their closed neighborhoods; they are
    exactly the children that could succeed, every other child being cut
    at once, and trying them in increasing order keeps the first witness
    of the full branching. Only the nodes that are entered are charged:
    the budget caps their count (8 for Q_3, 43 for Q_4, 4,372 for Q_5).
    """
    if dim.n > 5:
        raise ValueError("exact connected domination limited to n <= 5")
    closed = closed_neighborhood_masks(dim)
    full = (1 << dim.num_vertices) - 1
    ball = max(dim.n - 1, 1)
    nodes = 0

    def search(
        mask: int, covered: int, excluded: int, left: int, group: list[list[int]]
    ) -> int:
        # returns the witness mask, or 0; `left` vertices may still be
        # added, excluded vertices lie in no witness down this subtree, and
        # every table in `group` fixes both `mask` and `excluded` setwise
        nonlocal nodes
        nodes += 1
        check_budget("connected domination search", nodes, budget)
        if covered == full:
            return mask if _is_connected_mask(closed, mask) else 0
        uncovered = full & ~covered
        if -(uncovered.bit_count() // -ball) > left:
            return 0
        if left == 1:
            cand = full & ~excluded
            while uncovered and cand:
                low = uncovered & -uncovered
                cand &= closed[low.bit_length() - 1]
                uncovered ^= low
            while cand:
                low = cand & -cand
                if _is_connected_mask(closed, mask | low):
                    return mask | low
                cand ^= low
            return 0
        cand = closed[(uncovered & -uncovered).bit_length() - 1] & ~excluded
        while cand:
            low = cand & -cand
            c = low.bit_length() - 1
            # `excluded` only ever grows by whole orbits of `group`, so the
            # child's group is the stabiliser of c
            stab = [g for g in group if g[c] == c]
            found = search(mask | low, covered | closed[c], excluded, left - 1, stab)
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
        found = search(1, closed[0], 0, limit - 1, perms)
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
