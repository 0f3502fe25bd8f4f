"""Dominating and connected dominating sets of the hypercube.

A set dominates Q_n when every vertex either belongs to it or has a
neighbor in it. Constructions provided:

- greedy: repeatedly take the vertex covering the most uncovered vertices
  (ties to the smallest vertex int). Dominating, rarely connected.
- hamming_code: for n = 2^m - 1, the perfect single-error-correcting code
  of length n; its distance-1 balls tile the cube, so it dominates with
  exactly 2^n/(n+1) words, pairwise at distance >= 3 (never connected for
  n >= 3).
- steinerize: connect a disconnected dominating set by repeatedly joining
  the two closest components along a deterministic geodesic.
- exact: a minimum connected dominating set for n <= 5, found by one
  pruned branch and bound that returns its witness.

`cds_constructions` is the one policy for which of these are affordable
at a given n and which connected set is best. A DominatingSetCertificate
checks domination and computes its size and connectivity itself when it
is built, so a certificate that exists is correct and no constructor is
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cube import Dimension, VertexSet, bfs_forest
from .errors import DEFAULT_BUDGET, check_budget
from .steiner import shortest_path

METHODS = ("greedy", "hamming_code", "exact", "steinerized")


def closed_neighborhood_masks(dim: Dimension) -> list[int]:
    """closed[v] = membership mask over V(Q_n) of v and its n neighbors."""
    masks = []
    for v in range(dim.num_vertices):
        m = 1 << v
        for b in range(dim.n):
            m |= 1 << (v ^ (1 << b))
        masks.append(m)
    return masks


def is_connected_subset(members: VertexSet) -> bool:
    return len(bfs_forest(members.dim.n, members)) == 1


def is_dominating(members: VertexSet) -> bool:
    """Direct neighborhood check over all 2^n vertices."""
    dim = members.dim
    closed = closed_neighborhood_masks(dim)
    covered = 0
    for v in members:
        covered |= closed[v]
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
    """Max-coverage greedy; deterministic via smallest-vertex tie-breaks."""
    check_budget("greedy domination sweep", dim.num_vertices, budget)
    closed = closed_neighborhood_masks(dim)
    full = (1 << dim.num_vertices) - 1
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best_v = -1
        best_gain = -1
        for v in range(dim.num_vertices):
            gain = (closed[v] & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        chosen.append(best_v)
        covered |= closed[best_v]
    return DominatingSetCertificate(VertexSet.of(dim, chosen), "greedy")


def hamming_code_dominating_set(dim: Dimension) -> DominatingSetCertificate:
    """The length-n perfect code as a dominating set, for n = 2^m - 1.

    A word belongs to the code iff the XOR of (i+1) over its set bit
    positions i vanishes. A non-codeword has nonzero syndrome s and is at
    distance 1 from exactly one codeword (flip position s-1), so the
    distance-1 balls tile the cube: 2^n/(n+1) words, perfect covering.
    """
    n = dim.n
    if (n + 1) & n:
        raise ValueError(f"perfect code needs n = 2^m - 1, got n={n}")
    codewords = []
    for v in range(dim.num_vertices):
        syndrome = 0
        bits = v
        while bits:
            low = bits & -bits
            syndrome ^= low.bit_length()
            bits ^= low
        if syndrome == 0:
            codewords.append(v)
    return DominatingSetCertificate(VertexSet.of(dim, codewords), "hamming_code")


def steinerize(members: VertexSet) -> DominatingSetCertificate:
    """Connect a dominating set by joining closest component pairs.

    Each round adds the interior of one deterministic geodesic between the
    two components at minimum Hamming distance (ties: smallest vertex
    pair), merging them; a superset of a dominating set still dominates.
    A dominating set's closest components are within distance 3, so each
    merge adds at most min(2, n-1) vertices.
    """
    if not is_dominating(members):
        raise ValueError("steinerize requires a dominating input set")
    dim = members.dim
    current = set(members)
    while True:
        comps = bfs_forest(dim.n, current)
        if len(comps) == 1:
            break
        # closest pair across two components: (distance, low, high end)
        _, a, b = min(
            ((u ^ v).bit_count(), min(u, v), max(u, v))
            for ia, comp in enumerate(comps)
            for other in comps[ia + 1 :]
            for u in comp
            for v in other
        )
        for e in shortest_path(dim, a, b):
            current.update(e.endpoints())
    return DominatingSetCertificate(VertexSet.of(dim, current), "steinerized")


def _connected_domination_branch_and_bound(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Branch-and-bound minimum connected dominating set, sorted.

    By vertex-transitivity some minimum certificate contains vertex 0.
    Each node branches on which closed-neighborhood member covers the
    smallest uncovered vertex, with tried candidates excluded down the
    remaining branches; the sizes are tried in increasing order from the
    sphere-covering floor, so the first witness found is minimum.
    """
    n = dim.n
    closed = closed_neighborhood_masks(dim)
    full = (1 << dim.num_vertices) - 1
    ball = n + 1
    nodes = 0

    def search(chosen: list[int], covered: int, excluded: int, limit: int) -> bool:
        # excluded vertices were exhausted in an earlier sibling branch, so
        # no cover using them remains to be found down this subtree
        nonlocal nodes
        nodes += 1
        check_budget("connected domination search", nodes, budget)
        if covered == full:
            return len(bfs_forest(n, chosen)) == 1
        uncovered = full & ~covered
        needed = -(uncovered.bit_count() // -ball)
        slack = limit - len(chosen)
        if needed > slack:
            return False
        # each added vertex can merge at most n of the current components
        comps = len(bfs_forest(n, chosen))
        if comps - 1 > slack * (n - 1):
            return False
        u = (uncovered & -uncovered).bit_length() - 1
        for v in sorted({u} | {u ^ (1 << b) for b in range(n)}):
            if (excluded >> v) & 1:
                continue
            chosen.append(v)
            if search(chosen, covered | closed[v], excluded, limit):
                return True
            chosen.pop()
            excluded |= 1 << v
        return False

    for limit in range(sphere_covering_floor(dim), dim.num_vertices + 1):
        chosen = [0]
        if search(chosen, closed[0], 0, limit):
            return sorted(chosen)
    raise AssertionError("unreachable; the full cube dominates itself")


def exact_connected_dominating_set(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> DominatingSetCertificate:
    """A minimum connected dominating set for n <= 5, by branch and bound.

    The budget caps the number of search nodes (441 for Q_4, about
    222,000 for Q_5).
    """
    if dim.n > 5:
        raise ValueError("exact connected domination limited to n <= 5")
    members = _connected_domination_branch_and_bound(dim, budget=budget)
    return DominatingSetCertificate(VertexSet.of(dim, members), "exact")


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
    when n <= 4 (the n = 5 search takes seconds). The best is the
    smallest of the exact, steinerized greedy and steinerized perfect-code
    sets, ties kept in that order; a raw greedy or perfect-code set is
    never chosen.
    """
    built = {"greedy": greedy_dominating_set(dim, budget=budget)}
    built["steinerized_greedy"] = steinerize(built["greedy"].vertex_set)
    if (dim.n + 1) & dim.n == 0:
        built["hamming"] = hamming_code_dominating_set(dim)
        built["steinerized_hamming"] = steinerize(built["hamming"].vertex_set)
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
