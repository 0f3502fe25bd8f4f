"""Two-sided bounds on hypercube Steiner distances and the randomized
overlap experiment connecting them.

For an all-even terminal set S in Q_n with |S| = s >= 2, the quadratic lower
bound

    d(S) >= s + s^2/(n 2^n) - (n+1)/2

falls out of averaging over the edge-transitive automorphism group: with
T an optimal tree for S, T' an optimal tree for the mirror of S, and g1,
g2 drawn independently and uniformly, the overlap X = |E(g1(T)) n
E(g2(T'))| has mean exactly d(S)^2/(n 2^{n-1}), while every single pair
obeys 2 d(S) - X >= 2s - (n+1) because g1(T) u g2(T') connects a set
containing s disjoint even/odd mirror pairs. `run_intersection_experiment`
evaluates both facts exactly; `bootstrap_case` checks the algebra that
turns them into the displayed bound; `lower_bound_even` evaluates the
bound itself in exact rationals.

The matching upper bound is constructive: a spanning tree of a connected
dominating set plus one attachment edge per terminal spans S with at most
|S| + |cds| - 1 edges (`upper_bound_tree`). `build_bounds_report` packages
both sides with certificates for one instance, and `sdiam_sandwich`
brackets the k-set Steiner diameter max_{|S|=k} d(S).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .autgroup import Automorphism, _edge_image, enumerate_group, sample_uniform
from .cube import (
    Dimension,
    Edge,
    VertexSet,
    all_edges,
    bfs_forest,
    edge_between,
    neighbors,
    parity,
)
from .domination import DominatingSetCertificate, cds_constructions
from .errors import BudgetExceededError, DEFAULT_BUDGET, check_budget
from .steiner import SteinerInstance, SteinerTree, steiner_exact, validate_tree


def mirror_set(members: VertexSet) -> VertexSet:
    """Flip coordinate 0 of every member.

    An involution and a cube automorphism, so Steiner distances are
    preserved; every member's parity flips, so an all-even set becomes
    all-odd (and in particular disjoint from the original).
    """
    return VertexSet.of(members.dim, [v ^ 1 for v in members])


def lower_bound_even(dim: Dimension, s: int) -> Fraction:
    """The quadratic lower bound s + s^2/(n 2^n) - (n+1)/2, exactly.

    Valid for every all-even terminal set of size s >= 2; s is capped by
    the size 2^{n-1} of the even class. The derivation uses d(S) >= s,
    which fails for a single terminal (d = 0, while the bound is 1/2 at
    n = 1).
    """
    n = dim.n
    half = dim.num_vertices // 2
    if not 1 <= s <= half:
        raise ValueError(f"need 1 <= s <= 2^(n-1) = {half}, got s={s}")
    return s + Fraction(s * s, n << n) - Fraction(n + 1, 2)


def trivial_lower_floor(members: VertexSet) -> int:
    """Lower bound from counting alone: a tree on s terminals has at
    least s - 1 edges, and an all-even set of size >= 2 needs an odd
    internal vertex (the even class is independent), hence s edges."""
    s = len(members)
    if s == 0:
        raise ValueError("empty terminal set has no Steiner distance")
    if s >= 2 and all(parity(v) == 0 for v in members):
        return s
    return s - 1


def upper_bound_tree(
    terminals: VertexSet, cds: DominatingSetCertificate
) -> tuple[SteinerTree, int]:
    """Spanning tree of the dominating set plus one edge per terminal.

    Builds a deterministic BFS spanning tree of the induced subgraph on
    the connected dominating set, attaches every terminal outside it to
    its smallest dominating neighbor, then prunes non-terminal leaves.
    The result is a tree spanning the terminals with at most
    |terminals| + |cds| - 1 edges.
    """
    if len(terminals) == 0:
        raise ValueError("empty terminal set")
    if terminals.dim != cds.dim:
        raise ValueError("terminal set and dominating set dimensions differ")
    if not cds.connected:
        raise ValueError("construction requires a connected dominating set")
    dim = terminals.dim
    members = set(cds.vertex_set)
    [spanning] = bfs_forest(dim.n, members)
    edges = {edge_between(dim, u, p) for u, p in spanning.items() if u != p}

    vertices = set(members)
    for t in terminals:
        if t in members:
            continue
        vertices.add(t)
        edges.add(edge_between(dim, t, min(w for w in neighbors(dim, t) if w in members)))

    term_set = set(terminals)
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for e in edges:
        u, w = e.endpoints()
        adj[u].add(w)
        adj[w].add(u)
    pruned = True
    while pruned:
        pruned = False
        for v in sorted(vertices):
            if v in term_set or len(adj[v]) > 1:
                continue
            for w in adj.pop(v):
                adj[w].discard(v)
                edges.discard(edge_between(dim, v, w))
            vertices.discard(v)
            pruned = True

    tree = SteinerTree(dim, frozenset(edges), frozenset(vertices))
    validate_tree(tree, terminals)
    if len(edges) > len(terminals) + cds.size - 1:
        raise AssertionError("construction exceeded its own edge budget")
    return tree, len(edges)


def best_connected_dominating_set(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> DominatingSetCertificate:
    """Smallest connected dominating certificate among the affordable
    constructions: the best entry of `cds_constructions`."""
    return cds_constructions(dim, budget=budget)[1]


@dataclass(frozen=True)
class IntersectionExperiment:
    """Optimal trees for an all-even set and its mirror, ready to have
    independent uniform automorphisms applied to each."""

    terminals: VertexSet
    mirrored: VertexSet
    tree: SteinerTree
    mirror_tree: SteinerTree
    distance: int

    @property
    def dim(self) -> Dimension:
        return self.terminals.dim


def build_intersection_experiment(
    terminals: VertexSet, *, budget: int = DEFAULT_BUDGET
) -> IntersectionExperiment:
    """Solve the terminal set and its mirror exactly and pair the trees."""
    if len(terminals) == 0:
        raise ValueError("empty terminal set")
    if any(parity(v) for v in terminals):
        raise ValueError("experiment requires an all-even terminal set")
    dim = terminals.dim
    mirrored = mirror_set(terminals)
    d, tree = steiner_exact(SteinerInstance(dim, terminals), budget=budget)
    d2, mtree = steiner_exact(SteinerInstance(dim, mirrored), budget=budget)
    if d != d2:
        raise AssertionError("mirroring is an isomorphism; distances must agree")
    return IntersectionExperiment(terminals, mirrored, tree, mtree, d)


@dataclass(frozen=True)
class IntersectionSummary:
    """Aggregates of the overlap X over automorphism pairs."""

    mean: Fraction
    max_overlap: int
    min_lhs: int
    pair_count: int
    exhaustive: bool
    seed: Optional[int]
    transcript: Optional[tuple[tuple[Automorphism, Automorphism, int], ...]]


def _image_mask(
    dim: Dimension,
    g: Automorphism,
    edges: frozenset[Edge],
    index: dict[Edge, int],
    cache: dict[Automorphism, int],
) -> int:
    m = cache.get(g)
    if m is None:
        m = 0
        for e in edges:
            m |= 1 << index[_edge_image(dim, g, e)]
        cache[g] = m
    return m


def run_intersection_experiment(
    exp: IntersectionExperiment,
    *,
    samples: Optional[int] = None,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    keep_transcript: bool = False,
) -> IntersectionSummary:
    """Evaluate X = |E(g1(T)) n E(g2(T'))| over automorphism pairs.

    samples=None sweeps all |group|^2 ordered pairs in lexicographic
    order and insists the exact mean equals d^2/(n 2^{n-1}); otherwise
    draws that many independent uniform pairs from the seeded generator.
    min_lhs reports the smallest value of 2d - X seen.
    """
    dim = exp.dim
    index = {e: i for i, e in enumerate(all_edges(dim, budget=budget))}
    if samples is None:
        group = enumerate_group(dim, budget=budget)
        check_budget("automorphism pair sweep", len(group) ** 2, budget)
        pairs = ((g1, g2) for g1 in group for g2 in group)
        count = len(group) ** 2
    else:
        if samples < 1:
            raise ValueError("need at least one sample")
        check_budget("automorphism pair sweep", samples, budget)
        rng = random.Random(seed)
        pairs = (
            (sample_uniform(dim, rng), sample_uniform(dim, rng))
            for _ in range(samples)
        )
        count = samples

    left: dict[Automorphism, int] = {}
    right: dict[Automorphism, int] = {}
    total = 0
    max_overlap = 0
    transcript: Optional[list] = [] if keep_transcript else None
    for g1, g2 in pairs:
        x = (
            _image_mask(dim, g1, exp.tree.edges, index, left)
            & _image_mask(dim, g2, exp.mirror_tree.edges, index, right)
        ).bit_count()
        total += x
        if x > max_overlap:
            max_overlap = x
        if transcript is not None:
            transcript.append((g1, g2, x))

    mean = Fraction(total, count)
    if samples is None:
        expected = Fraction(exp.distance * exp.distance, dim.num_edges)
        if mean != expected:
            raise AssertionError("exhaustive overlap mean broke the group identity")
    return IntersectionSummary(
        mean=mean,
        max_overlap=max_overlap,
        min_lhs=2 * exp.distance - max_overlap,
        pair_count=count,
        exhaustive=samples is None,
        seed=None if samples is None else seed,
        transcript=None if transcript is None else tuple(transcript),
    )


@dataclass(frozen=True)
class BootstrapCase:
    """One (n, s, d) cell of the averaging-to-bound implication check.

    With excess x = d - s, the premise is the averaged inequality
    2d - d^2/(n 2^{n-1}) >= 2s - (n+1); when it holds with x > 0 the
    conclusion x >= s^2/(n 2^n) - (n+1)/2 must follow. Cells where the
    premise fails or x <= 0 are vacuous and hold by convention.
    """

    dim: Dimension
    s: int
    d: int
    excess: int
    premise_holds: bool
    vacuous: bool
    conclusion_holds: bool
    holds: bool


def bootstrap_case(dim: Dimension, s: int, d: int) -> BootstrapCase:
    if d < s - 1:
        raise ValueError("d below s - 1 is impossible for s terminals")
    n = dim.n
    x = d - s
    premise = 2 * d - Fraction(d * d, dim.num_edges) >= 2 * s - (n + 1)
    vacuous = (not premise) or x <= 0
    conclusion = x >= Fraction(s * s, n << n) - Fraction(n + 1, 2)
    return BootstrapCase(
        dim=dim,
        s=s,
        d=d,
        excess=x,
        premise_holds=premise,
        vacuous=vacuous,
        conclusion_holds=conclusion,
        holds=vacuous or conclusion,
    )


@dataclass(frozen=True)
class BoundsReport:
    """Bound sandwich and certificates for one terminal set."""

    terminals: VertexSet
    set_size: int
    lower: Optional[Fraction]
    lower_floor: int
    upper: int
    exact: Optional[int]
    exact_reason: str
    tree: SteinerTree
    cds: DominatingSetCertificate

    @property
    def dim(self) -> Dimension:
        return self.terminals.dim

    @property
    def certified_lower(self) -> int:
        best = self.lower_floor
        if self.lower is not None:
            best = max(best, math.ceil(self.lower))
        return best

    def __post_init__(self) -> None:
        if self.upper > self.set_size + self.cds.size - 1:
            raise ValueError("upper bound exceeds its construction guarantee")
        if self.exact is not None and not (
            self.certified_lower <= self.exact <= self.upper
        ):
            raise ValueError("bound sandwich violated")


def build_bounds_report(
    terminals: VertexSet,
    *,
    budget: int = DEFAULT_BUDGET,
    cds: Optional[DominatingSetCertificate] = None,
) -> BoundsReport:
    """Assemble the full sandwich for one instance.

    The quadratic lower bound is reported only for all-even sets of at
    least two terminals (it is not valid otherwise); the exact distance
    is attempted and omitted with the budget projection as the reason
    when it would be too large.
    """
    if len(terminals) == 0:
        raise ValueError("empty terminal set")
    dim = terminals.dim
    if cds is None:
        cds = best_connected_dominating_set(dim, budget=budget)
    tree, upper = upper_bound_tree(terminals, cds)
    s = len(terminals)
    all_even = all(parity(v) == 0 for v in terminals)
    lower = lower_bound_even(dim, s) if all_even and s >= 2 else None
    exact: Optional[int]
    try:
        exact, _ = steiner_exact(SteinerInstance(dim, terminals), budget=budget)
        reason = "computed"
    except BudgetExceededError as exc:
        exact = None
        reason = f"budget: {exc}"
    return BoundsReport(
        terminals=terminals,
        set_size=s,
        lower=lower,
        lower_floor=trivial_lower_floor(terminals),
        upper=upper,
        exact=exact,
        exact_reason=reason,
        tree=tree,
        cds=cds,
    )


@dataclass(frozen=True)
class SdiamReport:
    """Sandwich for the k-set Steiner diameter of Q_n."""

    dim: Dimension
    k: int
    lower: Fraction
    upper: int
    exact: Optional[int]
    exact_reason: str
    worst_set: Optional[VertexSet]
    cds: DominatingSetCertificate


def sdiam_sandwich(dim: Dimension, k: int, *, budget: int = DEFAULT_BUDGET) -> SdiamReport:
    """Bracket max over k-subsets of the Steiner distance.

    The lower bound instantiates the all-even bound at s = min(k, 2^{n-1})
    terminals (for larger k a witness contains the whole even class, and
    distances are monotone under taking supersets). That bound needs
    s >= 2, so at n = 1 (s = 1) the counting floor k - 1 stands in. The
    upper bound k + |cds| - 1 holds for every k-set at once by the
    attachment construction. The exact value sweeps all C(2^n, k) subsets
    when the projected state count fits the budget, and is omitted
    otherwise.
    """
    if not 2 <= k <= dim.num_vertices:
        raise ValueError(f"need 2 <= k <= {dim.num_vertices}, got k={k}")
    s = min(k, dim.num_vertices // 2)
    lower = lower_bound_even(dim, s) if s >= 2 else Fraction(k - 1)
    cds = best_connected_dominating_set(dim, budget=budget)
    upper = k + cds.size - 1

    exact: Optional[int] = None
    worst: Optional[VertexSet] = None
    projected = math.comb(dim.num_vertices, k) * ((1 << k) * dim.num_vertices)
    try:
        check_budget("k-subset diameter sweep", projected, budget)
    except BudgetExceededError as exc:
        reason = f"budget: {exc}"
    else:
        best_d = -1
        for cand in combinations(range(dim.num_vertices), k):
            d, _ = steiner_exact(SteinerInstance.from_vertices(dim, cand), budget=budget)
            if d > best_d:
                best_d = d
                worst = VertexSet.of(dim, cand)
        exact = best_d
        reason = "computed"
        if not lower <= exact <= upper:
            raise AssertionError("diameter sandwich violated")
    return SdiamReport(
        dim=dim,
        k=k,
        lower=lower,
        upper=upper,
        exact=exact,
        exact_reason=reason,
        worst_set=worst,
        cds=cds,
    )
