"""Two-sided bounds on hypercube Steiner distances and the randomized
overlap experiment connecting them.

For an all-even terminal set S in Q_n with |S| = s >= 2, the quadratic lower
bound

    d(S) >= s + s^2/(n 2^n) - (n+1)/2

falls out of averaging over the edge-transitive automorphism group: with
T an optimal tree for S, T' = phi(T) its mirror image under the flip phi of
coordinate 0 (an optimal tree for the mirrored set phi(S)), and g1, g2
drawn independently and uniformly, the overlap X = |E(g1(T)) n E(g2(T'))|
has mean exactly d(S)^2/(n 2^{n-1}), while every single pair obeys
2 d(S) - X >= 2s - (n+1) because g1(T) u g2(T') connects a set containing
s disjoint even/odd mirror pairs. `run_intersection_experiment`
evaluates both facts exactly from the overlaps X(1, h) = |E(T) n E(h(T'))|,
since X(g1, g2) = X(1, g1^-1 g2), and counts them all at once: the group
acts sharply transitively on edges, so exactly one h takes each edge of T'
onto each edge of T. `bootstrap_case` checks the algebra that turns the
two facts into the displayed bound; `lower_bound_even` evaluates the bound
itself in exact rationals.

The matching upper bound is constructive: a spanning tree of a connected
dominating set plus one attachment edge per terminal spans S, and keeping
only the edges with a terminal on both sides leaves at most |S| + |cds| - 1
edges (`upper_bound_tree`). `build_bounds_report` packages both sides with
certificates for one instance, and `sdiam_sandwich` brackets the k-set
Steiner diameter max_{|S|=k} d(S).
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
    VertexSet,
    _edge,
    bfs_forest,
    parity,
)
from .domination import DominatingSetCertificate, cds_constructions
from .errors import BudgetExceededError, DEFAULT_BUDGET, check_budget
from .steiner import (
    SteinerInstance,
    SteinerTree,
    _certified_tree,
    _dp_projection,
    _dp_solve,
    _solve,
    steiner_distance,
)


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
    n = 1), so s = 1 is rejected.
    """
    n = dim.n
    half = dim.num_vertices // 2
    if type(s) is not int or not 2 <= s <= half:
        raise ValueError(f"need 2 <= s <= 2^(n-1) = {half}, got s={s!r}")
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
    the connected dominating set and attaches every terminal outside it
    to its smallest dominating neighbor. It then keeps an edge exactly
    when both of its sides hold a terminal, which cuts the tree down to
    the unique smallest subtree spanning the terminals. The result has at
    most |terminals| + |cds| - 1 edges.
    """
    if len(terminals) == 0:
        raise ValueError("empty terminal set")
    if terminals.dim != cds.dim:
        raise ValueError("terminal set and dominating set dimensions differ")
    if not cds.connected:
        raise ValueError("construction requires a connected dominating set")
    dim = terminals.dim
    members = set(cds.vertex_set)
    [parent] = bfs_forest(dim.n, members)
    for t in terminals:
        if t not in members:
            nbrs = (t ^ (1 << b) for b in range(dim.n))
            parent[t] = min(u for u in nbrs if u in members)

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
    if len(edges) > s + cds.size - 1:
        raise AssertionError("construction exceeded its own edge budget")
    return _certified_tree(dim, edges, terminals), len(edges)


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
    """Solve S exactly; pair T with phi(T), phi(v) = v ^ 1, the DP's own tree
    for phi(S): one even vertex per block {2j, 2j+1}, so phi keeps the order
    of the terminals and of two neighbours of a vertex, dp'[mask][phi(v)] =
    dp[mask][v], half-splits read values only, geodesics flip the same bits.

    T comes from the dispatch's DP entry `steiner._dp_solve`, called on the
    trivial reduction (one class per coordinate, base 0) rather than on S's
    column classes: the tree the rooted DP rebuilds with unit weights on S
    itself, even where `steiner_exact` would answer by the Steiner-vertex
    search or by the column classes. The overlap statistics (max_overlap,
    min_lhs, sampled means) depend on which optimal tree T is, and the
    statement above about phi is one about that tree. `_dp_solve` charges
    the budget its 2^(k-1) rows of 2^n fields, and nothing for a single
    terminal."""
    if any(parity(v) for v in terminals):
        raise ValueError("experiment requires an all-even terminal set")
    dim = terminals.dim
    mirrored = mirror_set(terminals)
    members = SteinerInstance(dim, terminals).terminals.members
    d, edges = _dp_solve([1 << b for b in range(dim.n)], 0, members, budget, witness=True)
    tree = _certified_tree(dim, edges, members)
    edges = (_edge(e.even_end ^ 1, e.bit_index) for e in tree.edges)
    mtree = _certified_tree(dim, edges, mirrored)
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


def run_intersection_experiment(
    exp: IntersectionExperiment,
    *,
    samples: Optional[int] = None,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    keep_transcript: bool = False,
) -> IntersectionSummary:
    """Evaluate X = |E(g1(T)) n E(g2(T'))| over automorphism pairs.

    g1 permutes the edges, so X(g1, g2) = X(1, h) = |E(T) n E(h(T'))| with
    h = g1^-1 g2. Sharp edge transitivity matches each pair (e in T, e' in
    T') with exactly one h, so X(1, h) counts the pairs h matches; n images
    per mirror edge, one per shift, give every count, and each pair read
    looks its count up (0 if h matches none). samples=None covers all
    |group|^2 ordered pairs: with a transcript it lists them in
    lexicographic order, without one it reads only the identity row (1, h),
    whose mean is that of all pairs, since every row repeats that row; the
    mean is always taken over the pairs read. Either way it insists the
    exact mean equals d^2/(n 2^{n-1}): the row sums to d^2 only if the
    enumerated group lists each counted h exactly once. Otherwise
    it draws that many independent uniform pairs from the seeded generator.
    min_lhs reports the smallest value of 2d - X seen. The budget is
    charged one unit per pair read: |group| without a transcript and
    |group|^2 with one, or the sample count; pair_count is |group|^2 for
    any exhaustive run.
    """
    dim = exp.dim
    if type(seed) is not int or not (samples is None or type(samples) is int):
        raise ValueError(f"samples {samples!r} and seed {seed!r} must be ints")
    if samples is None:
        group = enumerate_group(dim, budget=budget)
        count = len(group) ** 2
        rows = group if keep_transcript else group[:1]  # group[0] is the identity
        pairs = ((g1, g2) for g1 in rows for g2 in group)
        charged = len(rows) * len(group)
    else:
        if samples < 1:
            raise ValueError("need at least one sample")
        rng = random.Random(seed)
        pairs = (
            (sample_uniform(dim, rng), sample_uniform(dim, rng))
            for _ in range(samples)
        )
        count = charged = samples
    check_budget("automorphism pair sweep", charged, budget)

    # (s, m) maps e' to (r ^ m, c), where (r, c) is its image under (s, 0),
    # so the one h taking e' onto a tree edge (u, c) is (s, r ^ u).
    overlap: dict[Automorphism, int] = {}
    for e in exp.mirror_tree.edges:
        for s in range(dim.n):
            r, c = _edge_image(dim, Automorphism(s, 0), e)
            for u, b in exp.tree.edges:
                if b == c:
                    h = Automorphism(s, r ^ u)
                    overlap[h] = overlap.get(h, 0) + 1
    # Each pair reads X(1, h), h = g1^-1 g2 = (s2 - s1, rotate_coords(m1 ^ m2,
    # -s1)): a left shift of the mask word by s1 wrapped at bit n, where the
    # wrapped part is empty for s1 = 0.
    n, coord_mask = dim.n, dim.coord_mask
    total = max_overlap = 0
    transcript: Optional[list] = [] if keep_transcript else None
    for g1, g2 in pairs:
        (s1, m1), (s2, m2) = g1, g2
        m = m1 ^ m2
        x = overlap.get(((s2 - s1) % n, ((m << s1) | (m >> (n - s1))) & coord_mask), 0)
        total += x
        if x > max_overlap:
            max_overlap = x
        if transcript is not None:
            transcript.append((g1, g2, x))

    mean = Fraction(total, charged)
    if samples is None and mean != Fraction(exp.distance**2, dim.num_edges):
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
    if type(s) is not int or type(d) is not int:
        raise ValueError(f"need int s and d, got s={s!r}, d={d!r}")
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
    terminals: VertexSet, *, budget: int = DEFAULT_BUDGET
) -> BoundsReport:
    """Assemble the full sandwich for one instance.

    The quadratic lower bound is reported only for all-even sets of at
    least two terminals (it is not valid otherwise); the exact distance
    is attempted and omitted with the budget projection as the reason
    when it would be too large. The report's tree is the constructive
    upper-bound tree, so the exact value comes from `steiner_distance`,
    which builds no witness.
    """
    if len(terminals) == 0:
        raise ValueError("empty terminal set")
    dim = terminals.dim
    cds = best_connected_dominating_set(dim, budget=budget)
    tree, upper = upper_bound_tree(terminals, cds)
    s = len(terminals)
    all_even = all(parity(v) == 0 for v in terminals)
    lower = lower_bound_even(dim, s) if all_even and s >= 2 else None
    exact: Optional[int]
    try:
        exact = steiner_distance(SteinerInstance(dim, terminals), budget=budget)
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
    attachment construction. The exact value is computed when the sweep's
    charge, the dispatch's ceiling `steiner._dp_projection` once per swept
    set, fits the budget, and is omitted otherwise.
    Each swept tuple, sorted and distinct as `combinations` yields it, goes
    straight to the distance-only dispatch `steiner._solve`, which builds
    no witness; only the worst set becomes a VertexSet, after the loop.

    The sweep solves only the C(2^n - 1, k - 1) k-sets that contain vertex
    0, in lexicographic order: Q_n is vertex-transitive under translation
    (v -> v ^ t is an automorphism), so every k-set T is a translate T ^ t
    of one containing 0, with the same Steiner distance. The reported
    worst set is still the lexicographically first maximiser over all
    C(2^n, k) k-sets: if that maximiser T had t = min T != 0, then T ^ t
    would be a maximiser containing 0 whose sorted tuple begins with 0 < t,
    so it would come before T.
    """
    if type(k) is not int or not 2 <= k <= dim.num_vertices:
        raise ValueError(f"need 2 <= k <= {dim.num_vertices}, got k={k!r}")
    s = min(k, dim.num_vertices // 2)
    lower = lower_bound_even(dim, s) if s >= 2 else Fraction(k - 1)
    cds = best_connected_dominating_set(dim, budget=budget)
    upper = k + cds.size - 1

    exact: Optional[int] = None
    worst: Optional[VertexSet] = None
    projected = math.comb(dim.num_vertices - 1, k - 1) * _dp_projection(dim.n, k)
    try:
        check_budget("k-subset diameter sweep", projected, budget)
    except BudgetExceededError as exc:
        reason = f"budget: {exc}"
    else:
        best_d = -1
        for rest in combinations(range(1, dim.num_vertices), k - 1):
            cand = (0,) + rest
            d = _solve(dim, cand, budget, witness=False)[0]
            if d > best_d:
                best_d, best = d, cand
        exact = best_d
        worst = VertexSet(dim, best)
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
