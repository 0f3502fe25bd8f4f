import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cubesteiner import bounds
from cubesteiner.autgroup import (
    apply_edge, compose, enumerate_group, group_order, identity, inverse, rotation, sample_uniform
)
from cubesteiner.bounds import (
    BoundsReport,
    bootstrap_case,
    best_connected_dominating_set,
    build_bounds_report,
    build_intersection_experiment,
    lower_bound_even,
    mirror_set,
    run_intersection_experiment,
    sdiam_sandwich,
    trivial_lower_floor,
    upper_bound_tree,
)
from cubesteiner.cube import (
    Dimension,
    VertexSet,
    bfs_forest,
    edge_between,
    neighbors,
    parity,
    parity_class,
)
from cubesteiner.domination import (
    exact_connected_dominating_set,
    greedy_dominating_set,
    hamming_code_dominating_set,
    steinerize,
)
from cubesteiner.errors import DEFAULT_BUDGET, BudgetExceededError
from cubesteiner.steiner import SteinerInstance, _dp_solve, _solve, steiner_exact, validate_tree

D3 = Dimension(3)
D4 = Dimension(4)
EVEN3 = parity_class(D3, 0)


def test_mirror_set_examples():
    assert list(mirror_set(VertexSet.of(D3, [0]))) == [1]
    assert mirror_set(EVEN3).members == parity_class(D3, 1).members
    assert not set(mirror_set(EVEN3)) & set(EVEN3)


@given(st.integers(1, 6), st.data())
def test_mirror_set_is_an_involution(n, data):
    dim = Dimension(n)
    members = data.draw(
        st.sets(st.integers(0, dim.num_vertices - 1), min_size=1, max_size=8)
    )
    vs = VertexSet.of(dim, members)
    assert mirror_set(mirror_set(vs)).members == vs.members


def test_lower_bound_even_values():
    assert lower_bound_even(D4, 8) == Fraction(13, 2)
    assert lower_bound_even(D3, 4) == Fraction(8, 3)
    assert lower_bound_even(Dimension(7), 64) == 64 + Fraction(4096, 896) - 4


def test_lower_bound_even_range():
    with pytest.raises(ValueError):
        lower_bound_even(D3, 0)
    # the bound fails for one terminal: 1/2 at n = 1, where d = 0
    with pytest.raises(ValueError):
        lower_bound_even(Dimension(1), 1)
    with pytest.raises(ValueError):
        lower_bound_even(D3, 1)
    with pytest.raises(ValueError):
        lower_bound_even(D3, 5)


@pytest.mark.parametrize("s", [2.0, True, Fraction(2)])
def test_lower_bound_even_refuses_a_size_that_is_not_an_int(s):
    with pytest.raises(ValueError, match="need 2 <= s"):
        lower_bound_even(D3, s)


def test_trivial_lower_floor():
    assert trivial_lower_floor(EVEN3) == 4
    assert trivial_lower_floor(VertexSet.of(D3, [3, 5])) == 2
    assert trivial_lower_floor(VertexSet.of(D3, [0, 7])) == 1
    assert trivial_lower_floor(VertexSet.of(D3, [0])) == 0
    with pytest.raises(ValueError):
        trivial_lower_floor(VertexSet.of(D3, []))


def test_upper_bound_tree_even_class():
    cds = exact_connected_dominating_set(D3)
    tree, count = upper_bound_tree(EVEN3, cds)
    assert count == 5
    assert count <= len(EVEN3) + cds.size - 1
    validate_tree(tree, EVEN3)


def test_upper_bound_tree_terminals_inside_cds():
    cds = exact_connected_dominating_set(D3)
    sub = VertexSet.of(D3, [0, 3])
    _, count = upper_bound_tree(sub, cds)
    assert count <= cds.size - 1


def _rescan_pruned_tree(terminals, cds):
    """`upper_bound_tree`'s edges and vertices as built by attaching the
    terminals and then rescanning every vertex in order until no
    non-terminal leaf is left."""
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
    adj = {v: set() for v in vertices}
    for e in edges:
        u, w = e.endpoints()
        adj[u].add(w)
        adj[w].add(u)
    pruned = True
    while pruned:
        pruned = False
        for v in sorted(vertices):
            if v in terminals or len(adj[v]) > 1:
                continue
            for w in adj.pop(v):
                adj[w].discard(v)
                edges.discard(edge_between(dim, v, w))
            vertices.discard(v)
            pruned = True
    return edges, vertices


@pytest.mark.parametrize("n", range(1, 9))
def test_upper_bound_tree_matches_rescan_pruning(n):
    dim = Dimension(n)
    cdss = [
        best_connected_dominating_set(dim),
        steinerize(greedy_dominating_set(dim).vertex_set),
    ]
    if n in (1, 3, 7):
        cdss.append(steinerize(hamming_code_dominating_set(dim).vertex_set))
    rng = random.Random(900 + n)
    for cds in cdss:
        inside = list(cds.vertex_set)
        outside = [v for v in range(dim.num_vertices) if v not in cds.vertex_set]
        cases = [
            [dim.num_vertices - 1],  # a single terminal
            inside,
            outside,
            inside[1:],  # all but the BFS root, the smallest cds vertex
        ]
        if n <= 3:
            cases.append(range(dim.num_vertices))
        for _ in range(40):
            size = rng.randint(1, min(12, dim.num_vertices))
            cases.append(rng.sample(range(dim.num_vertices), size))
        for members in filter(None, cases):
            terminals = VertexSet.of(dim, members)
            tree, count = upper_bound_tree(terminals, cds)
            assert (set(tree.edges), set(tree.vertices)) == _rescan_pruned_tree(
                terminals, cds
            ), (terminals, cds)
            assert count == len(tree.edges)


def test_upper_bound_tree_rejects_bad_input():
    disconnected = greedy_dominating_set(D3)
    with pytest.raises(ValueError):
        upper_bound_tree(EVEN3, disconnected)
    with pytest.raises(ValueError):
        upper_bound_tree(VertexSet.of(D4, [0, 15]), exact_connected_dominating_set(D3))
    with pytest.raises(ValueError):
        upper_bound_tree(VertexSet.of(D3, []), exact_connected_dominating_set(D3))


def test_best_connected_dominating_set_sizes():
    sizes = {n: best_connected_dominating_set(Dimension(n)).size for n in (1, 2, 3, 4, 5, 7)}
    assert sizes == {1: 1, 2: 2, 3: 4, 4: 6, 5: 12, 7: 36}
    assert best_connected_dominating_set(D3).method == "exact"


def test_experiment_requires_all_even():
    with pytest.raises(ValueError):
        build_intersection_experiment(VertexSet.of(D3, [0, 7]))
    with pytest.raises(ValueError):
        build_intersection_experiment(VertexSet.of(D3, []))


def test_experiment_pairs_isomorphic_instances():
    exp = build_intersection_experiment(EVEN3)
    assert exp.distance == 5
    assert exp.mirrored.members == parity_class(D3, 1).members
    assert len(exp.tree.edges) == len(exp.mirror_tree.edges) == 5
    d, medges = _dp_solve([1, 2, 4], 0, exp.mirrored.members, DEFAULT_BUDGET, witness=True)
    assert d == 5
    assert medges == exp.mirror_tree.edges
    assert {v ^ 1 for v in exp.tree.vertices} == exp.mirror_tree.vertices


def _assert_mirror_tree_is_dp_tree(members):
    exp = build_intersection_experiment(members)
    n = members.dim.n
    units = [1 << b for b in range(n)]
    d, medges = _dp_solve(units, 0, mirror_set(members).members, DEFAULT_BUDGET, witness=True)
    assert d == exp.distance
    assert medges == exp.mirror_tree.edges


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_mirror_tree_equals_dp_solve_of_mirror(n, data):
    # phi(T) is exactly the tree the DP returns for the mirrored set
    dim = Dimension(n)
    evens = list(parity_class(dim, 0))
    members = data.draw(st.sets(st.sampled_from(evens), min_size=1, max_size=8))
    _assert_mirror_tree_is_dp_tree(VertexSet.of(dim, members))


def test_mirror_tree_equals_dp_solve_of_mirror_q7():
    dim = Dimension(7)
    evens = list(parity_class(dim, 0))
    rng = random.Random(10)
    for size in (1, 2, 3, 5, 6, 7, 8):
        _assert_mirror_tree_is_dp_tree(VertexSet.of(dim, rng.sample(evens, size)))


def test_experiment_runs_one_exact_solve(monkeypatch):
    calls = []

    def counting(masks, base, terms, budget, *, witness):
        calls.append((masks, base, terms, witness))
        return _dp_solve(masks, base, terms, budget, witness=witness)

    monkeypatch.setattr("cubesteiner.bounds._dp_solve", counting)
    members = VertexSet.of(D4, [0, 3, 5, 9])
    exp = build_intersection_experiment(members)
    # unit weights on the terminals themselves, not on their column classes
    assert calls == [([1, 2, 4, 8], 0, members.members, True)]
    validate_tree(exp.mirror_tree, exp.mirrored)


def test_exhaustive_overlap_mean_matches_identity():
    exp = build_intersection_experiment(EVEN3)
    summary = run_intersection_experiment(exp)
    assert summary.exhaustive
    assert summary.seed is None
    assert summary.pair_count == group_order(D3) ** 2 == 144
    assert summary.mean == Fraction(exp.distance**2, D3.num_edges) == Fraction(25, 12)
    assert summary.max_overlap == 3
    assert summary.min_lhs == 2 * exp.distance - summary.max_overlap == 7
    assert summary.min_lhs >= 2 * len(EVEN3) - (D3.n + 1)


def test_exhaustive_identity_holds_for_more_sets():
    for dim, members in [
        (D3, [0, 3]),
        (D3, [0, 3, 5]),
        (D4, [0, 3, 5, 9]),
        (D4, list(parity_class(D4, 0))),
    ]:
        exp = build_intersection_experiment(VertexSet.of(dim, members))
        summary = run_intersection_experiment(exp)
        assert summary.mean == Fraction(exp.distance**2, dim.num_edges)


def test_sampled_experiment_is_seed_deterministic():
    exp = build_intersection_experiment(EVEN3)
    a = run_intersection_experiment(exp, samples=500, seed=7)
    b = run_intersection_experiment(exp, samples=500, seed=7)
    assert a == b
    assert not a.exhaustive
    assert a.seed == 7
    assert a.pair_count == 500
    assert a.mean == Fraction(1037, 500)
    assert a.max_overlap == 3
    assert a.min_lhs == 7


def test_experiment_refuses_samples_and_seeds_that_are_not_ints():
    exp = build_intersection_experiment(EVEN3)
    for kwargs in (
        {"samples": True}, {"samples": 2.0}, {"samples": 2, "seed": 1.5}, {"seed": True}
    ):
        with pytest.raises(ValueError, match="must be ints"):
            run_intersection_experiment(exp, **kwargs)


def test_sampled_mean_tracks_exact_mean():
    exp = build_intersection_experiment(EVEN3)
    exact = run_intersection_experiment(exp).mean
    sampled = run_intersection_experiment(exp, samples=2000, seed=3).mean
    # X is bounded by d, so 2000 samples pin the mean well inside 0.35
    assert abs(sampled - exact) < Fraction(35, 100)


def test_transcript_replays_the_run():
    exp = build_intersection_experiment(EVEN3)
    summary = run_intersection_experiment(
        exp, samples=40, seed=1, keep_transcript=True
    )
    assert summary.transcript is not None
    assert len(summary.transcript) == 40
    total = sum(x for _, _, x in summary.transcript)
    assert Fraction(total, 40) == summary.mean
    assert max(x for _, _, x in summary.transcript) == summary.max_overlap
    assert all(0 <= x <= exp.distance for _, _, x in summary.transcript)
    again = run_intersection_experiment(exp, samples=40, seed=1, keep_transcript=True)
    assert again.transcript == summary.transcript


def test_exhaustive_transcript_starts_at_identity_pair():
    exp = build_intersection_experiment(VertexSet.of(D3, [0, 3]))
    summary = run_intersection_experiment(exp, keep_transcript=True)
    g1, g2, x = summary.transcript[0]
    assert g1 == g2 == identity(D3)
    assert x == (exp.tree.edges & exp.mirror_tree.edges).__len__()


def test_sampled_pairs_cross_the_draw_block():
    # 1500 pairs take two bulk draws; the pairs run on across the block
    # boundary as consecutive sample_uniform pairs from the seeded source
    exp = build_intersection_experiment(parity_class(D4, 0))
    summary = run_intersection_experiment(exp, samples=1500, seed=5, keep_transcript=True)
    rng = random.Random(5)
    expected = [(sample_uniform(D4, rng), sample_uniform(D4, rng)) for _ in range(1500)]
    assert [(g1, g2) for g1, g2, _ in summary.transcript] == expected


def _two_sided_overlap(exp, g1, g2):
    # X = |g1(E(T)) n g2(E(T'))| by its definition, both trees mapped through
    # the checked apply_edge: the reference for the one-sided X(1, g1^-1 g2)
    dim = exp.dim
    left = {apply_edge(dim, g1, e) for e in exp.tree.edges}
    right = {apply_edge(dim, g2, e) for e in exp.mirror_tree.edges}
    return len(left & right)


def _reference_experiments(max_n=5):
    rng = random.Random(13)
    for n in range(1, max_n + 1):
        dim = Dimension(n)
        evens = list(parity_class(dim, 0))
        for _ in range(3):
            members = rng.sample(evens, rng.randint(1, min(len(evens), 6)))
            yield build_intersection_experiment(VertexSet.of(dim, members))


def _assert_matches_reference(exp, summary, xs):
    assert summary.mean == Fraction(sum(xs), summary.pair_count)
    assert summary.max_overlap == max(xs)
    assert summary.min_lhs == 2 * exp.distance - max(xs)


def test_exhaustive_overlap_matches_two_sided_reference():
    for exp in _reference_experiments():
        group = enumerate_group(exp.dim)
        pairs = [(g1, g2) for g1 in group for g2 in group]
        xs = [_two_sided_overlap(exp, g1, g2) for g1, g2 in pairs]
        for keep in (False, True):
            summary = run_intersection_experiment(exp, keep_transcript=keep)
            assert summary.pair_count == len(pairs)
            _assert_matches_reference(exp, summary, xs)
        assert summary.transcript == tuple(
            (g1, g2, x) for (g1, g2), x in zip(pairs, xs)
        )


def test_sampled_overlap_matches_two_sided_reference():
    # Q_6 and Q_7 too: the exhaustive reference above stops at n = 5
    for seed, exp in enumerate(_reference_experiments(max_n=7)):
        summary = run_intersection_experiment(
            exp, samples=60, seed=seed, keep_transcript=True
        )
        xs = [_two_sided_overlap(exp, g1, g2) for g1, g2, _ in summary.transcript]
        assert [x for _, _, x in summary.transcript] == xs
        _assert_matches_reference(exp, summary, xs)


def test_sampled_overlap_reads_x_at_the_inverse_then_compose_element():
    # Each pair reads X(1, h) = |E(T) n h(E(T'))| at h = g1^-1 g2, built here
    # by the checked inverse and compose; the draws cover every shift of g1.
    for seed, exp in enumerate(_reference_experiments(max_n=7), start=100):
        dim = exp.dim
        summary = run_intersection_experiment(
            exp, samples=200, seed=seed, keep_transcript=True
        )
        xs = []
        for g1, g2, _ in summary.transcript:
            h = compose(dim, inverse(dim, g1), g2)
            image = {apply_edge(dim, h, e) for e in exp.mirror_tree.edges}
            xs.append(len(exp.tree.edges & image))
        assert [x for _, _, x in summary.transcript] == xs
        assert {g1.shift for g1, _, _ in summary.transcript} == set(range(dim.n))
        _assert_matches_reference(exp, summary, xs)


def _overlap_table(exp):
    # the nonzero X(1, h): (s, m) maps e' to (r ^ m, c), where (r, c) is its
    # image under the rotation by s, so h = (s, r ^ u) takes e' onto (u, c)
    dim = exp.dim
    table = {}
    for e in exp.mirror_tree.edges:
        for s in range(dim.n):
            r, c = apply_edge(dim, rotation(dim, s), e)
            for u, b in exp.tree.edges:
                if b == c:
                    table[(s, r ^ u)] = table.get((s, r ^ u), 0) + 1
    return table


def _assert_bulk_pairs_match_the_formula(exp, samples, seed):
    # with and without a transcript the summaries agree, and every x is the
    # per-pair formula overlap.get(((s2 - s1) % n, rotl(m1 ^ m2, s1)), 0)
    n, full = exp.dim.n, exp.dim.coord_mask
    table = _overlap_table(exp)
    kept = run_intersection_experiment(exp, samples=samples, seed=seed, keep_transcript=True)
    plain = run_intersection_experiment(exp, samples=samples, seed=seed)
    fields = ("mean", "max_overlap", "min_lhs", "pair_count")
    assert [getattr(plain, f) for f in fields] == [getattr(kept, f) for f in fields]
    assert kept.pair_count == samples
    xs = []
    for (s1, m1), (s2, m2), _ in kept.transcript:
        m = m1 ^ m2
        xs.append(table.get(((s2 - s1) % n, ((m << s1) | (m >> (n - s1))) & full), 0))
    assert [x for _, _, x in kept.transcript] == xs
    _assert_matches_reference(exp, kept, xs)
    return kept


@pytest.mark.parametrize("n", [*range(1, 10), 13, 16])
def test_bulk_pair_keys_match_the_per_pair_formula(n):
    # a single terminal (an empty table) and, from n = 2, a seeded all-even
    # 2..4-set, at sample counts on both sides of the 1024-pair block
    dim = Dimension(n)
    rng = random.Random(f"bulk-pairs/{n}")
    evens = [v for v in range(1 << n) if v.bit_count() % 2 == 0]
    sets = [[rng.choice(evens)]]
    if n > 1:
        sets.append(rng.sample(evens, rng.randint(2, 4)))
    for members in sets:
        exp = build_intersection_experiment(VertexSet.of(dim, members))
        for samples in (1, 2, 1023, 1024, 1025, 2049):
            _assert_bulk_pairs_match_the_formula(exp, samples, rng.randrange(1 << 30))


def test_bulk_pair_keys_on_a_single_terminal_of_q64():
    # shift bytes run up to 63; every pair reads the empty table
    exp = build_intersection_experiment(VertexSet.of(Dimension(64), [0b11 << 40]))
    kept = _assert_bulk_pairs_match_the_formula(exp, 1025, 11)
    assert (kept.mean, kept.max_overlap) == (0, 0)
    assert max(g.shift for g, _, _ in kept.transcript) == 63


def test_overlap_maps_each_mirror_edge_once_per_shift(monkeypatch):
    # the counts X(1, h) take n images of each of the d mirror edges, however
    # many pairs the run reads: identity row, samples or a csv transcript
    calls = []
    real = bounds._edge_image

    def counting(dim, g, e):
        calls.append(g)
        return real(dim, g, e)

    monkeypatch.setattr(bounds, "_edge_image", counting)
    exp = build_intersection_experiment(VertexSet.of(D4, [0, 3, 5, 9, 15]))
    for kwargs in ({}, {"samples": 500, "seed": 2}, {"keep_transcript": True}):
        calls.clear()
        summary = run_intersection_experiment(exp, **kwargs)
        assert len(calls) == D4.n * exp.distance
    assert summary.mean == Fraction(exp.distance**2, D4.num_edges)


@pytest.mark.parametrize("keep", [True])
def test_exhaustive_mean_rejects_a_group_that_drops_or_repeats_an_element(
    monkeypatch, keep
):
    # a transcript reads the enumerated group; the run without one never
    # enumerates it (see the next test)
    real = bounds.enumerate_group
    exp = build_intersection_experiment(EVEN3)
    for faulty in (lambda g: g[:-1], lambda g: g + g[-1:]):
        monkeypatch.setattr(
            bounds, "enumerate_group", lambda dim, **kw: faulty(real(dim, **kw))
        )
        with pytest.raises(AssertionError, match="broke the group identity"):
            run_intersection_experiment(exp, keep_transcript=keep)


def test_exhaustive_mean_rejects_shift_images_that_repeat_a_direction(monkeypatch):
    # Without a transcript the identity row is the overlap table. Reading
    # shift 1 as shift 0 sends a mirror edge of direction b to b twice and
    # never to b - 1, so the table of even Q_3 sums to 26, not 25.
    real = bounds._edge_image
    exp = build_intersection_experiment(EVEN3)
    monkeypatch.setattr(
        bounds,
        "_edge_image",
        lambda dim, g, e: real(dim, g._replace(shift=0) if g.shift == 1 else g, e),
    )
    with pytest.raises(AssertionError, match="broke the group identity"):
        run_intersection_experiment(exp)


def test_experiment_budget_and_sample_guards(monkeypatch):
    exp = build_intersection_experiment(EVEN3)
    with pytest.raises(ValueError):
        run_intersection_experiment(exp, samples=0)
    drawn = []
    sample_stream = bounds._sample_stream

    def sampler(dim, rng, count):
        drawn.append(count)
        return sample_stream(dim, rng, count)

    monkeypatch.setattr(bounds, "_sample_stream", sampler)
    # the pairs are charged before any element is drawn
    with pytest.raises(BudgetExceededError):
        run_intersection_experiment(exp, samples=1000, budget=999)
    assert drawn == []
    # then drawn a block of at most 1024 pairs at a time
    run_intersection_experiment(exp, samples=2500)
    assert drawn == [2048, 2048, 904]
    # a transcript reads all 12^2 = 144 pairs; without one the 3 * 5^2 = 75
    # comparisons that build the overlap table are the whole charge
    with pytest.raises(BudgetExceededError):
        run_intersection_experiment(exp, budget=100, keep_transcript=True)
    assert run_intersection_experiment(exp, budget=100).pair_count == 144
    with pytest.raises(BudgetExceededError, match="overlap table: projected 75 units"):
        run_intersection_experiment(exp, budget=74)
    assert run_intersection_experiment(exp, budget=75).pair_count == 144


def test_exhaustive_q9_reads_the_overlap_table():
    # |G| = 2304 at n = 9; the table needs 9 * 2^2 comparisons, while a
    # transcript's |G|^2 = 5,308,416 pairs exceed the default budget
    exp = build_intersection_experiment(VertexSet.of(Dimension(9), [0, 3]))
    summary = run_intersection_experiment(exp, budget=36)
    assert summary.pair_count == 2304**2
    assert summary.mean == Fraction(4, Dimension(9).num_edges)
    with pytest.raises(BudgetExceededError, match="automorphism pair sweep"):
        run_intersection_experiment(exp, keep_transcript=True)


def test_sampled_experiment_is_not_charged_for_the_edge_set():
    # Q_3 has 12 edges; only the 5 sampled pairs are charged
    exp = build_intersection_experiment(VertexSet.of(D3, [0]))
    summary = run_intersection_experiment(exp, samples=5, budget=10)
    assert summary.pair_count == 5
    assert summary.max_overlap == 0
    # the exhaustive run reads the empty table and enumerates nothing
    summary = run_intersection_experiment(exp, budget=10)
    assert (summary.pair_count, summary.mean, summary.max_overlap) == (144, 0, 0)
    # a transcript still needs the 12-element group
    with pytest.raises(BudgetExceededError, match="group enumeration"):
        run_intersection_experiment(exp, budget=10, keep_transcript=True)


@pytest.mark.parametrize("n", range(1, 8))
def test_exhaustive_table_summary_matches_the_transcript_sweep(n):
    # the identity row read from the table against all |G|^2 pairs read one
    # by one from the enumerated group, singletons included
    dim = Dimension(n)
    evens = list(parity_class(dim, 0))
    rng = random.Random(f"table/{n}")
    for size in sorted({min(k, len(evens)) for k in (1, 2, rng.randint(3, 7), 8)}):
        exp = build_intersection_experiment(VertexSet.of(dim, rng.sample(evens, size)))
        table = run_intersection_experiment(exp)
        swept = run_intersection_experiment(exp, keep_transcript=True)
        assert swept.pair_count == group_order(dim) ** 2
        assert replace(swept, transcript=None) == table


@pytest.mark.parametrize(
    "n, far, max_overlap, mean",
    [
        (18, (1 << 18) - 1, 17, Fraction(9, 65536)),
        (19, (1 << 18) - 1, 17, Fraction(81, 1245184)),
        (21, (1 << 20) - 1, 19, Fraction(25, 1376256)),
    ],
)
def test_exhaustive_two_sets_beyond_group_enumeration(monkeypatch, n, far, max_overlap, mean):
    # |G| = n 2^(n-1) is 2,359,296 at n = 18 and over the default budget
    # from n = 19 on; the run without a transcript never enumerates it
    def refuse(dim, **kw):
        raise AssertionError("enumerate_group called")

    monkeypatch.setattr(bounds, "enumerate_group", refuse)
    dim = Dimension(n)
    exp = build_intersection_experiment(VertexSet.of(dim, [0, far]))
    summary = run_intersection_experiment(exp)
    assert exp.distance == far.bit_count()
    assert (summary.max_overlap, summary.mean) == (max_overlap, mean)
    assert summary.mean == Fraction(exp.distance**2, dim.num_edges)
    assert summary.pair_count == group_order(dim) ** 2


def test_mirror_union_floor():
    # |S| disjoint even/odd pairs force at least 2|S| - 1 tree edges
    rng = random.Random(2)
    evens = list(EVEN3)
    for _ in range(10):
        members = VertexSet.of(D3, rng.sample(evens, rng.randint(2, 4)))
        union = VertexSet.of(D3, [*members, *mirror_set(members)])
        d, _ = steiner_exact(SteinerInstance(D3, union))
        assert d >= 2 * len(members) - 1


def test_mirror_union_connection_step():
    # joining the paired optimal trees costs at most one shortest path
    rng = random.Random(6)
    for n in (3, 4):
        dim = Dimension(n)
        evens = list(parity_class(dim, 0))
        for _ in range(8):
            members = VertexSet.of(dim, rng.sample(evens, rng.randint(2, 4)))
            exp = build_intersection_experiment(members)
            union = VertexSet.of(dim, [*members, *exp.mirrored])
            d, _ = steiner_exact(SteinerInstance(dim, union))
            assert d <= len(exp.tree.edges | exp.mirror_tree.edges) + n


def test_bootstrap_cases():
    case = bootstrap_case(D4, 8, 9)
    assert case.excess == 1
    assert case.premise_holds
    assert not case.vacuous
    assert case.conclusion_holds
    assert case.holds

    tied = bootstrap_case(D4, 8, 8)
    assert tied.vacuous
    assert tied.holds

    with pytest.raises(ValueError):
        bootstrap_case(D4, 8, 6)


@pytest.mark.parametrize("s, d", [(True, 1), (4, 5.0), (4.0, 5), (4, False)])
def test_bootstrap_case_refuses_arguments_that_are_not_ints(s, d):
    with pytest.raises(ValueError, match="need int s and d"):
        bootstrap_case(D3, s, d)


@pytest.mark.parametrize(
    "n, s, d",
    [(3, -3, 5), (3, 0, 0), (3, 9, 8), (3, 100, 200), (3, 4, 8), (1, 1, 2), (4, 2, 16)],
)
def test_bootstrap_case_refuses_cells_that_cannot_occur(n, s, d):
    # s terminals must fit in Q_n, and a tree in Q_n has at most 2^n - 1 edges
    with pytest.raises(ValueError, match="no tree on"):
        bootstrap_case(Dimension(n), s, d)


def test_bootstrap_grid_small():
    for n in range(1, 7):
        dim = Dimension(n)
        for s in range(1, dim.num_vertices + 1):
            for d in range(s - 1, dim.num_vertices):
                assert bootstrap_case(dim, s, d).holds, (n, s, d)


def test_bounds_report_even_class():
    report = build_bounds_report(EVEN3)
    assert report.set_size == 4
    assert report.lower == Fraction(8, 3)
    assert report.lower_floor == 4
    assert report.certified_lower == 4
    assert report.exact == 5
    assert report.exact_reason == "computed"
    assert report.upper == 5
    assert report.certified_lower <= report.exact <= report.upper
    validate_tree(report.tree, report.terminals)


def test_bounds_report_mixed_parity_set():
    report = build_bounds_report(VertexSet.of(D3, [0, 7]))
    assert report.lower is None
    assert report.lower_floor == 1
    assert report.certified_lower == 1
    assert report.exact == 3


def test_bounds_report_omits_exact_over_budget():
    even7 = parity_class(Dimension(7), 0)
    report = build_bounds_report(even7)
    assert report.exact is None
    assert report.exact_reason.startswith("budget:")
    assert report.lower == Fraction(452, 7)
    assert report.certified_lower == 65
    assert report.upper == 81  # cutting beats the 64 + 36 - 1 guarantee
    assert report.upper <= 64 + 36 - 1
    validate_tree(report.tree, report.terminals)


def test_bounds_report_rejects_inconsistent_claims():
    good = build_bounds_report(EVEN3)
    with pytest.raises(ValueError):
        BoundsReport(
            terminals=good.terminals,
            set_size=good.set_size,
            lower=good.lower,
            lower_floor=good.lower_floor,
            upper=good.upper,
            exact=good.upper + 1,
            exact_reason="computed",
            tree=good.tree,
            cds=good.cds,
        )
    with pytest.raises(ValueError):
        BoundsReport(
            terminals=good.terminals,
            set_size=good.set_size,
            lower=good.lower,
            lower_floor=good.lower_floor,
            upper=good.set_size + good.cds.size,
            exact=None,
            exact_reason="computed",
            tree=good.tree,
            cds=good.cds,
        )
    with pytest.raises(ValueError, match="empty terminal set"):
        build_bounds_report(VertexSet.of(D3, []))


def test_sdiam_known_table_q3():
    exact = {}
    for k in range(2, 9):
        rep = sdiam_sandwich(D3, k)
        assert rep.exact_reason == "computed"
        assert rep.lower <= rep.exact <= rep.upper
        assert rep.upper == k + 3
        exact[k] = rep.exact
    assert exact == {2: 3, 3: 3, 4: 5, 5: 5, 6: 5, 7: 6, 8: 7}


def test_sdiam_worst_set_is_even_class():
    rep = sdiam_sandwich(D3, 4)
    assert rep.worst_set.members == EVEN3.members
    d, _ = steiner_exact(SteinerInstance(D3, rep.worst_set))
    assert d == rep.exact


def test_sdiam_lower_bound_caps_at_even_class():
    rep = sdiam_sandwich(D3, 6)
    assert rep.lower == lower_bound_even(D3, 4)
    assert sdiam_sandwich(D3, 2).lower == lower_bound_even(D3, 2)


@pytest.mark.parametrize("k", [3.0, True, Fraction(3)])
def test_sdiam_sandwich_refuses_a_size_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="need 2 <= k"):
        sdiam_sandwich(D3, k)


def test_sdiam_small_cubes():
    assert sdiam_sandwich(Dimension(2), 2).exact == 2
    assert sdiam_sandwich(Dimension(2), 4).exact == 3
    assert sdiam_sandwich(D4, 2).exact == 4


def _full_sdiam_sweep(dim, k):
    """max d(S) over all C(2^n, k) k-sets and the lexicographically first
    set attaining it."""
    best_d, worst = -1, None
    for cand in combinations(range(dim.num_vertices), k):
        d, _ = steiner_exact(SteinerInstance.from_vertices(dim, cand))
        if d > best_d:
            best_d, worst = d, cand
    return best_d, worst


@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in (1, 2, 3) for k in range(2, (1 << n) + 1)]
    + [(4, k) for k in (2, 3, 4, 5, 6)],
)
def test_sdiam_sweep_over_sets_with_zero_matches_full_sweep(n, k):
    dim = Dimension(n)
    rep = sdiam_sandwich(dim, k)
    assert (rep.exact, rep.worst_set.members) == _full_sdiam_sweep(dim, k)


def _column_multiset(n, rest):
    """The sweep's key spelled with bit operations: the sorted n columns,
    column b being bit b of each terminal of `rest`, in order."""
    return tuple(sorted(tuple(t >> b & 1 for t in rest) for b in range(n)))


@pytest.mark.parametrize(
    "n, k, solves",
    # one solve per set containing 0 would be 3, 21, 35, 35 on Q_3,
    # 4, 105, 455, 1365 on Q_4, 4495 at (5, 4), and 1953 and 8001 for
    # k = 3 on Q_6 and Q_7
    [(3, 2, 3), (3, 3, 7), (3, 4, 15), (3, 5, 22)]
    + [(4, 2, 4), (4, 3, 16), (4, 4, 76), (4, 5, 336)]
    + [(5, 4, 258), (6, 3, 50), (7, 3, 77)],
)
def test_sdiam_sweep_solves_once_per_column_multiset(monkeypatch, n, k, solves):
    dim = Dimension(n)
    solved = []

    def counting(cube, terms, budget, *, witness):
        solved.append(terms)
        return _solve(cube, terms, budget, witness=witness)

    monkeypatch.setattr("cubesteiner.bounds._solve", counting)
    sdiam_sandwich(dim, k)
    assert len(solved) == solves
    first = {}
    for rest in combinations(range(1, dim.num_vertices), k - 1):
        first.setdefault(_column_multiset(n, rest), (0,) + rest)
    assert solved == list(first.values())
    if n > 4:
        # the check below solves every swept set; keep Tier-1's time flat
        return
    # the lemma: a set solved on its own has its key's first set's distance
    d_first = {
        key: _solve(dim, cand, DEFAULT_BUDGET, witness=False)[0] for key, cand in first.items()
    }
    for rest in combinations(range(1, dim.num_vertices), k - 1):
        d = _solve(dim, (0,) + rest, DEFAULT_BUDGET, witness=False)[0]
        assert d == d_first[_column_multiset(n, rest)]


def test_report_and_sweep_never_build_a_witness(monkeypatch):
    # both need d(S) only, so neither may pay for a witness tree
    def refuse(*args, **kwargs):
        raise AssertionError("witness solver called")

    def distance_only(masks, base, terms, budget, *, witness):
        if witness:
            refuse()
        return _dp_solve(masks, base, terms, budget, witness=False)

    monkeypatch.setattr("cubesteiner.bounds._dp_solve", distance_only)
    monkeypatch.setattr("cubesteiner.steiner._dp_solve", distance_only)
    monkeypatch.setattr("cubesteiner.steiner.steiner_exact", refuse)
    assert build_bounds_report(EVEN3).exact == 5
    assert build_bounds_report(parity_class(Dimension(5), 0)).exact == 20
    assert build_bounds_report(VertexSet.of(D4, [1, 2, 4, 8, 15])).exact == 7
    assert sdiam_sandwich(D4, 5).exact == 7
    assert sdiam_sandwich(D3, 8).exact == 7


@pytest.mark.parametrize(
    "n, k, d",
    [(4, 6, 8), (5, 4, 8), (8, 2, 8), (9, 2, 9), (11, 2, 11)]
    # Q_n is a median graph, so d(S) = (d12 + d13 + d23)/2 <= n for a 3-set
    + [(n, 3, n) for n in range(2, 10)],
)
def test_sdiam_sweeps_every_set_containing_zero_within_the_default_budget(n, k, d):
    # the sweep is charged C(2^n - 1, k - 1) dispatch ceilings, one per set
    # it sweeps, so these fit the default budget
    rep = sdiam_sandwich(Dimension(n), k)
    assert (rep.exact, rep.exact_reason) == (d, "computed")
    assert rep.lower <= d <= rep.upper


def test_sdiam_k_range():
    with pytest.raises(ValueError):
        sdiam_sandwich(D3, 1)
    with pytest.raises(ValueError):
        sdiam_sandwich(D3, 9)


def test_sdiam_omits_exact_over_budget():
    rep = sdiam_sandwich(D4, 8)
    assert rep.exact is None
    assert rep.worst_set is None
    assert rep.exact_reason.startswith("budget:")
    assert rep.upper == 8 + rep.cds.size - 1
    assert rep.lower == lower_bound_even(D4, 8)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_report_sandwich_on_random_even_sets(data):
    n = data.draw(st.integers(3, 4))
    dim = Dimension(n)
    evens = list(parity_class(dim, 0))
    size = data.draw(st.integers(2, min(6, len(evens))))
    members = data.draw(
        st.lists(st.sampled_from(evens), min_size=size, max_size=size, unique=True)
    )
    report = build_bounds_report(VertexSet.of(dim, members))
    assert report.exact is not None
    assert report.certified_lower <= report.exact <= report.upper
    assert math.ceil(report.lower) <= report.exact
