import random
from itertools import combinations
from operator import add
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cubesteiner import steiner
from cubesteiner.autgroup import apply_vertex, sample_uniform
from cubesteiner.bounds import build_intersection_experiment
from cubesteiner.cube import (
    Dimension,
    Edge,
    VertexSet,
    _closed_ball,
    _join,
    bfs_forest,
    edge_between,
    hamming_distance,
    parity,
    parity_class,
    parse_vertex,
)
from cubesteiner.errors import DEFAULT_BUDGET, BudgetExceededError, ParseError, check_budget
from cubesteiner.steiner import (
    SteinerInstance,
    SteinerTree,
    _across,
    _block_masks,
    _certified_tree,
    _column_classes,
    _dp_projection,
    _dp_solve,
    _steiner_vertex_search,
    _subset_dp,
    load_instance,
    parse_instance_text,
    shortest_path,
    steiner_brute_oracle,
    steiner_distance,
    steiner_exact,
    validate_tree,
)

D3 = Dimension(3)
D4 = Dimension(4)


def _inst(dim, vertices):
    return SteinerInstance.from_vertices(dim, vertices)


def _units(n):
    """The trivial reduction's class masks: one class per coordinate."""
    return [1 << b for b in range(n)]


def test_instance_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        SteinerInstance(D3, VertexSet.of(D3, []))
    with pytest.raises(ValueError):
        _inst(D3, [0, 0, 5])
    with pytest.raises(ValueError):
        SteinerInstance(D3, VertexSet.of(D4, [0]))


@pytest.mark.parametrize("vertices, bad", [([2, 2.0], "2.0"), ([1, True], "True")])
def test_instance_names_the_invalid_vertex_before_any_duplicate(vertices, bad):
    # 2.0 == 2 and True == 1, so a duplicate test run first would see a
    # repeated terminal, not the vertex that is no int
    with pytest.raises(ValueError, match=f"vertex {bad} not valid"):
        _inst(Dimension(2), vertices)


def test_shortest_path_examples():
    assert shortest_path(D3, 0, 0) == []
    assert shortest_path(D3, 0, 3) == [Edge(0, 0), Edge(3, 1)]
    assert len(shortest_path(D4, 0, 15)) == 4


@given(st.integers(1, 6), st.data())
def test_shortest_path_is_a_geodesic(n, data):
    dim = Dimension(n)
    u = data.draw(st.integers(0, dim.num_vertices - 1))
    v = data.draw(st.integers(0, dim.num_vertices - 1))
    path = shortest_path(dim, u, v)
    assert len(path) == hamming_distance(dim, u, v)
    cur = u
    for e in path:
        a, b = e.endpoints()
        assert cur in (a, b)
        cur = b if cur == a else a
    assert cur == v


def test_single_terminal_is_free():
    d, tree = steiner_exact(_inst(D3, [5]))
    assert d == 0
    assert tree.vertices == frozenset([5])
    assert tree.edges == frozenset()


@given(st.integers(1, 4), st.data())
def test_pair_distance_equals_hamming(n, data):
    dim = Dimension(n)
    u = data.draw(st.integers(0, dim.num_vertices - 1))
    v = data.draw(st.integers(0, dim.num_vertices - 1))
    if u == v:
        return
    d, tree = steiner_exact(_inst(dim, [u, v]))
    assert d == hamming_distance(dim, u, v)
    validate_tree(tree, [u, v])


def test_three_terminal_example_with_branch_vertex():
    # 000, 011, 101 pairwise at distance 2 meet at a common neighbor
    terminals = [parse_vertex(D3, s) for s in ("000", "011", "101")]
    d, tree = steiner_exact(_inst(D3, terminals))
    assert d == 3
    assert steiner_brute_oracle(_inst(D3, terminals)) == 3
    assert parse_vertex(D3, "001") in tree.vertices


def test_even_class_distances():
    d3, _ = steiner_exact(SteinerInstance(D3, parity_class(D3, 0)))
    assert d3 == 5
    d4, _ = steiner_exact(SteinerInstance(D4, parity_class(D4, 0)))
    assert d4 == 10


def test_oracle_examples():
    assert steiner_brute_oracle(_inst(Dimension(2), [0, 3])) == 2
    assert steiner_brute_oracle(_inst(D3, [0, 7])) == 3


def test_oracle_agreement_exhaustive_q3_small_sets():
    for size in (2, 3):
        for terms in combinations(range(8), size):
            inst = _inst(D3, terms)
            d, tree = steiner_exact(inst)
            assert d == steiner_brute_oracle(inst), terms
            validate_tree(tree, terms)
            assert len(tree.edges) == d


def test_oracle_agreement_sampled_q4():
    rng = random.Random(99)
    for _ in range(40):
        size = rng.randint(2, 4)
        terms = rng.sample(range(16), size)
        inst = _inst(D4, terms)
        assert steiner_exact(inst)[0] == steiner_brute_oracle(inst)


def test_monotone_under_terminal_growth():
    rng = random.Random(7)
    for _ in range(20):
        chain = rng.sample(range(16), 6)
        prev = 0
        for size in (2, 3, 4, 5, 6):
            d, _ = steiner_exact(_inst(D4, chain[:size]))
            assert d >= prev
            prev = d


def test_distance_sandwich_on_sampled_sets():
    rng = random.Random(11)
    for _ in range(25):
        terms = rng.sample(range(16), rng.randint(2, 5))
        d, _ = steiner_exact(_inst(D4, terms))
        worst_pair = max(
            hamming_distance(D4, u, v) for u, v in combinations(terms, 2)
        )
        path_sum = sum(
            hamming_distance(D4, terms[i], terms[i + 1]) for i in range(len(terms) - 1)
        )
        assert worst_pair <= d <= path_sum


def test_distance_invariant_under_group_action():
    rng = random.Random(5)
    for _ in range(15):
        terms = rng.sample(range(16), rng.randint(2, 5))
        g = sample_uniform(D4, rng)
        moved = [apply_vertex(D4, g, v) for v in terms]
        assert steiner_exact(_inst(D4, terms))[0] == steiner_exact(_inst(D4, moved))[0]


def test_budget_guard_reports_projection():
    inst = SteinerInstance(D4, parity_class(D4, 0))
    with pytest.raises(BudgetExceededError) as exc_info:
        steiner_exact(inst, budget=100)
    assert exc_info.value.projected > 100
    assert exc_info.value.limit == 100
    with pytest.raises(BudgetExceededError):
        steiner_brute_oracle(_inst(D4, [0, 15]), budget=3)


def test_oracle_charges_its_vertex_listing_before_building_it():
    with pytest.raises(BudgetExceededError) as exc_info:
        steiner_brute_oracle(_inst(Dimension(12), [0, 4095]), budget=1000)
    assert (exc_info.value.what, exc_info.value.projected) == ("oracle vertex listing", 4094)


def test_validate_tree_rejects_cycle():
    cycle = SteinerTree(
        D3,
        frozenset([Edge(0, 0), Edge(0, 1), Edge(3, 0), Edge(3, 1)]),
        frozenset([0, 1, 2, 3]),
    )
    with pytest.raises(ValueError):
        validate_tree(cycle, [0, 3])


def test_validate_tree_rejects_disconnected():
    # a 4-cycle plus an isolated terminal has |V|-1 edges but two pieces
    broken = SteinerTree(
        D3,
        frozenset([Edge(0, 0), Edge(0, 1), Edge(3, 0), Edge(3, 1)]),
        frozenset([0, 1, 2, 3, 7]),
    )
    with pytest.raises(ValueError):
        validate_tree(broken, [0, 7])


def test_validate_tree_rejects_non_terminal_leaf():
    path = SteinerTree(D3, frozenset([Edge(0, 0), Edge(3, 1)]), frozenset([0, 1, 3]))
    with pytest.raises(ValueError):
        validate_tree(path, [0, 1])
    validate_tree(path, [0, 3])  # both leaves terminal: fine


def test_validate_tree_rejects_edge_leaving_vertex_set():
    # edge 0-2 has its odd end outside the listed vertices {0, 1, 6}
    stray = SteinerTree(D3, frozenset([Edge(0, 0), Edge(0, 1)]), frozenset([0, 1, 6]))
    with pytest.raises(ValueError, match="leaves the tree's vertex set"):
        validate_tree(stray, [0, 1, 6])


def test_validate_tree_rejects_missing_terminal():
    tree = SteinerTree(D3, frozenset([Edge(0, 0)]), frozenset([0, 1]))
    with pytest.raises(ValueError):
        validate_tree(tree, [0, 2])


@pytest.mark.parametrize(
    "edges, vertices, terminals, match",
    [
        ([Edge(4, 0)], [4, 5], [4, 5], "vertex 4 not valid"),  # outside Q_2
        ([Edge(1, 0)], [0, 1], [0, 1], "does not store its even endpoint"),
        ([Edge(0, True)], [0, 1], [0, 1], "not an int"),
        ([], [99], [99], "vertex 99 not valid"),  # a lone vertex outside Q_2
    ],
    ids=["outside-q2", "odd-stored-end", "bool-bit-index", "lone-vertex-99"],
)
def test_validate_tree_rejects_trees_that_leave_the_cube(edges, vertices, terminals, match):
    # each is connected, acyclic and spans its terminals as a graph
    tree = SteinerTree(Dimension(2), frozenset(edges), frozenset(vertices))
    with pytest.raises(ValueError, match=match):
        validate_tree(tree, terminals)


def test_parse_instance_text_round_trip():
    text = "n=3\n# branch example\n000\n\n011\n101\n"
    inst = parse_instance_text(text)
    assert inst.dim == D3
    assert list(inst.terminals) == sorted(
        parse_vertex(D3, s) for s in ("000", "011", "101")
    )


@pytest.mark.parametrize(
    "text",
    [
        "",
        "000\n011",
        "n=zero\n000",
        "n=3\n00\n",
        "n=3\n000\n000\n",
        "n=3\n",
        "n=0\n0\n",
        "n=+3\n000\n",
        "n= 3\n000\n",
        "n=0_3\n000\n",
        "n=03\n000\n",
    ],
)
def test_parse_instance_text_errors(text):
    with pytest.raises(ParseError):
        parse_instance_text(text)


def test_load_instance(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text("n=4\n0000\n1111\n")
    inst = load_instance(str(p))
    assert inst.dim == D4
    assert list(inst.terminals) == [0, 15]


def test_load_instance_skips_a_utf8_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("n=3\n000\n011\n", encoding="utf-8")
    marked.write_text("n=3\n000\n011\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_instance(str(marked)) == load_instance(str(plain))


@settings(deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_exact_matches_oracle_on_random_triples(a, b, c):
    terms = sorted({a, b, c})
    if len(terms) < 2:
        return
    inst = _inst(D3, terms)
    assert steiner_exact(inst)[0] == steiner_brute_oracle(inst)


def _reference_subset_dp(terms, weights):
    """The subset DP with one list entry per vertex and a bucketed
    shortest-path search (edges across coordinate b cost weights[b]) for
    the grow step: plain loops, the reference for the packed rows.
    Returns dp[mask] for mask = 1 .. 2^k - 1 (dp[0] is unused)."""
    k = len(terms)
    n = len(weights)
    nverts = 1 << n
    full = (1 << k) - 1
    dp = [[]] * (1 << k)
    for i, t in enumerate(terms):
        dp[1 << i] = [
            sum(m for b, m in enumerate(weights) if (t ^ v) >> b & 1) for v in range(nverts)
        ]

    def half_splits(mask):
        subs = []
        sub = mask & (mask - 1)
        while sub:
            if sub < (mask ^ sub):
                subs.append(sub)
            sub = (sub - 1) & mask
        return subs[::-1]

    for mask in sorted(range(1, full + 1), key=lambda m: (m.bit_count(), m)):
        if mask.bit_count() < 2:
            continue
        first, *rest = half_splits(mask)
        arr = list(map(add, dp[first], dp[mask ^ first]))
        for sub in rest:
            left = dp[sub]
            right = dp[mask ^ sub]
            for v in range(nverts):
                c = left[v] + right[v]
                if c < arr[v]:
                    arr[v] = c
        buckets = {}
        for v, c in enumerate(arr):
            buckets.setdefault(c, []).append(v)
        d = min(buckets)
        while buckets:
            for v in buckets.pop(d, ()):
                if arr[v] != d:
                    continue
                for b, m in enumerate(weights):
                    u = v ^ (1 << b)
                    if arr[u] > d + m:
                        arr[u] = d + m
                        buckets.setdefault(d + m, []).append(u)
            d += 1
        dp[mask] = arr
    return dp


def _unpacked_subset_dp(terms, weights):
    """`_subset_dp`'s packed rows as lists, one value per vertex, and the
    field width."""
    rows, w = _subset_dp(terms, weights)
    field = (1 << w) - 1
    return [[row >> (w * v) & field for v in range(1 << len(weights))] for row in rows], w


def _assert_rows_match_reference(terms, weights):
    rows, w = _unpacked_subset_dp(terms, weights)
    ref = _reference_subset_dp(terms, weights)
    assert w == (len(terms) * sum(weights) + max(weights)).bit_length() + 1
    assert len(rows) == 1 << len(terms)
    assert rows[0] == [0] * (1 << len(weights))
    for mask in range(1, 1 << len(terms)):
        assert rows[mask] == ref[mask], (terms, weights, mask)
    return w


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_subset_dp_rows_match_reference(n, all_even, data):
    pool = [v for v in range(1 << n) if not all_even or parity(v) == 0]
    k = data.draw(st.integers(1, min(8, len(pool))))
    terms = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))
    weights = data.draw(
        st.one_of(st.just((1,) * n), st.tuples(*[st.integers(1, 9)] * n))
    )
    _assert_rows_match_reference(terms, weights)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subset_dp_rows_match_reference_on_even_classes(n):
    _assert_rows_match_reference(list(parity_class(Dimension(n), 0)), (1,) * n)


@pytest.mark.parametrize(
    "n, k, w",
    [
        (1, 2, 3), (2, 1, 3),
        (3, 2, 4), (2, 3, 4),
        (7, 2, 5), (3, 4, 5),
        (5, 6, 6), (6, 5, 6),
        (8, 4, 7), (7, 8, 7),
        (8, 8, 8),
    ],
)
def test_subset_dp_rows_match_reference_at_every_field_width(n, k, w):
    # k*n runs through every field width from 3 to 8 bits. The terminals
    # are the k vertices nearest vertex 0, so values grow towards the far
    # corner of the cube.
    terms = sorted(range(1 << n), key=lambda v: (v.bit_count(), v))[:k]
    assert _assert_rows_match_reference(terms, (1,) * n) == w


@pytest.mark.parametrize(
    "weights, k, w",
    [
        ((2,), 2, 4),
        ((4,), 2, 5), ((2, 2), 3, 5),
        ((4, 2), 2, 6),
        ((8, 4), 2, 7),
        ((8, 6), 4, 8),
        ((9, 8, 7), 5, 9),
    ],
)
def test_weighted_subset_dp_rows_match_reference_at_every_field_width(weights, k, w):
    # k*sum(weights) + max(weights) runs through the field widths from 4 to
    # 9 bits. From 5 bits on, each case overflows a field at the unit-weight
    # width (k*n + 1).bit_length() + 1, since the grow step adds a weight
    # before its minimum. Terminals as in the unit-weight test above.
    terms = sorted(range(1 << len(weights)), key=lambda v: (v.bit_count(), v))[:k]
    assert _assert_rows_match_reference(terms, weights) == w


def test_nine_bit_fields_on_a_q4_set_embedded_in_q13(monkeypatch):
    # The DP is rooted at one terminal, so an 11-set runs it over 10:
    # (k-1)*n = 10*13 = 130 needs 9-bit fields (8-bit ones allow
    # (k-1)*n <= 126). XOR with a mask that is zero on coordinates 0..3
    # moves the Q_4 set into a 4-dimensional subcube of Q_13, which keeps
    # its distance.
    small = random.Random(3).sample(range(16), 11)
    d4, _ = steiner_exact(_inst(D4, small))
    lifted = [v ^ 0b1011001110000 for v in small]
    widths = []

    def recording_dp(terms, weights):
        rows, w = _subset_dp(terms, weights)
        widths.append((len(terms), len(weights), w))
        return rows, w

    monkeypatch.setattr(steiner, "_subset_dp", recording_dp)
    # 2^10 rows of 2^13 fields
    d13, edges = _dp_solve(_units(13), 0, tuple(sorted(lifted)), 1 << 23, witness=True)
    assert widths == [(10, 13, 9)]
    assert d13 == d4 == len(edges)
    _certified_tree(Dimension(13), edges, lifted)


def _unrooted_witness(terms, n):
    """The DP over all k terminals, rebuilt from (full, terms[0]) by the
    same rules as `_dp_solve`: the first half-split in increasing
    submask order whose values add up, else the smallest neighbour one
    closer. Returns the distance and the edge set."""
    dim = Dimension(n)
    dp, _ = _unpacked_subset_dp(terms, (1,) * n)
    full = (1 << len(terms)) - 1
    root = terms[0]
    edges = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if mask & (mask - 1) == 0:
            edges.update(shortest_path(dim, terms[mask.bit_length() - 1], v))
            continue
        row = dp[mask]
        splits = [s for s in range(1, mask) if s & mask == s and s < mask ^ s]
        sub = next((s for s in splits if dp[s][v] + dp[mask ^ s][v] == row[v]), None)
        if sub is not None:
            stack.append((sub, v))
            stack.append((mask ^ sub, v))
        else:
            u = min(v ^ (1 << b) for b in range(n) if row[v ^ (1 << b)] == row[v] - 1)
            edges.add(edge_between(dim, u, v))
            stack.append((mask, u))
    return dp[full][root], edges


def _assert_rooted_witness_matches_unrooted(terms, n):
    dist, edges = _dp_solve(_units(n), 0, tuple(sorted(terms)), DEFAULT_BUDGET, witness=True)
    assert (dist, edges) == _unrooted_witness(sorted(terms), n)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_rooted_witness_matches_unrooted_rebuild(n, all_even, data):
    pool = [v for v in range(1 << n) if not all_even or parity(v) == 0]
    k = data.draw(st.integers(1, min(9, len(pool))))
    terms = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))
    _assert_rooted_witness_matches_unrooted(terms, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rooted_witness_matches_unrooted_rebuild_on_even_classes(n):
    _assert_rooted_witness_matches_unrooted(list(parity_class(Dimension(n), 0)), n)


@pytest.mark.parametrize("n, w", [(1, 1), (3, 1), (5, 1), (3, 4), (4, 6)])
def test_block_masks_select_the_vertices_with_bit_b_clear(n, w):
    field = (1 << w) - 1
    for b, lo in enumerate(_block_masks(n, w)):
        assert [lo >> (w * v) & field for v in range(1 << n)] == [
            0 if v >> b & 1 else field for v in range(1 << n)
        ]
        for v in range(1 << n):
            row = field << (w * v)
            assert _across(row, lo, w << b) == row >> (w * v) << (w * (v ^ 1 << b))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_distance_search_dp_and_oracle_agree(n, all_even, data):
    pool = [v for v in range(1 << n) if not all_even or parity(v) == 0]
    k = data.draw(st.integers(1, min(10, len(pool))))
    terms = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))
    inst = _inst(Dimension(n), terms)
    d = steiner_distance(inst)
    members = inst.terminals.members
    assert d == _dp_solve(_units(n), 0, members, DEFAULT_BUDGET, witness=False)[0]
    assert d == _dp_solve(_units(n), 0, members, DEFAULT_BUDGET, witness=True)[0]
    assert d == steiner_brute_oracle(inst)
    # within the allowance `_solve` gives it
    allowance = (3 ** (k - 1) - (1 << k) + 1) // 2 + ((1 << (k - 1)) - k) * n
    added = _steiner_vertex_search(n, members, allowance)
    if added is not None:
        assert len(set(added)) == len(added)
        assert not set(added) & set(members)
        assert len(bfs_forest(n, set(members).union(added))) == 1
        assert k - 1 + len(added) == d


@pytest.mark.parametrize("n, d", [(1, 0), (2, 2), (3, 5), (4, 10), (5, 20), (6, 39)])
def test_even_class_anchors_by_steiner_vertex_search(n, d):
    # d(S) = |S| - 1 + |A|; the DP and the oracle cannot reach n = 5, 6 here
    evens = list(parity_class(Dimension(n), 0))
    added = _steiner_vertex_search(n, evens, 1 << 40)  # far above what these charge
    assert len(set(added)) == len(added)
    assert len(evens) - 1 + len(added) == d
    assert not set(added) & set(evens)


def _bfs_components(n, terms):
    """(mask, outside neighbourhood mask) per component of the subgraph
    induced by terms, in `bfs_forest` order, built from vertex sets."""
    pairs = []
    for tree in bfs_forest(n, terms):
        around = {v ^ (1 << b) for v in tree for b in range(n)} - set(tree)
        pairs.append((sum(1 << v for v in tree), sum(1 << u for u in around)))
    return pairs


def _inline_merge_search(n, terms, cap):
    """The Steiner-vertex search with its start state read off a
    `bfs_forest` BFS and each child merged inline, as the search was
    built before `_join`: the A it finds (None once it has charged more
    than `cap`) and the units it charged."""
    per = max(n - 1, 1)
    spent = 0

    def search(comps, added, excluded, left):
        nonlocal spent
        c = len(comps)
        spent += c + 1
        if spent > cap:
            raise steiner._OutOfAllowance
        if c == 1:
            return added
        if -((c - 1) // -per) > left:
            return None
        cands = min((nbrs & ~excluded for _, nbrs in comps), key=int.bit_count)
        while cands:
            bit = cands & -cands
            v = bit.bit_length() - 1
            merged = bit
            around = sum(1 << (v ^ (1 << b)) for b in range(n)) | bit
            rest = []
            for comp, nbrs in comps:
                if nbrs & bit:
                    merged |= comp
                    around |= nbrs
                else:
                    rest.append((comp, nbrs))
            rest.append((merged, around & ~merged))
            found = search(rest, added + (v,), excluded, left - 1)
            if found is not None:
                return found
            excluded |= bit
            cands ^= bit
        return None

    comps = _bfs_components(n, terms)
    limit = -((len(comps) - 1) // -per)
    try:
        while (found := search(comps, (), 0, limit)) is None:
            limit += 1
    except steiner._OutOfAllowance:
        return None, spent
    return found, spent


# dense sets whose minimum A the branching's first-component tie-break picks
PINNED_DENSE_SETS = [
    (5, [2, 4, 7, 9, 13, 20, 23, 24, 26], (0, 3, 8)),
    (6, [3, 6, 11, 14, 16, 17, 18, 27, 30, 32, 36, 37, 39, 40, 41, 55, 56], (1, 7)),
]


def _dense_cases():
    """The pinned dense sets and 2,000 seeded ones, (n, sorted terminals)
    with n < k <= n + 14 and k <= 2^n, over Q_2..Q_7."""
    rng = random.Random("dense-join")
    cases = [(n, terms) for n, terms, _ in PINNED_DENSE_SETS]
    while len(cases) < 2002:
        n = rng.randint(2, 7)
        k = rng.randint(n + 1, min(1 << n, n + 14))
        cases.append((n, sorted(rng.sample(range(1 << n), k))))
    return cases


def test_search_by_join_matches_the_inline_merge_search_and_its_charge(monkeypatch):
    # same A, and the same charge to the unit: the search answers at an
    # allowance equal to what the inline-merge search charged, and runs
    # out one unit below it; sets that run past the cap run out in both
    def refuse(n, vertices):
        raise AssertionError("bfs_forest called by the search")

    monkeypatch.setattr(steiner, "bfs_forest", refuse)
    cap = 4000
    for n, terms, want in PINNED_DENSE_SETS:
        assert _inline_merge_search(n, terms, cap)[0] == want
    found = 0
    for n, terms in _dense_cases():
        want, charged = _inline_merge_search(n, terms, cap)
        if want is None:
            assert _steiner_vertex_search(n, terms, cap) is None
            continue
        found += 1
        assert _steiner_vertex_search(n, terms, charged) == want
        assert _steiner_vertex_search(n, terms, charged - 1) is None
    assert found >= 1500


def test_search_witness_is_the_whole_bfs_tree_of_s_and_a():
    # the cut to the terminals drops no edge of the BFS tree of S + A,
    # since a minimum A leaves no leaf that is not a terminal; the search
    # is deterministic, so an A it finds within 4,000 units and within
    # the allowance `_solve` gives it is the one the dispatch finds
    witnessed = 0
    for n, terms in _dense_cases():
        k = len(terms)
        allowance = (3 ** (k - 1) - (1 << k) + 1) // 2 + ((1 << (k - 1)) - k) * n
        added = _steiner_vertex_search(n, terms, min(allowance, 4000))
        if added is None:
            continue
        witnessed += 1
        dim = Dimension(n)
        # a budget above every projection here, so the search always runs
        _, tree = steiner_exact(_inst(dim, terms), budget=1 << 40)
        [parent] = bfs_forest(n, set(terms).union(added))
        assert tree.vertices == set(parent)
        assert tree.edges == {edge_between(dim, v, p) for v, p in parent.items() if v != p}
    assert witnessed >= 1500


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 7), st.data())
def test_sorted_join_fold_is_the_bfs_forest_components(n, data):
    terms = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=24))
    comps = []
    for t in sorted(terms):
        comps = _join(comps, t, _closed_ball(n, t))
    comps.sort(key=lambda pair: pair[0] & -pair[0])
    assert comps == _bfs_components(n, terms)


def test_single_terminal_of_q64_builds_no_dp_row(monkeypatch):
    # one DP row over Q_64 would hold 2^64 fields
    def refuse(terms, weights):
        raise AssertionError("subset DP called")

    monkeypatch.setattr(steiner, "_subset_dp", refuse)
    v = (1 << 64) - 1
    inst = _inst(Dimension(64), [v])
    d, tree = steiner_exact(inst)
    assert (d, tree.edges, tree.vertices) == (0, frozenset(), frozenset([v]))
    assert steiner_distance(inst) == 0


def _count_dp_calls(monkeypatch):
    calls = []

    def counting(terms, weights):
        calls.append((len(terms), len(weights)))
        return _subset_dp(terms, weights)

    monkeypatch.setattr(steiner, "_subset_dp", counting)
    return calls


def test_distance_answers_dense_set_by_search_alone(monkeypatch):
    q5 = Dimension(5)
    terms = [
        parse_vertex(q5, s)
        for s in "00000,11000,10100,10010,01010,00110,11110,10001,01001,00011,11011,01111".split(",")
    ]
    assert all(parity(v) == 0 for v in terms)
    calls = _count_dp_calls(monkeypatch)
    assert steiner_distance(_inst(q5, terms)) == 15
    assert calls == []


def test_distance_falls_back_to_the_dp_on_a_sparse_set(monkeypatch):
    q10 = Dimension(10)
    terms = random.Random(4).sample(range(1 << 10), 4)
    # allowance (3^3 - 2^4 + 1)/2 + (2^3 - 4)*10 = 46 units
    assert _steiner_vertex_search(10, terms, 46) is None
    calls = _count_dp_calls(monkeypatch)
    d = steiner_distance(_inst(q10, terms))
    # coordinate 0 is constant and the other nine fall into five classes
    assert calls == [(3, 5)]
    assert d == steiner_exact(_inst(q10, terms))[0]
    assert d == _dp_solve(_units(10), 0, tuple(sorted(terms)), DEFAULT_BUDGET, witness=False)[0]


def test_distance_budget_exit_matches_exact():
    # 8 terminals of Q_4 are charged 2^7 rows of 2^4 fields
    inst = SteinerInstance(D4, parity_class(D4, 0))
    for budget in (100, 2047):
        with pytest.raises(BudgetExceededError) as want:
            steiner_exact(inst, budget=budget)
        with pytest.raises(BudgetExceededError) as got:
            steiner_distance(inst, budget=budget)
        assert str(got.value) == str(want.value)
    assert steiner_distance(inst, budget=2048) == 10
    assert steiner_distance(_inst(D4, [9]), budget=1) == 0


def test_charge_covers_the_dp_that_runs(monkeypatch):
    # every DP is charged, just before it runs, the 2^(k-1) rows of 2^c
    # fields it builds, c its coordinate count; a search, run only where
    # n < k, is charged the ceiling first, which keeps its 2^n-bit masks
    # within it; a single terminal builds no row and is charged nothing
    events = []

    def recording_budget(what, projected, limit):
        if what == "subset DP states":
            events.append(("charge", projected))
        check_budget(what, projected, limit)

    def recording_dp(terms, weights):
        rows, w = _subset_dp(terms, weights)
        events.append(("built", len(rows) << len(weights)))
        return rows, w

    def failing_search(n, terms, allowance):
        events.append(("search", n))

    monkeypatch.setattr(steiner, "check_budget", recording_budget)
    monkeypatch.setattr(steiner, "_subset_dp", recording_dp)
    monkeypatch.setattr(steiner, "_steiner_vertex_search", failing_search)

    def charged_as_built(solve, arg, head=()):
        events.clear()
        result = solve(arg)
        built = events[-1][1]
        assert events == [*head, ("charge", built), ("built", built)]
        return built, result

    rng = random.Random(5)
    below = 0
    for n in range(1, 11):
        dim = Dimension(n)
        for k in range(2, min(8, 1 << n) + 1):
            head = [("charge", _dp_projection(n, k)), ("search", n)] if n < k else []
            if head:
                assert 1 << n <= _dp_projection(n, k) >> (k - 1)
            for _ in range(6):
                inst = _inst(dim, rng.sample(range(1 << n), k))
                c = len(_column_classes(inst.terminals.members)[0])
                below += c < min(n, (1 << (k - 1)) - 1)
                built, (d, tree) = charged_as_built(steiner_exact, inst, head)
                assert len(tree.edges) == d
                assert built == (1 << (k - 1)) << c
                assert charged_as_built(steiner_distance, inst, head) == (built, d)
        # the overlap experiment's DP runs on S itself: 2^(k-1) rows of 2^n
        evens = list(parity_class(dim, 0))
        for k in range(2, min(6, len(evens)) + 1):
            terms = VertexSet.of(dim, rng.sample(evens, k))
            built, _ = charged_as_built(build_intersection_experiment, terms)
            assert built == (1 << (k - 1)) << n
        for solve in (steiner_exact, steiner_distance):
            events.clear()
            solve(_inst(dim, [rng.randrange(1 << n)]))
            assert events == []
        events.clear()
        build_intersection_experiment(VertexSet.of(dim, [0]))
        assert events == []
    assert below >= 100


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sets_with_n_at_least_2_to_the_k_minus_1_skip_the_search(monkeypatch, k):
    def refuse(n, terms, allowance):
        raise AssertionError("Steiner-vertex search called")

    monkeypatch.setattr(steiner, "_steiner_vertex_search", refuse)
    rng = random.Random(k)
    for n in sorted({1 << (k - 1), 13, 20, 40, 64} - set(range(1 << (k - 1)))):
        for _ in range(3):
            terms = rng.sample(range(1 << n), k) if n < 64 else [rng.getrandbits(n) for _ in range(k)]
            inst = _inst(Dimension(n), terms)
            d, tree = steiner_exact(inst)
            validate_tree(tree, terms)
            assert len(tree.edges) == d == steiner_distance(inst)
            if n <= 13:
                members = inst.terminals.members
                assert d == _dp_solve(_units(n), 0, members, DEFAULT_BUDGET, witness=False)[0]


def test_search_runs_only_where_terminals_outnumber_coordinates(monkeypatch):
    # random 5-sets of Q_10..Q_15 and 6-sets of Q_6, Q_7 have k <= n <
    # 2^(k-1); a search on them would mostly run out of allowance, so they
    # go straight to the DP, while the all-even 10-12-sets of Q_5, Q_6 search
    searches = []

    def counting_search(n, terms, allowance):
        searches.append((n, len(terms)))
        return _steiner_vertex_search(n, terms, allowance)

    monkeypatch.setattr(steiner, "_steiner_vertex_search", counting_search)
    calls = _count_dp_calls(monkeypatch)
    rng = random.Random(25)
    sparse = [(n, 5) for n in range(10, 16)] + [(6, 6), (7, 6)]
    for n, k in sparse:
        for _ in range(4):
            terms = rng.sample(range(1 << n), k)
            inst = _inst(Dimension(n), terms)
            searches.clear()
            calls.clear()
            d, tree = steiner_exact(inst)
            validate_tree(tree, terms)
            assert len(tree.edges) == d
            assert (searches, len(calls)) == ([], 1)
    for n in (5, 6):
        evens = list(parity_class(Dimension(n), 0))
        for k in (10, 11, 12):
            searches.clear()
            steiner_distance(_inst(Dimension(n), rng.sample(evens, k)))
            assert searches == [(n, k)]


def _exact_branch(n, terms):
    """Solve by `steiner_exact`, check its tree against `steiner_distance`
    and the oracle, and name the branch that answered."""
    inst = _inst(Dimension(n), terms)
    with mock.patch.object(steiner, "_subset_dp", wraps=_subset_dp) as dp:
        d, tree = steiner_exact(inst)
    validate_tree(tree, terms)
    assert len(tree.edges) == d
    assert d == steiner_distance(inst) == steiner_brute_oracle(inst)
    return "dp" if dp.call_count else "search"


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_exact_tree_validates_and_agrees_with_distance_and_oracle(n, all_even, data):
    pool = [v for v in range(1 << n) if not all_even or parity(v) == 0]
    k = data.draw(st.integers(1, min(10, len(pool))))
    terms = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))
    _exact_branch(n, terms)


def test_exact_takes_both_branches_on_a_seeded_sample():
    rng = random.Random(12)
    branches = []
    for _ in range(150):
        n = rng.randint(2, 5)
        all_even = rng.random() < 0.5
        pool = [v for v in range(1 << n) if not all_even or parity(v) == 0]
        terms = rng.sample(pool, rng.randint(2, min(10, len(pool))))
        branches.append(_exact_branch(n, terms))
    assert branches.count("search") >= 30
    assert branches.count("dp") >= 30


def test_exact_keeps_the_dp_tree_on_a_sparse_set(monkeypatch):
    inst = _inst(Dimension(10), random.Random(4).sample(range(1 << 10), 4))
    members = inst.terminals.members
    d, edges = _dp_solve(*_column_classes(members), DEFAULT_BUDGET, witness=True)
    want = d, _certified_tree(inst.dim, edges, members)
    calls = _count_dp_calls(monkeypatch)
    assert steiner_exact(inst) == want
    assert calls == [(3, 5)]


def _few_column_set(n, k, data):
    """Terminals base ^ x_j whose coordinates copy one of a few drawn
    columns over the other terminals, a zero column making a coordinate
    constant; duplicates merge, so the set may have fewer than k."""
    columns = data.draw(st.lists(st.integers(0, (1 << (k - 1)) - 1), min_size=1, max_size=n))
    pick = data.draw(st.lists(st.sampled_from(columns), min_size=n, max_size=n))
    base = data.draw(st.integers(0, (1 << n) - 1))
    terms = {base}
    for j in range(k - 1):
        terms.add(base ^ sum(1 << b for b, col in enumerate(pick) if col >> j & 1))
    return tuple(sorted(terms))


def _two_pass_column_classes(terms):
    """An independent reading of the reduction: a bit loop for the
    columns, then every terminal tested against every class mask."""
    r = terms[0]
    columns = {}
    j = 1
    for t in terms[1:]:
        x = t ^ r
        while x:
            bit = x & -x
            columns[bit] = columns.get(bit, 0) | j
            x ^= bit
        j <<= 1
    classes = {}
    for bit in sorted(columns):
        column = columns[bit]
        classes[column] = classes.get(column, 0) | bit
    masks = list(classes.values())
    reduced = [0] * len(terms)
    for i, m in enumerate(masks):
        for j, t in enumerate(terms):
            if (t ^ r) & m:
                reduced[j] |= 1 << i
    return masks, r, tuple(reduced)


def _seeded_sorted_sets():
    rng = random.Random("column classes")
    for n in range(1, 65):
        for k in range(1, min(16, 1 << n) + 1):
            for _ in range(3):
                drawn = set()
                while len(drawn) < k:
                    drawn.add(rng.getrandbits(n))
                yield tuple(sorted(drawn))


def test_columns_read_each_coordinate_over_the_other_terminals():
    for terms in _seeded_sorted_sets():
        r = terms[0]
        n = max(terms).bit_length()
        want = {}
        for b in range(n):
            column = sum(((t ^ r) >> b & 1) << j for j, t in enumerate(terms[1:]))
            if column:
                want[1 << b] = column
        assert steiner._columns(terms) == want


def test_column_classes_match_the_two_pass_reading_on_seeded_sets():
    for terms in _seeded_sorted_sets():
        assert _column_classes(terms) == _two_pass_column_classes(terms)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 64), st.integers(1, 16), st.data())
def test_column_classes_match_the_two_pass_reading(n, k, data):
    # few distinct columns, so classes of several coordinates are common
    terms = _few_column_set(n, k, data)
    assert _column_classes(terms) == _two_pass_column_classes(terms)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 8), st.integers(1, 7), st.data())
def test_column_class_dp_agrees_with_unit_dp_and_oracle(n, k, data):
    terms = _few_column_set(n, k, data)
    dim = Dimension(n)
    masks, base, reduced = _column_classes(terms)
    assert sum(m.bit_count() for m in masks) <= n
    assert len(masks) <= min(n, (1 << (len(terms) - 1)) - 1)
    assert masks == sorted(masks, key=lambda m: m & -m)
    d, edges = _dp_solve(masks, base, reduced, DEFAULT_BUDGET, witness=True)
    tree = _certified_tree(dim, edges, terms)
    validate_tree(tree, terms)
    assert len(tree.edges) == d
    assert d == _dp_solve(masks, base, reduced, DEFAULT_BUDGET, witness=False)[0]
    assert d == _dp_solve(_units(n), 0, terms, DEFAULT_BUDGET, witness=False)[0]
    if n <= 5:
        assert d == steiner_brute_oracle(SteinerInstance(dim, VertexSet.of(dim, terms)))


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 8), st.integers(1, 7), st.data())
def test_one_dp_entry_agrees_on_both_reductions(n, k, data):
    # S's column classes and the trivial reduction (one class per
    # coordinate, base 0) are two inputs to the same entry: the same d,
    # with or without a witness, and each witness lifts to d certified
    # edges of Q_n
    dim = Dimension(n)
    drawn = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=k))
    terms = tuple(sorted(drawn))
    dists = set()
    for reduction in (_column_classes(terms), (_units(n), 0, terms)):
        d, edges = _dp_solve(*reduction, DEFAULT_BUDGET, witness=True)
        assert len(edges) == d
        _certified_tree(dim, edges, terms)
        assert _dp_solve(*reduction, DEFAULT_BUDGET, witness=False)[0] == d
        dists.add(d)
    [d] = dists
    inst = SteinerInstance(dim, VertexSet.of(dim, terms))
    try:
        oracle = steiner_brute_oracle(inst, budget=20000)
    except BudgetExceededError:
        assert n >= 5
    else:
        assert oracle == d


@pytest.mark.parametrize("n", [13, 64])
def test_antipodal_pair_is_one_class_of_weight_n(monkeypatch, n):
    # c = 1, m = n: one field per vertex of Q_1 holds values up to n
    calls = _count_dp_calls(monkeypatch)
    terms = (0, (1 << n) - 1)
    d, edges = _dp_solve(*_column_classes(terms), DEFAULT_BUDGET, witness=True)
    tree = _certified_tree(Dimension(n), edges, terms)
    assert calls == [(1, 1)]
    assert d == len(tree.edges) == n
    validate_tree(tree, terms)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_heaviest_class_of_weight_n_minus_one(n):
    # 0, then the first n - 1 coordinates set, then all n: classes of
    # weight n - 1 and 1. The grow step adds n - 1 to a sum of two rows of
    # up to 2n - 1, and 3n - 2 needs more bits than (k - 1)*n + 1 = 2n + 1
    # at n = 6 and 12.
    terms = (0, (1 << (n - 1)) - 1, (1 << n) - 1)
    assert _column_classes(terms)[0] == [(1 << (n - 1)) - 1, 1 << (n - 1)]
    d, edges = _dp_solve(*_column_classes(terms), DEFAULT_BUDGET, witness=True)
    tree = _certified_tree(Dimension(n), edges, terms)
    assert d == len(tree.edges) == n
    validate_tree(tree, terms)
    assert steiner_exact(_inst(Dimension(n), terms))[0] == n
