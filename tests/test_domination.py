import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import find, given, settings, strategies as st

from cubesteiner import domination
from cubesteiner.cube import (
    Dimension,
    VertexSet,
    _closed_ball,
    _geodesic,
    bfs_forest,
    hamming_distance,
    neighbors,
    parity_class,
)
from cubesteiner.domination import (
    DominatingSetCertificate,
    cds_constructions,
    certificate_to_text,
    closed_neighborhood_masks,
    exact_connected_dominating_set,
    exact_connected_domination_number,
    greedy_dominating_set,
    hamming_code_dominating_set,
    is_connected_subset,
    is_dominating,
    sphere_covering_floor,
    steinerize,
)
from cubesteiner.errors import BudgetExceededError, check_budget


def test_closed_neighborhood_masks():
    masks = closed_neighborhood_masks(Dimension(2))
    assert masks == [0b0111, 0b1011, 0b1101, 0b1110]
    for n in range(1, 7):
        dim = Dimension(n)
        masks = closed_neighborhood_masks(dim)
        assert len(masks) == dim.num_vertices
        for v, mask in enumerate(masks):
            assert mask == (1 << v) + sum(1 << u for u in neighbors(dim, v))


@given(st.data())
def test_is_dominating_matches_its_definition(data):
    # every vertex is in the set or adjacent to it
    n = data.draw(st.integers(1, 7))
    dim = Dimension(n)
    vertices = range(dim.num_vertices)
    members = data.draw(
        st.one_of(
            st.just(set()),
            st.just(set(vertices)),
            st.sets(st.sampled_from(vertices)),
            # near-dominating: the whole cube less a few vertices
            st.sets(st.sampled_from(vertices), max_size=4).map(
                lambda gone: set(vertices) - gone
            ),
        )
    )
    expected = all(
        v in members or any(u in members for u in neighbors(dim, v)) for v in vertices
    )
    assert is_dominating(VertexSet.of(dim, members)) == expected


def test_is_dominating_refuses_a_set_below_the_floor_without_masks(monkeypatch):
    # a closed-ball mask over Q_40 would take 2^40 bits
    def refuse(n, v):
        raise AssertionError("closed-ball mask built")

    monkeypatch.setattr(domination, "_closed_ball", refuse)
    assert not is_dominating(VertexSet.of(Dimension(40), [0, (1 << 40) - 1]))


def test_induced_components_ordering():
    d3 = Dimension(3)
    comps = [sorted(t) for t in bfs_forest(3, VertexSet.of(d3, [6, 0, 1]))]
    assert comps == [[0, 1], [6]]
    assert is_connected_subset(VertexSet.of(d3, [0, 1, 5]))
    assert not is_connected_subset(VertexSet.of(d3, [0, 7]))


def test_is_dominating_small_cases():
    d3 = Dimension(3)
    assert is_dominating(VertexSet.of(d3, [0, 7]))
    assert not is_dominating(VertexSet.of(d3, [0, 1]))
    assert is_dominating(VertexSet.of(Dimension(1), [0]))


def test_sphere_covering_floor_values():
    assert [sphere_covering_floor(Dimension(n)) for n in range(1, 8)] == [
        1, 2, 2, 4, 6, 10, 16,
    ]


def test_connected_domination_numbers_small():
    got = [exact_connected_domination_number(Dimension(n)) for n in range(1, 5)]
    assert got == [1, 2, 4, 6]


def _reference_lex_first_cds(dim):
    """Lexicographically first minimum connected dominating set, by
    enumerating candidate sets in increasing size (tiny n only)."""
    closed = closed_neighborhood_masks(dim)
    full = (1 << dim.num_vertices) - 1
    for size in range(1, dim.num_vertices + 1):
        for cand in combinations(range(dim.num_vertices), size):
            covered = 0
            for v in cand:
                covered |= closed[v]
            if covered == full and len(bfs_forest(dim.n, cand)) == 1:
                return VertexSet.of(dim, cand)
    raise AssertionError("the full vertex set is connected and dominating")


def test_branch_and_bound_matches_exhaustive():
    # the branch and bound's first witness is the lexicographically first
    # minimum, so the certificates match the exhaustive enumeration
    for n in range(1, 5):
        dim = Dimension(n)
        cert = exact_connected_dominating_set(dim)
        assert cert.vertex_set == _reference_lex_first_cds(dim)


def _reference_unpruned_cds(dim):
    """The branch and bound without orbit pruning and with the weaker
    bound of n + 1 newly covered vertices per added vertex, on one vertex
    mask whose connectivity `bfs_forest` tests; returns the first
    witness's sorted members and the nodes entered."""
    closed = closed_neighborhood_masks(dim)
    full = (1 << dim.num_vertices) - 1
    ball = dim.n + 1
    nodes = 0

    def connected(mask):
        members = [v for v in range(dim.num_vertices) if (mask >> v) & 1]
        return len(bfs_forest(dim.n, members)) == 1

    def search(mask, covered, excluded, left):
        nonlocal nodes
        nodes += 1
        if covered == full:
            return mask if connected(mask) else 0
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
                if connected(mask | low):
                    return mask | low
                cand ^= low
            return 0
        cand = closed[(uncovered & -uncovered).bit_length() - 1] & ~excluded
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            found = search(mask | low, covered | closed[v], excluded, left - 1)
            if found:
                return found
            excluded |= low
            cand ^= low
        return 0

    for limit in range(sphere_covering_floor(dim), dim.num_vertices + 1):
        found = search(1, closed[0], 0, limit - 1)
        if found:
            return [v for v in range(dim.num_vertices) if (found >> v) & 1], nodes
    raise AssertionError("the full vertex set is connected and dominating")


@pytest.mark.parametrize("n", range(1, 6))
def test_pruned_search_matches_unpruned_reference(n, monkeypatch):
    # both cuts drop only subtrees without a witness, so the first witness
    # is the same, and the pruned search enters no more nodes
    charged = []

    def recording_check_budget(what, projected, limit):
        if what == "connected domination search":
            charged.append(projected)
        return check_budget(what, projected, limit)

    monkeypatch.setattr(domination, "check_budget", recording_check_budget)
    dim = Dimension(n)
    witness, reference_nodes = _reference_unpruned_cds(dim)
    assert list(exact_connected_dominating_set(dim).vertex_set) == witness
    assert max(charged) <= reference_nodes


def _closed_cover(n, members):
    covered = 0
    for v in members:
        covered |= _closed_ball(n, v)
    return covered


@pytest.mark.parametrize("n", range(2, 8))
def test_connected_set_covers_at_most_n_minus_1_new_vertices_each(n):
    # the search's coverage cut: a connected S holding a nonempty M has
    # |N[S] \ N[M]| <= (n - 1) |S \ M|, with equality met somewhere
    rng = random.Random(n)
    tight = False
    for _ in range(300):
        grown = [rng.randrange(1 << n)]
        for _ in range(rng.randrange(1 << n)):
            v = rng.choice(grown) ^ (1 << rng.randrange(n))
            if v not in grown:
                grown.append(v)
        assert is_connected_subset(VertexSet.of(Dimension(n), grown))
        kept = rng.sample(grown, rng.randint(1, len(grown)))
        new = _closed_cover(n, grown) & ~_closed_cover(n, kept)
        slack = (n - 1) * (len(grown) - len(kept)) - new.bit_count()
        assert slack >= 0
        tight |= slack == 0 and len(kept) < len(grown)
    assert tight


# Search nodes to the first minimum witness, and that witness; the budget
# caps the node count, so each count is the least budget that answers.
SEARCH_NODES = {
    1: (1, [0]),
    2: (1, [0, 1]),
    3: (8, [0, 1, 2, 3]),
    4: (43, [0, 1, 2, 5, 10, 13]),
}


@pytest.mark.parametrize("n", sorted(SEARCH_NODES))
def test_search_node_counts_pinned(n):
    dim = Dimension(n)
    nodes, witness = SEARCH_NODES[n]
    with pytest.raises(BudgetExceededError):
        exact_connected_dominating_set(dim, budget=nodes - 1)
    cert = exact_connected_dominating_set(dim, budget=nodes)
    assert list(cert.vertex_set) == witness


def test_connected_domination_number_q5(monkeypatch):
    charged = []

    def recording_check_budget(what, projected, limit):
        if what == "connected domination search":
            charged.append(projected)
        return check_budget(what, projected, limit)

    monkeypatch.setattr(domination, "check_budget", recording_check_budget)
    cert = exact_connected_dominating_set(Dimension(5))
    assert max(charged) == 4_372
    assert cert.size == 10
    assert cert.connected
    assert cert.method == "exact"
    assert list(cert.vertex_set) == [0, 1, 2, 3, 4, 9, 20, 28, 30, 31]


def test_exact_connected_witness_is_lex_first():
    cert = exact_connected_dominating_set(Dimension(3))
    assert list(cert.vertex_set) == [0, 1, 2, 3]
    assert cert.method == "exact"
    assert cert.connected
    with pytest.raises(ValueError):
        exact_connected_dominating_set(Dimension(6))
    with pytest.raises(ValueError):
        exact_connected_domination_number(Dimension(6))


def test_greedy_known_outputs():
    cert = greedy_dominating_set(Dimension(3))
    assert list(cert.vertex_set) == [0, 7]
    assert not cert.connected
    assert cert.method == "greedy"
    sizes = [greedy_dominating_set(Dimension(n)).size for n in range(1, 8)]
    assert sizes == [1, 2, 2, 4, 8, 16, 16]


def test_greedy_is_deterministic():
    a = greedy_dominating_set(Dimension(5))
    b = greedy_dominating_set(Dimension(5))
    assert a.vertex_set.members == b.vertex_set.members


def _full_scan_greedy(dim):
    # reference: every pick scans all 2^n gains and takes the first maximum
    closed = closed_neighborhood_masks(dim)
    uncovered, chosen = (1 << dim.num_vertices) - 1, []
    while uncovered:
        gains = [(uncovered & mask).bit_count() for mask in closed]
        chosen.append(gains.index(max(gains)))
        uncovered &= ~closed[chosen[-1]]
    return sorted(chosen)


@pytest.mark.parametrize("n", range(1, 12))
def test_lazy_greedy_matches_the_full_scan(n):
    dim = Dimension(n)
    assert list(greedy_dominating_set(dim).vertex_set) == _full_scan_greedy(dim)


def test_greedy_budget_caps_picks_times_the_cube():
    # Q_6 takes 16 picks, each charged the 64 vertices of the cube
    with pytest.raises(BudgetExceededError, match="greedy domination sweep"):
        greedy_dominating_set(Dimension(6), budget=1023)
    assert greedy_dominating_set(Dimension(6), budget=1024).size == 16


def test_greedy_respects_floor():
    for n in range(1, 8):
        assert greedy_dominating_set(Dimension(n)).size >= sphere_covering_floor(
            Dimension(n)
        )


def test_hamming_code_perfect_covering():
    for n in (1, 3, 7):
        dim = Dimension(n)
        cert = hamming_code_dominating_set(dim)
        assert cert.size == dim.num_vertices // (n + 1)
        masks = closed_neighborhood_masks(dim)
        seen = 0
        for v in cert.vertex_set:
            assert seen & masks[v] == 0  # balls are pairwise disjoint
            seen |= masks[v]
        assert seen == (1 << dim.num_vertices) - 1


def test_hamming_code_minimum_distance():
    cert = hamming_code_dominating_set(Dimension(7))
    words = list(cert.vertex_set)
    assert 0 in words
    assert min(
        hamming_distance(Dimension(7), u, v) for u, v in combinations(words, 2)
    ) == 3


def test_hamming_code_requires_code_length():
    with pytest.raises(ValueError):
        hamming_code_dominating_set(Dimension(2))
    with pytest.raises(ValueError):
        hamming_code_dominating_set(Dimension(4))
    assert list(hamming_code_dominating_set(Dimension(1)).vertex_set) == [0]


def test_hamming_code_budget_caps_the_words_it_scans(monkeypatch):
    # Q_31 has 2^31 words; the charge comes before the first syndrome
    with pytest.raises(BudgetExceededError, match="perfect code enumeration: projected 2147483648"):
        hamming_code_dominating_set(Dimension(31))
    with pytest.raises(BudgetExceededError, match="perfect code enumeration"):
        hamming_code_dominating_set(Dimension(7), budget=127)
    words = list(hamming_code_dominating_set(Dimension(7), budget=128).vertex_set)
    assert words == [0, 7, 25, 30, 42, 45, 51, 52, 75, 76, 82, 85, 97, 102, 120, 127]
    # cds_constructions passes its budget on
    charged = []

    def recording_check_budget(what, projected, limit):
        charged.append((what, projected, limit))
        return check_budget(what, projected, limit)

    monkeypatch.setattr(domination, "check_budget", recording_check_budget)
    cds_constructions(Dimension(3), budget=1000)
    assert ("perfect code enumeration", 8, 1000) in charged


def test_steinerize_joins_components():
    d3 = Dimension(3)
    cert = steinerize(VertexSet.of(d3, [0, 7]))
    assert cert.connected
    assert cert.method == "steinerized"
    assert cert.size == 4
    assert is_dominating(cert.vertex_set)
    members = set(cert.vertex_set)
    assert {0, 7} <= members


def test_steinerize_keeps_connected_input():
    d3 = Dimension(3)
    cert = steinerize(VertexSet.of(d3, [0, 1, 2, 3]))
    assert cert.size == 4
    assert list(cert.vertex_set) == [0, 1, 2, 3]


def test_steinerize_budget_caps_the_pairs_it_scans():
    # each of the 113 vertices of the result probes C(9, 2) + C(9, 3) = 120
    base = greedy_dominating_set(Dimension(9)).vertex_set
    assert steinerize(base, budget=13_560).connected
    with pytest.raises(BudgetExceededError, match="steinerize pair scan"):
        steinerize(base, budget=13_559)


def _pairwise_closest_merge(base):
    # reference: every cross-component pair keyed (distance, low, high);
    # returns the connected set and each round's components
    dim = base.dim
    current, rounds = set(base), []
    while len(comps := bfs_forest(dim.n, current)) > 1:
        rounds.append(comps)
        _, a, b = min(
            (hamming_distance(dim, u, v), min(u, v), max(u, v))
            for i, comp in enumerate(comps)
            for other in comps[i + 1 :]
            for u in comp
            for v in other
        )
        for e in _geodesic(a, b):
            current.update(e.endpoints())
    return sorted(current), rounds


@pytest.mark.parametrize("n", range(3, 10))
def test_steinerize_matches_pairwise_closest_merge(n):
    dim = Dimension(n)
    bases = [greedy_dominating_set(dim).vertex_set]
    if n == 7:
        bases.append(hamming_code_dominating_set(dim).vertex_set)
    for base in bases:
        assert list(steinerize(base).vertex_set) == _pairwise_closest_merge(base)[0]


@st.composite
def dominating_sets(draw):
    # Random seeds, each uncovered vertex then covered by itself or a
    # drawn neighbour. With `antipodal`, every vertex brings v ^ (2^n - 1)
    # along, so components come in antipodal pairs and the largest one is
    # often tied with its mirror image.
    n = draw(st.integers(2, 7))
    top = (1 << n) - 1
    antipodal = draw(st.booleans())
    chosen = set(draw(st.lists(st.integers(0, top), max_size=12)))
    flips = draw(st.lists(st.integers(0, n), min_size=1, max_size=16))
    covered = set()

    def add(v):
        for w in {v, v ^ top} if antipodal else {v}:
            chosen.add(w)
            covered.update([w] + [w ^ (1 << b) for b in range(n)])

    for v in list(chosen):
        add(v)
    for v in range(top + 1):
        if v not in covered:
            b = flips[v % len(flips)]
            add(v if b == n else v ^ (1 << b))
    return VertexSet.of(Dimension(n), chosen)


@given(dominating_sets())
def test_steinerize_matches_pairwise_closest_merge_on_random_sets(base):
    assert list(steinerize(base).vertex_set) == _pairwise_closest_merge(base)[0]


def test_dominating_sets_strategy_ties_the_largest_components():
    def tied(base):
        sizes = sorted(map(len, bfs_forest(base.dim.n, base)))
        return len(sizes) > 1 and sizes[-1] == sizes[-2] > 1

    find(dominating_sets(), tied, settings=settings(database=None))


def test_steinerize_charges_the_probes_it_makes(monkeypatch):
    # Each vertex probes u ^ x for every x of popcount 2 or 3 once, when
    # it enters: the members at the start, then each round's geodesic
    # interior. The probes are counted here by brute force and must equal
    # the running totals charged, one per batch of entering vertices.
    charged = []

    def recording_check_budget(what, projected, limit):
        if what == "steinerize pair scan":
            charged.append(projected)
        return check_budget(what, projected, limit)

    monkeypatch.setattr(domination, "check_budget", recording_check_budget)
    bases = [greedy_dominating_set(Dimension(n)).vertex_set for n in range(3, 10)]
    bases.append(hamming_code_dominating_set(Dimension(7)).vertex_set)
    for base in bases:
        n = base.dim.n
        charged.clear()
        steinerize(base)
        ring = sum(x.bit_count() in (2, 3) for x in range(1 << n))
        # after each batch, the probes so far are `ring` per current vertex
        final, rounds = _pairwise_closest_merge(base)
        sizes = [sum(map(len, comps)) for comps in rounds] + [len(final)]
        assert charged == [size * ring for size in sizes]


# (size, sha256 of the comma-joined members) of the steinerized greedy set
STEINERIZED_GREEDY = {
    10: (214, "ec222fdc09655b58edfad1a129e212be4552e2cddd17e279710f987146baa50d"),
    11: (398, "87f685b09b59322130cf2b6d94312188357c99c533e1aaa083b3a78fd2826f77"),
    12: (763, "fe2f98f16890194c5d40b46c2d2784da17fa850387d9472ff7aa02f9a8ecf2d0"),
}


@pytest.mark.parametrize("n", sorted(STEINERIZED_GREEDY))
def test_steinerized_greedy_is_pinned_at_scale(n):
    members = steinerize(greedy_dominating_set(Dimension(n)).vertex_set).vertex_set
    digest = hashlib.sha256(",".join(map(str, members)).encode()).hexdigest()
    assert (len(members), digest) == STEINERIZED_GREEDY[n]


def test_steinerize_rejects_non_dominating():
    with pytest.raises(ValueError):
        steinerize(VertexSet.of(Dimension(3), [0, 1]))


@given(st.integers(3, 5))
def test_steinerize_growth_is_bounded(n):
    dim = Dimension(n)
    base = greedy_dominating_set(dim).vertex_set
    comps = len(bfs_forest(n, base))
    cert = steinerize(base)
    assert cert.connected
    assert cert.size <= len(base.members) + (comps - 1) * (n - 1)


def test_certificate_text_block():
    d3 = Dimension(3)
    cert = greedy_dominating_set(d3)
    assert certificate_to_text(cert) == (
        "method: greedy\nsize: 2\nconnected: false\nvertices: 000 111"
    )


def test_certificate_rejects_bad_claims():
    d3 = Dimension(3)
    good = VertexSet.of(d3, [0, 7])
    # size and connectivity are computed, never claimed by the caller
    cert = DominatingSetCertificate(good, "greedy")
    assert (cert.size, cert.connected) == (2, False)
    path = DominatingSetCertificate(VertexSet.of(d3, [0, 1, 2, 3]), "exact")
    assert (path.size, path.connected) == (4, True)
    with pytest.raises(TypeError):
        DominatingSetCertificate(good, "greedy", connected=True)
    with pytest.raises(ValueError):
        DominatingSetCertificate(good, "magic")
    with pytest.raises(ValueError):
        DominatingSetCertificate(VertexSet.of(d3, [0, 1]), "greedy")


def test_cds_constructions_names_and_best():
    expected = {
        1: ["greedy", "steinerized_greedy", "hamming", "steinerized_hamming", "exact"],
        3: ["greedy", "steinerized_greedy", "hamming", "steinerized_hamming", "exact"],
        4: ["greedy", "steinerized_greedy", "exact"],
        5: ["greedy", "steinerized_greedy"],
    }
    for n, names in expected.items():
        built, best = cds_constructions(Dimension(n))
        assert list(built) == names
        # ties go to the exact set, then to the steinerized greedy one
        assert best is built["exact" if n <= 4 else "steinerized_greedy"]
    # a connected raw greedy set of the same size is still not chosen
    built, best = cds_constructions(Dimension(2))
    assert built["greedy"].connected and best.method == "exact"


def test_search_budget_guards():
    with pytest.raises(BudgetExceededError):
        exact_connected_dominating_set(Dimension(4), budget=42)
    with pytest.raises(BudgetExceededError):
        exact_connected_domination_number(Dimension(5), budget=100)


def test_even_class_dominates_everything():
    for n in range(1, 6):
        dim = Dimension(n)
        assert is_dominating(parity_class(dim, 0))
        assert is_dominating(parity_class(dim, 1))
