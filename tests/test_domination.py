from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from cubesteiner.cube import (
    Dimension,
    VertexSet,
    bfs_forest,
    hamming_distance,
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
from cubesteiner.errors import BudgetExceededError


def test_closed_neighborhood_masks():
    masks = closed_neighborhood_masks(Dimension(2))
    assert masks == [0b0111, 0b1011, 0b1101, 0b1110]


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


def test_connected_domination_number_q5():
    cert = exact_connected_dominating_set(Dimension(5))
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
        exact_connected_dominating_set(Dimension(4), budget=100)
    with pytest.raises(BudgetExceededError):
        exact_connected_domination_number(Dimension(5), budget=100)


def test_even_class_dominates_everything():
    for n in range(1, 6):
        dim = Dimension(n)
        assert is_dominating(parity_class(dim, 0))
        assert is_dominating(parity_class(dim, 1))
