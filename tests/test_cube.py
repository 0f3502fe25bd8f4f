from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from cubesteiner.cube import (
    Dimension,
    Edge,
    VertexSet,
    _closed_ball,
    _coordinate_permutations,
    _join,
    all_edges,
    bfs_forest,
    check_edge,
    check_vertex,
    edge_between,
    hamming_distance,
    neighbors,
    parity,
    parity_class,
    parse_vertex,
    vertex_to_string,
)
from cubesteiner.errors import BudgetExceededError, ParseError


def test_dimension_bounds():
    assert Dimension(1).num_vertices == 2
    assert Dimension(64).coord_mask == (1 << 64) - 1
    with pytest.raises(ValueError):
        Dimension(0)
    with pytest.raises(ValueError):
        Dimension(65)
    # bool is an int subclass, but True is not the dimension 1
    with pytest.raises(ValueError):
        Dimension(True)


def test_dimension_edge_count_formula():
    for n in range(1, 11):
        assert Dimension(n).num_edges == n * 2 ** (n - 1)


def test_check_vertex_range():
    d = Dimension(3)
    assert check_vertex(d, 7) == 7
    with pytest.raises(ValueError):
        check_vertex(d, 8)
    with pytest.raises(ValueError):
        check_vertex(d, -1)
    with pytest.raises(ValueError):
        check_vertex(d, True)


def test_hamming_distance_examples():
    d3 = Dimension(3)
    assert hamming_distance(d3, 0, 0) == 0
    assert hamming_distance(d3, 0, parse_vertex(d3, "011")) == 2
    d4 = Dimension(4)
    assert hamming_distance(d4, 0, 15) == 4


def test_hamming_distance_rejects_out_of_range():
    with pytest.raises(ValueError):
        hamming_distance(Dimension(2), 0, 4)


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_hamming_distance_is_a_metric(u, v, w):
    d = Dimension(5)
    assert hamming_distance(d, u, v) == hamming_distance(d, v, u) >= 0
    assert (hamming_distance(d, u, v) == 0) == (u == v)
    assert hamming_distance(d, u, w) <= hamming_distance(d, u, v) + hamming_distance(d, v, w)


def test_neighbors_examples():
    d3 = Dimension(3)
    assert neighbors(d3, 0) == [1, 2, 4]
    assert neighbors(d3, 7) == [6, 5, 3]
    assert neighbors(Dimension(1), 0) == [1]


@given(st.integers(0, 63))
def test_neighbors_are_at_distance_one(v):
    d = Dimension(6)
    for w in neighbors(d, v):
        assert hamming_distance(d, v, w) == 1
        assert parity(w) != parity(v)


def test_parity_values():
    assert parity(0) == 0
    assert parity(7) == 1
    assert parity(6) == 0


@pytest.mark.parametrize("n,count", [(1, 1), (3, 12), (4, 32)])
def test_all_edges_count(n, count):
    assert len(all_edges(Dimension(n))) == count


def test_all_edges_are_canonical_and_cover_degrees():
    for n in range(1, 7):
        d = Dimension(n)
        edges = all_edges(d)
        assert len(set(edges)) == d.num_edges
        degree = [0] * d.num_vertices
        for e in edges:
            check_edge(d, e)
            u, w = e.endpoints()
            assert parity(u) == 0 and parity(w) == 1
            degree[u] += 1
            degree[w] += 1
        assert all(deg == n for deg in degree)


def test_all_edges_budget_guard():
    with pytest.raises(BudgetExceededError):
        all_edges(Dimension(10), budget=100)


def test_edge_between_canonicalizes_both_orders():
    d = Dimension(4)
    for e in all_edges(d):
        u, w = e.endpoints()
        assert edge_between(d, u, w) == edge_between(d, w, u) == e
    with pytest.raises(ValueError):
        edge_between(d, 0, 3)


def test_bfs_forest_roots_order_and_parents():
    # BFS from 0 flips bits in increasing order; each vertex keeps the
    # parent that discovered it first
    whole = bfs_forest(3, range(8))
    assert whole == [{0: 0, 1: 0, 2: 0, 4: 0, 3: 1, 5: 1, 6: 2, 7: 3}]
    assert list(whole[0]) == [0, 1, 2, 4, 3, 5, 6, 7]
    # components come ordered by root, the smallest member
    assert bfs_forest(4, [15, 3, 8, 0]) == [{0: 0, 8: 0}, {3: 3}, {15: 15}]
    assert bfs_forest(2, []) == []
    members = VertexSet.of(Dimension(3), [6, 0, 1])
    forest = bfs_forest(3, members)
    assert forest == [{0: 0, 1: 0}, {6: 6}]


@settings(max_examples=300)
@given(st.integers(1, 6), st.data())
def test_join_fold_neighbourhoods_decide_connectivity_of_one_more_vertex(n, data):
    # the one-vertex step of the connected-domination search: for a vertex
    # set M and a vertex v outside it, M + v is connected exactly when v
    # lies in the outside neighbourhood of every component of M
    v = data.draw(st.integers(0, (1 << n) - 1))
    near = [v ^ x for x in range(1 << n) if x.bit_count() <= 2]
    members = data.draw(
        st.one_of(
            st.just(set()),
            st.sets(st.sampled_from(near)),
            st.sets(st.integers(0, (1 << n) - 1)),
        )
    )
    members.discard(v)
    comps = []
    for t in sorted(members):
        comps = _join(comps, t, _closed_ball(n, t))
    joins_all = all((nbrs >> v) & 1 for _, nbrs in comps)
    assert joins_all == (len(bfs_forest(n, members | {v})) == 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_coordinate_permutation_tables(n):
    # the automorphisms of Q_n fixing 0 are the n! coordinate
    # permutations, so these checks pin the tables as the non-identity ones
    dim = Dimension(n)
    tables = _coordinate_permutations(n)
    assert len(tables) == factorial(n) - 1
    assert len({tuple(img) for img in tables} | {tuple(range(1 << n))}) == factorial(n)
    for img in tables:
        assert img[0] == 0
        assert sorted(img) == list(range(1 << n))
        for e in all_edges(dim):
            u, v = e.endpoints()
            assert (img[u] ^ img[v]).bit_count() == 1


def test_check_edge_rejects_bad_fields():
    d = Dimension(3)
    with pytest.raises(ValueError):
        check_edge(d, Edge(1, 0))  # odd stored endpoint
    with pytest.raises(ValueError):
        check_edge(d, Edge(0, 3))  # bit index out of range


@pytest.mark.parametrize("bit", [1.0, True])
def test_check_edge_rejects_a_bit_index_that_is_not_an_int(bit):
    # 1.0 passes the range check, and Edge(0, 1.0).endpoints() raises TypeError
    with pytest.raises(ValueError, match="not an int"):
        check_edge(Dimension(3), Edge(0, bit))


def test_parity_class_small_cases():
    d2 = Dimension(2)
    assert list(parity_class(d2, 0)) == [0, 3]
    d3 = Dimension(3)
    even = parity_class(d3, 0)
    odd = parity_class(d3, 1)
    assert len(even) == len(odd) == 4
    assert set(even) | set(odd) == set(range(8))
    assert set(even) & set(odd) == set()


def test_parity_class_rejects_bad_parity():
    with pytest.raises(ValueError, match="parity must be 0 or 1"):
        parity_class(Dimension(3), 2)


@pytest.mark.parametrize("par", [True, 1.0, False])
def test_parity_class_rejects_a_parity_that_is_not_an_int(par):
    # True == 1.0 == 1 and False == 0: only the type check refuses them
    with pytest.raises(ValueError, match="parity must be 0 or 1"):
        parity_class(Dimension(3), par)


def test_parity_class_budget_guard():
    with pytest.raises(BudgetExceededError):
        parity_class(Dimension(8), 0, budget=10)


def test_vertex_set_sorts_and_dedups():
    d = Dimension(3)
    vs = VertexSet.of(d, [6, 0, 6, 3])
    assert list(vs) == [0, 3, 6]
    assert len(vs) == 3
    assert 3 in vs and 5 not in vs


def test_vertex_set_rejects_unsorted_members():
    with pytest.raises(ValueError, match="strictly increasing"):
        VertexSet(Dimension(3), (3, 1))


def test_vertex_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        VertexSet.of(Dimension(2), [4])
    with pytest.raises(ValueError):
        VertexSet.of(Dimension(3), [True, 2])


def test_vertex_string_examples():
    d = Dimension(3)
    # coordinate 0 is the leftmost character and the lowest bit
    assert vertex_to_string(d, 3) == "110"
    assert parse_vertex(d, "110") == 3
    assert vertex_to_string(d, 4) == "001"


@given(st.integers(1, 10), st.data())
def test_vertex_string_round_trip(n, data):
    d = Dimension(n)
    v = data.draw(st.integers(0, d.num_vertices - 1))
    assert parse_vertex(d, vertex_to_string(d, v)) == v


def test_vertex_string_ends_of_q64_and_invalid_vertices():
    d = Dimension(64)
    assert vertex_to_string(d, 0) == "0" * 64
    assert vertex_to_string(d, 1) == "1" + "0" * 63
    assert vertex_to_string(d, 1 << 63) == "0" * 63 + "1"
    assert vertex_to_string(d, (1 << 64) - 1) == "1" * 64
    for bad in (True, -1, 1 << 64, 2.0):
        with pytest.raises(ValueError):
            vertex_to_string(d, bad)


def test_parse_vertex_errors():
    d = Dimension(3)
    with pytest.raises(ParseError):
        parse_vertex(d, "01")  # wrong length
    with pytest.raises(ParseError):
        parse_vertex(d, "01x")
