import math
import random

import pytest
from hypothesis import given, strategies as st

from cubesteiner import autgroup
from cubesteiner.autgroup import (
    Automorphism,
    apply_edge,
    apply_vertex,
    check_element,
    compose,
    double_flip,
    element_to_text,
    enumerate_group,
    group_order,
    identity,
    inverse,
    parse_element,
    rotate_coords,
    rotation,
    sample_uniform,
    verify_sharp_edge_transitivity,
)
from cubesteiner.cube import Dimension, Edge, all_edges, edge_between, parity, parse_vertex
from cubesteiner.errors import BudgetExceededError, ParseError


def _elements(n):
    return enumerate_group(Dimension(n))


def test_check_element_rejects_invalid():
    d = Dimension(4)
    with pytest.raises(ValueError):
        check_element(d, Automorphism(4, 0))
    with pytest.raises(ValueError):
        check_element(d, Automorphism(0, 1))  # odd flip count
    with pytest.raises(ValueError):
        check_element(d, Automorphism(0, 1 << 4))


def test_rotate_coords_shifts_string_left():
    d = Dimension(3)
    v = parse_vertex(d, "110")
    assert rotate_coords(d, v, 1) == parse_vertex(d, "101")
    assert rotate_coords(d, v, 3) == v
    assert rotate_coords(d, v, 0) == v


@given(st.integers(1, 8), st.data())
def test_rotate_coords_matches_string_rotation(n, data):
    d = Dimension(n)
    v = data.draw(st.integers(0, d.num_vertices - 1))
    s = data.draw(st.integers(0, 2 * n))
    text = "".join("1" if (v >> i) & 1 else "0" for i in range(n))
    rotated = text[s % n :] + text[: s % n]
    assert rotate_coords(d, v, s) == parse_vertex(d, rotated)


def test_generator_constructors():
    d = Dimension(3)
    assert identity(d) == Automorphism(0, 0)
    assert rotation(d) == Automorphism(1, 0)
    assert rotation(d, 5) == Automorphism(2, 0)
    assert double_flip(d, 0, 2) == Automorphism(0, 0b101)
    with pytest.raises(ValueError):
        double_flip(d, 1, 1)


def test_apply_vertex_generator_examples():
    d = Dimension(3)
    assert apply_vertex(d, rotation(d), parse_vertex(d, "110")) == parse_vertex(d, "101")
    assert apply_vertex(d, double_flip(d, 0, 1), 0) == parse_vertex(d, "110")


def test_group_order_formula():
    for n in range(1, 9):
        assert group_order(Dimension(n)) == n * 2 ** (n - 1)


@pytest.mark.parametrize("n,count", [(1, 1), (3, 12), (4, 32)])
def test_enumerate_group_counts(n, count):
    elems = _elements(n)
    assert len(elems) == count
    assert len(set(elems)) == count
    assert elems == sorted(elems)
    assert all(e.flip_mask.bit_count() % 2 == 0 for e in elems)


def test_enumerate_group_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_group(Dimension(12), budget=1000)


def test_identity_and_inverse_laws_exhaustive():
    d = Dimension(4)
    e = identity(d)
    for g in _elements(4):
        assert compose(d, e, g) == g
        assert compose(d, g, e) == g
        assert compose(d, g, inverse(d, g)) == e
        assert compose(d, inverse(d, g), g) == e


def test_compose_matches_function_composition_exhaustive():
    d = Dimension(3)
    elems = _elements(3)
    for g1 in elems:
        for g2 in elems:
            h = compose(d, g2, g1)
            for v in range(8):
                assert apply_vertex(d, h, v) == apply_vertex(d, g2, apply_vertex(d, g1, v))


def test_rotation_commutes_past_flips_with_shifted_indices():
    # moving the rotation to the other side of a double flip lowers both
    # flipped coordinate indices by the shift, cyclically
    d = Dimension(3)
    left = compose(d, rotation(d), double_flip(d, 1, 2))
    right = compose(d, double_flip(d, 0, 1), rotation(d))
    assert left == right == Automorphism(1, 0b011)


def test_closure_exhaustive():
    d = Dimension(4)
    elems = set(_elements(4))
    for g1 in elems:
        for g2 in elems:
            assert compose(d, g2, g1) in elems


@given(st.integers(1, 5), st.data())
def test_associativity_sampled(n, data):
    d = Dimension(n)
    elems = _elements(n)
    picks = st.sampled_from(elems)
    g1, g2, g3 = data.draw(picks), data.draw(picks), data.draw(picks)
    assert compose(d, g3, compose(d, g2, g1)) == compose(d, compose(d, g3, g2), g1)


def test_parity_preservation_exhaustive():
    for n in range(1, 6):
        d = Dimension(n)
        for g in _elements(n):
            for v in range(d.num_vertices):
                assert parity(apply_vertex(d, g, v)) == parity(v)


def test_adjacency_preserved_exhaustive():
    d = Dimension(4)
    for g in _elements(4):
        for e in all_edges(d):
            u, w = e.endpoints()
            gu, gw = apply_vertex(d, g, u), apply_vertex(d, g, w)
            assert (gu ^ gw).bit_count() == 1


def test_apply_edge_matches_vertex_images():
    for n in (2, 3, 4):
        d = Dimension(n)
        for g in _elements(n):
            for e in all_edges(d):
                u, w = e.endpoints()
                expected = edge_between(d, apply_vertex(d, g, u), apply_vertex(d, g, w))
                assert apply_edge(d, g, e) == expected


def test_apply_edge_examples():
    d = Dimension(3)
    e = Edge(0, 0)
    assert apply_edge(d, identity(d), e) == e
    assert apply_edge(d, rotation(d), e) == Edge(0, 2)
    img = apply_edge(d, double_flip(d, 0, 1), e)
    assert img == edge_between(d, parse_vertex(d, "110"), parse_vertex(d, "010"))


def test_apply_edge_rejects_invalid_arguments():
    d = Dimension(3)
    e = Edge(0, 0)
    with pytest.raises(ValueError):
        apply_edge(d, Automorphism(0, 0b001), e)  # odd-popcount flip mask
    with pytest.raises(ValueError):
        apply_edge(d, Automorphism(3, 0), e)  # shift outside [0, n)
    with pytest.raises(ValueError):
        apply_edge(d, identity(d), Edge(1, 0))  # stored endpoint is odd
    with pytest.raises(ValueError):
        apply_edge(d, identity(d), Edge(0, 3))  # bit index outside n


def test_sample_uniform_trivial_dimension():
    rng = random.Random(0)
    d = Dimension(1)
    for _ in range(20):
        assert sample_uniform(d, rng) == identity(d)


def test_sample_uniform_always_valid_and_seeded():
    d = Dimension(5)
    rng = random.Random(123)
    draws = [sample_uniform(d, rng) for _ in range(200)]
    for g in draws:
        check_element(d, g)
    rng2 = random.Random(123)
    assert draws == [sample_uniform(d, rng2) for _ in range(200)]


def test_sample_uniform_frequencies_near_uniform():
    # 32000 draws over 32 elements; allow five binomial standard deviations
    d = Dimension(4)
    rng = random.Random(2024)
    counts = {g: 0 for g in _elements(4)}
    total = 32000
    for _ in range(total):
        counts[sample_uniform(d, rng)] += 1
    p = 1 / 32
    tol = 5 * math.sqrt(total * p * (1 - p))
    assert set(counts) == set(_elements(4))
    for c in counts.values():
        assert abs(c - total * p) <= tol


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sharp_edge_transitivity_small_dimensions(n):
    report = verify_sharp_edge_transitivity(Dimension(n))
    assert report.ok
    assert report.counterexample is None
    assert report.group_size == report.edge_count == n * 2 ** (n - 1)
    assert report.pair_count == report.group_size**2


def test_sharp_edge_transitivity_reports_a_repeated_image(monkeypatch):
    # The last element acts like the one before it: its image repeats.
    d = Dimension(3)
    *_, g_prev, g_last = _elements(3)
    real = autgroup._edge_image

    def repeating(dim, g, e):
        return real(dim, g_prev if g == g_last else g, e)

    monkeypatch.setattr(autgroup, "_edge_image", repeating)
    report = verify_sharp_edge_transitivity(d)
    e1 = all_edges(d)[0]
    assert not report.ok
    assert report.counterexample == (e1, real(d, g_prev, e1))


def test_sharp_edge_transitivity_reports_an_edge_no_image_hits(monkeypatch):
    # The last element maps every edge off the cube (a flip bit >= n):
    # the images stay distinct, so only an "onto" check sees that its true
    # image is never hit.
    d = Dimension(3)
    g_last = _elements(3)[-1]
    real = autgroup._edge_image

    def leaving(dim, g, e):
        img = real(dim, g, e)
        return Edge(img.even_end, img.bit_index + dim.n) if g == g_last else img

    monkeypatch.setattr(autgroup, "_edge_image", leaving)
    report = verify_sharp_edge_transitivity(d)
    e1 = all_edges(d)[0]
    assert not report.ok
    assert report.counterexample == (e1, real(d, g_last, e1))


def test_sharp_edge_transitivity_budget_guard():
    with pytest.raises(BudgetExceededError):
        verify_sharp_edge_transitivity(Dimension(5), budget=100)


def test_element_text_round_trip():
    d = Dimension(4)
    for g in _elements(4):
        text = element_to_text(d, g)
        assert parse_element(d, text) == g
    assert element_to_text(d, Automorphism(2, 0b0011)) == "s=2;m=1100"


def test_parse_element_errors():
    d = Dimension(3)
    with pytest.raises(ParseError):
        parse_element(d, "s=1")
    with pytest.raises(ParseError):
        parse_element(d, "s=x;m=000")
    with pytest.raises(ParseError):
        parse_element(d, "s=1;m=100")  # odd flip count
    for text in ("s=1;m=10", "s=1;m=0000", "s=1;m=1a0"):  # short, long, non-binary
        with pytest.raises(ParseError, match="bad flip-mask string"):
            parse_element(d, text)
