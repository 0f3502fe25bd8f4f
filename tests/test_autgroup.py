import math
import random

import pytest
from hypothesis import given, strategies as st

from cubesteiner import autgroup
from cubesteiner.autgroup import (
    Automorphism,
    TransitivityReport,
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


@pytest.mark.parametrize(
    "g", [Automorphism(True, 0), Automorphism(1.0, 0), Automorphism(0, 3.0), Automorphism(0, False)]
)
def test_check_element_rejects_fields_that_are_not_ints(g):
    # True passes the range checks, and a float mask has no bit_count()
    with pytest.raises(ValueError, match="needs int shift and flip mask"):
        check_element(Dimension(4), g)


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
    with pytest.raises(ValueError, match="outside n=3"):
        double_flip(d, 0, 3)


def test_rotation_refuses_a_power_that_is_not_an_int():
    # a bool is an int, but True is not power 1
    d = Dimension(3)
    for power in (1.5, True, "1"):
        with pytest.raises(ValueError, match="not an int"):
            rotation(d, power)


def test_double_flip_refuses_coordinates_that_are_not_ints():
    d = Dimension(3)
    for i, j in ((True, 0), (0.0, 1), (0, 2.0)):
        with pytest.raises(ValueError, match="not ints"):
            double_flip(d, i, j)


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


@pytest.mark.parametrize("n", range(1, 65))
def test_bulk_draw_matches_repeated_sample_uniform(n):
    # the same elements from the same generator words, so the generator
    # ends in the same state; counts around 1024 cross the experiment's
    # block of pairs, and 2500 needs draws that carry a partial element
    d = Dimension(n)
    counts = (0, 1, 2, 1023, 1024, 1025, 2500)
    for seed in range(4):
        rng = random.Random(seed)
        reference, states = [], {}
        for count in counts:
            reference += [sample_uniform(d, rng) for _ in range(count - len(reference))]
            states[count] = rng.getstate()
        for count in counts:
            bulk = random.Random(seed)
            stream = autgroup._sample_stream(d, bulk, count)
            assert autgroup._sample_elements(d, stream, {}) == reference[:count]
            assert bulk.getstate() == states[count]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_sharp_edge_transitivity_small_dimensions(n):
    # the default budget covers the n * |E| shift images up to n = 15
    report = verify_sharp_edge_transitivity(Dimension(n))
    assert report.ok
    assert report.counterexample is None
    assert report.group_size == report.edge_count == n * 2 ** (n - 1)
    assert report.pair_count == report.group_size**2


def _reference_transitivity(d, group):
    # Every listed element applied to every edge, one image at a time: the
    # first repeated image of a source edge, else its least unhit edge, else
    # its first image that is no edge. An element with bit n in its mask
    # (off the cube, which apply_edge refuses) gets the same formula without
    # the checks.
    edges = all_edges(d)
    order = group_order(d)

    def report(counterexample):
        return TransitivityReport(
            counterexample is None, order, len(edges), order * len(edges), counterexample
        )

    for e1 in edges:
        seen = set()
        images = []
        for g in group:
            if g.flip_mask < d.num_vertices:
                image = apply_edge(d, g, e1)
            else:
                image = Edge(
                    rotate_coords(d, e1.even_end, g.shift) ^ g.flip_mask,
                    (e1.bit_index - g.shift) % d.n,
                )
            if image in seen:
                return report((e1, image))
            seen.add(image)
            images.append(image)
        unhit = [e for e in edges if e not in seen]
        off = [image for image in images if image not in edges]
        if unhit or off:
            return report((e1, (unhit + off)[0]))
    return report(None)


def _perturbed_groups(n, rng):
    # The real group, then each fault at seeded positions: a duplicate, a
    # dropped element, a mask with bit n set, a mask with bit n + 1 set, an
    # element moved to another shift, one duplicate appended (|list| >
    # order), and one element with bit n set appended (|list| > order, every
    # edge hit, no image repeated).
    group = _elements(n)
    yield "real", group
    for _ in range(3):
        i = rng.randrange(len(group))
        s, m = group[i]
        yield "dropped", group[:i] + group[i + 1:]
        yield "bit n", group[:i] + [Automorphism(s, m | 1 << n)] + group[i + 1:]
        yield "bit n+1", group[:i] + [Automorphism(s, m | 1 << (n + 1))] + group[i + 1:]
        yield "appended", group + [group[i]]
        yield "appended off the cube", group + [Automorphism(s, m | 1 << n)]
        if n > 1:  # Q_1's group is the identity alone
            j = rng.choice([k for k in range(len(group)) if k != i])
            yield "duplicate", group[:i] + [group[j]] + group[i + 1:]
            moved = Automorphism((s + rng.randrange(1, n)) % n, m)
            yield "moved", group[:i] + [moved] + group[i + 1:]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bitset_sweep_matches_the_per_image_reference(monkeypatch, n):
    d = Dimension(n)
    rng = random.Random(n)
    for name, group in _perturbed_groups(n, rng):
        _patch_group(monkeypatch, group)
        want = _reference_transitivity(d, group)
        assert verify_sharp_edge_transitivity(d) == want, name
        assert want.ok == (name == "real"), name


def _break_shift_one(monkeypatch, broken):
    # The action's shift-1 images (r, c) of an edge e become broken(r, c, e).
    real = autgroup._edge_image

    def action(dim, g, e):
        image = real(dim, g, e)
        return broken(*image, e) if g.shift == 1 else image

    monkeypatch.setattr(autgroup, "_edge_image", action)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bitset_sweep_matches_the_reference_under_a_broken_action(monkeypatch, n):
    # Every shift-1 image gets an odd end: the shift-1 masks, an even class,
    # then take every edge's images to odd vertices.
    d = Dimension(n)
    _break_shift_one(monkeypatch, lambda r, c, e: Edge(r ^ 1, c))
    want = _reference_transitivity(d, _elements(n))
    assert not want.ok
    assert verify_sharp_edge_transitivity(d) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("fault", ["bit n", "bits n and n+1", "kept bit index"])
def test_sweep_matches_the_reference_under_other_broken_actions(monkeypatch, fault, n):
    # Shift-1 images with bit n (odd r) or bits n and n + 1 (even r) set in
    # their even ends are no edges, so the least edge with the shift-1 bit
    # index goes unhit. A shift 1 that keeps each edge's bit index, as shift
    # 0 does, repeats the shift-0 images, though every mask set is still a
    # parity class.
    broken = {
        "bit n": lambda r, c, e: Edge(r | 1 << n, c),
        "bits n and n+1": lambda r, c, e: Edge(r | 3 << n, c),
        "kept bit index": lambda r, c, e: Edge(r, e.bit_index),
    }[fault]
    d = Dimension(n)
    _break_shift_one(monkeypatch, broken)
    want = _reference_transitivity(d, _elements(n))
    assert not want.ok
    assert verify_sharp_edge_transitivity(d) == want


def _lift_shift_one(monkeypatch, mask_bit):
    # On Q_3, every shift-1 image of the action sets bit 3, and every
    # shift-1 mask of the group sets `mask_bit`: no shift-1 mask set is a
    # parity class, and no shift-1 r is on the cube.
    _break_shift_one(monkeypatch, lambda r, c, e: Edge(r | 1 << 3, c))
    group = [Automorphism(s, m | 1 << mask_bit if s == 1 else m) for s, m in _elements(3)]
    _patch_group(monkeypatch, group)
    return group


def test_sweep_passes_when_off_cube_masks_cancel_an_off_cube_action(monkeypatch):
    # Each shift-1 image (r | 8) ^ (m | 8) = r ^ m is the real one, so no
    # edge fails.
    _lift_shift_one(monkeypatch, 3)
    assert verify_sharp_edge_transitivity(Dimension(3)).ok


def test_sweep_fails_when_off_cube_masks_meet_an_off_cube_action(monkeypatch):
    # Each shift-1 image (r | 8) ^ (m | 16) is off the cube, so the least
    # edge with the shift-1 bit index goes unhit, as for the reference.
    d = Dimension(3)
    group = _lift_shift_one(monkeypatch, 4)
    want = _reference_transitivity(d, group)
    assert not want.ok
    assert verify_sharp_edge_transitivity(d) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_edge_image_is_the_shift_image_with_its_even_end_flipped(n):
    # The identity the transitivity sweep relies on: g = (s, m) maps e to
    # the (s, 0) image of e with m XOR-ed into its even end.
    d = Dimension(n)
    for g in _elements(n):
        for e in all_edges(d):
            r, c = autgroup._edge_image(d, Automorphism(g.shift, 0), e)
            assert autgroup._edge_image(d, g, e) == Edge(r ^ g.flip_mask, c)


def _patch_group(monkeypatch, group):
    # The sweep reads its elements from enumerate_group.
    monkeypatch.setattr(autgroup, "enumerate_group", lambda dim, *, budget: group)


def test_sharp_edge_transitivity_reports_a_repeated_image(monkeypatch):
    # The last element acts like the one before it: its image repeats.
    d = Dimension(3)
    group = _elements(3)
    g_prev = group[-1] = group[-2]
    _patch_group(monkeypatch, group)
    report = verify_sharp_edge_transitivity(d)
    e1 = all_edges(d)[0]
    assert not report.ok
    assert report.counterexample == (e1, apply_edge(d, g_prev, e1))


def _move_off_cube(monkeypatch, n, moved):
    # The moved elements also flip bit n, so they map every edge off the
    # cube.
    group = _elements(n)
    for i in moved:
        group[i] = Automorphism(group[i].shift, group[i].flip_mask | 1 << n)
    _patch_group(monkeypatch, group)


def test_sharp_edge_transitivity_reports_an_edge_no_image_hits(monkeypatch):
    # The last element maps every edge off the cube: the images stay
    # distinct, so only an "onto" check sees that its true image is never
    # hit.
    d = Dimension(3)
    _move_off_cube(monkeypatch, 3, [-1])
    report = verify_sharp_edge_transitivity(d)
    e1 = all_edges(d)[0]
    assert not report.ok
    assert report.counterexample == (e1, apply_edge(d, _elements(3)[-1], e1))


def test_sharp_edge_transitivity_reports_the_least_unhit_edge(monkeypatch):
    # With s=1;m=000 moved off the cube too, two edges go unhit. Edge(0, 2),
    # its true image, is the smaller by (even_end, bit_index), though by
    # (bit_index, even_end) Edge(6, 1), the last element's, comes first.
    d = Dimension(3)
    g_first_s1, g_last = _elements(3)[4], _elements(3)[-1]
    _move_off_cube(monkeypatch, 3, [4, -1])
    report = verify_sharp_edge_transitivity(d)
    e1 = all_edges(d)[0]
    assert (apply_edge(d, g_first_s1, e1), apply_edge(d, g_last, e1)) == (
        Edge(0, 2), Edge(6, 1)
    )
    assert not report.ok
    assert report.counterexample == (e1, Edge(0, 2))


def test_sharp_edge_transitivity_reports_an_extra_image_off_the_cube(monkeypatch):
    # Q_3's whole group and one more element, off the cube: every edge is
    # hit and no image repeats, so the extra element's image is the problem.
    d = Dimension(3)
    _patch_group(monkeypatch, _elements(3) + [Automorphism(0, 1 << 3)])
    report = verify_sharp_edge_transitivity(d)
    assert not report.ok
    assert report.counterexample == (Edge(0, 0), Edge(1 << 3, 0))


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
    # the shift is a plain decimal integer, and both prefixes are required
    for text in (
        "s=+1;m=000", "s= 1;m=000", "s=1 ;m=000", "s=01;m=000", "t=1;m=000", "s=1;x=000"
    ):
        with pytest.raises(ParseError, match="bad automorphism text"):
            parse_element(d, text)
