"""Parity-preserving cube symmetries: coordinate rotations and even flips.

The subgroup of Aut(Q_n) handled here is generated by the cyclic coordinate
shift (coordinate i of the image is coordinate (i+1) mod n of the input)
together with the maps that flip exactly two coordinates. Shifting commutes
past flips by re-indexing the flipped positions, so every element has the
normal form "rotate first, then flip an even-weight mask". That gives the
pair representation used below:

    element = (shift, flip_mask),  popcount(flip_mask) even
    action:  v  ->  rotate(v, shift) XOR flip_mask

Rotations and even-weight flips both preserve popcount parity, so the whole
group does. There are n choices of shift and 2^(n-1) even-weight masks,
hence n * 2^(n-1) elements, exactly the number of edges of Q_n. The group
in fact acts sharply transitively on edges (one element per ordered edge
pair); verify_sharp_edge_transitivity checks that exhaustively.

Note the packed-int consequence of the string convention in `cube`: a
left shift of the coordinate string is a *right* rotation of the bit word.
"""

from __future__ import annotations

import random
import re
import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .cube import (
    Dimension, Edge, all_edges, canonical_int, check_edge, check_vertex, parity, parse_vertex,
)
from .errors import DEFAULT_BUDGET, ParseError, check_budget


class Automorphism(NamedTuple):
    """Normal form (shift, flip_mask) of a rotate-then-flip symmetry."""

    shift: int
    flip_mask: int


def check_element(dim: Dimension, g: Automorphism) -> Automorphism:
    # type(), not isinstance(): a bool is an int, but True is not shift 1
    if type(g.shift) is not int or type(g.flip_mask) is not int:
        raise ValueError(f"element {g} needs int shift and flip mask")
    if not 0 <= g.shift < dim.n:
        raise ValueError(f"shift {g.shift} outside [0, {dim.n})")
    if not 0 <= g.flip_mask < dim.num_vertices:
        raise ValueError(f"flip mask {g.flip_mask:#x} outside n={dim.n}")
    if g.flip_mask.bit_count() & 1:
        raise ValueError(
            f"flip mask {g.flip_mask:#x} has odd popcount; not parity-preserving"
        )
    return g


def rotate_coords(dim: Dimension, bits: int, shift: int) -> int:
    """Shift the coordinate string left by `shift`: image bit i is input
    bit (i + shift) mod n."""
    n = dim.n
    shift %= n
    if shift == 0:
        return bits
    return ((bits >> shift) | (bits << (n - shift))) & dim.coord_mask


def identity(dim: Dimension) -> Automorphism:
    return Automorphism(0, 0)


def rotation(dim: Dimension, power: int = 1) -> Automorphism:
    """The coordinate shift applied `power` times."""
    if type(power) is not int:
        raise ValueError(f"rotation power {power!r} is not an int")
    return Automorphism(power % dim.n, 0)


def double_flip(dim: Dimension, i: int, j: int) -> Automorphism:
    """The generator flipping exactly coordinates i and j."""
    if type(i) is not int or type(j) is not int:
        raise ValueError(f"flip coordinates ({i!r}, {j!r}) are not ints")
    if i == j:
        raise ValueError("double flip needs two distinct coordinates")
    if not (0 <= i < dim.n and 0 <= j < dim.n):
        raise ValueError(f"flip coordinates ({i}, {j}) outside n={dim.n}")
    return Automorphism(0, (1 << i) | (1 << j))


def apply_vertex(dim: Dimension, g: Automorphism, v: int) -> int:
    check_element(dim, g)
    check_vertex(dim, v)
    return rotate_coords(dim, v, g.shift) ^ g.flip_mask


def compose(dim: Dimension, g2: Automorphism, g1: Automorphism) -> Automorphism:
    """The element acting as g2 after g1.

    Pushing g1's flip mask through g2's rotation re-indexes it, so the
    composite stays in normal form:
        v -> rot(rot(v,s1)^m1, s2)^m2 = rot(v, s1+s2) ^ (rot(m1,s2) ^ m2)
    """
    check_element(dim, g1)
    check_element(dim, g2)
    return Automorphism(
        (g1.shift + g2.shift) % dim.n,
        rotate_coords(dim, g1.flip_mask, g2.shift) ^ g2.flip_mask,
    )


def inverse(dim: Dimension, g: Automorphism) -> Automorphism:
    check_element(dim, g)
    back = (-g.shift) % dim.n
    return Automorphism(back, rotate_coords(dim, g.flip_mask, back))


def _edge_image(dim: Dimension, g: Automorphism, e: Edge) -> Edge:
    """apply_edge without the argument checks, for sweeps over elements
    and edges that the code generated itself."""
    return Edge(
        rotate_coords(dim, e.even_end, g.shift) ^ g.flip_mask,
        (e.bit_index - g.shift) % dim.n,
    )


def apply_edge(dim: Dimension, g: Automorphism, e: Edge) -> Edge:
    """Image of a canonical edge; canonical again because parity is kept.

    The even endpoint maps to the image's even endpoint, and the flipped
    bit index just shifts with the rotation.
    """
    check_element(dim, g)
    check_edge(dim, e)
    return _edge_image(dim, g, e)


def group_order(dim: Dimension) -> int:
    return dim.n << (dim.n - 1)


def enumerate_group(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> list[Automorphism]:
    """All n*2^(n-1) elements, in (shift, flip_mask) lexicographic order."""
    check_budget("group enumeration", group_order(dim), budget)
    return [
        Automorphism(s, m)
        for s in range(dim.n)
        for m in range(dim.num_vertices)
        if m.bit_count() & 1 == 0
    ]


def sample_uniform(dim: Dimension, rng: random.Random) -> Automorphism:
    """One uniformly random element from a caller-owned seeded source.

    The shift is uniform on [0, n). The mask draws one fair bit per
    coordinate except the last, which is set to whatever makes the total
    popcount even; every even-weight mask arises from exactly one draw.
    This is the reference that the bulk draw `_sample_stream` matches
    element for element and generator word for generator word.
    """
    shift = rng.randrange(dim.n)
    mask = 0
    for i in range(dim.n - 1):
        if rng.getrandbits(1):
            mask |= 1 << i
    if mask.bit_count() & 1:
        mask |= 1 << (dim.n - 1)
    return Automorphism(shift, mask)


# the 0/1 mask bytes of an element's stream form and their ASCII digits
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _element_bytes(n: int, shift: int, mask: int) -> bytes:
    """The n bytes of (shift, mask < 2^n) in a `_sample_stream` draw: the
    shift, then mask bits 0..n-2 as 0/1 bytes. Bit n-1 is left out; for an
    element it is the parity of the others."""
    return bytes([shift]) + format(mask, f"0{n}b")[:0:-1].encode().translate(_BIT_BYTES)


def _sample_stream(dim: Dimension, rng: random.Random, count: int) -> bytes:
    """[sample_uniform(dim, rng) for _ in range(count)] as count n-byte
    elements (`_element_bytes`), from a few bulk draws that leave `rng` in
    the same state.

    Each draw of `sample_uniform` reads 32-bit generator words:
    `randrange(n)` keeps the top k = n.bit_length() bits of one word and
    takes another while they are n or more, and each `getrandbits(1)`
    keeps one word's top bit. So an element is some rejected shift words,
    one accepted shift word and n - 1 mask words, and only each word's top
    byte matters. `getrandbits(32 j)` returns j words, the first in the
    lowest bits. An element takes at least n words, so owing e elements
    and carrying t < n words of a partial one (its rejected words
    dropped), drawing e n - t words reads none past the last element. One
    regex splits the top bytes into runs of whole elements, separated by
    rejected shift words, and the rest, whose partial element is carried to
    the next draw; two translations turn a whole element's top bytes into
    its shift and its 0/1 mask bits.
    """
    n = dim.n
    k = n.bit_length()
    cut = n << (8 - k)  # top bytes below `cut` hold an accepted shift
    rejected = bytes(range(cut, 256))
    elements = re.compile(b"[\\x%02x-\\xff]*((?:[\\x00-\\x%02x].{%d})+)" % (cut, cut - 1, n - 1), re.S)
    top_bit = bytes(128) + b"\x01" * 128
    shift_of = bytes(b >> (8 - k) for b in range(256))
    drawn: list[bytes] = []
    owed, tail = count, b""
    while owed:
        words = owed * n - len(tail)
        top = tail + rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        # split alternates empty separators and runs of whole elements,
        # then the rest
        *whole, rest = elements.split(top)
        stream = b"".join(whole)
        out = bytearray(stream.translate(top_bit))
        out[::n] = stream[::n].translate(shift_of)
        drawn.append(out)
        owed -= len(stream) // n
        tail = rest.lstrip(rejected)
    return b"".join(drawn)


def _sample_elements(
    dim: Dimension, stream: bytes, decoded: dict[bytes, Automorphism]
) -> list[Automorphism]:
    """The elements of an element stream (`_element_bytes`), such as a
    `_sample_stream` draw, in order. `decoded` maps each element's n bytes
    to its element; a key missing from it is decoded once and added, so a
    caller that keeps the dict across draws decodes each distinct element
    once."""
    n = dim.n
    # a Struct of its own: struct.unpack would cache one per block size
    keys = struct.Struct(f"{n}s" * (len(stream) // n)).unpack(stream)
    for key in set(keys).difference(decoded):
        mask = int(b"0" + key[:0:-1].translate(_BIT_CHARS), 2)
        if mask.bit_count() & 1:
            mask |= 1 << (n - 1)
        decoded[key] = Automorphism(key[0], mask)
    return list(map(decoded.__getitem__, keys))


def _pair_keys(n: int, stream: bytes) -> tuple[bytes, ...]:
    """The 2n-byte key of each pair of consecutive elements (s1, m1),
    (s2, m2) of an element stream: _element_bytes(n, s1, 0) +
    _element_bytes(n, s1 ^ s2, m1 ^ m2). One XOR of the stream, read as a
    little-endian int, against itself shifted one element puts the first
    element over the second; a mask keeps that XOR and the first shift."""
    pairs = len(stream) // (2 * n)
    words = int.from_bytes(stream, "little")
    second = int.from_bytes((bytes(n) + b"\xff" * n) * pairs, "little")
    keep = int.from_bytes((b"\xff" + bytes(n - 1) + b"\xff" * n) * pairs, "little")
    keys = (words ^ ((words << 8 * n) & second)) & keep
    return struct.Struct(f"{2 * n}s" * pairs).unpack(keys.to_bytes(len(stream), "little"))


@dataclass(frozen=True)
class TransitivityReport:
    """Outcome of the exhaustive sharp-edge-transitivity check."""

    ok: bool
    group_size: int
    edge_count: int
    pair_count: int
    counterexample: Optional[tuple[Edge, Edge]]


def verify_sharp_edge_transitivity(
    dim: Dimension, *, budget: int = DEFAULT_BUDGET
) -> TransitivityReport:
    """Check that every ordered edge pair has exactly one mapping element.

    By the normal form, (s, m) maps an edge to (r ^ m, c), where (r, c) is
    its image under (s, 0). So the listed elements map an edge onto every
    edge exactly once when the list has the group's order and two facts
    hold for the edge's n shift images:
      - their bit indices c are the n indices 0..n-1, one each;
      - each shift's set of listed masks is the parity class of its r, with
        r a vertex of Q_n, so that r ^ m runs over the even vertices.
    Each shift's mask set is matched against the two parity classes once,
    so an edge costs n shift images and n lookups; the budget is charged
    the n |E| shift images, not the |G| |E| pairs the verdict covers.

    Only a failing edge is decoded, on its images Edge(r ^ m, c) in group
    order. Its counterexample is (source edge, problem edge): the first
    image that repeats an earlier one; when no image repeats, the smallest
    edge that no image hits; and when every edge is hit too, so that the
    list is longer than the order, the first image that is no edge of Q_n.
    """
    order = group_order(dim)
    check_budget("edge-pair transitivity sweep", dim.n * dim.num_edges, budget)
    edges = all_edges(dim, budget=budget)
    group = enumerate_group(dim, budget=budget)
    masks = [0] * dim.n
    for s, m in group:
        masks[s] |= 1 << m
    evens = sum(1 << v for v in range(dim.num_vertices) if parity(v) == 0)
    # parities[s] is the parity class shift s lists, None if it lists
    # neither; an r off the cube reads -1, which matches no entry
    classes = {evens: 0, evens ^ ((1 << dim.num_vertices) - 1): 1}
    parities = [classes.get(row) for row in masks]
    indices = set(range(dim.n))
    pairs = order * len(edges)
    for e1 in edges:
        shifted = [_edge_image(dim, Automorphism(s, 0), e1) for s in range(dim.n)]
        if (
            len(group) == order
            and [parity(r) if 0 <= r < dim.num_vertices else -1 for r, _ in shifted] == parities
            and {c for _, c in shifted} == indices
        ):
            continue
        images = [Edge(shifted[s].even_end ^ m, shifted[s].bit_index) for s, m in group]
        # first[x] is where x first appears; edges run in (even_end,
        # bit_index) order, so the first unhit edge is the least
        first = {x: i for i, x in reversed(list(enumerate(images)))}
        edge_set = set(edges)
        faults = [x for i, x in enumerate(images) if first[x] != i]
        faults += [e for e in edges if e not in first]
        faults += [x for x in images if x not in edge_set]
        if faults:  # else masks and action both leave the cube and cancel
            return TransitivityReport(False, order, len(edges), pairs, (e1, faults[0]))
    return TransitivityReport(True, order, len(edges), pairs, None)


def _element_text(dim: Dimension, g: Automorphism) -> str:
    """element_to_text without the check, for elements the code made."""
    return f"s={g.shift};m={format(g.flip_mask, f'0{dim.n}b')[::-1]}"


def element_to_text(dim: Dimension, g: Automorphism) -> str:
    """Log format "s=<shift>;m=<mask as coordinate string>"."""
    return _element_text(dim, check_element(dim, g))


def parse_element(dim: Dimension, text: str) -> Automorphism:
    """Inverse of element_to_text; the shift is a plain decimal integer
    (`canonical_int`)."""
    try:
        shift_part, mask_part = text.split(";")
        if not shift_part.startswith("s=") or not mask_part.startswith("m="):
            raise ValueError
        shift, mask_str = canonical_int(shift_part[2:]), mask_part[2:]
    except ValueError:
        raise ParseError(f"bad automorphism text {text!r}") from None
    try:
        mask = parse_vertex(dim, mask_str)
    except ParseError:
        raise ParseError(f"bad flip-mask string in {text!r}") from None
    try:
        return check_element(dim, Automorphism(shift, mask))
    except ValueError as exc:
        raise ParseError(f"invalid automorphism {text!r}: {exc}") from None
