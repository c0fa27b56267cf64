"""The halfspace sides come from one sign walk from vertex 0.

`_walk_signs` gives each vertex its parent's sign with the bit of the
tree edge's class flipped, and accepts the signs only when every edge
joins two signs that differ in exactly the bit of its own class and no
square crosses itself.  `_cut_signs`, one union-find per hyperplane, is
what the halfspaces were read from before; it now only names the error.
Here the walk's signs equal the cuts' signs wherever the walk accepts,
the cuts raise wherever it refuses, and the sides and duality verdicts
equal `halfspace_sides_reference` and `roller_duality_check_reference`:
on the seeded pairs, the `sageev` complexes of the ultrafilter sweep,
trees and grids up to 16 x 16.  The bits are in the sorted order of the
pair ids, which is not the class order once there are 11 hyperplanes
("h10" sorts before "h2").
"""

from __future__ import annotations

import pytest

from clcc import build_clcc
from clcc.clcc_core import CubeComplex
from clcc.errors import NotTwoSidedError
from clcc.pocset_hyperplanes import (
    _cut_signs,
    _walk_signs,
    halfspace_pocset,
    roller_duality_check,
    sageev,
)

from conftest import grid_complex, tree_complex
from corpus import rng, sweep_pocsets
from oracles import halfspace_sides_reference, roller_duality_check_reference
from test_hyperplane_cache import fixture_pairs, seeded_pairs

GRIDS = [(1, 1), (2, 3), (1, 12), (5, 6), (8, 8), (16, 16)]


def sorted_bits(X: CubeComplex) -> list[int]:
    """Class h's bit: 1 << the position of "h{h}" among the sorted ids."""
    ids = sorted(f"h{h}" for h in range(len(X.opposition.classes)))
    return [1 << ids.index(f"h{h}") for h in range(len(ids))]


def outcome(check, X):
    """check(X), or the type and text of the NotTwoSidedError it raises."""
    try:
        return check(X)
    except NotTwoSidedError as exc:
        return type(exc), str(exc)


def assert_walk_matches(X: CubeComplex) -> bool:
    """The walk against the cuts and the references; True when the walk
    accepted X or X has no hyperplane."""
    bit = sorted_bits(X)
    sides = halfspace_sides_reference(X)
    if not bit:  # no hyperplane, nothing to walk: the empty pocset
        signs = [0] * len(X.cells(0))
    elif (signs := _walk_signs(X, bit)) is not None:
        assert signs == _cut_signs(X, bit)
        assert sides is not None
    else:
        with pytest.raises(NotTwoSidedError):
            _cut_signs(X, bit)
        assert sides is None
    if sides is None:
        with pytest.raises(NotTwoSidedError):
            halfspace_pocset(X)
    else:
        assert halfspace_pocset(X).sides == sides
    assert outcome(roller_duality_check, X) == outcome(roller_duality_check_reference, X)
    return signs is not None


def test_walk_equals_the_cuts_on_the_seeded_pairs():
    pairs = [*fixture_pairs(), *seeded_pairs()]
    walked = [assert_walk_matches(build_clcc(ga, gb)) for ga, gb in pairs]
    # both branches are reached
    assert 0 < sum(walked) < len(walked)


def test_walk_equals_the_cuts_on_the_sweep_complexes():
    for S in sweep_pocsets():
        assert assert_walk_matches(sageev(S))


def test_walk_equals_the_cuts_on_trees_and_grids():
    r = rng(711)
    hosts = []
    for size in range(2, 24):
        # vertex i > 0 hangs from a random earlier vertex, ids shuffled so
        # the walk's tree is not the canonical order
        ids = [f"t{k:02d}" for k in r.sample(range(size), size)]
        hosts.append(tree_complex([(ids[r.randrange(i)], ids[i]) for i in range(1, size)]))
    hosts += [grid_complex(rows, cols) for rows, cols in GRIDS]
    assert max(len(X.opposition.classes) for X in hosts) == 32
    for X in hosts:
        assert assert_walk_matches(X)


def test_with_eleven_hyperplanes_the_bits_follow_the_sorted_ids():
    X = grid_complex(5, 6)
    assert len(X.opposition.classes) == 11
    assert sorted_bits(X)[2] == 1 << 3  # h0, h1, h10, h2, ...
    P = halfspace_pocset(X)
    assert P.elements[4:8] == (("h10", "+"), ("h10", "-"), ("h2", "+"), ("h2", "-"))
    assert P.sides == halfspace_sides_reference(X)


def square_and_point() -> CubeComplex:
    cells = {0: [frozenset({v}) for v in "abcdz"],
             1: [frozenset(e) for e in ("ab", "bd", "dc", "ca")],
             2: [frozenset("abcd")]}
    return CubeComplex.from_cells(cells)


def four_cycle() -> CubeComplex:
    return CubeComplex.from_cells({0: [frozenset({v}) for v in "abcd"],
                                   1: [frozenset(e) for e in ("ab", "bc", "cd", "da")]})


@pytest.mark.parametrize("host, text", [
    # the walk misses the point: the cut of h0 leaves the point apart
    (square_and_point, "hyperplane h0 separates the complex into 3 parts, not 2"),
    # the edge closing the cycle fails the check
    (four_cycle, "hyperplane h0 separates the complex into 1 parts, not 2"),
])
def test_the_cuts_name_what_the_walk_refuses(host, text):
    X = host()
    assert _walk_signs(X, sorted_bits(X)) is None
    for refuse in (halfspace_pocset, roller_duality_check):
        with pytest.raises(NotTwoSidedError) as err:
            refuse(X)
        assert str(err.value) == text
    assert halfspace_sides_reference(X) is None


def self_crossing() -> CubeComplex:
    """Three squares on six vertices whose class h0 holds both pairs of
    the square uvwx.  Every cycle crosses each class an even number of
    times, so the walk's edge check passes, but the cut of h0 leaves
    three parts: {v, p, x}, {q, u} and {w}."""
    edges = ["uv", "vw", "wx", "xu", "vp", "pq", "qu", "px"]
    return CubeComplex.from_cells({
        0: [frozenset({v}) for v in "uvwxpq"],
        1: [frozenset(e) for e in edges],
        2: [frozenset(s) for s in ("uvwx", "uvpq", "qpxu")],
    })


def test_a_square_crossing_itself_is_left_to_the_cuts():
    X = self_crossing()
    op = X.opposition
    assert any(op.label[e] == op.label[g] for e, _, g, _ in op.squares)
    assert _walk_signs(X, sorted_bits(X)) is None
    assert halfspace_sides_reference(X) is None
    with pytest.raises(NotTwoSidedError) as err:
        halfspace_pocset(X)
    assert str(err.value) == "hyperplane h0 separates the complex into 3 parts, not 2"
