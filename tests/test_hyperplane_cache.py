"""Hyperplanes are walked once per complex, on integer edge indices.

`CubeComplex.opposition` numbers the edges once and finds square
opposition by comparing endpoint indices; `hyperplanes`, `directions`,
`crossing_graph` and `halfspace_pocset` all read that one walk.  Each is
compared here with the naive references in oracles.py on pair-built,
JSON-loaded (whole, through the pair, and without their top cubes, as
given) and `from_cells` hosts, and so are the walk's opposite pairs of
each square.  For pair-built hosts the paper's
local structure is checked as a property: every hyperplane lies inside
one key bucket (i, a(i), b(i)) of its edges, though a bucket may hold
several hyperplanes.
"""

from __future__ import annotations

import pytest

import clcc.clcc_core as clcc_core
from clcc import (
    SimplicialComplex,
    build_clcc,
    gen_barycentric_pair,
    gen_cross_polytope,
    gen_surface_pair,
    prune_to_smart_pair,
)
from clcc.clcc_core import CubeComplex
from clcc.errors import DomainError, NotTwoSidedError
from clcc.pocset_hyperplanes import (
    crossing_graph,
    directions,
    halfspace_pocset,
    hyperplanes,
    sageev,
)

from conftest import grid_complex, tree_complex
from corpus import (
    planted_square_flag_complex,
    random_colored_complex,
    random_flag_complex,
    random_pocset,
    random_smart_pair,
    rng,
)
from oracles import (
    crossing_graph_reference,
    halfspace_sides_reference,
    hyperplane_classes_reference,
    opposition_pairs_reference,
    subdivided_k_gamma,
)

TETRA = SimplicialComplex.from_maximal(
    ["p", "q", "r", "s"], [["p", "q", "r"], ["p", "q", "s"], ["p", "r", "s"], ["q", "r", "s"]]
)


def seeded_pairs():
    """Smart pairs, pruned flag pairs with a planted empty square on one
    side, and unpruned pairs."""
    r = rng(701)
    found = 0
    while found < 150:
        pair = random_smart_pair(r, max_vertices=7)
        if pair is not None:
            found += 1
            yield pair
    r = rng(702)
    for k in range(80):
        n = r.randint(2, 4)
        ga = random_flag_complex(r, n, max_vertices=8)
        gb = planted_square_flag_complex(r, n) if k % 2 else random_flag_complex(r, n)
        yield prune_to_smart_pair(ga, gb)
    r = rng(703)
    for _ in range(60):
        n = r.randint(1, 3)
        yield random_colored_complex(r, n, 6), random_colored_complex(r, n, 6)


def fixture_pairs():
    return [
        gen_surface_pair(5, 6),
        (gen_cross_polytope(3), gen_cross_polytope(3, prefix="b")),
        (gen_cross_polytope(4), gen_cross_polytope(4, prefix="b")),
        gen_barycentric_pair(TETRA, TETRA, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}),
    ]


def cells_of(X: CubeComplex) -> dict:
    return {d: [X.vertices_of(c) for c in X.cells(d)] for d in range(X.top_dim + 1)}


def generic_hosts():
    """Complexes with no defining pair: grids, trees, the subdivided
    tetrahedron cube complex, and sageev complexes of random pocsets."""
    hosts = [grid_complex(r, c) for r, c in ((1, 1), (2, 3), (4, 4), (1, 6))]
    hosts += [tree_complex([("v0", "v1"), ("v1", "v2")]),
              tree_complex([("c", "l0"), ("c", "l1"), ("c", "l2")])]
    hosts.append(subdivided_k_gamma(gen_cross_polytope(2)))
    r = rng(704)
    hosts += [sageev(random_pocset(r, max_pairs=5)) for _ in range(40)]
    return hosts


def overlap_color(edge) -> int:
    a, b = edge
    (color,) = a.colors & b.colors
    return color


def assert_matches_references(X: CubeComplex) -> None:
    hps = hyperplanes(X)
    assert [hp.hid for hp in hps] == [f"h{i}" for i in range(len(hps))]
    assert [hp.edges for hp in hps] == hyperplane_classes_reference(X)
    assert crossing_graph(X) == crossing_graph_reference(X)
    index = {e: i for i, e in enumerate(X.cells(1))}
    assert X.opposition.squares == tuple(
        tuple(index[e] for pair in opposition_pairs_reference(X, sq) for e in pair)
        for sq in X.cells(2)
    )
    if X.has_pair_origin:
        dirs, valid = directions(X)
        assert valid
        assert list(dirs) == [hp.hid for hp in hps]
        for hp in hps:
            assert {overlap_color(e) for e in hp.edges} == {dirs[hp.hid]}
    sides = halfspace_sides_reference(X)
    if sides is None:
        with pytest.raises(NotTwoSidedError):
            halfspace_pocset(X)
    else:
        P = halfspace_pocset(X)
        assert P.sides == sides
        assert P.elements == tuple(sorted(sides))
        assert P.less == frozenset((x, y) for x in sides for y in sides if sides[x] < sides[y])


def split_buckets(X: CubeComplex) -> int:
    """Check that each hyperplane lies in one key bucket (i, a(i), b(i))
    and that its direction is the bucket's color; return how many buckets
    hold more than one hyperplane."""
    dirs, _ = directions(X)
    held: dict = {}
    for hp in hyperplanes(X):
        keys = set()
        for a, b in hp.edges:
            i = overlap_color((a, b))
            keys.add((i, a.get(i), b.get(i)))
        assert len(keys) == 1
        (key,) = keys
        assert dirs[hp.hid] == key[0]
        held.setdefault(key, []).append(hp.hid)
    return sum(len(hids) > 1 for hids in held.values())


def loaded_hosts(X: CubeComplex) -> list[CubeComplex]:
    """X's document loaded whole, which takes the pair path, and, when X
    has edges, loaded without its top cubes: every side of a top cube is
    in one of its vertices, so the sides span the same pair, which has
    more cubes than the document, and the cubes are assembled as given."""
    doc = X.to_json_dict()
    hosts = [CubeComplex.from_json_dict(doc)]
    if X.top_dim:
        cubes = [c for c in doc["cubes"] if c["dim"] < X.top_dim]
        partial = CubeComplex.from_json_dict({"n": doc["n"], "cubes": cubes})
        assert partial.defining_pair is None and partial.has_pair_origin
        hosts.append(partial)
    return hosts


def test_pair_hosts_match_references():
    for ga, gb in fixture_pairs():
        X = build_clcc(ga, gb)
        for host in (X, *loaded_hosts(X)):
            assert_matches_references(host)


def test_seeded_pairs_match_references():
    for ga, gb in seeded_pairs():
        X = build_clcc(ga, gb)
        for host in (X, *loaded_hosts(X)):
            assert_matches_references(host)


def test_generic_hosts_match_references():
    for X in generic_hosts():
        assert_matches_references(X)
        assert_matches_references(CubeComplex.from_cells(cells_of(X)))


def test_each_hyperplane_lies_in_one_key_bucket():
    for ga, gb in fixture_pairs():
        assert split_buckets(build_clcc(ga, gb)) == 0
    splits = [split_buckets(build_clcc(ga, gb)) for ga, gb in seeded_pairs()]
    # the key alone is not the hyperplane: some buckets split
    assert sum(s > 0 for s in splits) >= 1


def test_one_walk_per_complex(monkeypatch):
    walks = []
    builder = clcc_core._opposition_walk

    def counting(X):
        walks.append(X)
        return builder(X)

    monkeypatch.setattr(clcc_core, "_opposition_walk", counting)
    X = build_clcc(*gen_surface_pair(3, 4))
    first = hyperplanes(X)
    directions(X)
    crossing_graph(X)
    assert hyperplanes(X) == first
    assert walks == [X]

    grid = grid_complex(3, 3)
    halfspace_pocset(grid)
    hyperplanes(grid)
    crossing_graph(grid)
    assert walks == [X, grid]


def test_returned_list_is_a_copy():
    X = build_clcc(*gen_surface_pair(2, 3))
    hps = hyperplanes(X)
    want = list(hps)
    hps.pop()
    hps.append("junk")
    assert hyperplanes(X) == want


def test_square_without_two_opposite_pairs_raises():
    # a triangle with a pendant edge: no edge is opposite the first, {1, 2};
    # then {1, 2} opposite {3, 4}, but the other two edges meet at 1
    for edges in ([{1, 2}, {1, 3}, {1, 4}, {2, 3}], [{1, 2}, {3, 4}, {1, 3}, {1, 4}]):
        X = CubeComplex.from_cells({0: [{1}, {2}, {3}, {4}], 1: edges, 2: [{1, 2, 3, 4}]})
        assert X.cells(1)[0] == frozenset({1, 2})
        for reader in (hyperplanes, crossing_graph, halfspace_pocset):
            with pytest.raises(DomainError, match="does not have two opposite edge pairs"):
                reader(X)
