import json
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcc import (
    barycentric_subdivision_2d,
    build_clcc,
    flag_complex_from_graph,
    gen_cycle,
    is_5_large,
    is_flag,
    is_obes,
    pairwise_5_large,
    prune_to_smart_pair,
    simplicial_join,
)
from clcc.canon import canonical_json
from clcc.errors import ComplexError
from clcc.simplicial import (
    EMPTY_SIMPLEX,
    ColoredComplex,
    ColoredMap,
    CoordSimplex,
    SimplicialComplex,
    faces_of,
)

from conftest import grid_complex
from corpus import (
    planted_square_flag_complex,
    random_colored_complex,
    random_flag_complex,
    random_smart_pair,
    random_two_complex,
    rng,
)
from oracles import (
    barycentric_subdivision_2d_reference,
    chordless_squares_reference,
    cliques_reference,
    empty_squares_reference,
    faces_of_reference,
    is_flag_reference,
)


def cell_counts(K) -> dict:
    return {d: len(K.cells(d)) for d in range(K.top_dim + 1)}


# -- oracles ----------------------------------------------------------------


def octahedron_faces():
    """Faces of the octahedron on vertices {1+,1-,2+,2-,3+,3-}: the
    subsets containing no antipodal pair."""
    verts = [f"a{i}{s}" for i in (1, 2, 3) for s in "+-"]
    faces = []
    for k in (1, 2, 3):
        for sub in combinations(verts, k):
            if all(not (a[:-1] == b[:-1]) for a, b in combinations(sub, 2)):
                faces.append(frozenset(sub))
    return faces


# -- ColoredComplex.build -----------------------------------------------------


def test_a_host_prints_its_cell_counts(c4, tetra_boundary):
    """The repr is how a failing assertion prints a host; the cube hosts
    share it, with a color count only when pair-built."""
    assert repr(c4) == "ColoredComplex(n=2, cells={0: 4, 1: 4})"
    assert repr(tetra_boundary) == "SimplicialComplex(cells={0: 4, 1: 6, 2: 4})"
    assert repr(build_clcc(c4, c4)) == "CubeComplex(n=2, cells={0: 16, 1: 32, 2: 16})"
    assert repr(grid_complex(1, 1)) == "CubeComplex(cells={0: 4, 1: 4, 2: 1})"


def test_closure_of_cycle(c4):
    assert cell_counts(c4) == {0: 4, 1: 4}
    assert EMPTY_SIMPLEX in c4.simplices


def test_closure_sphere_zero():
    s0 = ColoredComplex.build(1, [("a+", 1), ("a-", 1)], [["a+"], ["a-"]])
    assert cell_counts(s0) == {0: 2}


def test_closure_octahedron_matches_brute_force(o3):
    assert cell_counts(o3) == {0: 6, 1: 12, 2: 8}
    expected = {f for f in octahedron_faces()}
    got = {s.vertex_ids for s in o3.simplices if s.dim >= 0}
    assert got == expected


def test_closure_is_idempotent(o3):
    again = ColoredComplex.build(
        o3.n, o3.vertices, [sorted(s.vertex_ids) for s in o3.simplices if s.dim >= 0]
    )
    assert again == o3


def test_closure_errors():
    with pytest.raises(ComplexError):
        ColoredComplex.build(2, [("x", 1), ("y", 1)], [["x", "y"]])  # duplicate color
    with pytest.raises(ComplexError):
        ColoredComplex.build(2, [("x", 1)], [["x", "z"]])  # unknown id
    with pytest.raises(ComplexError):
        ColoredComplex.build(2, [("x", 3)], [["x"]])  # color out of range


def test_faces_of_matches_the_bitmask_closure():
    r = rng(311)
    factors = [random_colored_complex(r, r.randint(1, 4)) for _ in range(30)]
    factors += [K for _ in range(15) for K in random_smart_pair(r) or ()]
    tops = [[s.entries for s in K.maximal_simplices] for K in factors]
    tops += [[tuple(sorted(s)) for s in random_two_complex(r).maximal_simplices] for _ in range(10)]
    abc = ("a", "b", "c")
    tops += [
        [],  # no tops, no faces: not even the empty one
        [()],
        [abc, abc],  # a repeated top
        [abc[:1], abc, abc[1:], ()],  # nested tops, shortest first
        [("a", "b"), ("b", "c"), ("c", "a")],  # one face in two orders
    ]
    for ts in tops:
        assert faces_of(ts) == faces_of_reference(ts)
    assert faces_of([]) == set()
    for K in factors:
        assert faces_of(s.entries for s in K.maximal_simplices) == {s.entries for s in K.simplices}


# -- is_flag --------------------------------------------------------------------


def test_flag_c4(c4):
    assert is_flag(c4) == (True, None)


def test_flag_empty_triangle():
    K = ColoredComplex.build(
        3,
        [("v1", 1), ("v2", 2), ("v3", 3)],
        [["v1", "v2"], ["v2", "v3"], ["v1", "v3"]],
    )
    ok, witness = is_flag(K)
    assert not ok
    assert tuple(sorted(witness)) == ("v1", "v2", "v3")


def test_flag_octahedron_matches_clique_oracle(o3):
    ok, _ = is_flag(o3)
    assert ok
    for clique in cliques_reference(o3.adjacency):
        assert o3.simplex_with_vertices(clique) is not None


def flag_corpus():
    """Both sides of smart, planted-square and unpruned pairs, the vertex
    links of their pair complexes, and random uncolored 2-complexes."""
    r = rng(801)
    pairs = [p for p in (random_smart_pair(r, max_vertices=7) for _ in range(80)) if p]
    for k in range(60):
        n = r.randint(2, 4)
        gb = planted_square_flag_complex(r, n) if k % 2 else random_flag_complex(r, n)
        pairs.append(prune_to_smart_pair(random_flag_complex(r, n), gb))
        pairs.append((random_colored_complex(r, n, 7), random_colored_complex(r, n, 7)))
    for ga, gb in pairs:
        yield ga
        yield gb
        X = build_clcc(ga, gb)
        for v in X.cells(0)[:3]:
            yield X.link(v)
    for _ in range(60):
        yield random_two_complex(r)
    # hollow tetrahedra: every triangle spans, the 4-clique does not
    hollow = list(combinations("pqrs", 3))
    yield ColoredComplex.build(4, list(zip("pqrs", (1, 2, 3, 4))), hollow)
    yield SimplicialComplex.from_maximal(list("pqrs"), hollow)


def test_flag_matches_reference_on_corpus():
    verdicts = set()
    for K in flag_corpus():
        got = is_flag(K)
        assert got == is_flag_reference(K)
        verdicts.add(got[1] and len(got[1]))
    assert {None, 3, 4} <= verdicts


# -- link --------------------------------------------------------------------------


def test_link_of_cycle_vertex(c6):
    v = c6.simplex_with_vertices(["v0"])
    link = c6.link(v)
    assert cell_counts(link) == {0: 2}
    assert {c6.color_of(u) for u, in (s.vertex_ids for s in link.cells(0))} == {2}


def test_link_in_octahedron(o3):
    v = o3.simplex_with_vertices(["a1+"])
    link = o3.link(v)
    assert cell_counts(link) == {0: 4, 1: 4}
    assert {link.color_of(u) for u in link.vertex_ids} == {2, 3}


def test_link_of_empty_simplex_is_identity(o3):
    assert o3.link(EMPTY_SIMPLEX) == o3


def test_link_requires_membership(c4):
    with pytest.raises(ComplexError):
        c4.link(CoordSimplex.of({1: "nope"}))


# -- full_subcomplex -----------------------------------------------------------------


def test_full_subcomplex_everything(c6):
    assert c6.full_subcomplex(c6.vertex_ids) == c6


def test_full_subcomplex_edge(c6):
    sub = c6.full_subcomplex(["v0", "v1"])
    assert cell_counts(sub) == {0: 2, 1: 1}


def test_full_subcomplex_of_octahedron_is_square(o3):
    sub = o3.full_subcomplex([v for v in o3.vertex_ids if o3.color_of(v) in (1, 2)])
    assert cell_counts(sub) == {0: 4, 1: 4}
    assert sub.squares  # the bicolor square survives


def test_full_subcomplex_unknown_id(c4):
    with pytest.raises(ComplexError):
        c4.full_subcomplex(["ghost"])


# -- simplicial_join --------------------------------------------------------------------


def s0(prefix):
    return ColoredComplex.build(
        1, [(f"{prefix}+", 1), (f"{prefix}-", 1)], [[f"{prefix}+"], [f"{prefix}-"]]
    )


def test_join_of_two_spheres_is_square():
    J = simplicial_join(s0("a"), s0("b"))
    assert {d: len(J.cells(d)) for d in (0, 1)} == {0: 4, 1: 4}
    assert all(len(J.adjacency[v]) == 2 for v in J.vertex_ids)


def test_join_with_empty_complex_is_identity(c6):
    empty = SimplicialComplex.from_maximal([], [])
    J = simplicial_join(c6, empty)
    assert J == c6.uncolored()


def test_join_sphere_with_square_is_octahedron(o3):
    J = simplicial_join(s0("x"), gen_cycle(2))
    assert {d: len(J.cells(d)) for d in (0, 1, 2)} == {0: 6, 1: 12, 2: 8}
    # octahedron signature: each vertex is non-adjacent to exactly one other
    for v in J.vertex_ids:
        assert len(J.vertex_ids) - 1 - len(J.adjacency[v]) == 1


def test_join_tags_on_collision():
    J = simplicial_join(s0("a"), s0("a"))
    assert set(J.vertex_ids) == {("A", "a+"), ("A", "a-"), ("B", "a+"), ("B", "a-")}


# -- empty squares -------------------------------------------------------------------------


def test_empty_squares_c4(c4):
    squares = c4.squares
    assert len(squares) == 1
    assert squares[0].cycle == ("v0", "v1", "v2", "v3")
    assert squares[0].color_set == {1, 2}


def test_square_with_chord_is_not_empty():
    K = ColoredComplex.build(
        3,
        [("v0", 1), ("v1", 2), ("v2", 3), ("v3", 2)],
        [["v0", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "v0"], ["v0", "v2"]],
    )
    assert K.squares == ()


def test_empty_squares_octahedron_matches_naive_scan(o3):
    squares = o3.squares
    assert len(squares) == 3
    assert {sq.color_set for sq in squares} == {
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    assert [sq.cycle for sq in squares] == chordless_squares_reference(o3.adjacency)


def test_empty_squares_color_filter(o3):
    only12 = [sq for sq in o3.squares if sq.color_set == {1, 2}]
    assert len(only12) == 1 and only12[0].color_set == {1, 2}
    assert only12 == empty_squares_reference(o3, (1, 2))


def test_square_witness_invariants(o3):
    adj = o3.adjacency
    for sq in o3.squares:
        v, up, w, um = sq.cycle
        assert up in adj[v] and w in adj[up] and um in adj[w] and v in adj[um]
        assert w not in adj[v] and um not in adj[up]


# -- 5-large / obes / pairwise ----------------------------------------------------------------


def test_five_large(c4, c6):
    assert is_5_large(c6) == (True, None)
    ok, witness = is_5_large(c4)
    assert not ok and witness is not None


def test_five_large_barycentric_triangle(one_triangle):
    sub = barycentric_subdivision_2d(one_triangle, {"V": 1, "E": 2, "F": 3})
    assert is_5_large(sub)[0]
    assert chordless_squares_reference(sub.adjacency) == []


def test_obes_c4(c4):
    assert is_obes(c4) == (True, None)


def test_obes_barycentric(tetra_boundary):
    sub = barycentric_subdivision_2d(tetra_boundary, {"V": 1, "E": 2, "F": 3})
    ok, _ = is_obes(sub)
    assert ok


def test_obes_tricolor_square_fails():
    K = ColoredComplex.build(
        3,
        [("v0", 1), ("v1", 2), ("v2", 1), ("v3", 3)],
        [["v0", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "v0"]],
    )
    ok, witness = is_obes(K)
    assert not ok
    assert witness.color_set == {1, 2, 3}


def test_pairwise_five_large(c4, c6, o2):
    assert pairwise_5_large(c4, c6) == (True, None)
    ok, witness = pairwise_5_large(c4, gen_cycle(2, prefix="w"))
    assert not ok
    assert witness[0] == (1, 2)
    c8 = gen_cycle(4, prefix="z")
    assert pairwise_5_large(o2, c8)[0]


# -- barycentric subdivision -------------------------------------------------------------------


def test_barycentric_triangle_counts(one_triangle):
    sub = barycentric_subdivision_2d(one_triangle, {"V": 1, "E": 2, "F": 3})
    assert cell_counts(sub) == {0: 7, 1: 12, 2: 6}
    assert is_flag(sub)[0]


def test_barycentric_edge_is_path():
    K = SimplicialComplex.from_maximal(["p", "q"], [["p", "q"]])
    sub = barycentric_subdivision_2d(K, {"V": 1, "E": 2, "F": 3})
    assert cell_counts(sub) == {0: 3, 1: 2}
    degs = sorted(len(sub.adjacency[v]) for v in sub.vertex_ids)
    assert degs == [1, 1, 2]


def test_barycentric_tetra_boundary_counts(tetra_boundary):
    sub = barycentric_subdivision_2d(tetra_boundary, {"V": 3, "E": 1, "F": 2})
    assert cell_counts(sub) == {0: 14, 1: 36, 2: 24}


def test_barycentres_are_named_apart():
    # a backslash goes before each backslash and "|" inside an id, and then
    # the ids are joined by "|": the vertex "a|b" and the edge {a, b} get
    # two barycentres
    K = SimplicialComplex.from_maximal(["a", "b", "a|b", "c\\"], [["a", "b"], ["a|b", "c\\"]])
    sub = barycentric_subdivision_2d(K, {"V": 1, "E": 2, "F": 3})
    assert sub.vertex_ids == ("a", "a\\|b", "a\\|b|c\\\\", "a|b", "b", "c\\\\")
    assert cell_counts(sub) == {0: 6, 1: 4}
    assert sub == barycentric_subdivision_2d_reference(K, {"V": 1, "E": 2, "F": 3})


def test_barycentric_rejects_bad_input(tetra_boundary):
    solid = SimplicialComplex.from_maximal(["p", "q", "r", "s"], [["p", "q", "r", "s"]])
    with pytest.raises(ComplexError):
        barycentric_subdivision_2d(solid, {"V": 1, "E": 2, "F": 3})
    with pytest.raises(ComplexError):
        barycentric_subdivision_2d(tetra_boundary, {"V": 1, "E": 1, "F": 3})


# -- property tests -----------------------------------------------------------------------------


@st.composite
def flag_complexes(draw):
    n = draw(st.integers(1, 3))
    nv = draw(st.integers(1, 10))
    colors = [draw(st.integers(1, n)) for _ in range(nv)]
    vertices = [(f"v{i}", colors[i]) for i in range(nv)]
    edges = []
    for (a, ca), (b, cb) in combinations(vertices, 2):
        if ca != cb and draw(st.booleans()):
            edges.append((a, b))
    return flag_complex_from_graph(n, vertices, edges)


@given(flag_complexes())
@settings(max_examples=60, deadline=None)
def test_link_of_flag_complex_is_flag(K):
    assert is_flag(K)[0]
    for s in sorted(K.simplices, key=lambda s: s.entries)[:12]:
        link = K.link(s)
        assert is_flag(link)[0]


@given(flag_complexes())
@settings(max_examples=60, deadline=None)
def test_flag_link_equals_full_subcomplex_on_common_neighbours(K):
    adj = K.adjacency
    for s in sorted(K.simplices, key=lambda s: s.entries)[:12]:
        if s.dim < 0:
            continue
        nbrs = set(K.vertex_ids)
        for v in s.vertex_ids:
            nbrs &= adj[v]
        assert K.link(s) == K.full_subcomplex(nbrs)


@given(flag_complexes())
@settings(max_examples=60, deadline=None)
def test_flag_link_squares_are_read_off_the_view(K):
    """`_link_squares` answers, for the link of every simplex of a flag
    complex, what the built link's own square scan and adjacency answer;
    a declared vertex in no simplex is no link vertex of the empty one."""
    ghost = ColoredComplex(K.n, {**dict(K.vertices), "zz": 1}, K.simplices)
    for host in (K, ghost):
        for s in host.simplices:
            L = host.link(s)
            size = len(L.vertex_ids)
            assert host._link_squares(s) == (
                bool(chordless_squares_reference(L.adjacency)),
                any(len(ns) < size - 1 for ns in L.adjacency.values()),
            ), s


def test_relabeling_that_merges_vertices_is_refused():
    K = ColoredComplex.build(2, [("a", 1), ("b", 1), ("c", 2)], [["a", "c"], ["b", "c"]])
    for host in (K, SimplicialComplex.from_maximal("abc", [["a", "c"], ["b", "c"]])):
        for rename in ({"a": "b"}, {"a": "x", "c": "x"}, {"b": "c"}):
            with pytest.raises(ComplexError, match="relabeling is not injective"):
                host.relabeled(rename)
        swapped = host.relabeled({"a": "b", "b": "a", "ghost": "c"})
        assert cell_counts(swapped) == cell_counts(host) == {0: 3, 1: 2}
        assert tuple(swapped.vertex_ids) == ("a", "b", "c")


@given(flag_complexes())
@settings(max_examples=40, deadline=None)
def test_empty_squares_invariant_under_relabeling(K):
    rename = {v: f"w{idx}" for idx, v in enumerate(reversed(K.vertex_ids))}
    moved = K.relabeled(rename)
    expected = {frozenset(rename[u] for u in sq.cycle) for sq in K.squares}
    got = {frozenset(sq.cycle) for sq in moved.squares}
    assert got == expected


def test_barycentric_subdivision_is_obes_on_random_complexes():
    r = rng(101)
    for _ in range(25):
        K = random_two_complex(r)
        sub = barycentric_subdivision_2d(K, {"V": 1, "E": 2, "F": 3})
        ok, witness = is_obes(sub)
        assert ok, f"non-bicolor empty square {witness} in subdivision of {K}"


def test_edge_color_subcomplexes_of_subdivision_are_5_large():
    # the 5-largeness step that certify_barycentric relies on
    r = rng(102)
    for _ in range(25):
        K = random_two_complex(r)
        sub = barycentric_subdivision_2d(K, {"V": 1, "E": 2, "F": 3})
        for pair in ((1, 2), (2, 3)):
            assert not [sq for sq in sub.squares if sq.color_set == set(pair)]
            assert not empty_squares_reference(sub, pair)


def test_barycentric_subdivision_equals_the_chain_enumeration():
    """The full flags of the maximal simplices, closed downward, against
    every chain of faces listed by hand, under every color map: random
    2-complexes, and complexes with lone edges and vertices."""
    r = rng(104)
    hosts = [random_two_complex(r) for _ in range(100)]
    hosts += [
        SimplicialComplex.from_maximal("pqrst", [["p", "q", "r"], ["r", "s"], ["t"]]),
        SimplicialComplex.from_maximal("pq", [["p", "q"]]),
        SimplicialComplex.from_maximal("p", [["p"]]),
        SimplicialComplex.from_maximal("", []),
    ]
    for K in hosts:
        for colors in permutations((1, 2, 3)):
            color_map = dict(zip("VEF", colors))
            assert barycentric_subdivision_2d(K, color_map) == (
                barycentric_subdivision_2d_reference(K, color_map)
            )


def test_closure_preserves_flag_verdict():
    r = rng(103)
    for _ in range(20):
        K = random_two_complex(r, max_triangles=4)
        colored = barycentric_subdivision_2d(K, {"V": 1, "E": 2, "F": 3})
        rebuilt = ColoredComplex.from_json_dict(colored.to_json_dict())
        assert is_flag(rebuilt) == is_flag(colored)
        assert rebuilt == colored


# -- json ----------------------------------------------------------------------------------------


def test_colored_complex_json_roundtrip(o3):
    doc = o3.to_json_dict()
    text = canonical_json(doc)
    back = ColoredComplex.from_json_dict(json.loads(text))
    assert back == o3
    assert canonical_json(back.to_json_dict()) == text


# -- refusals ------------------------------------------------------------------------------------

TRIANGLE = SimplicialComplex.from_maximal(["p", "q", "r"], [["p", "q", "r"]])
EDGE = ColoredComplex.build(2, [("x", 1), ("y", 2)], [["x", "y"]])
POINTS = ColoredComplex.build(2, [("x", 1), ("y", 2)], [["x"], ["y"]])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: EDGE.boundary_of(EMPTY_SIMPLEX),
                 "the empty simplex has no boundary", id="boundary-of-the-empty-simplex"),
    pytest.param(lambda: TRIANGLE.boundary_of(frozenset()),
                 "the empty simplex has no boundary", id="boundary-of-the-empty-set"),
    pytest.param(lambda: SimplicialComplex.from_maximal(["p"], [["r", "p", "q"]]),
                 "unknown vertex ids ['q', 'r']", id="unknown-vertex-ids"),
    pytest.param(lambda: TRIANGLE.link_data({"p", "z"}),
                 "simplex not in complex", id="link-of-a-missing-simplex"),
    pytest.param(lambda: ColoredMap.make(EDGE, EDGE, {"x": "x"}),
                 "vertex map must cover exactly the source vertices", id="map-misses-a-vertex"),
    pytest.param(lambda: ColoredMap.make(EDGE, POINTS, {"x": "x", "y": "y"}),
                 "image of <1:x, 2:y> is not a simplex of the target", id="image-not-a-simplex"),
    pytest.param(lambda: ColoredMap.identity(EDGE).compose(ColoredMap.identity(POINTS)),
                 "maps are not composable", id="maps-not-composable"),
])
def test_simplicial_refusals_name_their_input(call, message):
    with pytest.raises(ComplexError) as info:
        call()
    assert str(info.value) == message
