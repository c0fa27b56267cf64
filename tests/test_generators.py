from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from clcc import (
    betti,
    build_clcc,
    classify_vertex_links,
    dimension,
    flag_complex_from_graph,
    gen_barycentric_pair,
    gen_cross_polytope,
    gen_cycle,
    gen_racg_pair,
    gen_salvetti_pair,
    gen_surface_pair,
    is_5_large,
    is_connected,
    is_flag,
    moussong,
)
from clcc.errors import ComplexError, DomainError
from clcc.simplicial import ColoredComplex, CoordSimplex

from oracles import (
    csaszar_torus,
    flag_complex_from_graph_reference,
    k_gamma_complex,
    racg_vertex_embedding,
    subdivided_k_gamma,
)


def cube_counts(X):
    return {d: len(X.cells(d)) for d in range(X.top_dim + 1)}


# -- cycles and cross-polytopes ------------------------------------------------


def test_gen_cycle_basics():
    c4 = gen_cycle(2)
    assert cube_counts_simplicial(c4) == {0: 4, 1: 4}
    c6 = gen_cycle(3)
    assert cube_counts_simplicial(c6) == {0: 6, 1: 6}
    c8 = gen_cycle(4, colors=(1, 3))
    assert c8.n == 3 and {c8.color_of(v) for v in c8.vertex_ids} == {1, 3}
    with pytest.raises(DomainError):
        gen_cycle(1)


def cube_counts_simplicial(K):
    return {d: len(K.cells(d)) for d in range(K.top_dim + 1)}


def test_gen_cycle_largeness():
    for k in range(2, 6):
        assert is_5_large(gen_cycle(k))[0] == (k >= 3)


def test_gen_cross_polytope():
    assert cube_counts_simplicial(gen_cross_polytope(1)) == {0: 2}
    o2 = gen_cross_polytope(2)
    assert cube_counts_simplicial(o2) == {0: 4, 1: 4}
    o3 = gen_cross_polytope(3)
    assert cube_counts_simplicial(o3) == {0: 6, 1: 12, 2: 8}


def test_generated_complexes_are_flag():
    samples = [
        gen_cycle(2),
        gen_cycle(4),
        gen_cross_polytope(3),
        gen_salvetti_pair(ColoredComplex.build(2, [("v1", 1), ("v2", 2)], [["v1", "v2"]]))[0],
        gen_racg_pair(ColoredComplex.build(2, [("v1", 1), ("v2", 2)], [["v1"], ["v2"]]))[1],
    ]
    for K in samples:
        assert is_flag(K)[0]


# -- surfaces --------------------------------------------------------------------


def test_surface_pair_genus_table():
    # chi from the alternating cell sum; the closed two-parameter formula
    # appears with the opposite sign (documented), so compare against its
    # negation
    for ka, kb in [(ka, kb) for ka in range(2, 6) for kb in range(2, 6)]:
        ga, gb = gen_surface_pair(ka, kb)
        X = build_clcc(ga, gb)
        chi = X.euler_characteristic()
        assert chi == -(ka * (kb - 2) + kb * (ka - 2))
        assert is_connected(ga, gb)
        assert dimension(X) == (2, True)
        assert set(classify_vertex_links(X).values()) == {"circle"}


def test_surface_pair_small_cases():
    ga, gb = gen_surface_pair(2, 2)
    assert cube_counts(build_clcc(ga, gb)) == {0: 16, 1: 32, 2: 16}
    ga, gb = gen_surface_pair(2, 3)
    assert cube_counts(build_clcc(ga, gb)) == {0: 22, 1: 48, 2: 24}
    ga, gb = gen_surface_pair(3, 3)
    X = build_clcc(ga, gb)
    assert X.euler_characteristic() == -6  # genus 4


# -- salvetti ---------------------------------------------------------------------


def test_salvetti_single_vertex():
    g = ColoredComplex.build(1, [("v1", 1)], [["v1"]])
    hat, bb = gen_salvetti_pair(g)
    assert cube_counts_simplicial(hat) == {0: 2}
    X = build_clcc(hat, bb)
    assert cube_counts(X) == {0: 4, 1: 4}


def test_salvetti_edge_gives_torus():
    g = ColoredComplex.build(2, [("v1", 1), ("v2", 2)], [["v1", "v2"]])
    hat, bb = gen_salvetti_pair(g)
    assert cube_counts_simplicial(hat) == {0: 4, 1: 4}
    assert betti(build_clcc(hat, bb), reduced=False).ranks == (1, 2, 1)


def test_salvetti_two_points_gives_wedge():
    g = ColoredComplex.build(2, [("v1", 1), ("v2", 2)], [["v1"], ["v2"]])
    hat, bb = gen_salvetti_pair(g)
    assert cube_counts_simplicial(hat) == {0: 4, 1: 3}
    X = build_clcc(hat, bb)
    assert X.euler_characteristic() == -1
    assert betti(X, reduced=False).ranks == (1, 2, 0)


def all_graphs(k):
    verts = [(f"v{i}", i) for i in range(1, k + 1)]
    pairs = list(combinations([v for v, _ in verts], 2))
    for mask in range(2 ** len(pairs)):
        edges = [p for idx, p in enumerate(pairs) if mask >> idx & 1]
        yield flag_complex_from_graph(k, verts, edges)


def test_salvetti_betti_is_clique_vector():
    for k in (1, 2, 3):
        for gamma in all_graphs(k):
            X = build_clcc(*gen_salvetti_pair(gamma))
            expected = [1] + [len(gamma.cells(d)) for d in range(X.top_dim)]
            got = list(betti(X, reduced=False).ranks)
            assert got == expected, f"{gamma}: {got} != {expected}"


# -- racg ---------------------------------------------------------------------------


def test_racg_two_points_is_eight_cycle(twopt):
    A, B = gen_racg_pair(twopt)
    X = build_clcc(A, B)
    assert cube_counts(X) == {0: 8, 1: 8}
    assert X.is_connected()


def test_racg_square_torus():
    g = ColoredComplex.build(
        4,
        [(f"v{i}", i) for i in range(1, 5)],
        [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v1"]],
    )
    X = build_clcc(*gen_racg_pair(g))
    assert X.euler_characteristic() == 0
    assert betti(X, reduced=False).ranks == (1, 2, 1)


def assert_racg_matches_subdivided_kernel(gamma):
    A, B = gen_racg_pair(gamma)
    X = build_clcc(A, B)
    oracle = subdivided_k_gamma(B)
    for d in range(max(X.top_dim, oracle.top_dim) + 1):
        assert len(X.cells(d)) == len(oracle.cells(d))
    phi = {v: racg_vertex_embedding(B, v) for v in X.cells(0)}
    assert set(phi.values()) == set(oracle.cells(0))
    assert len(set(phi.values())) == len(phi)
    x_edges = {frozenset(phi[u] for u in X.vertices_of(e)) for e in X.cells(1)}
    assert x_edges == set(oracle.cells(1))


def test_racg_matches_kernel_oracle(edge3, twopt):
    for gamma in (edge3, twopt):
        assert_racg_matches_subdivided_kernel(gamma)


def test_kernel_oracle_self_check(twopt):
    K = k_gamma_complex(twopt)
    assert cube_counts(K) == {0: 4, 1: 4}
    sub = subdivided_k_gamma(twopt)
    assert cube_counts(sub) == {0: 8, 1: 8}


# -- barycentric pairs -----------------------------------------------------------------


def test_barycentric_pair_spheres(tetra_boundary):
    ga, gb = gen_barycentric_pair(
        tetra_boundary, tetra_boundary, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}
    )
    assert betti(ga, reduced=False).ranks == (1, 0, 1)
    assert betti(gb, reduced=False).ranks == (1, 0, 1)


def test_barycentric_pair_with_torus(tetra_boundary):
    torus = csaszar_torus()
    assert torus.euler_characteristic() == 0
    ga, gb = gen_barycentric_pair(
        torus, tetra_boundary, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}
    )
    assert betti(ga, reduced=False).ranks == (1, 2, 1)


def test_barycentric_pair_trivial_homology(one_triangle):
    edge = type(one_triangle).from_maximal(["p", "q"], [["p", "q"]])
    ga, gb = gen_barycentric_pair(
        one_triangle, edge, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}
    )
    assert betti(ga, reduced=False).ranks == (1, 0, 0)


def test_barycentric_pair_rejects_same_edge_color(tetra_boundary, one_triangle):
    with pytest.raises(DomainError):
        gen_barycentric_pair(
            tetra_boundary, one_triangle, {"V": 1, "E": 2, "F": 3}, {"V": 1, "E": 2, "F": 3}
        )


def test_flag_complex_from_graph_rejects_an_edge_to_an_undeclared_vertex():
    with pytest.raises(DomainError, match="unknown vertex id 'zz'"):
        flag_complex_from_graph(2, [("x", 1), ("y", 2)], [("x", "y"), ("y", "zz")])


def test_flag_complex_from_graph_rejects_a_vertex_declared_with_two_colors():
    with pytest.raises(ComplexError, match="vertex 'x' declared with two colors"):
        flag_complex_from_graph(2, [("x", 1), ("x", 2), ("y", 1)], [("x", "y")])
    K = flag_complex_from_graph(2, [("x", 1), ("x", 1), ("y", 2)], [("x", "y")])
    assert K.vertices == (("x", 1), ("y", 2))


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        # the least undeclared endpoint in canonical order, not the first edge
        ([("x", 1), ("y", 2)], [("x", "zz"), ("x", "aa")], "unknown vertex id 'aa'"),
        # an undeclared endpoint wins over a same-colored edge
        ([("x", 1), ("y", 1), ("z", 2)], [("z", "q"), ("x", "y")], "unknown vertex id 'q'"),
        # the least same-colored edge in canonical order
        (
            [("x", 1), ("y", 1), ("a", 2), ("b", 2)],
            [("x", "y"), ("a", "b")],
            "duplicate color in simplex ((2, 'a'), (2, 'b'))",
        ),
    ],
)
def test_flag_complex_from_graph_error_precedence(vertices, edges, message):
    for complete in (flag_complex_from_graph, flag_complex_from_graph_reference):
        with pytest.raises(ComplexError) as info:
            complete(2, vertices, edges)
        assert str(info.value) == message


def test_flag_complex_from_graph_ignores_self_loops_and_repeated_edges():
    vertices = [("x", 1), ("y", 2)]
    K = flag_complex_from_graph(2, vertices, [("x", "x"), ("x", "y"), ("y", "x"), ("x", "y")])
    assert K == flag_complex_from_graph(2, vertices, [("x", "y")])
    assert len(K.simplices) == 4


def _completion(complete, n, vertices, edges):
    """The complex's n, vertices and simplices, or the error's text."""
    try:
        K = complete(n, vertices, edges)
    except ComplexError as exc:
        return str(exc)
    return K.n, K.vertices, K.simplices


def test_flag_completion_matches_the_reference_on_the_corpus_graphs(monkeypatch):
    graphs = []
    monkeypatch.setattr(
        corpus, "flag_complex_from_graph", lambda *graph: graphs.append(graph)
    )
    for salt in range(40):
        r = corpus.rng(9100 + salt)
        for n in (2, 3, 4):
            corpus.random_flag_complex(r, n)
            corpus.planted_square_flag_complex(r, n)
    for k in (1, 2, 3):
        verts = [(f"v{i}", i) for i in range(1, k + 1)]
        pairs = list(combinations([v for v, _ in verts], 2))
        for mask in range(2 ** len(pairs)):
            graphs.append((k, verts, [p for i, p in enumerate(pairs) if mask >> i & 1]))
    assert len(graphs) == 240 + 1 + 2 + 8
    for graph in graphs:
        got = _completion(flag_complex_from_graph, *graph)
        assert got == _completion(flag_complex_from_graph_reference, *graph)
        assert not isinstance(got, str)


_ids = st.sampled_from(["a", "b", "c", "d", "e", "f"])


@st.composite
def _graphs(draw, ends: str):
    """A colored graph.  Its edges join declared vertices of two colors
    (`ends="two colors"`, self-loops aside), any declared vertices
    (`"declared"`), or any ids; only in the last are the vertices'
    colors unchecked."""
    n = draw(st.integers(1, 4))
    if ends == "any":
        vertices = draw(st.lists(st.tuples(_ids, st.integers(1, n + 1)), max_size=6))
        ids = _ids | st.just("zz")
        return n, vertices, draw(st.lists(st.tuples(ids, ids), max_size=8))
    colors = draw(st.dictionaries(_ids, st.integers(1, n), max_size=6))
    pairs = [
        (a, b) for a in colors for b in colors
        if ends == "declared" or a == b or colors[a] != colors[b]
    ]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    return n, list(colors.items()), edges


@given(graph=st.sampled_from(["two colors", "declared", "any"]).flatmap(_graphs))
@settings(max_examples=300, deadline=None)
def test_flag_completion_matches_the_reference_on_random_graphs(graph):
    got = _completion(flag_complex_from_graph, *graph)
    assert got == _completion(flag_complex_from_graph_reference, *graph)


def test_flag_completion_makes_each_simplex_once(monkeypatch):
    made = []
    init = CoordSimplex.__init__

    def counted(self, entries):
        made.append(entries)
        init(self, entries)

    def closure(*args):
        raise AssertionError("flag completion closed a clique downwards")

    monkeypatch.setattr(CoordSimplex, "__init__", counted)
    monkeypatch.setattr(ColoredComplex, "build", staticmethod(closure))
    # the octahedron's 1-skeleton: its cliques are the 27 faces of the
    # cross-polytope, the empty one included
    vertices = [(f"{i}{s}", i) for i in (1, 2, 3) for s in "+-"]
    edges = [(a, b) for (a, ca), (b, cb) in combinations(vertices, 2) if ca != cb]
    K = flag_complex_from_graph(3, vertices, edges)
    assert len(K.simplices) == 27
    # the empty simplex is the shared EMPTY_SIMPLEX, and no other is made twice
    assert sorted(made) == sorted(s.entries for s in K.simplices if s.entries)


# -- refusals --------------------------------------------------------------------------------

EMPTY_TRIANGLE = ColoredComplex.build(
    3, [("v1", 1), ("v2", 2), ("v3", 3)], [["v1", "v2"], ["v2", "v3"], ["v1", "v3"]]
)
NOT_FLAG = "input must be flag; clique ('v1', 'v2', 'v3') does not span"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: gen_cross_polytope(0), "need n >= 1, got 0", id="no-colors"),
    pytest.param(lambda: gen_racg_pair(ColoredComplex.build(1, [], [])),
                 "need at least one vertex", id="racg-without-a-vertex"),
    # the first color met twice in vertex-id order, not the least one
    pytest.param(lambda: gen_salvetti_pair(ColoredComplex.build(
                     2, [("a", 2), ("b", 1), ("c", 2), ("d", 1)], [["a"], ["b"], ["c"], ["d"]])),
                 "color 2 has more than one vertex", id="salvetti-with-a-repeated-color"),
    pytest.param(lambda: gen_salvetti_pair(EMPTY_TRIANGLE), NOT_FLAG, id="salvetti-not-flag"),
    pytest.param(lambda: gen_racg_pair(EMPTY_TRIANGLE), NOT_FLAG, id="racg-not-flag"),
    pytest.param(lambda: moussong(EMPTY_TRIANGLE), NOT_FLAG, id="moussong-not-flag"),
])
def test_generators_refuse_their_inputs(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
