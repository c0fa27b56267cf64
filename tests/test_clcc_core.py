from itertools import combinations

import pytest

from clcc import (
    ColoredComplex,
    ColoredMap,
    CoordSimplex,
    build_clcc,
    classify_vertex_links,
    close_downward,
    complementary,
    conn_graph,
    dimension,
    doubly_smartly_paired,
    euler_characteristic,
    gen_cross_polytope,
    gen_cycle,
    gen_racg_pair,
    induced_map,
    is_connected,
    is_npc,
    link_of_cube,
    prune_to_smart_pair,
    smartly_paired,
)
from clcc.clcc_core import CubeComplex, join_link_of_cube
from clcc.errors import ComplexError, DomainError, PairError
from clcc.simplicial import EMPTY_SIMPLEX

from corpus import random_smart_pair, rng


def census(ga, gb):
    """Independent pair census: plain double loop over the two simplex
    families, counting color-cover pairs by overlap size."""
    n = ga.n
    everything = frozenset(range(1, n + 1))
    counts: dict[int, int] = {}
    for a in ga.simplices:
        for b in gb.simplices:
            if a.colors | b.colors == everything:
                d = len(a.colors & b.colors)
                counts[d] = counts.get(d, 0) + 1
    return counts


def cube_counts(X):
    return {d: len(X.cells(d)) for d in range(X.top_dim + 1)}


# -- ingestion errors ---------------------------------------------------------


def test_from_cells_rejects_malformed_cells():
    square = {
        0: [frozenset({v}) for v in "abcd"],
        1: [frozenset(e) for e in ("ab", "bc", "cd", "da")],
        2: [frozenset("abcd")],
    }
    CubeComplex.from_cells(square)
    with pytest.raises(ComplexError, match="has 3 facets, expected 4"):
        CubeComplex.from_cells({**square, 1: square[1][:3]})
    with pytest.raises(ComplexError, match="duplicate cube"):
        CubeComplex.from_cells({**square, 1: square[1] + [frozenset("ab")]})
    with pytest.raises(ComplexError, match="undeclared vertices"):
        CubeComplex.from_cells({**square, 0: square[0][:3]})
    with pytest.raises(ComplexError, match="2-cube needs 4 vertices, got 3"):
        CubeComplex.from_cells({**square, 2: [frozenset("abc")]})


def test_from_json_dict_validates_cubes(c4):
    doc = build_clcc(c4, c4).to_json_dict()
    CubeComplex.from_json_dict(doc)
    cube = doc["cubes"][0]
    with pytest.raises(ComplexError, match="declares dim 5"):
        CubeComplex.from_json_dict({"n": 2, "cubes": [{**cube, "dim": 5}]})
    with pytest.raises(ComplexError, match="does not cover the colors"):
        CubeComplex.from_json_dict({"n": 3, "cubes": [cube]})
    for n in ("2", 2.0, None, True, 0, -3):
        with pytest.raises(ComplexError, match="n must be an integer"):
            CubeComplex.from_json_dict({**doc, "n": n})
        with pytest.raises(ComplexError, match="n must be an integer"):
            ColoredComplex.from_json_dict({"n": n, "vertices": [], "maximal_simplices": []})


# -- complementary -----------------------------------------------------------


def test_complementary(c4):
    edge = c4.simplex_with_vertices(["v0", "v1"])
    assert complementary(edge, EMPTY_SIMPLEX, 2)
    v = CoordSimplex.of({1: "x"})
    assert not complementary(v, v, 2)
    assert not complementary(EMPTY_SIMPLEX, EMPTY_SIMPLEX, 1)


# -- build ---------------------------------------------------------------------


def test_build_c4_c6(c4, c6):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    assert cube_counts(X) == {0: 22, 1: 48, 2: 24}
    assert euler_characteristic(X) == -2


def test_build_matches_census_on_fixtures(c4, c6, o3):
    for ga, gb in [
        (c4, gen_cycle(3, prefix="b")),
        (c4, gen_cycle(2, prefix="b")),
        (o3, gen_cycle(3, colors=(1, 2), prefix="b", n=3)),
    ]:
        X = build_clcc(ga, gb)
        assert cube_counts(X) == census(ga, gb)


def test_build_torus(c4):
    X = build_clcc(c4, gen_cycle(2, prefix="b"))
    assert cube_counts(X) == {0: 16, 1: 32, 2: 16}
    assert euler_characteristic(X) == 0


def test_build_spheres_gives_square():
    a = close_downward(1, [("a+", 1), ("a-", 1)], [["a+"], ["a-"]])
    b = close_downward(1, [("b+", 1), ("b-", 1)], [["b+"], ["b-"]])
    X = build_clcc(a, b)
    assert cube_counts(X) == {0: 4, 1: 4}
    assert X.is_connected()


def test_build_rejects_mismatched_n(c4, o3):
    with pytest.raises(PairError):
        build_clcc(c4, o3)


def test_cube_structure_invariants(c4):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    for d in range(X.top_dim + 1):
        for cube in X.cells(d):
            a, b = cube
            assert len(X.facets(cube)) == (2 * d if d else 0)
            assert len(X.vertices_of(cube)) == 2**d
            for va, vb in X.vertices_of(cube):
                assert va <= a and vb <= b


# -- links ------------------------------------------------------------------------


def test_link_of_max_vertex_is_other_side(c4):
    c6b = gen_cycle(3, prefix="b")
    X = build_clcc(c4, c6b)
    edge = c4.simplex_with_vertices(["v0", "v1"])
    L = link_of_cube(X, (edge, EMPTY_SIMPLEX))
    assert L == c6b.uncolored()


def test_link_of_mixed_vertex_is_square(c4):
    c6b = gen_cycle(3, prefix="b")
    X = build_clcc(c4, c6b)
    v = (c4.simplex_with_vertices(["v0"]), c6b.simplex_with_vertices(["b1"]))
    L = link_of_cube(X, v)
    assert {d: len(L.cells(d)) for d in (0, 1)} == {0: 4, 1: 4}
    assert all(L.degree(u) == 2 for u in L.vertex_ids)


def test_link_of_edge_in_torus_is_two_points(c4):
    X = build_clcc(c4, gen_cycle(2, prefix="b"))
    edge = X.cells(1)[0]
    L = link_of_cube(X, edge)
    assert {d: len(L.cells(d)) for d in (0,)} == {0: 2}
    assert L.top_dim == 0


def test_link_requires_membership(c4):
    X = build_clcc(c4, gen_cycle(2, prefix="b"))
    with pytest.raises(DomainError):
        link_of_cube(X, (CoordSimplex.of({1: "v0", 2: "zz"}), EMPTY_SIMPLEX))


def test_join_link_equals_adjacency_link_everywhere():
    pairs = [
        (gen_cycle(2), gen_cycle(3, prefix="b")),
        (gen_cycle(2), gen_cycle(2, prefix="b")),
        (gen_cross_polytope(3), gen_cycle(3, colors=(1, 2), prefix="b", n=3)),
    ]
    for ga, gb in pairs:
        X = build_clcc(ga, gb)
        for d in range(X.top_dim + 1):
            for cube in X.cells(d):
                joined = join_link_of_cube(ga, gb, cube)
                adjacency = X.link_complex(cube)
                assert set(joined.vertex_ids) == set(adjacency.vertex_ids)
                assert set(joined.simplices) == set(adjacency.simplices)


# -- smart pairing -------------------------------------------------------------------


def test_smartly_paired_cycles(c4):
    assert smartly_paired(c4, gen_cycle(3, prefix="b")) == (True, None)


def test_smartly_paired_with_isolated_extra_vertex(c4):
    gb = close_downward(
        2,
        [("b0", 1), ("b1", 2), ("b2", 1), ("b3", 2), ("w", 1)],
        [["b0", "b1"], ["b1", "b2"], ["b2", "b3"], ["b3", "b0"], ["w"]],
    )
    # the isolated vertex is maximal but a color-2 vertex of the partner
    # complements it, so the pair is smart
    assert smartly_paired(c4, gb) == (True, None)


def test_smartly_paired_empty_complement_is_available(o2):
    # maximal edges of the cross-polytope are complemented by the empty
    # simplex, so a single-vertex partner still makes a smart pair
    b = close_downward(2, [("b", 1)], [["b"]])
    assert smartly_paired(o2, b) == (True, None)


def test_smartly_paired_failure_witness():
    ga = close_downward(2, [("a0", 1), ("a1", 1)], [["a0"], ["a1"]])
    gb = close_downward(2, [("b", 1)], [["b"]])
    ok, witness = smartly_paired(ga, gb)
    assert not ok
    assert witness[0] == "A" and witness[1].colors == {1}


def test_doubly_smartly_paired(c4):
    assert doubly_smartly_paired(c4, gen_cycle(3, prefix="b"))
    a = close_downward(1, [("a+", 1), ("a-", 1)], [["a+"], ["a-"]])
    b = close_downward(1, [("b+", 1), ("b-", 1)], [["b+"], ["b-"]])
    assert doubly_smartly_paired(a, b)
    # codimension-1 faces of the cross-polytope edges are vertices of
    # both colors; a single color-2 partner vertex cannot complement the
    # color-2 ones
    o2 = gen_cross_polytope(2)
    single = close_downward(2, [("b", 2)], [["b"]])
    assert smartly_paired(o2, single)[0]
    assert not doubly_smartly_paired(o2, single)


def test_prune_keeps_smart_pairs(c4):
    c6b = gen_cycle(3, prefix="b")
    assert prune_to_smart_pair(c4, c6b) == (c4, c6b)


def test_prune_removes_junk_and_preserves_complex(c4):
    ga = close_downward(
        2,
        [("v0", 1), ("v1", 2), ("v2", 1), ("v3", 2), ("w", 1)],
        [["v0", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "v0"], ["w"]],
    )
    gb = close_downward(2, [("b", 1)], [["b"]])
    pa, pb = prune_to_smart_pair(ga, gb)
    assert set(pa.vertex_ids) == {"v0", "v1", "v2", "v3"}
    assert pb == gb
    assert set(build_clcc(pa, pb)._dim_of) == set(build_clcc(ga, gb)._dim_of)


def test_prune_collapses_hopeless_pair():
    ga = close_downward(2, [("a", 1)], [["a"]])
    gb = close_downward(2, [("b", 1)], [["b"]])
    pa, pb = prune_to_smart_pair(ga, gb)
    assert pa.vertex_ids == () and pb.vertex_ids == ()
    assert build_clcc(pa, pb).top_dim == -1


def test_prune_preserves_complex_on_random_pairs():
    r = rng(201)
    for _ in range(30):
        n = r.randint(1, 3)
        from corpus import random_colored_complex

        ga = random_colored_complex(r, n, max_vertices=6)
        gb = random_colored_complex(r, n, max_vertices=6)
        pa, pb = prune_to_smart_pair(ga, gb)
        assert set(build_clcc(pa, pb)._dim_of) == set(build_clcc(ga, gb)._dim_of)
        if pa.vertex_ids or pb.vertex_ids:
            assert smartly_paired(pa, pb)[0]


def test_edge_orientation_metadata(c4):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    for e in X.cells(1):
        tail, head = X.edge_orientation(e)
        assert {tail, head} == set(X.vertices_of(e))
        # the head lost one A-color relative to the tail
        assert len(head[0].entries) == len(tail[0].entries) - 1
    from conftest import grid_complex

    grid = grid_complex(1, 1)
    with pytest.raises(DomainError):
        grid.edge_orientation(grid.cells(1)[0])


# -- dimension ------------------------------------------------------------------------


def test_dimension_surface(c4):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    assert dimension(X) == (2, True)


def test_dimension_spheres():
    a = close_downward(1, [("a+", 1), ("a-", 1)], [["a+"], ["a-"]])
    b = close_downward(1, [("b+", 1), ("b-", 1)], [["b+"], ["b-"]])
    assert dimension(build_clcc(a, b)) == (1, True)


def test_dimension_impure_pair():
    ga = close_downward(
        2, [("a1", 1), ("a2", 2), ("w", 1)], [["a1", "a2"], ["w"]]
    )
    gb = gen_cycle(2, prefix="b")
    X = build_clcc(ga, gb)
    d, pure = dimension(X)
    assert d == 2 and not pure


def test_dimension_formula_on_random_smart_pairs():
    r = rng(202)
    found = 0
    while found < 25:
        pair = random_smart_pair(r, max_vertices=6)
        if pair is None:
            continue
        ga, gb = pair
        if not (ga.is_pure and gb.is_pure):
            continue
        found += 1
        X = build_clcc(ga, gb)
        d, pure = dimension(X)
        assert pure
        assert d == ga.top_dim + gb.top_dim + 2 - ga.n


# -- connectivity -----------------------------------------------------------------------


def test_connected_surface(c4):
    c6b = gen_cycle(3, prefix="b")
    assert is_connected(c4, c6b, engine="bfs")
    assert is_connected(c4, c6b, engine="criterion")


def test_three_colored_cycle_genus(o3):
    cycling = close_downward(
        3,
        [(f"b{i}", i % 3 + 1) for i in range(6)],
        [[f"b{i}", f"b{(i + 1) % 6}"] for i in range(6)],
    )
    X = build_clcc(o3, cycling)
    assert is_connected(o3, cycling, engine="bfs")
    assert is_connected(o3, cycling, engine="criterion")
    assert cube_counts(X) == {0: 44, 1: 96, 2: 48}
    assert euler_characteristic(X) == -4  # genus 3
    assert set(classify_vertex_links(X).values()) == {"circle"}


def test_two_colored_cycle_disconnects(o3):
    twocol = close_downward(
        3,
        [(f"b{i}", 1 if i % 2 == 0 else 2) for i in range(6)],
        [[f"b{i}", f"b{(i + 1) % 6}"] for i in range(6)],
    )
    assert not is_connected(o3, twocol, engine="bfs")
    assert not is_connected(o3, twocol, engine="criterion")
    # ignoring one color locks that coordinate, giving two copies of the
    # genus-2 surface of the (4-cycle, 6-cycle) pair
    X = build_clcc(o3, twocol)
    assert cube_counts(X) == {0: 44, 1: 96, 2: 48}
    assert euler_characteristic(X) == -4
    assert set(classify_vertex_links(X).values()) == {"circle"}


def test_vertexless_factor_against_full_cover_simplex():
    # the empty simplex is the maximal simplex of the vertex-less complex
    # and complements a full-cover partner, so the one-point complex is
    # connected under both engines
    ga = close_downward(2, [], [])
    gb = close_downward(2, [("b1", 1), ("b2", 2)], [["b1", "b2"]])
    assert smartly_paired(ga, gb) == (True, None)
    X = build_clcc(ga, gb)
    assert {d: len(X.cells(d)) for d in range(X.top_dim + 1)} == {0: 1}
    assert is_connected(ga, gb, engine="bfs")
    assert is_connected(ga, gb, engine="criterion")


def test_criterion_engine_refuses_non_smart_pair():
    ga = close_downward(2, [("a", 1)], [["a"]])
    gb = close_downward(2, [("b", 1)], [["b"]])
    with pytest.raises(DomainError):
        is_connected(ga, gb, engine="criterion")


def test_criterion_agrees_with_bfs_on_random_pairs():
    r = rng(203)
    found = 0
    while found < 40:
        pair = random_smart_pair(r, max_vertices=7)
        if pair is None:
            continue
        found += 1
        ga, gb = pair
        assert is_connected(ga, gb, engine="bfs") == is_connected(ga, gb, engine="criterion")


def test_conn_graph_nodes_are_complexes_vertices(c4):
    c6b = gen_cycle(3, prefix="b")
    G = conn_graph(c4, c6b)
    X = build_clcc(c4, c6b)
    for node in G.nodes:
        assert node in X
        assert X.dim_of(node) == 0


# -- euler characteristic ------------------------------------------------------------------


def test_euler_eight_cycle(twopt):
    X = build_clcc(*gen_racg_pair(twopt))
    assert cube_counts(X) == {0: 8, 1: 8}
    assert euler_characteristic(X) == 0


def test_euler_matches_degree_formula_on_surfaces():
    for ka, kb in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        ga = gen_cycle(ka, prefix="a")
        gb = gen_cycle(kb, prefix="b")
        X = build_clcc(ga, gb)
        for e in X.cells(1):
            assert sum(1 for sq in X.cells(2) if e in X.facets(sq)) == 2
        degree = {v: sum(1 for e in X.cells(1) if v in X.vertices_of(e)) for v in X.cells(0)}
        degree_sum = sum(4 - degree[v] for v in X.cells(0))
        assert degree_sum % 4 == 0
        assert euler_characteristic(X) == degree_sum // 4


# -- vertex link classification ---------------------------------------------------------------


def test_surface_links_are_circles(c4):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    assert set(classify_vertex_links(X).values()) == {"circle"}


def test_octahedron_pair_links_are_spheres(o3):
    gb = gen_cross_polytope(3, prefix="b")
    X = build_clcc(o3, gb)
    assert set(classify_vertex_links(X).values()) == {"2-sphere"}


def test_wedge_pair_has_non_manifold_link(o3):
    wedge = close_downward(
        3,
        [("x", 1), ("y", 2), ("z", 3), ("y2", 2), ("z2", 3)],
        [["x", "y", "z"], ["x", "y2", "z2"]],
    )
    tags = classify_vertex_links(build_clcc(o3, wedge))
    assert "other" in set(tags.values())


def test_high_dimension_links_unknown():
    a = gen_cross_polytope(4)
    b = gen_cross_polytope(4, prefix="b")
    tags = classify_vertex_links(build_clcc(a, b))
    assert set(tags.values()) == {"unknown"}


# -- npc -------------------------------------------------------------------------------------


def test_npc_flag_inputs(c4):
    ok, method, _ = is_npc(c4, gen_cycle(3, prefix="b"))
    assert ok and method == "flag-inputs"


def test_npc_direct_check_positive():
    # cross-polytope minus its all-minus top simplex is not flag, yet the
    # complex against three isolated points is a graph, hence fine
    verts = [(f"a{i}{s}", i) for i in (1, 2, 3) for s in "+-"]
    tops = []
    for mask in range(8):
        pick = [f"a{i}{'+' if mask >> (i - 1) & 1 else '-'}" for i in (1, 2, 3)]
        if pick != ["a1-", "a2-", "a3-"]:
            tops.append(pick)
    ga = close_downward(3, verts, tops)
    gb = close_downward(3, [("b1", 1), ("b2", 2), ("b3", 3)], [["b1"], ["b2"], ["b3"]])
    from clcc.simplicial import is_flag

    assert not is_flag(ga)[0]
    ok, method, _ = is_npc(ga, gb)
    assert ok and method == "direct-links"


def test_npc_direct_check_negative(o3):
    empty_triangle = close_downward(
        3,
        [("v1", 1), ("v2", 2), ("v3", 3)],
        [["v1", "v2"], ["v2", "v3"], ["v1", "v3"]],
    )
    ok, method, witness = is_npc(empty_triangle, o3)
    assert not ok and method == "direct-links" and witness is not None


# -- induced maps ------------------------------------------------------------------------------


def test_identity_induces_identity(c4):
    c6b = gen_cycle(3, prefix="b")
    phi = induced_map(ColoredMap.identity(c4), ColoredMap.identity(c6b))
    assert phi.is_injective and phi.is_surjective
    assert all(phi.apply(c) == c for c in phi.source._dim_of)


def test_full_inclusion_induces_injective_local_isometry(c4):
    sub = c4.full_subcomplex(["v0", "v2"])
    inc = ColoredMap.inclusion(sub, c4)
    assert inc.is_full_inclusion
    phi = induced_map(inc, ColoredMap.identity(gen_cycle(3, prefix="b")))
    assert phi.is_injective and not phi.is_surjective


def test_quotient_induces_surjection():
    c6 = gen_cycle(3)
    target = close_downward(
        2,
        [("v0", 1), ("v1", 2), ("v3", 2), ("v4", 1), ("v5", 2)],
        [["v0", "v1"], ["v1", "v0"], ["v0", "v3"], ["v3", "v4"], ["v4", "v5"], ["v5", "v0"]],
    )
    f = ColoredMap.make(
        c6, target, {"v0": "v0", "v1": "v1", "v2": "v0", "v3": "v3", "v4": "v4", "v5": "v5"}
    )
    gb = gen_cycle(2, prefix="b")
    phi = induced_map(f, ColoredMap.identity(gb))
    assert phi.is_surjective and not phi.is_injective


def test_colored_map_rejects_color_breaking(c4):
    with pytest.raises(ComplexError):
        ColoredMap.make(c4, c4, {"v0": "v1", "v1": "v0", "v2": "v3", "v3": "v2"})


def test_functoriality_on_inclusion_chain(o3):
    sub1 = o3.full_subcomplex(["a1+", "a2+", "a3+"])
    sub2 = o3.full_subcomplex(["a1+", "a2+", "a3+", "a1-"])
    f = ColoredMap.inclusion(sub1, sub2)
    g = ColoredMap.inclusion(sub2, o3)
    gb = gen_cycle(3, colors=(1, 2), prefix="b", n=3)
    ident = ColoredMap.identity(gb)
    composed = induced_map(g.compose(f), ident)
    stepwise = induced_map(g, ident).compose(induced_map(f, ident))
    assert composed == stepwise


def test_functoriality_on_random_triples():
    r = rng(204)
    from corpus import random_flag_complex

    done = 0
    while done < 10:
        K3 = random_flag_complex(r, 2, max_vertices=6)
        ids = list(K3.vertex_ids)
        if len(ids) < 2:
            continue
        sub_ids = r.sample(ids, r.randint(1, len(ids)))
        K2 = K3.full_subcomplex(sub_ids)
        sub2_ids = r.sample(sorted(K2.vertex_ids), r.randint(1, len(K2.vertex_ids)))
        K1 = K2.full_subcomplex(sub2_ids)
        gb = gen_cycle(2, prefix="b")
        ident = ColoredMap.identity(gb)
        f = ColoredMap.inclusion(K1, K2)
        g = ColoredMap.inclusion(K2, K3)
        assert induced_map(g.compose(f), ident) == induced_map(g, ident).compose(
            induced_map(f, ident)
        )
        done += 1
