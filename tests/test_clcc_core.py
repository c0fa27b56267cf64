import pytest

from clcc import (
    ColoredComplex,
    ColoredMap,
    CoordSimplex,
    build_clcc,
    classify_vertex_links,
    conn_graph,
    dimension,
    doubly_smartly_paired,
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
from clcc import clcc_core
from clcc.clcc_core import CubeComplex, CubicalMap, _check_link_condition
from clcc.errors import ComplexError, DomainError, PairError
from clcc.simplicial import EMPTY_SIMPLEX, simplicial_join

from conftest import grid_complex
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


def all_cubes(X) -> set:
    return {c for d in range(X.top_dim + 1) for c in X.cells(d)}


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
    for vid in (5, None, ["v0"]):  # a list is no dict key, so it is never shared
        bad = {**cube, "b": {k: vid for k in cube["b"]}}
        with pytest.raises(ComplexError, match="has a vertex id that is not a string"):
            CubeComplex.from_json_dict({**doc, "cubes": [bad] + doc["cubes"]})
    # True == 1 and 1.0 == 1, but a dim must be an integer, as n must
    edge = next(k for k, c in enumerate(doc["cubes"]) if c["dim"] == 1)
    for dim in (True, 1.0, "1"):
        cubes = doc["cubes"][:edge] + [{**doc["cubes"][edge], "dim": dim}] + doc["cubes"][edge + 1:]
        with pytest.raises(ComplexError, match=f"declares dim {dim!r}, which is not an integer"):
            CubeComplex.from_json_dict({**doc, "cubes": cubes})
    for n in ("2", 2.0, None, True, 0, -3):
        with pytest.raises(ComplexError, match="n must be an integer"):
            CubeComplex.from_json_dict({**doc, "n": n})
        with pytest.raises(ComplexError, match="n must be an integer"):
            ColoredComplex.from_json_dict({"n": n, "vertices": [], "maximal_simplices": []})


# -- build ---------------------------------------------------------------------


def test_build_c4_c6(c4, c6):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    assert cube_counts(X) == {0: 22, 1: 48, 2: 24}
    assert X.euler_characteristic() == -2


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
    assert X.euler_characteristic() == 0


def test_build_spheres_gives_square():
    a = ColoredComplex.build(1, [("a+", 1), ("a-", 1)], [["a+"], ["a-"]])
    b = ColoredComplex.build(1, [("b+", 1), ("b-", 1)], [["b+"], ["b-"]])
    X = build_clcc(a, b)
    assert cube_counts(X) == {0: 4, 1: 4}
    assert X.is_connected()


def test_build_rejects_mismatched_n(c4, o3):
    with pytest.raises(PairError):
        build_clcc(c4, o3)


def test_pair_predicates_refuse_mismatched_n(c6, o3):
    # two flag factors: is_npc checks the counts before its flag shortcut
    for predicate in (is_npc, smartly_paired, is_connected):
        with pytest.raises(PairError, match="color counts differ: 2 vs 3"):
            predicate(c6, gen_cross_polytope(3, prefix="b"))


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
    assert all(len(L.adjacency[u]) == 2 for u in L.vertex_ids)


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
    """Every cube's adjacency link is the join lk_A(a) * lk_B(b) that
    `link_of_cube` builds, once each join vertex is named by the cube
    one dimension up that it stands for: u in lk_A(a) by (a + u, b) and
    w in lk_B(b) by (a, b + w)."""
    pairs = [
        (gen_cycle(2), gen_cycle(3, prefix="b")),
        (gen_cycle(2), gen_cycle(2, prefix="b")),
        (gen_cross_polytope(3), gen_cycle(3, colors=(1, 2), prefix="b", n=3)),
    ]
    for ga, gb in pairs:
        X = build_clcc(ga, gb)
        for d in range(X.top_dim + 1):
            for cube in X.cells(d):
                a, b = cube
                up = {u: (CoordSimplex.of([*a.entries, (c, u)]), b) for u, c in ga.link(a).vertices}
                up |= {w: (a, CoordSimplex.of([*b.entries, (c, w)])) for w, c in gb.link(b).vertices}
                assert link_of_cube(X, cube).relabeled(up) == X.link(cube)


# -- smart pairing -------------------------------------------------------------------


def test_smartly_paired_cycles(c4):
    assert smartly_paired(c4, gen_cycle(3, prefix="b")) == (True, None)


def test_smartly_paired_with_isolated_extra_vertex(c4):
    gb = ColoredComplex.build(
        2,
        [("b0", 1), ("b1", 2), ("b2", 1), ("b3", 2), ("w", 1)],
        [["b0", "b1"], ["b1", "b2"], ["b2", "b3"], ["b3", "b0"], ["w"]],
    )
    # the isolated vertex is maximal but a color-2 vertex of the partner
    # complements it, so the pair is smart
    assert smartly_paired(c4, gb) == (True, None)


def test_doubly_smartly_paired_needs_a_smart_pair():
    # a vertexless pair: its one maximal simplex, the empty one, has no
    # facet to check, so only the smart-pairing check (the empty simplex
    # needs a partner on all n colors) refuses it
    empty = ColoredComplex.build(2, [], [])
    assert smartly_paired(empty, empty) == (False, ("A", EMPTY_SIMPLEX))
    assert doubly_smartly_paired(empty, empty) is False


def test_smartly_paired_empty_complement_is_available(o2):
    # maximal edges of the cross-polytope are complemented by the empty
    # simplex, so a single-vertex partner still makes a smart pair
    b = ColoredComplex.build(2, [("b", 1)], [["b"]])
    assert smartly_paired(o2, b) == (True, None)


def test_smartly_paired_failure_witness():
    ga = ColoredComplex.build(2, [("a0", 1), ("a1", 1)], [["a0"], ["a1"]])
    gb = ColoredComplex.build(2, [("b", 1)], [["b"]])
    ok, witness = smartly_paired(ga, gb)
    assert not ok
    assert witness[0] == "A" and witness[1].colors == {1}


def test_doubly_smartly_paired(c4):
    assert doubly_smartly_paired(c4, gen_cycle(3, prefix="b"))
    a = ColoredComplex.build(1, [("a+", 1), ("a-", 1)], [["a+"], ["a-"]])
    b = ColoredComplex.build(1, [("b+", 1), ("b-", 1)], [["b+"], ["b-"]])
    assert doubly_smartly_paired(a, b)
    # codimension-1 faces of the cross-polytope edges are vertices of
    # both colors; a single color-2 partner vertex cannot complement the
    # color-2 ones
    o2 = gen_cross_polytope(2)
    single = ColoredComplex.build(2, [("b", 2)], [["b"]])
    assert smartly_paired(o2, single)[0]
    assert not doubly_smartly_paired(o2, single)


def test_prune_keeps_smart_pairs(c4):
    c6b = gen_cycle(3, prefix="b")
    assert prune_to_smart_pair(c4, c6b) == (c4, c6b)


def test_prune_removes_junk_and_preserves_complex(c4):
    ga = ColoredComplex.build(
        2,
        [("v0", 1), ("v1", 2), ("v2", 1), ("v3", 2), ("w", 1)],
        [["v0", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "v0"], ["w"]],
    )
    gb = ColoredComplex.build(2, [("b", 1)], [["b"]])
    pa, pb = prune_to_smart_pair(ga, gb)
    assert set(pa.vertex_ids) == {"v0", "v1", "v2", "v3"}
    assert pb == gb
    assert all_cubes(build_clcc(pa, pb)) == all_cubes(build_clcc(ga, gb))


def test_prune_collapses_hopeless_pair():
    ga = ColoredComplex.build(2, [("a", 1)], [["a"]])
    gb = ColoredComplex.build(2, [("b", 1)], [["b"]])
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
        assert all_cubes(build_clcc(pa, pb)) == all_cubes(build_clcc(ga, gb))
        if pa.vertex_ids or pb.vertex_ids:
            assert smartly_paired(pa, pb)[0]


# -- dimension ------------------------------------------------------------------------


def test_dimension_surface(c4):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    assert dimension(X) == (2, True)


def test_dimension_spheres():
    a = ColoredComplex.build(1, [("a+", 1), ("a-", 1)], [["a+"], ["a-"]])
    b = ColoredComplex.build(1, [("b+", 1), ("b-", 1)], [["b+"], ["b-"]])
    assert dimension(build_clcc(a, b)) == (1, True)


def test_dimension_impure_pair():
    ga = ColoredComplex.build(
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
    cycling = ColoredComplex.build(
        3,
        [(f"b{i}", i % 3 + 1) for i in range(6)],
        [[f"b{i}", f"b{(i + 1) % 6}"] for i in range(6)],
    )
    X = build_clcc(o3, cycling)
    assert is_connected(o3, cycling, engine="bfs")
    assert is_connected(o3, cycling, engine="criterion")
    assert cube_counts(X) == {0: 44, 1: 96, 2: 48}
    assert X.euler_characteristic() == -4  # genus 3
    assert set(classify_vertex_links(X).values()) == {"circle"}


def test_two_colored_cycle_disconnects(o3):
    twocol = ColoredComplex.build(
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
    assert X.euler_characteristic() == -4
    assert set(classify_vertex_links(X).values()) == {"circle"}


def test_vertexless_factor_against_full_cover_simplex():
    # the empty simplex is the maximal simplex of the vertex-less complex
    # and complements a full-cover partner, so the one-point complex is
    # connected under both engines
    ga = ColoredComplex.build(2, [], [])
    gb = ColoredComplex.build(2, [("b1", 1), ("b2", 2)], [["b1", "b2"]])
    assert smartly_paired(ga, gb) == (True, None)
    X = build_clcc(ga, gb)
    assert {d: len(X.cells(d)) for d in range(X.top_dim + 1)} == {0: 1}
    assert is_connected(ga, gb, engine="bfs")
    assert is_connected(ga, gb, engine="criterion")


def test_criterion_engine_refuses_non_smart_pair():
    ga = ColoredComplex.build(2, [("a", 1)], [["a"]])
    gb = ColoredComplex.build(2, [("b", 1)], [["b"]])
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
    assert X.euler_characteristic() == 0


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
        assert X.euler_characteristic() == degree_sum // 4


# -- vertex link classification ---------------------------------------------------------------


def test_surface_links_are_circles(c4):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    assert set(classify_vertex_links(X).values()) == {"circle"}


def test_octahedron_pair_links_are_spheres(o3):
    gb = gen_cross_polytope(3, prefix="b")
    X = build_clcc(o3, gb)
    assert set(classify_vertex_links(X).values()) == {"2-sphere"}


def test_wedge_pair_has_non_manifold_link(o3):
    wedge = ColoredComplex.build(
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
    ga = ColoredComplex.build(3, verts, tops)
    gb = ColoredComplex.build(3, [("b1", 1), ("b2", 2), ("b3", 3)], [["b1"], ["b2"], ["b3"]])
    from clcc.simplicial import is_flag

    assert not is_flag(ga)[0]
    ok, method, _ = is_npc(ga, gb)
    assert ok and method == "direct-links"


def test_npc_direct_check_negative(o3):
    empty_triangle = ColoredComplex.build(
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
    assert all(phi.apply(c) == c for c in all_cubes(phi.source))


def test_full_inclusion_induces_injective_local_isometry(c4):
    sub = c4.full_subcomplex(["v0", "v2"])
    inc = ColoredMap.inclusion(sub, c4)
    assert inc.is_full_inclusion
    phi = induced_map(inc, ColoredMap.identity(gen_cycle(3, prefix="b")))
    assert phi.is_injective and not phi.is_surjective


def test_the_link_condition_reads_the_built_links(monkeypatch, c4):
    """induced_map checks full inclusions on the links of the two complexes
    it built, with no join link made; the check still refuses a link map
    whose image is not full."""
    calls = []
    monkeypatch.setattr(
        clcc_core, "simplicial_join", lambda *args: calls.append(args) or simplicial_join(*args)
    )
    gb = gen_cycle(3, prefix="b")
    ident = ColoredMap.identity(gb)
    for sub in (c4, c4.full_subcomplex(["v0", "v2"]), c4.full_subcomplex(["v0", "v1", "v2"])):
        assert induced_map(ColoredMap.inclusion(sub, c4), ident).is_injective
    assert not calls
    path = ColoredComplex.build(2, c4.vertices, [["v0", "v1"], ["v1", "v2"], ["v2", "v3"]])
    f = ColoredMap.inclusion(path, c4)
    assert not f.is_full_inclusion
    phi = CubicalMap(build_clcc(path, gb), build_clcc(c4, gb), f, ident)
    with pytest.raises(ComplexError, match="not a full subcomplex"):
        _check_link_condition(phi)


def test_quotient_induces_surjection():
    c6 = gen_cycle(3)
    target = ColoredComplex.build(
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


def test_a_map_that_changes_the_color_count_is_refused_before_any_build(monkeypatch):
    """A point on colors 1..2 sent to itself on colors 1..3, on either
    side of the pair, is refused by its color counts; no complex is built."""
    monkeypatch.setattr(clcc_core, "build_clcc", lambda *_: pytest.fail("a complex was built"))
    keep = ColoredMap.identity(ColoredComplex.build(2, [("b2", 2)], [["b2"]]))
    grow = _point_into_three_colors("a1", 1)
    for f_a, f_b in ((grow, keep), (keep, grow)):
        with pytest.raises(PairError, match="^color counts differ: 2 vs 3$"):
            induced_map(f_a, f_b)


def test_colored_map_rejects_color_breaking(c4):
    with pytest.raises(ComplexError):
        ColoredMap.make(c4, c4, {"v0": "v1", "v1": "v0", "v2": "v3", "v3": "v2"})


def test_colored_map_rejects_an_image_outside_the_target(c4):
    with pytest.raises(ComplexError, match="image vertex 'zz' not in target"):
        ColoredMap.make(c4, c4, {"v0": "zz", "v1": "v1", "v2": "v2", "v3": "v3"})


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


# -- refusals ----------------------------------------------------------------------------------


def _point_into_three_colors(vid: str, color: int) -> ColoredMap:
    """A point on colors 1..2 sent to the same point on colors 1..3."""
    point = lambda n: ColoredComplex.build(n, [(vid, color)], [[vid]])
    return ColoredMap.make(point(2), point(3), {vid: vid})


def _edge_onto_two_points() -> ColoredMap:
    """An edge sent to two points, built past `ColoredMap.make`, which
    would refuse it: the image of the edge is no simplex."""
    edge = ColoredComplex.build(2, [("a1", 1), ("a2", 2)], [["a1", "a2"]])
    points = ColoredComplex.build(2, [("w1", 1), ("w2", 2)], [["w1"], ["w2"]])
    return ColoredMap(edge, points, (("a1", "w1"), ("a2", "w2")))


def _folded_torus_map() -> CubicalMap:
    """Side A's 4-cycle folded onto one edge: at a vertex (empty, edge)
    the link map sends the edges towards v0 and v2 to one edge."""
    c4, c4b = gen_cycle(2), gen_cycle(2, prefix="b")
    edge = ColoredComplex.build(2, [("w1", 1), ("w2", 2)], [["w1", "w2"]])
    f_a = ColoredMap.make(c4, edge, {"v0": "w1", "v1": "w2", "v2": "w1", "v3": "w2"})
    return CubicalMap(build_clcc(c4, c4b), build_clcc(edge, c4b), f_a, ColoredMap.identity(c4b))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(
        lambda: build_clcc(gen_cycle(2), gen_cycle(2, prefix="b")).link_data("zz"),
        DomainError, "cube 'zz' not in complex", id="link-of-a-missing-cube"),
    pytest.param(
        lambda: grid_complex(1, 1).to_json_dict(),
        DomainError, "only pair-built complexes have a JSON form", id="json-without-a-pair"),
    pytest.param(
        lambda: link_of_cube(grid_complex(1, 1), frozenset({"g0,0"})),
        DomainError, "link_of_cube needs the defining pair; build the complex from one",
        id="join-link-without-a-pair"),
    pytest.param(
        lambda: is_connected(gen_cycle(2), gen_cycle(2, prefix="b"), engine="dfs"),
        ValueError, "unknown engine 'dfs'", id="unknown-engine"),
    pytest.param(
        lambda: induced_map(
            _edge_onto_two_points(),
            ColoredMap.identity(ColoredComplex.build(2, [("b1", 1), ("b2", 2)], [["b1"], ["b2"]]))),
        ComplexError, "image of cube (<1:a1, 2:a2>, <empty>) missing from target",
        id="image-missing"),
    pytest.param(
        lambda: _check_link_condition(_folded_torus_map()),
        ComplexError, "link map at (<empty>, <1:b0, 2:b1>) is not injective",
        id="link-map-not-injective"),
])
def test_core_refusals_name_their_input(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
