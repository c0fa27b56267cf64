"""Vertex-link invariants from the factor links against the adjacency path.

For a pair-built complex, classify_vertex_links and is_npc read the
vertex links off the factors by the join formula
lk(a, b) = lk_A(a) * lk_B(b), and certify's rule 4 (every vertex link
5-large) reads them off the int views of its flag factors.  Each is
compared here with the same invariant computed on the adjacency link
X.link(v) of the built complex, vertex by vertex, on the seeded corpus
and on fixtures that between them reach every tag; rule 4 on flag pairs
only, since certify reaches it with no other.  The tags are read with
`_LinkSummary(host, cell)`, which walks the star of the cell once; its
tags and its other star reads are checked against the built links, and
counters check that no link complex is built and that no star is
walked twice.

Each complex is also round-tripped through JSON: the loader recovers
the pair its cube sides span when that pair has at most 8 faces per
side and cube, and otherwise, like for partial documents and vertex ids with two
colors, it keeps no pair and tags the adjacency links.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations

import pytest
from click.testing import CliRunner

from clcc import (
    ColoredComplex,
    CubeComplex,
    SimplicialComplex,
    build_clcc,
    certify,
    classify_vertex_links,
    gen_barycentric_pair,
    gen_cross_polytope,
    gen_cycle,
    gen_surface_pair,
    is_npc,
    prune_to_smart_pair,
)
from clcc.canon import canonical_json
from clcc.cli import main
from clcc import clcc_core
from clcc.clcc_core import _FACES_PER_CUBE, CoordSimplex, _LinkSummary, _pair_vertices, cube_json
from clcc.errors import ComplexError
from clcc.hyperbolicity import ALL_RULES, RULE_LINKS_5_LARGE, _join_has_empty_square
from clcc.pocset_hyperplanes import sageev
from clcc.simplicial import CellStore, _chordless_squares, is_flag

from conftest import grid_complex, tree_complex
from corpus import (
    planted_square_flag_complex,
    random_colored_complex,
    random_flag_complex,
    random_pocset,
    random_smart_pair,
    random_two_complex,
    rng,
)
from oracles import classify_link_reference, csaszar_torus, pair_cubes_reference


def adjacency_is_npc(ga, gb):
    """is_npc as it reads off the built complex: every adjacency vertex
    link flag, the first failure giving the witness."""
    if is_flag(ga)[0] and is_flag(gb)[0]:
        return True, "flag-inputs", None
    X = build_clcc(ga, gb)
    for v in X.cells(0):
        ok, clique = is_flag(X.link(v))
        if not ok:
            return False, "direct-links", (v, clique)
    return True, "direct-links", None


def within_budget(doc) -> bool:
    """The loader's size budget: each factor that the cube sides span has
    at most 8 faces, the empty one included, per distinct cube."""
    cubes = {canonical_json([c["a"], c["b"]]) for c in doc["cubes"]}
    for k in "ab":
        faces = {frozenset()}
        for c in doc["cubes"]:
            side = list(c[k].items())
            faces.update(frozenset(f) for r in range(len(side) + 1) for f in combinations(side, r))
        if len(faces) > 8 * len(cubes):
            return False
    return True


def same_cells(X, Y) -> bool:
    return (
        X.top_dim == Y.top_dim
        and all(X.cells(d) == Y.cells(d) for d in range(X.top_dim + 1))
        and all(X.facets(c) == Y.facets(c) for d in range(X.top_dim + 1) for c in X.cells(d))
    )


def assert_loads_back(X, expected_tags):
    """The JSON form of X loads back with a pair exactly when it is within
    the size budget, with the cells, order and facets of X either way, and
    with the vertex-link tags of X's adjacency links."""
    doc = X.to_json_dict()
    Y = CubeComplex.from_json_dict(doc)
    assert (Y.defining_pair is not None) == within_budget(doc)
    assert same_cells(X, Y)
    assert list(classify_vertex_links(Y).items()) == list(expected_tags.items())


def compare_paths(ga, gb) -> Counter:
    """Assert that both paths agree on every vertex of the pair complex;
    return the tags seen and whether is_npc found a witness."""
    X = build_clcc(ga, gb)
    assert _pair_vertices(ga, gb) == list(X.cells(0))

    adjacency = {v: X.link(v) for v in X.cells(0)}
    expected_tags = {v: _LinkSummary(L, L.augmentation_cell).tag for v, L in adjacency.items()}
    tags = classify_vertex_links(X)
    assert list(tags.items()) == list(expected_tags.items())
    assert_loads_back(X, expected_tags)

    seen = Counter(tags.values())
    squares = {v: bool(_chordless_squares(L._view.adj)) for v, L in adjacency.items()}
    if is_flag(ga)[0] and is_flag(gb)[0]:  # rule 4's answer at each vertex
        for (a, b), has_square in squares.items():
            assert _join_has_empty_square(ga._link_squares(a), gb._link_squares(b)) == has_square
            seen[f"rule-4-square={has_square}"] += 1

    links_large = bool(adjacency) and not any(squares.values())
    cert = certify(ga, gb)
    if cert.rule == RULE_LINKS_5_LARGE:
        assert links_large
        assert cert.witness == {"links_checked": len(X.cells(0))}
    elif cert.attempted == ALL_RULES:
        assert not links_large

    npc = is_npc(ga, gb)
    assert npc == adjacency_is_npc(ga, gb)

    seen["npc-witness"] += npc[2] is not None
    return seen


TETRA = SimplicialComplex.from_maximal(
    ["p", "q", "r", "s"], [["p", "q", "r"], ["p", "q", "s"], ["p", "r", "s"], ["q", "r", "s"]]
)


def fixture_pairs():
    o3 = gen_cross_polytope(3)
    wedge = ColoredComplex.build(
        3,
        [("x", 1), ("y", 2), ("z", 3), ("y2", 2), ("z2", 3)],
        [["x", "y", "z"], ["x", "y2", "z2"]],
    )
    # K_{3,2} links: a vertex of degree 3 against a 4-cycle
    claw = ColoredComplex.build(
        2, [("c", 1), ("d1", 2), ("d2", 2), ("d3", 2)], [["c", "d1"], ["c", "d2"], ["c", "d3"]]
    )
    # cone links: a circle against one point (a lone triangle), and against
    # three points (three triangles on one edge)
    triangle = ColoredComplex.build(3, [("t1", 1), ("t2", 2), ("t3", 3)], [["t1", "t2", "t3"]])
    book = ColoredComplex.build(
        3,
        [("t1", 1), ("u1", 1), ("w1", 1), ("t2", 2), ("t3", 3)],
        [["t1", "t2", "t3"], ["u1", "t2", "t3"], ["w1", "t2", "t3"]],
    )
    empty_triangle = ColoredComplex.build(
        3, [("v1", 1), ("v2", 2), ("v3", 3)], [["v1", "v2"], ["v2", "v3"], ["v1", "v3"]]
    )
    return [
        gen_surface_pair(5, 6),
        (o3, gen_cross_polytope(3, prefix="b")),
        (gen_cross_polytope(4), gen_cross_polytope(4, prefix="b")),
        gen_barycentric_pair(TETRA, TETRA, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}),
        (o3, wedge),
        (claw, gen_cycle(2, prefix="b")),
        (o3, triangle),
        (o3, book),
        (empty_triangle, o3),
    ]


def two_octahedra_on_two_points() -> SimplicialComplex:
    """Two octahedra sharing two opposite vertices p, q and nothing else:
    connected, each edge in two triangles and chi = 2, but the links of
    p and q are two 4-cycles each, so it is no 2-sphere."""
    tris = [[p, f"{side}{a}", f"{side}{b}"] for side in "xy" for p in "pq"
            for a in "+-" for b in ("0", "1")]
    verts = {v for t in tris for v in t}
    return SimplicialComplex.from_maximal(verts, tris)


def test_link_tags_equal_the_scanning_classifier():
    """_LinkSummary.tag reads the coface table and the stars; the reference
    counts the triangles of each edge over every triangle and scans every
    simplex for each vertex link."""
    r = rng(1401)
    hosts = [build_clcc(*pair).link(v) for pair in fixture_pairs()
             for v in build_clcc(*pair).cells(0)[:6]]
    hosts += [K.link(s).uncolored() for ga, gb in fixture_pairs() for K in (ga, gb)
              for s in K.cells(0)[:3] + K.cells(1)[:2]]
    hosts += [random_two_complex(r) for _ in range(60)]
    hosts += [csaszar_torus(), two_octahedra_on_two_points(),
              gen_cross_polytope(3).uncolored(), gen_cross_polytope(4).uncolored()]
    tags = [_LinkSummary(L, L.augmentation_cell).tag for L in hosts]
    assert tags == [classify_link_reference(L) for L in hosts]
    assert set(tags) == {"circle", "2-sphere", "other", "unknown"}
    octahedra = two_octahedra_on_two_points()
    assert _LinkSummary(octahedra, octahedra.augmentation_cell).tag == "other"


def test_star_tags_equal_the_reference_on_every_host():
    """_LinkSummary(host, cell).tag reads the star of the cell in its host;
    the reference tags the built link.  Every vertex of sageev complexes,
    from_cells grids and trees, and every cell of the fixture factors."""
    r = rng(1402)
    hosts = [sageev(random_pocset(r, max_pairs=5)) for _ in range(30)]
    hosts += [grid_complex(a, b) for a, b in ((1, 1), (2, 3), (3, 3), (1, 5))]
    hosts += [tree_complex([("v0", "v1"), ("v1", "v2")]),
              tree_complex([("c", "l0"), ("c", "l1"), ("c", "l2")])]
    tags = Counter()
    for X in hosts:
        for v in X.cells(0):
            tags[_LinkSummary(X, v).tag] += 1
            assert _LinkSummary(X, v).tag == classify_link_reference(X.link(v)), v
    for K in [K for pair in fixture_pairs() for K in pair]:
        for d in range(-1, K.top_dim + 1):
            for s in K.cells(d):
                tags[_LinkSummary(K, s).tag] += 1
                assert _LinkSummary(K, s).tag == classify_link_reference(K.link(s).uncolored()), s
    assert set(tags) == {"circle", "2-sphere", "other", "unknown"}


def census_factors() -> list:
    r = rng(1403)
    factors = [K for pair in fixture_pairs() for K in pair]
    while len(factors) < 120:
        pair = random_smart_pair(r, max_vertices=7)
        if pair is not None:
            factors += pair
    factors += [planted_square_flag_complex(r, r.randint(2, 4)) for _ in range(20)]
    return factors


def test_factor_link_star_reads_equal_the_built_link():
    """The dimension, size and edges that _LinkSummary reads off the star
    of s in K, on every simplex of the fixture and census factors,
    against the built link lk_K(s)."""
    for K in census_factors():
        for d in range(-1, K.top_dim + 1):
            for s in K.cells(d):
                fl, L = _LinkSummary(K, s), K.link(s).uncolored()
                assert (fl.dim, fl.size, len(fl.ends)) == (
                    L.top_dim, len(L.vertex_ids), len(L.cells(1))
                ), s


def count_complexes_built(monkeypatch) -> Counter:
    """Count every ColoredComplex and SimplicialComplex made from now on."""
    built = Counter()
    for cls in (ColoredComplex, SimplicialComplex):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_tags_squares_and_non_adjacency_build_no_link(monkeypatch):
    pairs = fixture_pairs()
    built_pairs = [build_clcc(*pair) for pair in pairs]
    partial = [CubeComplex.from_json_dict(doc)
               for ga, gb in LOADER_PAIRS for doc in fallback_documents(build_clcc(ga, gb))]
    assert all(Y.defining_pair is None for Y in partial)
    point_pair = (
        ColoredComplex.build(4, [("p", 1), ("q", 2), ("r", 1), ("s", 3)],
                             [["p", "q"], ["q", "r"], ["r", "s"], ["s", "p"]]),
        ColoredComplex.build(4, [("t", 2), ("u", 3), ("t2", 2), ("w", 4)],
                             [["t", "u"], ["u", "t2"], ["t2", "w"], ["w", "t"]]),
    )
    rule_4_pairs = [point_pair, pairs[1], pairs[2]]  # the cross-polytope pairs end Unknown
    built = count_complexes_built(monkeypatch)
    for X in built_pairs + partial:
        classify_vertex_links(X)
    certificates = [certify(*pair) for pair in rule_4_pairs]
    assert not built
    assert certificates[0].rule == RULE_LINKS_5_LARGE
    assert all(c.attempted == ALL_RULES for c in certificates[1:])


def test_the_2_sphere_test_walks_one_star_per_vertex(monkeypatch):
    """The links of the link vertices are read off the levels of the
    vertex's own star, so tagging the 2-sphere links of the subdivided
    tetrahedra, loaded with no pair, walks each vertex's star once."""
    pair = gen_barycentric_pair(TETRA, TETRA, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3})
    X = build_clcc(*pair)
    Y = CubeComplex.from_json_dict(X.to_json_dict())
    Y.defining_pair = None
    walks = []
    star = CubeComplex._star
    monkeypatch.setattr(CubeComplex, "_star", lambda self, cell: walks.append(cell) or star(self, cell))
    tags = classify_vertex_links(Y)
    assert set(tags.values()) == {"2-sphere"} and len(tags) == 384
    assert walks == list(Y.cells(0))
    assert list(tags.items()) == list(classify_vertex_links(X).items())


def test_join_tags_walk_each_factor_star_once(monkeypatch):
    """classify_vertex_links of a pair-built complex summarises each
    factor simplex of a vertex once, and the summary walks its star once,
    whichever of its reads the tag asks for."""
    walks = Counter()
    star = CellStore._star
    monkeypatch.setattr(
        CellStore, "_star", lambda self, cell: walks.update([(id(self), cell)]) or star(self, cell)
    )
    for ga, gb in fixture_pairs():
        X = build_clcc(ga, gb)
        walks.clear()
        classify_vertex_links(X)
        sides = {(id(ga), a) for a, _ in X.cells(0)} | {(id(gb), b) for _, b in X.cells(0)}
        assert set(walks) == sides
        assert set(walks.values()) == {1}


def test_factor_links_match_adjacency_links_on_fixtures():
    seen = Counter()
    for ga, gb in fixture_pairs():
        seen += compare_paths(ga, gb)
    assert {"circle", "2-sphere", "other", "unknown"} <= set(seen)
    assert seen["npc-witness"] >= 1


def test_factor_links_match_adjacency_links_on_random_smart_pairs():
    r = rng(301)
    seen = Counter()
    found = 0
    while found < 150:
        pair = random_smart_pair(r, max_vertices=7)
        if pair is None:
            continue
        found += 1
        seen += compare_paths(*pair)
    assert seen["npc-witness"] >= 1


def test_factor_links_match_adjacency_links_on_random_flag_pairs():
    r = rng(302)
    seen = Counter()
    found = 0
    while found < 100:
        n = r.randint(2, 4)
        ga = random_flag_complex(r, n, max_vertices=8)
        gb = planted_square_flag_complex(r, n) if found % 2 else random_flag_complex(r, n)
        ga, gb = prune_to_smart_pair(ga, gb)
        if not ga.vertex_ids or not gb.vertex_ids:
            continue
        found += 1
        seen += compare_paths(ga, gb)
    assert seen["rule-4-square=True"] and seen["rule-4-square=False"]


def test_factor_links_match_adjacency_links_on_unpruned_pairs():
    # junk simplices contribute no vertex, so unpruned pairs agree as well
    r = rng(303)
    for _ in range(60):
        n = r.randint(1, 3)
        compare_paths(random_colored_complex(r, n, 6), random_colored_complex(r, n, 6))


# -- documents that load without a pair ---------------------------------------------------


def adjacency_links_output(doc) -> str:
    """What `clcc invariants links` prints for a cube document when every
    vertex link is the adjacency link: the complex is rebuilt here from
    the document's cubes, as side pairs, by `pair_cubes_reference`, with
    no pair and none of the loader's code."""
    def side(raw):
        return CoordSimplex.of({int(k): v for k, v in raw.items()})

    R = pair_cubes_reference(doc["n"], [(side(c["a"]), side(c["b"])) for c in doc["cubes"]])
    tags = {v: _LinkSummary(R, v).tag for v in R.cells(0)}
    links = sorted(({"vertex": cube_json(v), "tag": t} for v, t in tags.items()),
                   key=lambda e: canonical_json(e["vertex"]))
    return canonical_json({"counts": dict(Counter(tags.values())), "links": links}) + "\n"


def fallback_documents(X) -> list:
    """Documents of X that must load with no pair: X less a top cube whose
    sides both stay in use (the spanned pair still has that cube), and X
    with one a-side vertex id given to a vertex of another color."""
    doc = X.to_json_dict()
    cubes = doc["cubes"]
    out = []
    for k, c in enumerate(cubes):
        rest = cubes[:k] + cubes[k + 1:]
        if c["dim"] == X.top_dim and all(any(r[s] == c[s] for r in rest) for s in "ab"):
            out.append({**doc, "cubes": rest})
            break
    ga, _ = X.defining_pair
    (u, cu), *others = ga.vertices
    rename = {next(w for w, c in others if c != cu): u}
    out.append({**doc, "cubes": [
        {**c, "a": {k: rename.get(v, v) for k, v in c["a"].items()}} for c in cubes
    ]})
    return out


LOADER_PAIRS = [
    gen_surface_pair(3, 4),
    (gen_cross_polytope(3), gen_cross_polytope(3, prefix="b")),
    gen_barycentric_pair(TETRA, TETRA, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}),
]


def test_partial_and_two_colored_documents_fall_back():
    runner = CliRunner()
    for ga, gb in LOADER_PAIRS:
        X = build_clcc(ga, gb)
        assert within_budget(X.to_json_dict())
        printed = []
        for doc in fallback_documents(X):
            assert within_budget(doc)
            assert CubeComplex.from_json_dict(doc).defining_pair is None
            res = runner.invoke(main, ["invariants", "links", "-"], input=json.dumps(doc))
            assert res.exit_code == 0, res.output
            assert res.stdout == adjacency_links_output(doc)
            printed.append(json.loads(res.stdout))
        _, relabelled = printed
        # the relabelled document is X under other names
        assert relabelled["counts"] == dict(Counter(classify_vertex_links(X).values()))


def test_a_document_missing_a_facet_still_raises():
    for ga, gb in LOADER_PAIRS:
        doc = build_clcc(ga, gb).to_json_dict()
        # a facet of a top cube: every cube below the top is one (pure)
        k = next(k for k, c in enumerate(doc["cubes"]) if c["dim"] == 1)
        partial = {**doc, "cubes": doc["cubes"][:k] + doc["cubes"][k + 1:]}
        assert within_budget(partial)
        with pytest.raises(ComplexError, match="missing; cube family not downward consistent"):
            CubeComplex.from_json_dict(partial)


def test_a_wide_side_is_not_spanned():
    # one vertex whose a-side has n colors: the factor it spans has 2^n
    # faces against one cube, so past 2^3 the cubes are taken as given
    for n in range(1, 8):
        a = {str(c): f"a{c}" for c in range(1, n + 1)}
        doc = {"n": n, "cubes": [{"a": a, "b": {}, "dim": 0}]}
        assert within_budget(doc) == (n <= 3)
        Y = CubeComplex.from_json_dict(doc)
        assert (Y.defining_pair is not None) == (n <= 3)
        assert Y.to_json_dict() == doc


def test_the_face_budget_is_exact(monkeypatch):
    # 0-cubes (a, {}) on four colors, the a-side of mask m on the vertex
    # x<c><bit c of m> of each color c: the masks 0..5 span 48 faces,
    # 8 per cube, and keep their pair; the masks 8 and 15 add 17 faces
    # for two cubes, one past the budget.  The pair has exactly the
    # document's cubes either way, so the budget alone decides
    def document(masks):
        sides = [{str(c): f"x{c}{m >> 4 - c & 1}" for c in range(1, 5)} for m in masks]
        return {"n": 4, "cubes": [{"a": a, "b": {}, "dim": 0} for a in sides]}

    for masks, faces, kept in ((range(6), 48, True), ([*range(6), 8, 15], 65, False)):
        doc = document(masks)
        assert faces == _FACES_PER_CUBE * len(masks) + (not kept)
        assert within_budget(doc) == kept
        Y = CubeComplex.from_json_dict(doc)
        assert (Y.defining_pair is not None) == kept
        assert len(Y.cells(0)) == len(masks)
        with monkeypatch.context() as m:
            m.setattr(clcc_core, "_FACES_PER_CUBE", _FACES_PER_CUBE + 1)
            gamma_a, _ = CubeComplex.from_json_dict(doc).defining_pair
        assert len(gamma_a.simplices) == faces


def test_repeated_cubes_and_respelled_colors_keep_the_pair():
    # a side is read by its entries, so a color key "01" is color 1, and a
    # cube listed twice is one cube
    X = build_clcc(*gen_surface_pair(3, 4))
    doc = X.to_json_dict()
    cubes = doc["cubes"]
    respelled = [{**c, "a": {k.zfill(2): v for k, v in c["a"].items()}} for c in cubes[::2]]
    Y = CubeComplex.from_json_dict({**doc, "cubes": respelled + cubes[1::2] + cubes[:5]})
    assert Y.defining_pair is not None
    assert same_cells(X, Y)
