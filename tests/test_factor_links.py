"""Vertex-link invariants from the factor links against the adjacency path.

For a pair-built complex, classify_vertex_links, certify's rule 4
(every vertex link 5-large) and is_npc read the vertex links off the
factors by the join formula lk(a, b) = lk_A(a) * lk_B(b).  Each is
compared here with the same invariant computed on the adjacency link
X.link_complex(v) of the built complex, vertex by vertex, on the seeded
corpus and on fixtures that between them reach every tag.
"""

from __future__ import annotations

from collections import Counter

from clcc import (
    CubeComplex,
    SimplicialComplex,
    build_clcc,
    certify,
    classify_vertex_links,
    close_downward,
    gen_barycentric_pair,
    gen_cross_polytope,
    gen_cycle,
    gen_surface_pair,
    is_npc,
    prune_to_smart_pair,
)
from clcc.clcc_core import _classify_link, _JoinLinks
from clcc.hyperbolicity import ALL_RULES, RULE_LINKS_5_LARGE
from clcc.simplicial import _chordless_squares, is_flag

from corpus import (
    planted_square_flag_complex,
    random_colored_complex,
    random_flag_complex,
    random_smart_pair,
    rng,
)


def adjacency_is_npc(ga, gb):
    """is_npc as it reads off the built complex: every adjacency vertex
    link flag, the first failure giving the witness."""
    if is_flag(ga)[0] and is_flag(gb)[0]:
        return True, "flag-inputs", None
    X = build_clcc(ga, gb)
    for v in X.cells(0):
        ok, clique = is_flag(X.link_complex(v))
        if not ok:
            return False, "direct-links", (v, clique)
    return True, "direct-links", None


def compare_paths(ga, gb) -> Counter:
    """Assert that both paths agree on every vertex of the pair complex;
    return the tags seen and whether is_npc found a witness."""
    X = build_clcc(ga, gb)
    links = _JoinLinks(ga, gb)
    assert links.vertices() == list(X.cells(0))

    adjacency = {v: X.link_complex(v) for v in X.cells(0)}
    expected_tags = {v: _classify_link(L) for v, L in adjacency.items()}
    tags = classify_vertex_links(X)
    assert list(tags.items()) == list(expected_tags.items())
    untied = CubeComplex.from_json_dict(X.to_json_dict())
    assert untied.defining_pair is None
    assert list(classify_vertex_links(untied).values()) == list(tags.values())

    squares = {v: bool(_chordless_squares(L.adjacency)) for v, L in adjacency.items()}
    for v, L in adjacency.items():
        assert links.has_empty_square(v) == squares[v]
        assert links.is_flag(v) == is_flag(L)[0]

    links_large = bool(adjacency) and not any(squares.values())
    cert = certify(ga, gb)
    if cert.rule == RULE_LINKS_5_LARGE:
        assert links_large
        assert cert.witness == {"links_checked": len(X.cells(0))}
    elif cert.attempted == ALL_RULES:
        assert not links_large

    npc = is_npc(ga, gb)
    assert npc == adjacency_is_npc(ga, gb)

    seen = Counter(tags.values())
    seen["npc-witness"] += npc[2] is not None
    return seen


TETRA = SimplicialComplex.from_maximal(
    ["p", "q", "r", "s"], [["p", "q", "r"], ["p", "q", "s"], ["p", "r", "s"], ["q", "r", "s"]]
)


def fixture_pairs():
    o3 = gen_cross_polytope(3)
    wedge = close_downward(
        3,
        [("x", 1), ("y", 2), ("z", 3), ("y2", 2), ("z2", 3)],
        [["x", "y", "z"], ["x", "y2", "z2"]],
    )
    # K_{3,2} links: a vertex of degree 3 against a 4-cycle
    claw = close_downward(
        2, [("c", 1), ("d1", 2), ("d2", 2), ("d3", 2)], [["c", "d1"], ["c", "d2"], ["c", "d3"]]
    )
    # cone links: a circle against one point (a lone triangle), and against
    # three points (three triangles on one edge)
    triangle = close_downward(3, [("t1", 1), ("t2", 2), ("t3", 3)], [["t1", "t2", "t3"]])
    book = close_downward(
        3,
        [("t1", 1), ("u1", 1), ("w1", 1), ("t2", 2), ("t3", 3)],
        [["t1", "t2", "t3"], ["u1", "t2", "t3"], ["w1", "t2", "t3"]],
    )
    empty_triangle = close_downward(
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
    found = 0
    while found < 100:
        n = r.randint(2, 4)
        ga = random_flag_complex(r, n, max_vertices=8)
        gb = planted_square_flag_complex(r, n) if found % 2 else random_flag_complex(r, n)
        ga, gb = prune_to_smart_pair(ga, gb)
        if not ga.vertex_ids or not gb.vertex_ids:
            continue
        found += 1
        compare_paths(ga, gb)


def test_factor_links_match_adjacency_links_on_unpruned_pairs():
    # junk simplices contribute no vertex, so unpruned pairs agree as well
    r = rng(303)
    for _ in range(60):
        n = r.randint(1, 3)
        compare_paths(random_colored_complex(r, n, 6), random_colored_complex(r, n, 6))
