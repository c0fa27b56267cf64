from itertools import combinations

import pytest

from clcc import (
    ColoredComplex,
    certify,
    certify_barycentric,
    flag_complex_from_graph,
    gen_cross_polytope,
    gen_cycle,
    gen_racg_pair,
    hyperbolicity,
    moussong,
)
from clcc.errors import DomainError, PairError
from clcc.hyperbolicity import (
    RULE_LINKS_5_LARGE,
    RULE_PAIRWISE_OBES,
    RULE_RACG_SQUARE,
    RULE_SIDE_5_LARGE_B,
    _is_full_cross_polytope,
)
from clcc.simplicial import SimplicialComplex, is_flag

from corpus import planted_square_flag_complex, random_flag_complex, rng
from oracles import is_full_cross_polytope_reference


def test_certify_surface_pair_is_hyperbolic(c4):
    cert = certify(c4, gen_cycle(3, prefix="b"))
    assert cert.verdict == "Hyperbolic"
    # the 6-cycle has no empty square, so the one-sided rule fires first
    assert cert.rule == RULE_SIDE_5_LARGE_B


def test_certify_torus_pair_is_unknown(c4):
    cert = certify(c4, gen_cycle(2, prefix="b"))
    assert cert.verdict == "Unknown"
    assert cert.rule is None
    assert len(cert.attempted) == 5


def test_certify_edge3_side(o3, edge3):
    cert = certify(o3, edge3)
    assert cert.verdict == "Hyperbolic"
    assert cert.rule == RULE_SIDE_5_LARGE_B


def test_certify_pairwise_rule_fires_when_both_sides_have_squares():
    # a bicolor square on colors (1,2) on one side and (2,3) on the
    # other: neither side is 5-large but every color pair has a clean side
    ga = ColoredComplex.build(
        3,
        [("p", 1), ("q", 2), ("r", 1), ("s", 2), ("z", 3)],
        [["p", "q"], ["q", "r"], ["r", "s"], ["s", "p"], ["z"]],
    )
    gb = ColoredComplex.build(
        3,
        [("p", 2), ("q", 3), ("r", 2), ("s", 3), ("z", 1)],
        [["p", "q"], ["q", "r"], ["r", "s"], ["s", "p"], ["z"]],
    )
    cert = certify(ga, gb)
    assert cert.verdict == "Hyperbolic"
    assert cert.rule == RULE_PAIRWISE_OBES
    assert cert.witness["pair_5_large_side"]["1,2"] == "B"


def test_certify_racg_shape_not_hyperbolic():
    ga = gen_cross_polytope(4)
    gb = ColoredComplex.build(
        4,
        [(f"v{i}", i) for i in range(1, 5)],
        [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v1"]],
    )
    cert = certify(ga, gb)
    assert cert.verdict == "NotHyperbolic"
    assert cert.rule == RULE_RACG_SQUARE
    # and symmetrically
    cert2 = certify(gb, ga)
    assert cert2.verdict == "NotHyperbolic"


def test_certify_racg_rule_needs_single_vertex_colors(c4):
    # the torus pair has the cross-polytope on side A, but side B has two
    # vertices per color, so the Coxeter converse does not apply
    cert = certify(c4, gen_cycle(2, prefix="b"))
    assert cert.verdict == "Unknown"


def test_certify_link_rule_fires_on_point_complex():
    # tricolor empty squares on both sides kill rules 1-3; the complex is
    # a finite set of points, whose (empty) links are trivially 5-large
    ga = ColoredComplex.build(
        4,
        [("p", 1), ("q", 2), ("r", 1), ("s", 3)],
        [["p", "q"], ["q", "r"], ["r", "s"], ["s", "p"]],
    )
    gb = ColoredComplex.build(
        4,
        [("t", 2), ("u", 3), ("t2", 2), ("w", 4)],
        [["t", "u"], ["u", "t2"], ["t2", "w"], ["w", "t"]],
    )
    cert = certify(ga, gb)
    assert cert.verdict == "Hyperbolic"
    assert cert.rule == RULE_LINKS_5_LARGE


def test_certify_requires_matching_colors(c4, o3):
    with pytest.raises(PairError):
        certify(c4, o3)


def test_certify_non_flag_input_is_unknown(o3):
    empty_triangle = ColoredComplex.build(
        3,
        [("v1", 1), ("v2", 2), ("v3", 3)],
        [["v1", "v2"], ["v2", "v3"], ["v1", "v3"]],
    )
    cert = certify(empty_triangle, o3)
    assert cert.verdict == "Unknown"
    assert "not flag" in cert.witness["reason"]


def test_certify_swap_invariance_of_verdicts():
    r = rng(501)
    pairs = [
        (gen_cycle(2), gen_cycle(3, prefix="b")),
        (gen_cycle(2), gen_cycle(2, prefix="b")),
        (gen_cross_polytope(3), gen_cycle(3, colors=(1, 2), prefix="b", n=3)),
    ]
    for _ in range(10):
        n = r.randint(2, 3)
        pairs.append((planted_square_flag_complex(r, n), planted_square_flag_complex(r, n)))
    for ga, gb in pairs:
        assert certify(ga, gb).verdict == certify(gb, ga).verdict


def test_full_cross_polytope_detector(o2, o3, c4):
    assert _is_full_cross_polytope(o2)
    assert _is_full_cross_polytope(o3)
    assert _is_full_cross_polytope(c4)  # alternating 4-cycle is one
    assert not _is_full_cross_polytope(gen_cycle(3))


def test_the_cross_polytope_count_equals_the_clique_scan():
    """On flag factors, recognising the cross-polytope by its vertex and
    edge counts agrees with checking every cross-color pair and every
    clique.  Near misses: one vertex recolored, or cross-color edges
    dropped."""
    r = rng(504)
    factors = []
    for _ in range(300):
        n = r.randint(1, 4)
        colors = [c for c in range(1, n + 1) for _ in range(2)]
        if r.random() < 0.3:
            colors[r.randrange(2 * n)] = r.randint(1, n)
        vertices = [(f"v{k}", c) for k, c in enumerate(colors)]
        p = r.choice((1.0, 1.0, 0.95, 0.7))
        edges = [(a, b) for (a, ca), (b, cb) in combinations(vertices, 2)
                 if ca != cb and r.random() < p]
        factors.append(flag_complex_from_graph(n, vertices, edges))
    factors += [random_flag_complex(r, r.randint(1, 4)) for _ in range(200)]
    found = [_is_full_cross_polytope(K) for K in factors]
    assert found == [is_full_cross_polytope_reference(K) for K in factors]
    assert 50 < sum(found) < len(found) - 50


def test_certify_asks_each_factor_once_whether_it_is_flag(monkeypatch):
    # rule 3 recognises the cross-polytope with no second clique scan
    calls = []
    monkeypatch.setattr(hyperbolicity, "is_flag", lambda K: calls.append(K) or is_flag(K))
    cert = certify(*gen_racg_pair(gen_cycle(2)))
    assert cert.rule == RULE_RACG_SQUARE
    assert len(calls) == 2


def test_soundness_harness_small():
    # pairs with a flat torus inside must never be certified
    r = rng(502)
    for _ in range(30):
        n = r.randint(2, 3)
        ga = gen_cross_polytope(n)
        gb = planted_square_flag_complex(r, n)
        assert certify(ga, gb).verdict != "Hyperbolic"
        assert certify(gb, ga).verdict != "Hyperbolic"


# -- moussong -----------------------------------------------------------------


def test_moussong_square(c4):
    cert = moussong(c4)
    assert cert.verdict == "NotHyperbolic"
    assert set(cert.witness["cycle"]) == {"v0", "v1", "v2", "v3"}


def test_moussong_pentagon():
    pentagon = ColoredComplex.build(
        5,
        [(f"v{i}", i + 1) for i in range(5)],
        [[f"v{i}", f"v{(i + 1) % 5}"] for i in range(5)],
    )
    assert moussong(pentagon).verdict == "Hyperbolic"


def test_moussong_edge3(edge3):
    assert moussong(edge3).verdict == "Hyperbolic"


def test_moussong_rejects_non_flag():
    empty_triangle = ColoredComplex.build(
        3,
        [("v1", 1), ("v2", 2), ("v3", 3)],
        [["v1", "v2"], ["v2", "v3"], ["v1", "v3"]],
    )
    with pytest.raises(DomainError):
        moussong(empty_triangle)


# -- barycentric certification ----------------------------------------------------


def test_certify_barycentric_tetrahedra(tetra_boundary):
    cert = certify_barycentric(
        tetra_boundary, tetra_boundary, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}
    )
    assert cert.verdict == "Hyperbolic"
    assert cert.rule == "barycentric-pair"
    assert "pairwise-5-large" in cert.witness["verified"]


def test_certify_barycentric_triangles(one_triangle):
    cert = certify_barycentric(
        one_triangle, one_triangle, {"V": 3, "E": 2, "F": 1}, {"V": 3, "E": 1, "F": 2}
    )
    assert cert.verdict == "Hyperbolic"


def test_certify_barycentric_random_inputs_always_verify(one_triangle):
    # the internal o.b.e.s. / pairwise checks hold for every valid input;
    # a RuntimeError here would mean the subdivision machinery is broken
    from corpus import random_two_complex

    r = rng(503)
    maps = [
        ({"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}),
        ({"V": 3, "E": 1, "F": 2}, {"V": 1, "E": 3, "F": 2}),
        ({"V": 2, "E": 3, "F": 1}, {"V": 3, "E": 2, "F": 1}),
    ]
    for _ in range(15):
        gamma = random_two_complex(r, max_triangles=5)
        lam = random_two_complex(r, max_triangles=5)
        cg, cl = maps[r.randrange(len(maps))]
        cert = certify_barycentric(gamma, lam, cg, cl)
        assert cert.verdict == "Hyperbolic"


def test_certify_barycentric_rejects_equal_edge_colors(tetra_boundary):
    with pytest.raises(DomainError):
        certify_barycentric(
            tetra_boundary, tetra_boundary, {"V": 1, "E": 2, "F": 3}, {"V": 3, "E": 2, "F": 1}
        )


def test_certify_barycentric_rejects_high_dimension(tetra_boundary):
    solid = SimplicialComplex.from_maximal(["p", "q", "r", "s"], [["p", "q", "r", "s"]])
    with pytest.raises(DomainError):
        certify_barycentric(solid, tetra_boundary, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3})
