import json
from math import comb

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from clcc import gf2
from clcc import (
    ColoredComplex,
    SimplicialComplex,
    betti,
    boundary,
    build_clcc,
    chain,
    clcc_cycle,
    doubly_smartly_paired,
    fundamental_class,
    gen_cross_polytope,
    gen_cycle,
    gen_racg_pair,
    is_boundary,
    is_cycle,
    join_chains,
    localize,
    smartly_paired_chains,
    top_chain,
    zero_chain,
)
from clcc.cli import main
from clcc.clcc_core import CubeComplex
from clcc.errors import DomainError
from clcc.homology_z2 import BettiVector, Chain2, betti_vectors, support_subcomplex
from clcc.pocset_hyperplanes import Pocset, sageev
from clcc.simplicial import barycentric_subdivision_2d

from corpus import random_chain, random_smart_pair, rng
from oracles import betti_reference, boundary_ranks_reference, boundary_rows_reference
from test_facet_table import census_pairs


@pytest.fixture
def torus(c4):
    return build_clcc(c4, gen_cycle(2, prefix="b"))


@pytest.fixture
def genus2(c4):
    return build_clcc(c4, gen_cycle(3, prefix="b"))


def host_corpus(c4, c6, o3, torus, genus2, one_triangle, twopt):
    return [
        c4,
        c6,
        o3,
        torus,
        genus2,
        barycentric_subdivision_2d(one_triangle, {"V": 1, "E": 2, "F": 3}),
        build_clcc(*gen_racg_pair(twopt)),
    ]


# -- boundary -----------------------------------------------------------------


def test_boundary_of_edge(c4):
    e = c4.simplex_with_vertices(["v0", "v1"])
    b = boundary(chain(c4, 1, [e]))
    assert {s.vertex_ids for s in b.cells} == {frozenset({"v0"}), frozenset({"v1"})}


def test_boundary_of_cycle_vanishes(c4):
    assert boundary(top_chain(c4)).is_zero


def test_boundary_of_square(torus):
    sq = torus.cells(2)[0]
    b = boundary(chain(torus, 2, [sq]))
    assert b.cells == frozenset(torus.facets(sq))


def test_boundary_rejects_augmentation(c4):
    with pytest.raises(DomainError):
        boundary(zero_chain(c4, -1))


def test_boundary_squared_is_zero_on_random_chains(c4, c6, o3, torus, genus2, one_triangle, twopt):
    r = rng(301)
    for host in host_corpus(c4, c6, o3, torus, genus2, one_triangle, twopt):
        for _ in range(10):
            d = r.randint(1, max(1, host.top_dim))
            c = random_chain(r, host, d)
            assert boundary(boundary(c)).is_zero


# -- betti ---------------------------------------------------------------------


def test_betti_circle(c6):
    assert betti(c6, reduced=True).ranks == (0, 1)
    assert betti(c6, reduced=False).ranks == (1, 1)


def test_betti_torus(torus):
    assert betti(torus, reduced=False).ranks == (1, 2, 1)
    assert torus.euler_characteristic() == 0


def test_betti_genus_two(genus2):
    assert betti(genus2, reduced=False).ranks == (1, 4, 1)
    assert genus2.euler_characteristic() == -2


def test_betti_alternating_sum_is_chi(c4, c6, o3, torus, genus2, one_triangle, twopt):
    for host in host_corpus(c4, c6, o3, torus, genus2, one_triangle, twopt):
        bv = betti(host, reduced=False).ranks
        chi = sum((-1) ** d * len(host.cells(d)) for d in range(host.top_dim + 1))
        assert sum((-1) ** k * b for k, b in enumerate(bv)) == chi


def test_betti_octahedron_is_two_sphere(o3):
    assert betti(o3, reduced=False).ranks == (1, 0, 1)


def test_betti_is_independent_of_cell_enumeration_order(genus2, o3):
    # relabeling permutes every canonical cell order
    moved = o3.relabeled({v: f"z{9 - i}" for i, v in enumerate(o3.vertex_ids)})
    assert betti(moved, reduced=False).ranks == betti(o3, reduced=False).ranks


def test_reduced_and_unreduced_differ_only_in_b0(c4, c6, o3, torus, genus2, one_triangle, twopt):
    for host in host_corpus(c4, c6, o3, torus, genus2, one_triangle, twopt):
        red = betti(host, reduced=True).ranks
        unred = betti(host, reduced=False).ranks
        assert unred[0] == red[0] + 1
        assert unred[1:] == red[1:]


# -- localization -----------------------------------------------------------------


def test_localize_fundamental_class_is_link_cycle(torus):
    sigma = top_chain(torus)
    for v in torus.cells(0)[:4]:
        link, _ = torus.link_data(v)
        local = localize(sigma, v)
        assert local == top_chain(link)
        assert is_cycle(local)


def test_localize_at_top_cube_is_augmentation(torus):
    sq = torus.cells(2)[0]
    c = chain(torus, 2, [sq])
    local = localize(c, sq)
    assert local.dim == -1 and len(local.cells) == 1


def test_localize_missing_cube_is_zero(torus):
    sq = torus.cells(2)[0]
    other = [s for s in torus.cells(2) if sq not in {s}][:1]
    c = chain(torus, 2, other)
    assert localize(c, sq).is_zero


def test_localize_dimension_guard(torus):
    v = torus.cells(0)[0]
    with pytest.raises(DomainError):
        localize(chain(torus, 0, [v]), torus.cells(1)[0])


def test_localize_commutes_with_boundary(torus, o3):
    r = rng(302)
    for host in (torus, o3):
        for _ in range(12):
            n = host.top_dim
            c = random_chain(r, host, n)
            for k in range(n):
                cells = host.cells(k)
                e = cells[r.randrange(len(cells))]
                assert localize(boundary(c), e) == boundary(localize(c, e))


def test_cycle_iff_all_vertex_localizations_are_cycles(torus, genus2, o3):
    r = rng(303)
    for host in (torus, genus2, o3):
        for _ in range(12):
            c = random_chain(r, host, host.top_dim)
            local_ok = all(is_cycle(localize(c, v)) for v in host.cells(0))
            assert local_ok == is_cycle(c)


# -- joins --------------------------------------------------------------------------


def sphere0(prefix):
    return ColoredComplex.build(
        1, [(f"{prefix}+", 1), (f"{prefix}-", 1)], [[f"{prefix}+"], [f"{prefix}-"]]
    )


def test_join_of_zero_cycles_is_square_cycle():
    a, b = sphere0("a"), sphere0("b")
    j = join_chains(top_chain(a), top_chain(b))
    assert j.dim == 1 and len(j.cells) == 4
    assert is_cycle(j)
    assert j == top_chain(j.host)


def test_join_with_non_cycle_is_non_cycle():
    a, b = sphere0("a"), sphere0("b")
    single = chain(b, 0, [b.simplex_with_vertices(["b+"])])
    j = join_chains(top_chain(a), single)
    assert not is_cycle(j)


def test_join_of_cycle_with_cycle_is_three_cycle(c4):
    c6b = gen_cycle(3, prefix="b")
    j = join_chains(top_chain(c4), top_chain(c6b))
    assert j.dim == 3
    assert is_cycle(j)


def test_join_rejects_cube_hosts(torus, c4):
    with pytest.raises(DomainError):
        join_chains(top_chain(torus), top_chain(c4))


def test_join_boundary_identity(c4):
    r = rng(304)
    c6b = gen_cycle(3, prefix="b")
    for _ in range(15):
        da = r.randint(0, 1)
        db = r.randint(0, 1)
        sa = random_chain(r, c4, da)
        sb = random_chain(r, c6b, db)
        lhs = join_chains(sa, sb)
        if sa.is_zero or sb.is_zero:
            assert lhs.is_zero
            continue
        got = boundary(lhs)
        expect = join_chains(boundary(sa), sb) + join_chains(sa, boundary(sb))
        assert got == expect


def test_join_cycle_iff_both_cycles_randomized(c4):
    r = rng(305)
    c6b = gen_cycle(3, prefix="b")
    for _ in range(20):
        sa = random_chain(r, c4, r.randint(0, 1))
        sb = random_chain(r, c6b, r.randint(0, 1))
        if sa.is_zero or sb.is_zero:
            continue
        j = join_chains(sa, sb)
        assert is_cycle(j) == (is_cycle(sa) and is_cycle(sb))


# -- fundamental classes ------------------------------------------------------------


def test_fundamental_class_cycle(c4):
    assert fundamental_class(c4)


def test_fundamental_class_path_fails():
    path = ColoredComplex.build(
        2, [("x", 1), ("y", 2), ("z", 1)], [["x", "y"], ["y", "z"]]
    )
    assert not fundamental_class(path)


def test_fundamental_class_surface(genus2):
    assert fundamental_class(genus2)


def test_fundamental_class_needs_purity():
    ga = ColoredComplex.build(2, [("a1", 1), ("a2", 2), ("w", 1)], [["a1", "a2"], ["w"]])
    with pytest.raises(DomainError):
        fundamental_class(ga)


def test_fundamental_class_product_rule():
    r = rng(306)
    checked_forward = 0
    checked_converse = 0
    while checked_forward < 15 or checked_converse < 10:
        pair = random_smart_pair(r, max_vertices=6)
        if pair is None:
            continue
        ga, gb = pair
        if not (ga.is_pure and gb.is_pure):
            continue
        X = build_clcc(ga, gb)
        if X.top_dim < 0:
            continue
        fc = fundamental_class(X)
        if fundamental_class(ga) and fundamental_class(gb):
            assert fc
            checked_forward += 1
        if doubly_smartly_paired(ga, gb):
            assert fc == (fundamental_class(ga) and fundamental_class(gb))
            checked_converse += 1


# -- pair chains ---------------------------------------------------------------------


def test_smartly_paired_chains_cycles(c4):
    c6b = gen_cycle(3, prefix="b")
    assert smartly_paired_chains(top_chain(c4), top_chain(c6b))


def test_smartly_paired_chains_tripartite_spheres(tetra_boundary):
    ga = barycentric_subdivision_2d(tetra_boundary, {"V": 1, "E": 2, "F": 3})
    gb = barycentric_subdivision_2d(tetra_boundary, {"V": 2, "E": 1, "F": 3})
    assert smartly_paired_chains(top_chain(ga), top_chain(gb))


def test_smartly_paired_chains_failure(twopt):
    other = ColoredComplex.build(2, [("w1", 1), ("w2", 2)], [["w1"], ["w2"]])
    za = chain(twopt, 0, [twopt.simplex_with_vertices(["v1"])])
    zb = chain(other, 0, [other.simplex_with_vertices(["w1"])])
    # both cells have color 1, so neither admits a complementary color-2
    # simplex in the other support
    assert not smartly_paired_chains(za, zb)


def test_clcc_cycle_of_fundamental_cycles_is_top_chain(c4):
    c6b = gen_cycle(3, prefix="b")
    X = build_clcc(c4, c6b)
    z = clcc_cycle(top_chain(c4), top_chain(c6b), ambient=X)
    assert z == top_chain(X)
    assert is_cycle(z)


def test_clcc_cycle_of_non_cycle_is_not_cycle(c4):
    c6b = gen_cycle(3, prefix="b")
    broken = top_chain(c6b) + chain(
        c6b, 1, [c6b.simplex_with_vertices(["b0", "b1"])]
    )
    assert not is_cycle(broken)
    z = clcc_cycle(top_chain(c4), broken)
    assert not is_cycle(z)


def test_clcc_cycle_refuses_an_ambient_without_a_support_cube(c4):
    c6b = gen_cycle(3, prefix="b")
    path = ColoredComplex.build(2, c4.vertices, [["v0", "v1"], ["v1", "v2"], ["v2", "v3"]])
    with pytest.raises(DomainError, match="cells not in host at dimension 2"):
        clcc_cycle(top_chain(c4), top_chain(c6b), ambient=build_clcc(path, c6b))


def test_clcc_cycle_requires_smart_pairing(twopt):
    other = ColoredComplex.build(2, [("w1", 1), ("w2", 2)], [["w1"], ["w2"]])
    za = chain(twopt, 0, [twopt.simplex_with_vertices(["v1"])])
    zb = chain(other, 0, [other.simplex_with_vertices(["w1"])])
    with pytest.raises(DomainError):
        clcc_cycle(za, zb)


def test_support_subcomplex_is_downward_closed(c4):
    sup = support_subcomplex(top_chain(c4))
    assert sup == c4


# -- boundaries ------------------------------------------------------------------------


def test_is_boundary(torus):
    sq = torus.cells(2)[0]
    assert is_boundary(boundary(chain(torus, 2, [sq])))
    assert not is_boundary(top_chain(torus))  # the fundamental class


def test_chain_validation(torus, c4):
    with pytest.raises(DomainError):
        Chain2(torus, 1, frozenset(torus.cells(2)[:1]))
    with pytest.raises(DomainError):
        top_chain(torus) + top_chain(c4)


def counting_pivots(monkeypatch) -> list:
    """The rows handed to each GF(2) elimination, with its pivots."""
    handed = []
    plain = gf2.pivots

    def counting(rows):
        rows = list(rows)
        found = plain(rows)
        handed.append((rows, set(found)))
        return found

    monkeypatch.setattr(gf2, "pivots", counting)
    return handed


def assert_cleared_eliminations(host, handed) -> None:
    """One elimination per boundary matrix above ∂1, from the top down:
    ∂top gets all of its rows, and ∂k exactly the c_k - rank ∂(k+1) rows
    of the k-cells that are not pivots of ∂(k+1), so no cleared row is
    ranked.  ∂1 is never eliminated: its rank is read off the union-find
    of the 1-skeleton."""
    top = host.top_dim
    assert len(handed) == max(top - 1, 0)
    rank_above, cleared = 0, set()
    for k, (rows, pivots) in zip(range(top, 1, -1), handed):
        index_low = {c: i for i, c in enumerate(host.cells(k - 1))}
        full = boundary_rows_reference(host, k, index_low)
        assert len(rows) == len(host.cells(k)) - rank_above
        assert rows == [row for q, row in enumerate(full) if q not in cleared]
        rank_above, cleared = gf2.rank(full, len(index_low)), pivots
        assert len(pivots) == rank_above


def test_homology_command_ranks_each_boundary_matrix_once(monkeypatch, torus):
    """`clcc homology` reports the reduced and the unreduced vector from
    one GF(2) elimination of each boundary matrix above ∂1, cleared of
    the rows that the one above shows dependent; on the torus that is ∂2
    alone, with all 16 of its rows."""
    handed = counting_pivots(monkeypatch)
    res = CliRunner().invoke(main, ["homology", "-"], input=json.dumps(torus.to_json_dict()))
    assert res.exit_code == 0, res.output
    assert [len(rows) for rows, _ in handed] == [16]
    assert_cleared_eliminations(torus, handed)
    got = json.loads(res.stdout)
    assert got["reduced"] == list(betti(torus).ranks) == [0, 2, 1]
    assert got["unreduced"] == list(betti(torus, reduced=False).ranks) == [1, 2, 1]


def test_clearing_reaches_every_boundary_matrix_below_the_top(monkeypatch):
    """On the 3-torus and the 4-torus every matrix between ∂1 and the top
    (∂2, and on the 4-torus ∂3 too) is cleared."""
    handed = counting_pivots(monkeypatch)
    for n in (3, 4):
        X = build_clcc(gen_cross_polytope(n), gen_cross_polytope(n, prefix="b"))
        handed.clear()
        assert betti(X, reduced=False).ranks == tuple(comb(n, k) for k in range(n + 1))
        assert_cleared_eliminations(X, handed)
        below_top = list(zip(range(n - 1, 1, -1), handed[1:]))
        assert len(below_top) == n - 2
        assert all(len(rows) < len(X.cells(k)) for k, (rows, _) in below_top)


def test_both_vectors_and_every_later_ask_share_one_set_of_eliminations(monkeypatch, torus, genus2):
    """`betti(X)`, `betti(X, False)` and `betti_vectors(X)` together hand
    `gf2.pivots` top - 1 matrices: the ranks are computed once per host."""
    handed = counting_pivots(monkeypatch)
    hosts = [torus, genus2]
    hosts += [build_clcc(gen_cross_polytope(n), gen_cross_polytope(n, prefix="b")) for n in (3, 4)]
    for X in hosts:
        handed.clear()
        red, unred = betti(X), betti(X, False)
        assert betti_vectors(X) == (red, unred)
        assert len(handed) == X.top_dim - 1
        assert_cleared_eliminations(X, handed)
        assert red.ranks == betti_reference(X, True) and unred.ranks == betti_reference(X, False)


def test_boundary_ranks_equal_the_full_elimination_on_the_corpus_and_census(
    c4, c6, o3, torus, genus2, one_triangle, twopt
):
    hosts = host_corpus(c4, c6, o3, torus, genus2, one_triangle, twopt)
    hosts += [build_clcc(ga, gb) for ga, gb in census_pairs(60)]
    for X in hosts:
        assert X.boundary_ranks == boundary_ranks_reference(X)
    assert {X.top_dim for X in hosts} >= {-1, 0, 1, 2, 3}


_colored_complexes = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n), min_size=1, max_size=7),
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=8),
))


def _colored(spec) -> ColoredComplex:
    """A colored complex from vertex colors and tops given as vertex numbers;
    a top keeps the first vertex of each of its colors."""
    n, colors, tops = spec
    vertices = [(f"v{i}", c) for i, c in enumerate(colors)]
    maximal = []
    for top in tops:
        chosen: dict[int, str] = {}
        for i in top:
            vid, c = vertices[i % len(vertices)]
            chosen.setdefault(c, vid)
        maximal.append(sorted(chosen.values()))
    return ColoredComplex.build(n, vertices, maximal)


@given(spec_a=_colored_complexes, spec_b=_colored_complexes)
@settings(max_examples=60, deadline=None)
def test_boundary_ranks_equal_the_full_elimination_on_hypothesis_complexes(spec_a, spec_b):
    """Each factor, uncolored too, and the pair complex when the color
    counts agree."""
    ga, gb = _colored(spec_a), _colored(spec_b)
    hosts = [ga, gb, ga.uncolored()]
    if ga.n == gb.n:
        hosts.append(build_clcc(ga, gb))
    for X in hosts:
        assert X.boundary_ranks == boundary_ranks_reference(X)
        assert betti(X).ranks == betti_reference(X, True)


# -- hosts with no edges -----------------------------------------------------------------


def no_cell_hosts() -> list:
    return [
        ColoredComplex.build(2, [], []),
        ColoredComplex(2, {}, frozenset()),
        SimplicialComplex.from_maximal([], []),
        CubeComplex.from_json_dict({"n": 2, "cubes": []}),
        build_clcc(ColoredComplex.build(2, [("a", 1)], [["a"]]),
                   ColoredComplex.build(2, [("x", 1)], [["x"]])),
    ]


def vertex_only_hosts() -> list:
    """Each with its vertex count."""
    points_a = ColoredComplex.build(2, [("a", 1), ("c", 1)], [["a"], ["c"]])
    points_b = ColoredComplex.build(2, [("x", 2), ("y", 2), ("z", 2)], [["x"], ["y"], ["z"]])
    return [
        (points_a, 2),
        (points_b, 3),
        (points_b.uncolored(), 3),
        (build_clcc(points_a, points_b), 6),
        (sageev(Pocset.from_relations([], [])), 1),
    ]


def test_a_host_with_no_cells_has_no_betti_numbers_and_no_fundamental_class(monkeypatch):
    handed = counting_pivots(monkeypatch)
    for X in no_cell_hosts():
        assert X.top_dim == -1 and X.boundary_ranks == ()
        assert betti_vectors(X) == (BettiVector(True, ()), BettiVector(False, ()))
        assert X.is_pure and fundamental_class(X) is False
    assert handed == []


def test_a_host_of_vertices_only_has_b0_the_vertex_count(monkeypatch):
    """No edges: no elimination and no union-find; rank ∂0 is 0, so b0 is
    the vertex count, less one when reduced.  The top chain is a cycle
    exactly when the vertex count is even."""
    handed = counting_pivots(monkeypatch)

    def no_union_find(*args):
        raise AssertionError("a union-find over no edges")

    monkeypatch.setattr("clcc.simplicial.component_roots", no_union_find)
    for X, count in vertex_only_hosts():
        assert X.top_dim == 0 and X.boundary_ranks == (0,)
        assert betti_vectors(X) == (BettiVector(True, (count - 1,)), BettiVector(False, (count,)))
        assert betti(X, False).ranks == betti_reference(X, False)
        assert fundamental_class(X) is (count % 2 == 0)
    assert handed == []


# -- refusals ---------------------------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda h: Chain2(h, -2, frozenset()), "chain dimension -2 < -1",
                 id="below-the-augmentation"),
    pytest.param(lambda h: support_subcomplex(zero_chain(h, 0)),
                 "supports are taken in colored complexes", id="support-on-an-uncolored-host"),
    pytest.param(lambda h: smartly_paired_chains(zero_chain(h, 0), zero_chain(h, 0)),
                 "smart pairing of chains needs colored hosts", id="pairing-on-uncolored-hosts"),
    pytest.param(lambda h: is_boundary(zero_chain(h, -1)),
                 "augmentation chains are not checked for bounding", id="bounding-augmentation"),
])
def test_chain_refusals_name_their_input(one_triangle, call, message):
    with pytest.raises(DomainError) as info:
        call(one_triangle)
    assert str(info.value) == message
