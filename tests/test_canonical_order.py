"""The builders rank their atoms once and hand CubeComplex its cells in
canonical order; the pocset code closes relations on bitsets and grows
each ultrafilter cube once, from its top vertex.  Every order and every
result is compared here with the naive canon_key sorts and the
fixed-point and dict-flip references in oracles.py, with ==, never
through repr (a frozenset's iteration order depends on how it was
built).  `sageev` writes its own facet table in order, with no sort, and
`roller_duality_check` compares facet tables; both are checked against
the `from_cells` and vertex-set references they replace.  A `SimplicialComplex` orders its
simplices by the sorted canonical ranks of their vertices, so ordering
one costs a canon_key call per vertex, not per simplex."""

from __future__ import annotations

from math import comb

import pytest

from clcc import build_clcc, canon, gen_cross_polytope, gen_cycle, gen_surface_pair
from clcc.canon import canon_key, csorted
from clcc.clcc_core import CubeComplex, link_of_cube
from clcc.errors import PocsetError
from clcc.pocset_hyperplanes import (
    Pocset,
    halfspace_pocset,
    hyperplanes,
    roller_duality_check,
    sageev,
    star,
    ultrafilters,
)
from clcc.simplicial import SimplicialComplex, simplicial_join

from conftest import grid_complex, tree_complex
from corpus import (
    chain_pocset,
    free_pocset,
    order_rows,
    random_colored_complex,
    random_flag_complex,
    random_pocset,
    random_smart_pair,
    rng,
    sweep_pocsets,
)
from oracles import (
    closed_relations_reference,
    cofaces_reference,
    from_cells_reference,
    hyperplane_classes_reference,
    k_gamma_complex,
    pocset_check_reference,
    roller_duality_check_reference,
    sageev_cells_reference,
    sageev_reference,
    subdivided_k_gamma,
    ultrafilters_reference,
)


def assert_canonical(X: CubeComplex) -> None:
    """Cells, facets, cofaces and hyperplane classes in canon_key order;
    facets equal to the cells one dimension down that a cell contains,
    and the coface table, as ascending positions, to the cells one
    dimension up that contain it.  canon_key and the vertex set of each
    cell are computed once."""
    cubes = [c for d in range(X.top_dim + 1) for c in X.cells(d)]
    key = {c: canon_key(c) for c in cubes}
    vertices = {c: X.vertices_of(c) for c in cubes}

    def in_order(cs) -> bool:
        keys = [key[c] for c in cs]
        return keys == sorted(keys)

    for d in range(X.top_dim + 1):
        cells = X.cells(d)
        assert in_order(cells)
        below = X.cells(d - 1) if d else ()
        for c in cells:
            assert in_order(X.facets(c))
            assert set(X.facets(c)) == {f for f in below if vertices[f] <= vertices[c]}
    cofaces = cofaces_reference(X)
    for d in range(X.top_dim + 1):
        table = X._cofaces[d]
        assert all(list(qs) == sorted(qs) for qs in table)
        ups = [tuple(X.cells(d + 1)[q] for q in qs) for qs in table]
        assert ups == [cofaces[c] for c in X.cells(d)]
        assert all(in_order(us) for us in ups)
    assert [hp.edges for hp in hyperplanes(X)] == hyperplane_classes_reference(X)


def assert_matches_reference(cells: dict) -> CubeComplex:
    X = CubeComplex.from_cells(cells)
    ref_cells, ref_facet_lists = from_cells_reference(cells)
    assert {d: X.cells(d) for d in range(X.top_dim + 1)} == ref_cells
    assert all(X.facets(c) == fs for c, fs in ref_facet_lists.items())
    assert_canonical(X)
    return X


def assert_halfspaces_canonical(X: CubeComplex) -> None:
    """The "-" side of each hyperplane holds the canonically least vertex."""
    sides = halfspace_pocset(X).sides
    for hp in hyperplanes(X):
        lo, hi = sides[(hp.hid, "-")], sides[(hp.hid, "+")]
        assert canon_key(csorted(lo)[0]) < canon_key(csorted(hi)[0])


def grid_cells(rows: int, cols: int) -> dict:
    X = grid_complex(rows, cols)
    return {d: [X.vertices_of(c) for c in X.cells(d)] for d in range(X.top_dim + 1)}


def test_grids_and_trees_match_reference():
    for rows, cols in ((1, 1), (2, 3), (4, 4), (1, 6)):
        X = assert_matches_reference(grid_cells(rows, cols))
        assert_halfspaces_canonical(X)
        S = halfspace_pocset(X)
        assert ultrafilters(S) == ultrafilters_reference(S)
        assert roller_duality_check(X) == roller_duality_check_reference(X)
    for edges in ([("v0", "v1"), ("v1", "v2")], [("c", "l0"), ("c", "l1"), ("c", "l2")]):
        X = tree_complex(edges)
        cells = {d: [X.vertices_of(c) for c in X.cells(d)] for d in range(X.top_dim + 1)}
        assert_halfspaces_canonical(assert_matches_reference(cells))
        assert roller_duality_check(X) == roller_duality_check_reference(X)


def test_cells_given_out_of_order_match_reference():
    r = rng(901)
    for rows, cols in ((2, 2), (3, 2)):
        cells = grid_cells(rows, cols)
        for layer in cells.values():
            r.shuffle(layer)
        assert_matches_reference(cells)


def test_k_gamma_oracles_are_canonical():
    r = rng(902)
    gammas = [gen_cycle(2), gen_cross_polytope(2)]
    gammas += [random_flag_complex(r, 3, max_vertices=5) for _ in range(4)]
    for gamma in gammas:
        for X in (k_gamma_complex(gamma), subdivided_k_gamma(gamma)):
            cells = {d: [X.vertices_of(c) for c in X.cells(d)] for d in range(X.top_dim + 1)}
            assert_matches_reference(cells)


def test_pair_complexes_are_canonical(c4, c6, o3):
    complexes = [build_clcc(c4, c6), build_clcc(o3, o3), build_clcc(c4, c4)]
    r = rng(903)
    while len(complexes) < 30:
        pair = random_smart_pair(r, max_vertices=6)
        if pair is not None:
            complexes.append(build_clcc(*pair))
    for X in complexes:
        assert_canonical(X)
        Y = CubeComplex.from_json_dict(X.to_json_dict())
        assert all(Y.cells(d) == X.cells(d) for d in range(X.top_dim + 1))
        assert all(Y.facets(c) == X.facets(c) for d in range(X.top_dim + 1) for c in X.cells(d))


def test_colored_complex_orders_are_canonical():
    """Cells, the simplices of each color set and the maximal simplices of
    a colored complex come out in canon_key order."""
    r = rng(904)
    complexes = [random_colored_complex(r, r.randint(1, 4), 7, 6) for _ in range(100)]
    complexes += [random_flag_complex(r, r.randint(2, 4)) for _ in range(50)]
    complexes += [K.link(s) for K in complexes[:50] for s in K.cells(0)[:2]]
    for K in complexes:
        for d in range(-1, K.top_dim + 1):
            assert list(K.cells(d)) == csorted(K.cells(d))
        for bucket in K._buckets.values():
            assert list(bucket) == csorted(bucket)
        assert list(K.maximal_simplices) == csorted(K.maximal_simplices)


def assert_sageev_equals_reference(S: Pocset) -> CubeComplex:
    """sageev equals the flip-grown, from_cells-ranked reference in its
    cells (objects and order), facet tables and vertex sets."""
    Y, ref = sageev(S), sageev_reference(S)
    assert Y.top_dim == ref.top_dim
    for d in range(ref.top_dim + 1):
        assert Y.cells(d) == ref.cells(d)
        assert Y.facet_positions(d) == ref.facet_positions(d)
        assert [Y.vertices_of(c) for c in Y.cells(d)] == [ref.vertices_of(c) for c in ref.cells(d)]
    return Y


def assert_sageev_matches_reference(S: Pocset) -> CubeComplex:
    """sageev equals the reference, and its duality verdict and mapping
    equal the vertex-set reference's."""
    Y = assert_sageev_equals_reference(S)
    verdict = roller_duality_check(Y)
    assert verdict[0] and verdict == roller_duality_check_reference(Y)
    return Y


def test_sageev_sweep_matches_reference():
    """sageev grows each cube from its top vertex, by pairs below all of
    its own, and writes its facets without a sort.  A growth order or a
    bound that is off shows here: on 300 seeded random pocsets of up to 7
    pairs, the free pocsets of up to 8 pairs, the chains of up to 12 and
    the halfspace pocsets of grids up to 16 x 16, the cells in order, the
    facet tables and the vertex sets equal the reference's."""
    grids = [(1, 1), (2, 3), (5, 6), (8, 8), (16, 16)]
    pocsets = sweep_pocsets() + [halfspace_pocset(grid_complex(r, c)) for r, c in grids]
    assert max(len(S.pair_ids) for S in pocsets[:300]) == 7
    assert len(pocsets[-1].pair_ids) == 32
    for S in pocsets:
        assert_sageev_equals_reference(S)


def test_random_pocsets_match_references():
    r = rng(904)
    for _ in range(40):
        S = random_pocset(r, max_pairs=6)
        U = ultrafilters(S)
        assert U == csorted(U)
        assert U == ultrafilters_reference(S)
        Y = assert_sageev_matches_reference(S)
        ref = sageev_cells_reference(S)
        assert {d: {Y.vertices_of(c) for c in Y.cells(d)} for d in range(Y.top_dim + 1)} == ref
        assert_matches_reference({d: list(cs) for d, cs in ref.items()})
        assert_halfspaces_canonical(Y)
    for m in range(9):
        S = free_pocset(m)
        assert ultrafilters(S) == ultrafilters_reference(S)
        Y = assert_sageev_matches_reference(S)
        assert [len(Y.cells(d)) for d in range(Y.top_dim + 1)] == [
            comb(m, d) * 2 ** (m - d) for d in range(m + 1)
        ]
    for m in range(1, 13):
        S = chain_pocset(m)
        assert ultrafilters(S) == ultrafilters_reference(S)
        assert len(assert_sageev_matches_reference(S).cells(0)) == m + 1
    Y = assert_sageev_matches_reference(chain_pocset(30))
    assert [len(Y.cells(d)) for d in range(Y.top_dim + 1)] == [31, 30]


def test_from_relations_matches_fixed_point_closure():
    r = rng(905)
    raised = 0
    for _ in range(200):
        m = r.randint(1, 7)
        pair_ids = [f"p{i}" for i in range(m)]
        elements = [(pid, s) for pid in pair_ids for s in "+-"]
        relations = [tuple(r.sample(elements, 2)) for _ in range(r.randint(0, 2 * m))]
        closed = closed_relations_reference(pair_ids, relations)
        if pocset_check_reference(elements, closed) is None:
            assert Pocset.from_relations(pair_ids, relations).less == closed
        else:
            raised += 1
            with pytest.raises(PocsetError):
                Pocset.from_relations(pair_ids, relations)
    assert 0 < raised < 200


def _check_text(build, *args):
    """The error text of build(*args), or None when it raises nothing."""
    try:
        build(*args)
    except PocsetError as exc:
        return str(exc)
    return None


def _reference_pocset(r, max_pairs: int):
    """Pair ids, relations, elements and closed order of a seeded random
    pocset, closed and checked by the oracles alone, so the sweep does not
    lean on the code it tests."""
    m = r.randint(1, max_pairs)
    pair_ids = [f"p{i}" for i in range(m)]
    elements = tuple((pid, s) for pid in pair_ids for s in "+-")
    for _ in range(40):
        pids = [r.sample(pair_ids, 2) for _ in range(r.randint(0, 2 * m))] if m > 1 else []
        relations = [((a, r.choice("+-")), (b, r.choice("+-"))) for a, b in pids]
        less = closed_relations_reference(pair_ids, relations)
        if pocset_check_reference(elements, less) is None:
            return pair_ids, relations, elements, less
    return pair_ids, [], elements, frozenset()


def test_pocset_check_matches_reference_check():
    """The constructor checks the rows with bit operations; the reference
    walks the sorted (x, y) pairs.  On 300 seeded pocsets and, for each,
    one relation dropped, one relation and its conjugate dropped, all but
    the covering relations dropped, x < x*, a 2-cycle and x < x added,
    both give the same verdict and the same error text.  On the pocset's
    relations and the dropped variants, `from_relations` gives the
    fixed-point closure, or the reference's error on it."""
    r = rng(908)
    kinds = ("irreflexivity", "conjugate", "involution", "antisymmetry", "transitive")
    seen = set()
    for _ in range(300):
        pair_ids, relations, elements, less = _reference_pocset(r, max_pairs=7)
        x, y = r.sample(elements, 2) if len(elements) > 2 else elements
        drop = csorted(less)[r.randrange(len(less))] if less else None
        dropped = [less - {drop}, less - {drop, (star(drop[1]), star(drop[0]))}] if drop else []
        dropped.append(less - {(a, d) for a, b in less for c, d in less if b == c})
        added = [less | {(x, star(x))}, less | {(x, y), (y, x)}, less | {(x, x)}]
        for variant in [less, *dropped, *added]:
            text = pocset_check_reference(elements, variant)
            seen.update(k for k in kinds if text and k in text)
            assert _check_text(Pocset, elements, order_rows(elements, variant)) == text
        for variant in [relations, *dropped]:
            closed = closed_relations_reference(pair_ids, variant)
            text = pocset_check_reference(elements, closed)
            assert _check_text(Pocset.from_relations, pair_ids, variant) == text
            if text is None:
                assert Pocset.from_relations(pair_ids, variant).less == closed
    assert seen == set(kinds)


def simplicial_order_hosts() -> list[SimplicialComplex]:
    """Uncolored complexes on every kind of vertex id the package makes:
    the adjacency links of cube complexes (pair cubes, `from_cells`
    vertex sets and vertex ids, `sageev` index sets), the join links of
    `link_of_cube`, joins whose vertices are tagged ("A", v) / ("B", v), and ids of
    mixed type."""
    r = rng(907)
    cubes = [build_clcc(gen_cycle(2), gen_cycle(3, prefix="b")),
             build_clcc(gen_cross_polytope(3), gen_cross_polytope(3, prefix="b")),
             CubeComplex.from_json_dict(build_clcc(*gen_surface_pair(3, 4)).to_json_dict()),
             grid_complex(3, 3), tree_complex([("c", "l0"), ("c", "l1")])]
    cubes += [sageev(random_pocset(r, max_pairs=4)) for _ in range(6)]
    pairs = []
    while len(pairs) < 12:
        pair = random_smart_pair(r, max_vertices=6)
        if pair is not None:
            pairs.append(pair)
    cubes += [build_clcc(*pair) for pair in pairs]
    hosts = [X.link(v) for X in cubes for v in X.cells(0)[:4]]
    hosts += [X.link(e) for X in cubes for e in X.cells(1)[:2]]
    hosts += [link_of_cube(X, v) for X in cubes[-len(pairs):] for v in X.cells(0)[:3]]
    factors = [K.uncolored() for pair in pairs for K in pair]
    hosts += [simplicial_join(K, K) for K in factors[:8]]  # every vertex tagged
    hosts += [simplicial_join(K, L) for K, L in zip(factors[:8], factors[8:16])]
    mixed = ["x", 3, ("t", 1), ("t", "a"), frozenset({"z", 2}), -1]
    hosts += [SimplicialComplex.from_maximal(mixed, [mixed[:3], mixed[2:5], [mixed[5], "x"]]),
              SimplicialComplex.from_maximal(mixed, [mixed[k:k + 2] for k in range(5)])]
    return hosts


def test_simplicial_cells_are_in_canonical_order():
    hosts = simplicial_order_hosts()
    tagged = [S for S in hosts if S.vertex_ids and all(
        isinstance(v, tuple) and v[0] in ("A", "B") for v in S.vertex_ids)]
    assert tagged and sum(S.top_dim >= 2 for S in hosts) > 20
    for S in hosts:
        for d in range(-1, S.top_dim + 1):
            assert list(S.cells(d)) == csorted(S.cells(d)), d
        assert list(S.maximal_simplices) == csorted(S.maximal_simplices)


def test_ordering_a_simplicial_complex_calls_canon_key_per_vertex(monkeypatch):
    """Building a complex and its whole store calls canon_key exactly as
    often as ranking its vertices alone does."""
    calls = 0
    plain = canon.canon_key

    def counting(obj):
        nonlocal calls
        calls += 1
        return plain(obj)

    monkeypatch.setattr(canon, "canon_key", counting)
    more_cells = 0
    for S in simplicial_order_hosts():
        calls = 0
        csorted(S.vertex_ids)
        per_vertex = calls
        calls = 0
        T = SimplicialComplex(S.vertex_ids, S.simplices)
        cells = [T.cells(d) for d in range(-1, T.top_dim + 1)]
        T.facet_positions(1), T.is_pure, T.is_connected(), T._cofaces
        assert calls == per_vertex
        more_cells += sum(map(len, cells)) > 2 * len(T.vertex_ids)
    assert more_cells > 50
