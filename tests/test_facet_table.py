"""The facet table: each host's facets of the d-cells as sorted positions
in cells(d - 1).

A cube complex stores only this table; its cube index and its coface
table (the transpose) are built from it when an API query asks.  The
table is checked against facets found by vertex-set inclusion
(`facet_positions_reference`), on pair-built complexes, on cube
documents loaded with and without their pair, on `from_cells` grids and
trees, on `sageev` complexes, and on colored and uncolored simplicial
hosts.  The boundary ranks (rank ∂1 from the union-find, the others
reduced with clearing) and the Betti numbers read off them are checked
against the full elimination of the boundary matrices built cell by
cell from `boundary_of` (`boundary_ranks_reference`, `betti_reference`),
on these hosts and on the three `manifolds` pairs, and purity against
the coface scan.
The link and coface -> link-cell map of every cell, walked on the star,
are checked too: of every cube against the closure walk on cofaces
found by vertex-set inclusion (`link_data_reference`), and of every
simplex of the colored and uncolored hosts against a scan of all the
simplices (`simplex_link_data_reference`).

Pair assembly on the colorset buckets is checked against the assembler
it replaces (`pair_cubes_reference`, fed every covering pair of
simplices): cells and facet tables of `build_clcc` on the `manifolds`
pairs, a raw and pruned census and the generator families, and of the
JSON loader on complete, shuffled, repeated, respelled and partial
documents.  The cube counts read off the buckets are checked against
the built complexes on the same corpus."""

from __future__ import annotations

import random
import time

import pytest

from clcc import (
    ColoredComplex,
    build_clcc,
    gen_barycentric_pair,
    gen_cross_polytope,
    gen_cycle,
    gen_racg_pair,
    gen_salvetti_pair,
    gen_surface_pair,
    prune_to_smart_pair,
)
from clcc.clcc_core import CubeComplex, _pair_cube_counts, dimension
from clcc.errors import ComplexError, NotTwoSidedError
from clcc.homology_z2 import betti
from clcc.pocset_hyperplanes import (
    crossing_graph,
    directions,
    halfspace_pocset,
    hyperplanes,
    sageev,
)
from clcc.simplicial import CoordSimplex, SimplicialComplex

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
    betti_reference,
    boundary_ranks_reference,
    cofaces_reference,
    covering_pairs_reference,
    csaszar_torus,
    facet_positions_reference,
    is_pure_reference,
    k_gamma_complex,
    link_data_reference,
    pair_cubes_reference,
    simplex_link_data_reference,
    subdivided_k_gamma,
)

LAZY = ("_index", "_cofaces")


def pair_complexes() -> list[CubeComplex]:
    pairs = [
        (gen_cycle(2), gen_cycle(3, prefix="b")),
        (gen_cross_polytope(3), gen_cross_polytope(3, prefix="b")),
        gen_surface_pair(3, 4),
    ]
    r = rng(1301)
    while len(pairs) < 50:
        pair = random_smart_pair(r, max_vertices=7)
        if pair is not None:
            pairs.append(pair)
    r = rng(1302)
    for _ in range(30):  # not smartly paired, so often impure
        n = r.randint(1, 3)
        pairs.append((random_colored_complex(r, n, 6, 5), random_colored_complex(r, n, 6, 5)))
    return [build_clcc(ga, gb) for ga, gb in pairs]


def loaded_complexes() -> list[CubeComplex]:
    """Each non-empty pair complex loaded from its document, and loaded
    with its last top cube left out: that document is still downward
    closed, but mostly no longer all the cubes of a pair, so it is
    assembled as given."""
    out = []
    for X in pair_complexes():
        doc = X.to_json_dict()
        if doc["cubes"]:
            out.append(CubeComplex.from_json_dict(doc))
            out.append(CubeComplex.from_json_dict({**doc, "cubes": doc["cubes"][:-1]}))
    return out


def generic_complexes() -> list[CubeComplex]:
    hosts = [grid_complex(r, c) for r, c in ((1, 1), (2, 3), (3, 3), (1, 5))]
    hosts += [tree_complex([("v0", "v1"), ("v1", "v2")]),
              tree_complex([("c", "l0"), ("c", "l1"), ("c", "l2")])]
    hosts += [k_gamma_complex(gen_cycle(2)), subdivided_k_gamma(gen_cross_polytope(2))]
    return hosts


def sageev_complexes() -> list[CubeComplex]:
    r = rng(1303)
    return [sageev(random_pocset(r, max_pairs=5)) for _ in range(30)]


def simplicial_hosts() -> list:
    r = rng(1304)
    hosts: list = [gen_cross_polytope(3), gen_cycle(4)]
    hosts += [random_colored_complex(r, r.randint(1, 4)) for _ in range(30)]
    hosts += [csaszar_torus(), SimplicialComplex.from_maximal("pqrs", ["pqr", "ps", "qs"])]
    for K in hosts[2:32]:
        hosts.append(K.uncolored())
    return hosts


def assert_table_matches(host) -> int:
    """The table against the inclusion reference and against the
    cube-keyed queries; returns how many cells were checked."""
    checked = 0
    for d in range(1, host.top_dim + 1):
        table = host.facet_positions(d)
        assert table == facet_positions_reference(host, d), d
        index = {c: i for i, c in enumerate(host.cells(d - 1))}
        by_value = tuple(tuple(sorted(index[f] for f in host.boundary_of(c)))
                         for c in host.cells(d))
        assert table == by_value, d
        if isinstance(host, CubeComplex):
            lower = host.cells(d - 1)
            assert all(host.facets(c) == tuple(lower[p] for p in ps)
                       for c, ps in zip(host.cells(d), table))
            assert all(len(ps) == 2 * d for ps in table)
        checked += len(table)
    return checked


def assert_links_match(host) -> None:
    """The link and the whole cell map of every cell: of a cube against
    the closure walk, of a simplex against the scan."""
    if isinstance(host, CubeComplex):
        cofaces = cofaces_reference(host)
        for cube in cofaces:
            assert host.link_data(cube) == link_data_reference(cube, cofaces), cube
    else:
        for s in host.simplices:
            assert host.link_data(s) == simplex_link_data_reference(host, s), s


def assert_host_matches(host) -> int:
    checked = assert_table_matches(host)
    assert host.boundary_ranks == boundary_ranks_reference(host)
    for reduced in (True, False):
        assert betti(host, reduced).ranks == betti_reference(host, reduced)
    assert host.is_pure == is_pure_reference(host)
    assert_links_match(host)
    return checked


def test_pair_built_tables_match_the_reference():
    hosts = pair_complexes()
    assert sum(map(assert_host_matches, hosts)) > 1000
    pure = [X.is_pure for X in hosts]
    assert True in pure and False in pure


def test_loaded_tables_match_the_reference_on_both_loader_paths():
    hosts = loaded_complexes()
    recovered = [X for X in hosts if X.defining_pair is not None]
    fallback = [X for X in hosts if X.defining_pair is None]
    assert len(recovered) > 70 and len(fallback) > 60
    assert sum(map(assert_host_matches, recovered)) > 1000
    assert sum(map(assert_host_matches, fallback)) > 1000


def test_from_cells_and_sageev_tables_match_the_reference():
    assert sum(map(assert_host_matches, generic_complexes())) > 200
    assert sum(map(assert_host_matches, sageev_complexes())) > 500


def test_simplicial_tables_match_the_reference():
    assert sum(map(assert_host_matches, simplicial_hosts())) > 200


def test_betti_equals_the_full_elimination_on_the_manifold_pairs():
    """The 4-torus, the 20×20 surface and the subdivided tetrahedra, where
    clearing leaves out the most rows."""
    for ga, gb in manifold_pairs():
        X = build_clcc(ga, gb)
        assert X.boundary_ranks == boundary_ranks_reference(X)
        for reduced in (True, False):
            assert betti(X, reduced).ranks == betti_reference(X, reduced)


def test_a_table_is_empty_above_the_top_dimension():
    X = grid_complex(1, 2)
    assert X.facet_positions(3) == () and len(X.facet_positions(2)) == 2


def two_sided_pair_complexes() -> list[CubeComplex]:
    r = rng(1305)
    out = []
    while len(out) < 12:
        pair = random_smart_pair(r, max_vertices=7)
        if pair is None:
            continue
        X = build_clcc(*pair)
        if X.top_dim >= 2:
            try:
                halfspace_pocset(build_clcc(*pair))  # a copy, so X stays untouched
            except NotTwoSidedError:
                continue
            out.append(X)
    return out


def test_the_pipeline_never_builds_the_cube_keyed_maps():
    hosts = two_sided_pair_complexes()
    hosts += [build_clcc(gen_cross_polytope(3), gen_cross_polytope(3, prefix="b")),
              build_clcc(*gen_surface_pair(3, 4))]
    for X in hosts:
        dimension(X)
        betti(X), betti(X, False)
        X.is_connected()
        hyperplanes(X), directions(X), crossing_graph(X)
        try:
            halfspace_pocset(X)
        except NotTwoSidedError:  # the tori and the surface
            pass
        assert not [name for name in LAZY if name in X.__dict__]
    X = hosts[0]
    X.facets(X.cells(1)[0])
    assert "_index" in X.__dict__ and "_cofaces" not in X.__dict__
    X.link_data(X.cells(0)[0])
    assert "_cofaces" in X.__dict__


# -- pair assembly on the colorset buckets --------------------------------------------


def manifold_pairs() -> list:
    """The closed-manifold pairs of the `manifolds` benchmark workload."""
    tetra = SimplicialComplex.from_maximal("abcd", ["abc", "abd", "acd", "bcd"])
    return [
        (gen_cross_polytope(4), gen_cross_polytope(4, prefix="b")),
        gen_surface_pair(20, 20),
        gen_barycentric_pair(tetra, tetra, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}),
    ]


def census_pairs(count: int = 150) -> list:
    """Seeded raw pairs, n in 1..4, then each pruned to a smart pair."""
    r = rng(1306)
    raw = []
    for _ in range(count):
        n = r.randint(1, 4)
        raw.append((random_colored_complex(r, n, 7, 6), random_colored_complex(r, n, 7, 6)))
    return raw + [prune_to_smart_pair(ga, gb) for ga, gb in raw]


def generator_pairs() -> list:
    """A pair of each generator family."""
    r = rng(1307)
    path = ColoredComplex.build(3, [("x", 1), ("y", 2), ("z", 3)], [["x", "y"], ["z"]])
    tri = SimplicialComplex.from_maximal("abc", ["ab", "bc", "ca"])
    return [
        (gen_cycle(4), gen_cycle(5, prefix="b")),
        (gen_cross_polytope(1), gen_cross_polytope(1, prefix="b")),
        (gen_cross_polytope(3), gen_cross_polytope(3, prefix="b")),
        gen_surface_pair(3, 4),
        gen_salvetti_pair(path),
        gen_racg_pair(gen_cycle(4)),
        gen_barycentric_pair(tri, tri, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}),
        (random_flag_complex(r, 3), planted_square_flag_complex(r, 3)),
        (random_flag_complex(r, 4, p_edge=0.7), random_flag_complex(r, 4, p_edge=0.7)),
    ]


def assembly_corpus() -> list:
    return manifold_pairs() + census_pairs() + generator_pairs()


def assert_same_complex(X: CubeComplex, R: CubeComplex) -> int:
    """The same cells, in the same order, and the same facet tables;
    returns the cell count."""
    assert X.top_dim == R.top_dim
    for d in range(X.top_dim + 1):
        assert X.cells(d) == R.cells(d), d
        assert X.facet_positions(d) == R.facet_positions(d), d
    return sum(len(X.cells(d)) for d in range(X.top_dim + 1))


def test_pair_cube_counts_equal_the_built_complex():
    dims = set()
    for ga, gb in assembly_corpus():
        X = build_clcc(ga, gb)
        counts = _pair_cube_counts(ga, gb)
        assert counts == {d: len(X.cells(d)) for d in range(X.top_dim + 1)}
        assert max(counts, default=-1) == dimension(X)[0]
        assert sum((-1) ** d * c for d, c in counts.items()) == X.euler_characteristic()
        total = sum(counts.values())
        assert _pair_cube_counts(ga, gb, limit=total) == counts
        if total:
            assert _pair_cube_counts(ga, gb, limit=total - 1) is None
        dims.add(X.top_dim)
    assert {-1, 0, 1, 2, 3, 4} <= dims


def test_pair_cube_counts_build_no_product():
    # 3000 a-vertices of color 1 against 3000 b-vertices of color 2: nine
    # million vertices, counted from two bucket sizes
    k = 3000
    ga = ColoredComplex.build(2, [(f"a{i}", 1) for i in range(k)], [[f"a{i}"] for i in range(k)])
    gb = ColoredComplex.build(2, [(f"b{i}", 2) for i in range(k)], [[f"b{i}"] for i in range(k)])
    start = time.perf_counter()
    assert _pair_cube_counts(ga, gb) == {0: k * k}
    assert _pair_cube_counts(ga, gb, limit=4 * k) is None
    assert time.perf_counter() - start < 1


def test_build_clcc_equals_the_reference_assembler():
    checked = sum(
        assert_same_complex(build_clcc(ga, gb),
                            pair_cubes_reference(ga.n, covering_pairs_reference(ga, gb)))
        for ga, gb in assembly_corpus()
    )
    assert checked > 20_000


def document_cubes(doc) -> list:
    """The distinct cubes of a document, read with no interning."""
    def side(raw):
        return CoordSimplex.of({int(c): v for c, v in raw.items()})
    return list({(side(c["a"]), side(c["b"])) for c in doc["cubes"]})


def loader_documents(X: CubeComplex, r: random.Random) -> dict:
    """The JSON form of X as it is, with its cubes shuffled, with a third
    of them repeated, with the color keys of half the a-sides respelled
    ("01" for 1), with one a-vertex id given to a vertex of another color
    (no pair, though every cube is there), less one top cube (the rest is
    still downward closed), and less one cube below the top (a facet goes
    missing)."""
    doc = X.to_json_dict()
    cubes = doc["cubes"]
    shuffled = list(cubes)
    r.shuffle(shuffled)
    respelled = [{**c, "a": {k.zfill(2): v for k, v in c["a"].items()}} for c in cubes[::2]]
    docs = {
        "complete": doc,
        "shuffled": {**doc, "cubes": shuffled},
        "repeated": {**doc, "cubes": cubes + cubes[::3]},
        "respelled": {**doc, "cubes": respelled + cubes[1::2]},
    }
    vertices = sorted({(c, v) for cube in cubes for c, v in cube["a"].items()})
    if len({c for c, _ in vertices}) > 1:  # give one vertex id two colors
        (cu, u), (_, w) = vertices[0], next(x for x in vertices if x[0] != vertices[0][0])
        docs["two-colored"] = {**doc, "cubes": [
            {**c, "a": {k: u if v == w else v for k, v in c["a"].items()}} for c in cubes
        ]}
    top = [k for k, c in enumerate(cubes) if c["dim"] == X.top_dim]
    below = [k for k, c in enumerate(cubes) if c["dim"] == X.top_dim - 1]
    if top:
        k = r.choice(top)
        docs["less a top cube"] = {**doc, "cubes": cubes[:k] + cubes[k + 1:]}
    if below:
        k = r.choice(below)
        docs["less a facet"] = {**doc, "cubes": cubes[:k] + cubes[k + 1:]}
    return docs


def test_the_loader_equals_the_reference_assembler():
    r = random.Random(1308)
    seen = {"pair": 0, "as given": 0, "raised": 0}
    for ga, gb in census_pairs(40) + generator_pairs():
        X = build_clcc(ga, gb)
        if not X.cells(0):
            continue
        pair_kept = None
        for name, doc in loader_documents(X, r).items():
            try:
                R = pair_cubes_reference(doc["n"], document_cubes(doc))
            except ComplexError as exc:
                with pytest.raises(ComplexError) as info:
                    CubeComplex.from_json_dict(doc)
                assert str(info.value) == str(exc), name
                seen["raised"] += 1
                continue
            Y = CubeComplex.from_json_dict(doc)
            assert_same_complex(Y, R)
            if name == "complete":
                pair_kept = Y.defining_pair is not None
            elif name in ("shuffled", "repeated", "respelled"):  # the same cubes
                assert (Y.defining_pair is not None) == pair_kept, name
            seen["pair" if Y.defining_pair is not None else "as given"] += 1
    assert seen["pair"] > 250 and seen["as given"] > 100 and seen["raised"] > 40
