"""The facet table: each host's facets of the d-cells as sorted positions
in cells(d - 1).

A cube complex stores only this table; the cube-keyed maps are built
from it when an API query asks.  The table is checked against facets
found by vertex-set inclusion (`facet_positions_reference`), on
pair-built complexes, on cube documents loaded with and without their
pair, on `from_cells` grids and trees, on `sageev` complexes, and on
colored and uncolored simplicial hosts.  Betti numbers are checked
against the boundary matrices built cell by cell from `boundary_of`, and
purity against the coface scan."""

from __future__ import annotations

from clcc import build_clcc, gen_cross_polytope, gen_cycle, gen_surface_pair, gf2
from clcc.clcc_core import CubeComplex, dimension
from clcc.errors import NotTwoSidedError
from clcc.homology_z2 import betti
from clcc.pocset_hyperplanes import (
    crossing_graph,
    directions,
    halfspace_pocset,
    hyperplanes,
    sageev,
)
from clcc.simplicial import SimplicialComplex

from conftest import grid_complex, tree_complex
from corpus import random_colored_complex, random_pocset, random_smart_pair, rng
from oracles import (
    boundary_rows_reference,
    csaszar_torus,
    facet_positions_reference,
    is_pure_reference,
    k_gamma_complex,
    subdivided_k_gamma,
)

LAZY = ("_facets", "_dim_of", "cofaces_map")


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


def betti_reference(host, reduced: bool) -> tuple:
    top = host.top_dim
    if top < 0:
        return ()
    counts = [len(host.cells(d)) for d in range(top + 1)] + [0]
    ranks = [(1 if counts[0] else 0) if reduced else 0] + [0] * (top + 1)
    for k in range(1, top + 1):
        index_low = {c: i for i, c in enumerate(host.cells(k - 1))}
        ranks[k] = gf2.rank(boundary_rows_reference(host, k, index_low), len(index_low))
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))


def assert_host_matches(host) -> int:
    checked = assert_table_matches(host)
    for reduced in (True, False):
        assert betti(host, reduced).ranks == betti_reference(host, reduced)
    assert host.is_pure == is_pure_reference(host)
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
    assert "_facets" in X.__dict__ and "_dim_of" not in X.__dict__
    assert X.cells(2)[0] in X
    assert "_dim_of" in X.__dict__
