"""The purity check, the maximal-simplex rule and the graph walks
(component roots, connectivity, cliques, chordless squares, the
criterion graph, the 1-skeleton of a pair complex) are each written once
and shared by every caller.  Each is compared here with an independent
reference on the seeded corpus: the per-class purity scans,
maximal-simplex comparisons, brute-force graph walks and the built
complex's connectivity in oracles.py, and networkx components for the
component roots and connectivity."""

from __future__ import annotations

from itertools import combinations

import networkx as nx
import pytest

from clcc import (
    ColoredComplex,
    betti,
    build_clcc,
    gen_barycentric_pair,
    gen_cross_polytope,
    gen_cycle,
    gen_surface_pair,
    is_connected,
    prune_to_smart_pair,
)
from clcc import clcc_core
from clcc.clcc_core import _empty_complex, _pair_vertices, conn_graph, smartly_paired
from clcc.errors import DomainError
from clcc.pocset_hyperplanes import sageev
from clcc.simplicial import (
    SimplicialComplex,
    _chordless_squares,
    cliques,
    component_roots,
    connected,
)

from conftest import grid_complex, tree_complex
from corpus import (
    random_colored_complex,
    random_flag_complex,
    random_pocset,
    random_smart_pair,
    random_two_complex,
    rng,
)
from oracles import (
    chordless_squares_reference,
    cliques_reference,
    conn_graph_reference,
    is_connected_bfs_reference,
    is_pure_reference,
    k_gamma_complex,
    mask_graph,
    maximal_simplices_reference,
)


def colored_hosts():
    r = rng(7301)
    hosts = [random_colored_complex(r, r.randint(1, 4), 7, 6) for _ in range(120)]
    hosts += [gen_cycle(3), gen_cross_polytope(3)]
    hosts += [K.link(s) for K in hosts[:40] for s in K.maximal_simplices[:1] + K.cells(0)[:2]]
    return hosts


def simplicial_hosts():
    r = rng(7302)
    hosts = [K.uncolored() for K in colored_hosts()]
    hosts += [random_two_complex(r) for _ in range(60)]
    hosts += [S.link(v) for S in hosts[-20:] for v in S.cells(0)[:2]]
    return hosts


def cube_hosts():
    r = rng(7303)
    hosts = []
    for _ in range(80):
        n = r.randint(1, 3)
        ga = random_colored_complex(r, n, 6, 5)
        gb = random_colored_complex(r, n, 6, 5)
        hosts.append(build_clcc(ga, gb))
    hosts += [sageev(random_pocset(r, 4)) for _ in range(20)]
    hosts += [grid_complex(2, 3), tree_complex([("x", "y"), ("y", "z")])]
    hosts += [k_gamma_complex(gen_cycle(2)), build_clcc(gen_cycle(2), gen_cycle(3, prefix="b"))]
    return hosts


def test_is_pure_equals_the_per_class_scans():
    for name, hosts in (("colored", colored_hosts()), ("simplicial", simplicial_hosts()),
                        ("cube", cube_hosts())):
        verdicts = [host.is_pure for host in hosts]
        assert verdicts == [is_pure_reference(host) for host in hosts], name
        # the corpus holds both kinds, so neither answer is vacuous
        assert True in verdicts and False in verdicts, name


def test_maximal_simplices_equal_the_pairwise_comparison():
    for hosts in (colored_hosts(), simplicial_hosts()):
        for K in hosts:
            assert K.maximal_simplices == maximal_simplices_reference(K)


def _connected_by_networkx(nodes, edges) -> bool:
    G = nx.Graph()
    G.add_nodes_from(nodes)
    G.add_edges_from(edges)
    return len(G) > 0 and nx.number_connected_components(G) == 1


def test_connectivity_equals_networkx_component_count():
    seen = set()
    for S in simplicial_hosts():
        nodes = (v for (v,) in S.cells(0))
        expect = _connected_by_networkx(nodes, (tuple(e) for e in S.cells(1)))
        assert S.is_connected() == expect
        seen.add(("simplicial", expect))
    for X in cube_hosts():
        edges = (tuple(X.vertices_of(e)) for e in X.cells(1))
        expect = _connected_by_networkx(X.cells(0), edges)
        assert X.is_connected() == expect
        seen.add(("cube", expect))
    r = rng(7304)
    for _ in range(120):
        pair = random_smart_pair(r, 6)
        if pair is None or not smartly_paired(*pair)[0]:
            continue
        G = conn_graph(*pair)
        expect = _connected_by_networkx(G.nodes, G.edges)
        assert G.is_connected() == expect
        seen.add(("criterion", expect))
    assert seen == {(kind, v) for kind in ("simplicial", "cube", "criterion") for v in (True, False)}


def test_isolated_vertices_follow_one_rule():
    """A declared vertex in no simplex is no 0-cell: `is_connected`, the
    reduced Betti numbers and χ all ignore it, on either simplicial host."""
    S = SimplicialComplex.from_maximal("abc", ["ab"])
    K = ColoredComplex.build(2, [("a", 1), ("b", 1), ("c", 2), ("d", 2)], ["ac", "bc"])
    hosts = [S, K, K.uncolored(), SimplicialComplex.from_maximal("ab", [])]
    hosts += simplicial_hosts() + colored_hosts()
    unused = 0
    for host in hosts:
        expect = bool(host.cells(0)) and betti(host).ranks[0] == 0
        assert host.is_connected() == expect, host
        unused += len(host.cells(0)) < len(host.vertex_ids)
    assert S.is_connected() and K.is_connected() and K.uncolored().is_connected()
    assert S.euler_characteristic() == 1
    assert unused > 4


def test_component_roots_equal_networkx_components():
    """Every vertex gets the least vertex of its networkx component, with
    the edges given as a list or as a generator, which is read once."""
    r = rng(7305)
    sizes, verdicts = set(), set()
    for _ in range(300):
        count = r.randint(0, 40)
        edges = [tuple(r.randrange(count) for _ in range(2)) for _ in range(r.randint(0, count))]
        G = nx.Graph()
        G.add_nodes_from(range(count))
        G.add_edges_from(edges)
        comps = list(nx.connected_components(G))
        expect = [min(c) for v in range(count) for c in comps if v in c]
        assert component_roots(count, edges) == expect
        assert component_roots(count, (e for e in edges)) == expect
        assert connected(count, edges) == (len(comps) == 1)
        sizes.update(len(c) for c in comps)
        verdicts.add(len(comps) == 1)
    assert component_roots(0, []) == [] and not connected(0, [])
    assert verdicts == {True, False}
    # isolated vertices, and components large enough that a set of their
    # numbers does not iterate in sorted order
    assert 1 in sizes and max(sizes) > 8
    # a long path in descending order hangs each vertex one step below the
    # last; in shuffled order, with random ends first, the trees are mixed.
    # A final pass that stops short of the roots leaves a vertex off its root.
    path = [(v, v + 1) for v in range(300)]
    shuffled = [e if r.random() < 0.5 else e[::-1] for e in r.sample(path, len(path))]
    for order in (path[::-1], shuffled):
        assert component_roots(301, (e for e in order)) == [0] * 301
        assert connected(301, order) and not connected(302, order)


def random_graph(r, ids) -> dict:
    """A graph on `ids` with a random edge density, keyed in shuffled
    order so that only a canonical sort gives the vertex order."""
    ids = r.sample(ids, len(ids))
    p = r.random()
    adj = {v: set() for v in ids}
    for a, b in combinations(ids, 2):
        if r.random() < p:
            adj[a].add(b)
            adj[b].add(a)
    return {v: frozenset(ns) for v, ns in adj.items()}


def test_cliques_equal_every_pairwise_adjacent_subset():
    r = rng(7306)
    graphs = [random_graph(r, [f"v{i}" for i in range(r.randint(0, 10))]) for _ in range(300)]
    graphs += [K.adjacency for K in colored_hosts()]
    graphs += [S.adjacency for S in simplicial_hosts()]
    largest = 0
    for adj in graphs:
        expect = cliques_reference(adj)
        verts, masks = mask_graph(adj)
        assert [tuple(verts[q] for q in c) for c in cliques(masks)] == expect
        largest = max([largest] + [len(c) for c in expect])
    assert largest >= 4


def test_chordless_squares_equal_the_four_tuple_scan():
    r = rng(7307)
    found = 0
    graphs = [random_graph(r, [f"v{i}" for i in range(r.randint(0, 9))]) for _ in range(400)]
    for k, adj in enumerate(graphs + [K.adjacency for K in colored_hosts()]):
        expect = chordless_squares_reference(adj)
        verts, masks = mask_graph(adj)
        assert [tuple(verts[q] for q in sq) for sq in _chordless_squares(masks)] == expect
        found += len(expect) if k < len(graphs) else 0
    assert found > 100


def test_conn_graph_equals_the_pairwise_merge_rule():
    r = rng(7308)
    pairs = [random_smart_pair(r, 6) for _ in range(150)]
    for _ in range(100):
        n = r.randint(2, 4)
        pairs.append(prune_to_smart_pair(random_flag_complex(r, n, 7), random_flag_complex(r, n, 7)))
    clashes = joined = 0
    for pair in pairs:
        if pair is None or not pair[0].vertex_ids:
            continue
        G = conn_graph(*pair)
        nodes, edges = conn_graph_reference(*pair)
        assert (G.nodes, G.edges) == (nodes, edges)
        joined += len(edges)
        clashes += sum(
            1 for (_, b1), (_, b2) in combinations(nodes, 2)
            if any(b2.get(c) not in (None, v) for c, v in b1.entries)
        )
    # node pairs whose B-parts give one color two vertices are in the corpus
    assert clashes > 0 and joined > 0


TRIANGLE = SimplicialComplex.from_maximal(["p", "q", "r"], [["p", "q", "r"]])
TETRA = SimplicialComplex.from_maximal(
    ["p", "q", "r", "s"], [["p", "q", "r"], ["p", "q", "s"], ["p", "r", "s"], ["q", "r", "s"]]
)


def engine_pairs():
    """Seeded smart pairs, random flag pairs as drawn (most are not smart)
    and pruned, the generator families and the empty pair."""
    r = rng(7309)
    pairs = [random_smart_pair(r, 6) for _ in range(120)]
    for _ in range(80):
        n = r.randint(2, 4)
        ga, gb = random_flag_complex(r, n, 8), random_flag_complex(r, n, 8)
        pairs += [(ga, gb), prune_to_smart_pair(ga, gb)]
    pairs += [
        gen_surface_pair(2, 3),
        gen_surface_pair(4, 4),
        (gen_cross_polytope(3), gen_cross_polytope(3, prefix="b")),
        (gen_cross_polytope(2), gen_cycle(3, prefix="b")),
        gen_barycentric_pair(TETRA, TETRA, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}),
        gen_barycentric_pair(TRIANGLE, TETRA, {"V": 1, "E": 2, "F": 3}, {"V": 1, "E": 3, "F": 2}),
        (_empty_complex(2), _empty_complex(2)),
    ]
    return [pair for pair in pairs if pair is not None]


def test_both_connectivity_engines_equal_the_built_complex_and_networkx():
    seen = set()
    for ga, gb in engine_pairs():
        X = build_clcc(ga, gb)
        expect = is_connected_bfs_reference(ga, gb)
        edges = (tuple(X.vertices_of(e)) for e in X.cells(1))
        assert _connected_by_networkx(X.cells(0), edges) == expect
        assert is_connected(ga, gb, "bfs") == expect
        assert _pair_vertices(ga, gb) == list(X.cells(0))
        seen.add(("bfs", expect))
        if smartly_paired(ga, gb)[0]:
            assert is_connected(ga, gb, "criterion") == expect
            assert _connected_by_networkx(*conn_graph_reference(ga, gb)) == expect
            seen.add(("criterion", expect))
        else:
            with pytest.raises(DomainError):
                is_connected(ga, gb, "criterion")
            seen.add(("not smart", expect))
    # each engine meets connected and disconnected pairs; non-smart pairs
    # of both kinds reach the BFS engine only
    assert seen == {(kind, v) for kind in ("bfs", "criterion", "not smart") for v in (True, False)}


def test_bfs_engine_builds_no_cube(monkeypatch):
    calls = []

    def counted(name, f):
        def call(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return call

    for name in ("build_clcc", "_assemble_pair_cubes"):
        monkeypatch.setattr(clcc_core, name, counted(name, getattr(clcc_core, name)))
    monkeypatch.setattr(clcc_core.CubeComplex, "__init__",
                        counted("CubeComplex", clcc_core.CubeComplex.__init__))
    verdicts = {is_connected(ga, gb, "bfs") for ga, gb in engine_pairs()}
    assert verdicts == {True, False} and calls == []
    # the counters do count
    clcc_core.build_clcc(*gen_surface_pair(2, 3))
    assert calls == ["build_clcc", "_assemble_pair_cubes", "CubeComplex"]
