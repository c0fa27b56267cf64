"""The purity check, the maximal-simplex rule and the graph walk are each
written once and shared by every host class.  Each is compared here with
an independent reference on the seeded corpus: the per-class purity scans
and maximal-simplex comparisons in oracles.py, and networkx component
counts for connectivity."""

from __future__ import annotations

import networkx as nx

from clcc import build_clcc, gen_cross_polytope, gen_cycle
from clcc.clcc_core import conn_graph, smartly_paired
from clcc.pocset_hyperplanes import sageev

from conftest import grid_complex, tree_complex
from corpus import (
    random_colored_complex,
    random_pocset,
    random_smart_pair,
    random_two_complex,
    rng,
)
from oracles import is_pure_reference, k_gamma_complex, maximal_simplices_reference


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
        expect = _connected_by_networkx(S.vertex_ids, (tuple(e) for e in S.cells(1)))
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
