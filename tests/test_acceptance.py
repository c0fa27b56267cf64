"""Acceptance gate: every criterion below runs standalone and prints one
pass/fail line.  Randomized counts are pinned (seeded via CLCC_SEED)."""

import time
from functools import wraps
from itertools import combinations

import networkx as nx

from clcc import (
    betti,
    boundary,
    build_clcc,
    certify,
    certify_barycentric,
    classify_vertex_links,
    clcc_cycle,
    close_downward,
    dimension,
    empty_squares,
    euler_characteristic,
    flag_complex_from_graph,
    gen_cross_polytope,
    gen_racg_pair,
    gen_salvetti_pair,
    gen_surface_pair,
    gen_cycle,
    is_connected,
    is_cycle,
    join_chains,
    localize,
    moussong,
    top_chain,
)
from clcc.pocset_hyperplanes import roller_duality_check, sageev
from clcc.simplicial import SimplicialComplex, barycentric_subdivision_2d

from conftest import grid_complex, tree_complex
from corpus import (
    planted_square_flag_complex,
    random_chain,
    random_pocset,
    random_smart_pair,
    random_two_complex,
    rng,
)
from oracles import subdivided_k_gamma, racg_vertex_embedding
from test_pocset import pocsets_isomorphic


def criterion(num, desc):
    def deco(fn):
        @wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:>2} FAIL  {desc}")
                raise
            dt = time.perf_counter() - t0
            print(f"ACCEPTANCE {num:>2} PASS  {desc}  ({dt:.2f}s)")

        return run

    return deco


def pair_census(ga, gb):
    n = ga.n
    everything = frozenset(range(1, n + 1))
    counts = {}
    for a in ga.simplices:
        for b in gb.simplices:
            if a.colors | b.colors == everything:
                d = len(a.colors & b.colors)
                counts[d] = counts.get(d, 0) + 1
    return counts


TETRA = SimplicialComplex.from_maximal(
    ["p", "q", "r", "s"],
    [["p", "q", "r"], ["p", "q", "s"], ["p", "r", "s"], ["q", "r", "s"]],
)


@criterion(1, "surface family: counts, purity, circle links, Betti")
def test_criterion_1_surface_family():
    pinned = {
        (2, 2): ((16, 32, 16, 0), (1, 2, 1)),
        (2, 3): ((22, 48, 24, -2), (1, 4, 1)),
    }
    for ka, kb in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        t0 = time.perf_counter()
        ga, gb = gen_surface_pair(ka, kb)
        X = build_clcc(ga, gb)
        counts = pair_census(ga, gb)
        assert {d: len(X.cells(d)) for d in range(X.top_dim + 1)} == counts
        v, e, f = counts[0], counts[1], counts[2]
        chi = euler_characteristic(X)
        assert chi == v - e + f
        assert is_connected(ga, gb)
        assert dimension(X) == (2, True)
        assert set(classify_vertex_links(X).values()) == {"circle"}
        if (ka, kb) in pinned:
            (pv, pe, pf, pchi), pbetti = pinned[(ka, kb)]
            assert (v, e, f, chi) == (pv, pe, pf, pchi)
            assert betti(X, reduced=False).ranks == pbetti
        assert time.perf_counter() - t0 < 1.0, f"({ka},{kb}) exceeded 1s"


@criterion(2, "Euler characteristic: degree formula and closed form")
def test_criterion_2_euler_identity():
    corpus = []
    for ka, kb in [(2, 2), (2, 3), (2, 4), (3, 3), (4, 5)]:
        corpus.append((gen_surface_pair(ka, kb), (ka, kb)))
    cycling = close_downward(
        3,
        [(f"b{i}", i % 3 + 1) for i in range(6)],
        [[f"b{i}", f"b{(i + 1) % 6}"] for i in range(6)],
    )
    corpus.append(((gen_cross_polytope(3), cycling), None))
    square_graph = close_downward(
        4,
        [(f"v{i}", i) for i in range(1, 5)],
        [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v1"]],
    )
    corpus.append((gen_racg_pair(square_graph), None))
    checked = 0
    for (ga, gb), params in corpus:
        X = build_clcc(ga, gb)
        d, pure = dimension(X)
        if d != 2 or not pure:
            continue
        if any(
            sum(1 for sq in X.cells(2) if e in X.facets(sq)) != 2 for e in X.cells(1)
        ):
            continue
        checked += 1
        degree = {v: sum(1 for e in X.cells(1) if v in X.vertices_of(e)) for v in X.cells(0)}
        degree_sum = sum(4 - degree[v] for v in X.cells(0))
        assert degree_sum % 4 == 0
        chi = euler_characteristic(X)
        assert chi == degree_sum // 4
        if params is not None:
            ka, kb = params
            # documented sign note: the closed form carries the opposite
            # sign of the counted characteristic
            assert ka * (kb - 2) + kb * (ka - 2) == abs(chi) == -chi
    assert checked >= 6


@criterion(3, "Coxeter kernels: pair complex = subdivided cube kernel, <= 4 vertices")
def test_criterion_3_racg_realization():
    t0 = time.perf_counter()
    total = 0
    for k in (1, 2, 3, 4):
        verts = [(f"v{i}", i) for i in range(1, k + 1)]
        pairs = list(combinations([v for v, _ in verts], 2))
        for mask in range(2 ** len(pairs)):
            edges = [p for idx, p in enumerate(pairs) if mask >> idx & 1]
            gamma = flag_complex_from_graph(k, verts, edges)
            A, B = gen_racg_pair(gamma)
            X = build_clcc(A, B)
            oracle = subdivided_k_gamma(B)
            for d in range(max(X.top_dim, oracle.top_dim) + 1):
                assert len(X.cells(d)) == len(oracle.cells(d))
            phi = {v: racg_vertex_embedding(B, v) for v in X.cells(0)}
            assert len(set(phi.values())) == len(phi)
            assert set(phi.values()) == set(oracle.cells(0))
            x_edges = {
                frozenset(phi[u] for u in X.vertices_of(e)) for e in X.cells(1)
            }
            assert x_edges == set(oracle.cells(1))
            total += 1
    assert total == 1 + 2 + 8 + 64
    assert time.perf_counter() - t0 < 10.0


@criterion(4, "Artin complexes: Betti equals the clique-count vector, <= 3 vertices")
def test_criterion_4_salvetti_homology():
    for k in (1, 2, 3):
        verts = [(f"v{i}", i) for i in range(1, k + 1)]
        pairs = list(combinations([v for v, _ in verts], 2))
        for mask in range(2 ** len(pairs)):
            edges = [p for idx, p in enumerate(pairs) if mask >> idx & 1]
            gamma = flag_complex_from_graph(k, verts, edges)
            X = build_clcc(*gen_salvetti_pair(gamma))
            clique_vector = [1] + [len(gamma.cells(d)) for d in range(X.top_dim)]
            assert list(betti(X, reduced=False).ranks) == clique_vector


@criterion(5, "homology engine: 500 randomized chain checks, zero violations")
def test_criterion_5_homology_properties():
    r = rng(901)
    hosts = [
        gen_cycle(2),
        gen_cycle(3),
        gen_cross_polytope(3),
        build_clcc(*gen_surface_pair(2, 2)),
        build_clcc(*gen_surface_pair(2, 3)),
        barycentric_subdivision_2d(
            SimplicialComplex.from_maximal(["p", "q", "r"], [["p", "q", "r"]]),
            {"V": 1, "E": 2, "F": 3},
        ),
    ]
    chains = 0
    violations = 0
    # boundary of boundary vanishes
    for _ in range(150):
        host = hosts[r.randrange(len(hosts))]
        d = r.randint(1, host.top_dim)
        c = random_chain(r, host, d)
        chains += 1
        if not boundary(boundary(c)).is_zero:
            violations += 1
    # localization commutes with the boundary
    for _ in range(150):
        host = hosts[r.randrange(len(hosts))]
        n = host.top_dim
        c = random_chain(r, host, n)
        chains += 1
        k = r.randrange(n)
        cells = host.cells(k)
        e = cells[r.randrange(len(cells))]
        if localize(boundary(c), e) != boundary(localize(c, e)):
            violations += 1
    # join of nontrivial chains is a cycle iff both are
    ca, cb = gen_cycle(2), gen_cycle(3, prefix="b")
    joined = 0
    while joined < 100:
        sa = random_chain(r, ca, r.randint(0, 1))
        sb = random_chain(r, cb, r.randint(0, 1))
        if sa.is_zero or sb.is_zero:
            continue
        joined += 1
        chains += 2
        j = join_chains(sa, sb)
        if is_cycle(j) != (is_cycle(sa) and is_cycle(sb)):
            violations += 1
    # a top chain is a cycle iff all vertex localizations are
    for _ in range(100):
        host = hosts[3 + r.randrange(2)]
        c = random_chain(r, host, host.top_dim)
        chains += 1
        local = all(is_cycle(localize(c, v)) for v in host.cells(0))
        if local != is_cycle(c):
            violations += 1
    assert chains >= 500
    assert violations == 0
    print(f"  checked {chains} chains")


@criterion(6, "3-cycle on the subdivided-tetrahedra pair with nonzero class")
def test_criterion_6_cycle_construction():
    t0 = time.perf_counter()
    ga = barycentric_subdivision_2d(TETRA, {"V": 1, "E": 2, "F": 3})
    gb = barycentric_subdivision_2d(TETRA, {"V": 2, "E": 1, "F": 3})
    X = build_clcc(ga, gb)
    wa, wb = top_chain(ga), top_chain(gb)
    assert is_cycle(wa) and is_cycle(wb)
    z = clcc_cycle(wa, wb, ambient=X)
    assert z.dim == 3
    assert is_cycle(z)
    bv = betti(X, reduced=False)
    assert bv.ranks[3] >= 1
    assert time.perf_counter() - t0 < 60.0


@criterion(7, "halfspace duality: trees, grids, 100 pocset round-trips")
def test_criterion_7_sageev_roller():
    for n_vertices in range(2, 10):
        for g in nx.nonisomorphic_trees(n_vertices):
            X = tree_complex([(f"t{a}", f"t{b}") for a, b in g.edges()])
            ok, mapping = roller_duality_check(X)
            assert ok and len(mapping) == n_vertices
    for rows in (1, 2, 3):
        for cols in range(rows, 4):
            ok, _ = roller_duality_check(grid_complex(rows, cols))
            assert ok
    r = rng(902)
    for _ in range(100):
        S = random_pocset(r, max_pairs=6)
        assert pocsets_isomorphic(S, sageev(S))


@criterion(8, "connectedness criterion agrees with BFS on 200 smart pairs")
def test_criterion_8_connectedness():
    r = rng(903)
    done = 0
    while done < 200:
        pair = random_smart_pair(r, max_vertices=8)
        if pair is None:
            continue
        done += 1
        ga, gb = pair
        assert is_connected(ga, gb, engine="criterion") == is_connected(
            ga, gb, engine="bfs"
        )


@criterion(9, "hyperbolicity certificates and soundness harness")
def test_criterion_9_certificates():
    assert certify(gen_cycle(2), gen_cycle(3, prefix="b")).verdict == "Hyperbolic"
    assert certify(gen_cycle(2), gen_cycle(2, prefix="b")).verdict == "Unknown"
    assert moussong(gen_cycle(2)).verdict == "NotHyperbolic"
    pentagon = close_downward(
        5,
        [(f"v{i}", i + 1) for i in range(5)],
        [[f"v{i}", f"v{(i + 1) % 5}"] for i in range(5)],
    )
    assert moussong(pentagon).verdict == "Hyperbolic"
    cert = certify_barycentric(
        TETRA, TETRA, {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3}
    )
    assert cert.verdict == "Hyperbolic"
    assert set(cert.witness["verified"]) == {"obes-a", "obes-b", "pairwise-5-large"}
    r = rng(904)
    for _ in range(200):
        n = r.randint(2, 3)
        ga = gen_cross_polytope(n)
        gb = planted_square_flag_complex(r, n)
        assert certify(ga, gb).verdict != "Hyperbolic"
        assert certify(gb, ga).verdict != "Hyperbolic"


@criterion(10, "subdivisions of 100 random 2-complexes are o.b.e.s.")
def test_criterion_10_obes_theorem():
    r = rng(905)
    for _ in range(100):
        K = random_two_complex(r, max_triangles=8)
        sub = barycentric_subdivision_2d(K, {"V": 1, "E": 2, "F": 3})
        for sq in empty_squares(sub):
            assert len(sq.color_set) == 2, f"tricolor empty square {sq}"
