"""The int view of a simplicial host against the references it replaces.

`ColoredComplex` and `SimplicialComplex` each build one view: the
vertices ranked in canonical order, a neighbour mask per vertex, and each
simplex by the mask of its vertices.  The maximal simplices, the flag
witness, the clique and square scans, the colorset buckets and the pair
predicates read it, and the color sets are masks.  Each is compared here,
value and order, with its reference in `tests/oracles.py`: the pairwise
maximal-simplex comparison, the canon_key clique growth, every pairwise
adjacent subset, the 4-tuple square scan, the pruning loop and the
pairwise merge rule of the criterion graph.  The inputs are the seeded
corpus, census-like flag factors drawn as the `random-pairs` census draws
them (two seeds), planted-square factors, non-flag complexes built from
random tops, and hypothesis graphs."""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from clcc import flag_complex_from_graph, prune_to_smart_pair
from clcc.clcc_core import conn_graph, doubly_smartly_paired, smartly_paired
from clcc.simplicial import (
    ColoredComplex,
    _chordless_squares,
    cliques,
    is_flag,
)

from corpus import (
    planted_square_flag_complex,
    random_colored_complex,
    random_flag_complex,
    random_two_complex,
    rng,
)
from oracles import (
    chordless_squares_reference,
    cliques_reference,
    conn_graph_reference,
    is_flag_reference,
    mask_graph,
    maximal_simplices_reference,
    prune_to_smart_pair_reference,
)


def fresh(K: ColoredComplex) -> ColoredComplex:
    return ColoredComplex(K.n, dict(K.vertices), K.simplices)


def census_pairs(seed: int, count: int = 150):
    """Pairs drawn as the `random-pairs` census draws them: n in {3, 4},
    a random flag factor of at most 12 vertices (edge probability 0.5)
    against another one or against a planted-square factor."""
    r = rng(9400 + seed)
    for k in range(count):
        n = r.choice((3, 4))
        ga = random_flag_complex(r, n, 12, 0.5)
        gb = random_flag_complex(r, n, 12, 0.5) if k % 2 == 0 else planted_square_flag_complex(r, n)
        yield ga, gb


def built_pairs():
    """Non-flag pairs: the downward closures of random tops."""
    r = rng(9403)
    for _ in range(150):
        n = r.randint(1, 4)
        yield random_colored_complex(r, n), random_colored_complex(r, n)


def corpus_pairs():
    yield from census_pairs(0)
    yield from census_pairs(1)
    yield from built_pairs()


def assert_view_matches(K) -> dict:
    """Every reader of K's view against its reference; returns what was
    seen, so that a sweep can require both outcomes of each question."""
    verts, adj, masks = K._view
    assert list(verts) == list(K.vertex_ids)
    assert len(masks) == len(K.simplices)
    for m, s in masks.items():
        assert {verts[q] for q in range(len(verts)) if m >> q & 1} == _ids(K, s)
    assert K.maximal_simplices == maximal_simplices_reference(K)
    assert is_flag(K) == is_flag_reference(K)
    squares = [tuple(verts[q] for q in sq) for sq in _chordless_squares(adj)]
    assert squares == chordless_squares_reference(K.adjacency)
    if isinstance(K, ColoredComplex):
        assert [sq.cycle for sq in K.squares] == squares
    # a maximal simplex whose vertices still have a common neighbour: only
    # the extension check keeps it maximal
    hollow = any(
        all(verts[q] in K.adjacency[v] for v in _ids(K, s)) and verts[q] not in _ids(K, s)
        for s in K.maximal_simplices if len(s) >= 2 for q in range(len(verts))
    )
    return {"flag": is_flag(K)[0], "square": bool(squares), "hollow": hollow}


def _ids(K, s) -> set:
    return {v for _, v in s.entries} if isinstance(K, ColoredComplex) else set(s)


def assert_buckets_match(K: ColoredComplex) -> None:
    """The color-mask buckets against a grouping of the simplices by their
    color sets, each group in canonical order, and `_partners` against a
    scan of every simplex for the complementary color set."""
    ordered = sorted(K.simplices, key=lambda s: s.entries)
    groups: dict = {}
    for s in ordered:
        groups.setdefault(s.colors, []).append(s)
    assert K._buckets == {sum(1 << c for c in colors): tuple(b) for colors, b in groups.items()}
    every = frozenset(range(1, K.n + 1))
    for colors in list(groups) + [frozenset(), every]:
        assert K._partners(sum(1 << c for c in colors)) == tuple(
            s for s in ordered if s.colors == every - colors
        )


def test_views_match_the_references_on_the_census_and_built_factors():
    seen = {"flag": set(), "square": set(), "hollow": set()}
    for ga, gb in corpus_pairs():
        for K in (fresh(ga), fresh(gb)):
            for key, value in assert_view_matches(K).items():
                seen[key].add(value)
            assert_buckets_match(K)
            assert_view_matches(K.uncolored())
    assert all(v == {True, False} for v in seen.values()), seen


def test_simplicial_views_match_the_references():
    r = rng(9404)
    hosts = [random_two_complex(r) for _ in range(80)]
    hosts += [S.link(v) for S in hosts[:20] for v in S.cells(0)[:2]]
    flags = {assert_view_matches(S)["flag"] for S in hosts}
    assert flags == {True, False}


def test_pair_predicates_match_the_references():
    seen = {"cut": 0, "uncut": 0, "collapsed": 0, "smart": 0, "lonely maximal": 0}
    for ga, gb in corpus_pairs():
        fa, fb = fresh(ga), fresh(gb)
        ref = prune_to_smart_pair_reference(fa, fb)
        got = prune_to_smart_pair(ga, gb)
        assert got == ref, (ga, gb)
        if got[0] is ga:
            seen["uncut"] += 1
        elif got[0].vertex_ids:
            seen["cut"] += 1
        else:
            seen["collapsed"] += 1
            continue
        # the unpruned pair: the first maximal simplex with no partner
        ok, witness = smartly_paired(ga, gb)
        expect = next(
            ((side, m) for side, K, other in (("A", ga, gb), ("B", gb, ga))
             for m in maximal_simplices_reference(K)
             if not any(s.colors == frozenset(range(1, K.n + 1)) - m.colors
                        for s in other.simplices)),
            None,
        )
        assert (ok, witness) == (expect is None, expect)
        seen["lonely maximal"] += not ok
        pa, pb = got
        assert smartly_paired(pa, pb) == (True, None)
        seen["smart"] += doubly_smartly_paired(pa, pb)
        G = conn_graph(pa, pb)
        assert (G.nodes, G.edges) == conn_graph_reference(pa, pb)
    assert all(seen.values()), seen


_ids_strategy = st.sampled_from([f"g{i}" for i in range(8)])


@st.composite
def _graphs(draw):
    ids = draw(st.lists(_ids_strategy, unique=True, max_size=8))
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=20)
                 if ids else st.just([]))
    adj: dict = {v: set() for v in ids}
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_scans_on_hypothesis_graphs(adj):
    verts, masks = mask_graph(adj)
    assert [tuple(verts[q] for q in c) for c in cliques(masks)] == cliques_reference(adj)
    squares = [tuple(verts[q] for q in sq) for sq in _chordless_squares(masks)]
    assert squares == chordless_squares_reference(adj)


@settings(max_examples=100, deadline=None)
@given(_graphs(), st.randoms(use_true_random=False))
def test_views_on_hypothesis_colored_graphs(adj, r):
    """The graph colored properly at random, completed to its flag
    complex, and that complex's view against the references."""
    colors: dict = {}
    for v in sorted(adj):
        used = {colors[u] for u in adj[v] if u in colors}
        colors[v] = min(set(range(1, 9)) - used)
    n = max(colors.values(), default=1)
    edges = [(a, b) for a, b in combinations(sorted(adj), 2) if b in adj[a]]
    K = flag_complex_from_graph(n, [(v, colors[v]) for v in adj], edges)
    assert_view_matches(K)
    assert_buckets_match(K)
    # the same graph with some of its cliques' simplices left out
    tops = [s for s in K.maximal_simplices if r.random() < 0.6]
    L = ColoredComplex.build(n, K.vertices, [sorted(s.vertex_ids) for s in tops])
    assert_view_matches(L)
    assert_buckets_match(L)
