"""The factor predicates against the code they replace.

`prune_to_smart_pair` takes a closed form, and every square predicate
reads one scan of the factor's chordless 4-cycles.  The references in
`tests/oracles.py` are the pruning loop and the per-color-pair full
subcomplex scans; both paths must agree on every pair of a seeded corpus
that holds unused vertices, vertex-less and collapsing pairs, flag and
planted-square pairs, and barycentric subdivisions."""

from __future__ import annotations

import importlib.util
from itertools import combinations
from pathlib import Path

import clcc.simplicial as simplicial
from clcc import certify, flag_complex_from_graph, is_npc, prune_to_smart_pair
from clcc.generators import gen_barycentric_pair
from clcc.hyperbolicity import ALL_RULES, RULE_LINKS_5_LARGE, RULE_PAIRWISE_OBES
from clcc.simplicial import (
    EMPTY_SIMPLEX,
    ColoredComplex,
    is_5_large,
    is_flag,
    is_obes,
    pairwise_5_large,
)

from corpus import (
    planted_square_flag_complex,
    random_colored_complex,
    random_flag_complex,
    random_two_complex,
    rng,
)
from oracles import (
    empty_squares_reference,
    is_flag_reference,
    pairwise_5_large_reference,
    prune_to_smart_pair_reference,
)


def fresh(K: ColoredComplex) -> ColoredComplex:
    """The same complex with nothing cached."""
    return ColoredComplex(K.n, dict(K.vertices), K.simplices)


def vertexless(n: int, colors=None) -> ColoredComplex:
    return ColoredComplex(n, colors or {}, frozenset({EMPTY_SIMPLEX}))


def tricolor_square(n: int) -> ColoredComplex:
    """One chordless 4-cycle on the colors 1, 2, 1, 3."""
    vertices = [("t0", 1), ("t1", 2), ("t2", 1), ("t3", 3)]
    edges = [("t0", "t1"), ("t1", "t2"), ("t2", "t3"), ("t3", "t0")]
    return flag_complex_from_graph(n, vertices, edges)


def random_pairs():
    r = rng(901)
    for _ in range(150):
        n = r.randint(1, 4)
        yield random_colored_complex(r, n), random_colored_complex(r, n)


def edge_pairs():
    full = ColoredComplex.build(2, [("a", 1), ("b", 2)], [["a", "b"]])
    lone = ColoredComplex.build(2, [("a", 1), ("b", 1)], [["a"], ["b"]])
    return [
        (vertexless(1), vertexless(1)),
        (vertexless(2, {"x": 1}), vertexless(2, {"y": 2})),  # collapses
        (vertexless(2), full),  # only the empty simplex has a partner
        (full, vertexless(2, {"x": 1})),
        (lone, lone),  # no complementary simplices at all
        (tricolor_square(3), tricolor_square(3)),
        (tricolor_square(4), tricolor_square(4)),
    ]


def flag_pairs():
    r = rng(902)
    for k in range(120):
        n = r.randint(2, 4)
        other = planted_square_flag_complex(r, n) if k % 2 else random_flag_complex(r, n)
        yield random_flag_complex(r, n, max_vertices=10), other


def barycentric_pairs():
    r = rng(903)
    for _ in range(12):
        yield gen_barycentric_pair(
            random_two_complex(r), random_two_complex(r),
            {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 3, "F": 1},
        )


def corpus():
    yield from random_pairs()
    yield from edge_pairs()
    yield from flag_pairs()
    yield from barycentric_pairs()


def complexes():
    for ga, gb in corpus():
        yield ga
        yield gb


def test_prune_matches_the_pruning_loop():
    seen = {"cut": 0, "collapsed": 0, "uncut with an unused vertex": 0}
    for ga, gb in corpus():
        fa, fb = fresh(ga), fresh(gb)
        ref = prune_to_smart_pair_reference(fa, fb)
        got = prune_to_smart_pair(ga, gb)
        assert got == ref, (ga, gb)
        uncut = ref[0] is fa
        assert (ref[1] is fb) == uncut
        assert (got[0] is ga, got[1] is gb) == (uncut, uncut), (ga, gb)
        if uncut:
            seen["uncut with an unused vertex"] += any(
                {v for s in K.simplices for _, v in s.entries} != set(K.vertex_ids)
                for K in (ga, gb)
            )
        elif ref[0].vertex_ids or ref[1].vertex_ids:
            seen["cut"] += 1
        else:
            seen["collapsed"] += 1
    assert all(seen.values()), seen


def test_square_scan_matches_per_pair_subcomplex_scans():
    for K in complexes():
        squares = K.squares
        assert squares == fresh(K).squares
        assert is_5_large(K) == ((True, None) if not squares else (False, squares[0]))
        bad = [sq for sq in squares if len(sq.color_set) != 2]
        assert is_obes(K) == ((True, None) if not bad else (False, bad[0]))
        for pair in combinations(range(1, K.n + 1), 2):
            ref = empty_squares_reference(K, pair)
            assert [sq for sq in squares if sq.color_set == set(pair)] == ref
            assert K.bicolor_squares.get(pair) == (ref[0] if ref else None)


def test_pairwise_5_large_matches_the_pairwise_loop():
    verdicts = set()
    for ga, gb in corpus():
        got = pairwise_5_large(ga, gb)
        assert got == pairwise_5_large_reference(ga, gb), (ga, gb)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_certify_rule_2_witness_matches_the_subcomplex_scans():
    fired = 0
    for ga, gb in corpus():
        cert = certify(ga, gb)
        if cert.rule != RULE_PAIRWISE_OBES:
            continue
        fired += 1
        used_a = sorted({c for _, c in ga.vertices})
        assert cert.witness["pair_5_large_side"] == {
            f"{i},{j}": "B" if empty_squares_reference(ga, (i, j)) else "A"
            for i, j in combinations(used_a, 2)
        }
    assert fired


def test_certify_scans_each_factor_once(monkeypatch):
    """Every square scan that `certify` asks for reads the int view of
    one of the two factors, and no view is scanned twice."""
    calls = []
    scan = simplicial._chordless_squares
    monkeypatch.setattr(simplicial, "_chordless_squares", lambda adj: calls.append(adj) or scan(adj))
    scans = 0
    for ga, gb in corpus():
        ga, gb = fresh(ga), fresh(gb)
        calls.clear()
        certify(ga, gb)
        views = [ga._view.adj, gb._view.adj]
        assert all(any(adj is view for view in views) for adj in calls), (ga, gb)
        assert all(sum(adj is view for adj in calls) <= 1 for view in views), (ga, gb)
        scans += len(calls)
    assert scans


def benchmark_census(seed: int) -> list:
    """The `random-pairs` census of `perfbench/inputs.py` at this seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.random_pair_census(lambda _, f, *args: f(*args), seed, 300)


def test_certify_builds_no_factor_cell_store():
    """Rule 4 reads the flag factors' links off their int views, and rule
    3 counts edges there, so certify on the pruned seed-1 census pairs
    fills no factor's cells, index or coface table."""
    reached = 0
    for _, ga, gb in benchmark_census(1):
        pa, pb = (fresh(K) for K in prune_to_smart_pair(ga, gb))
        cert = certify(pa, pb)
        reached += cert.rule == RULE_LINKS_5_LARGE or cert.attempted == ALL_RULES
        for K in (pa, pb):
            assert not {"_cells_by_dim", "_index", "_cofaces"} & K.__dict__.keys(), cert
    assert reached


def test_flagness_is_asked_once_per_complex(monkeypatch):
    """`is_flag`, then `certify`, then `is_npc` scan each factor's cliques
    once.  A fresh copy scans again, and so does every built link."""
    scanned = []
    scan = simplicial.cliques
    monkeypatch.setattr(simplicial, "cliques", lambda adj: scanned.append(adj) or scan(adj))
    verdicts = set()
    for ga, gb in corpus():
        ga, gb = fresh(ga), fresh(gb)
        scanned.clear()
        flag = is_flag(ga)[0] and is_flag(gb)[0]
        certify(ga, gb)
        assert is_npc(ga, gb)[1] == ("flag-inputs" if flag else "direct-links")
        assert sum(adj is ga._view.adj for adj in scanned) == 1, (ga, gb)
        assert sum(adj is gb._view.adj for adj in scanned) == 1, (ga, gb)
        assert len(scanned) == 2 or not flag
        verdicts.add(flag)
        scanned.clear()
        assert is_flag(fresh(ga)) == is_flag(ga)
        assert len(scanned) == 1
    assert verdicts == {True, False}
    links = 0
    for K in complexes():
        cells = (EMPTY_SIMPLEX, *K.cells(0)[:2], *K.cells(1)[:1])
        scanned.clear()
        got = [is_flag(K.link(s))[0] for s in cells]
        assert len(scanned) == len(cells)
        assert got == [is_flag_reference(K.link(s))[0] for s in cells]
        links += len(cells)
    assert links
