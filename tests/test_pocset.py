from collections import deque

import pytest

from clcc import ColoredComplex, build_clcc, gen_cycle, gen_racg_pair
from clcc.clcc_core import CubeComplex
from clcc.errors import DomainError, NotTwoSidedError, PocsetError
from clcc.pocset_hyperplanes import (
    Pocset,
    crossing_graph,
    directions,
    halfspace_pocset,
    hyperplanes,
    roller_duality_check,
    sageev,
    star,
    ultrafilters,
)

from conftest import grid_complex, tree_complex
from corpus import free_pocset, order_rows, random_pocset, rng
from oracles import halfspace_sides_reference, roller_duality_check_reference


def four_cycle():
    return tree_complex([]) if False else _cycle_complex(4)


def _cycle_complex(n):
    verts = [f"c{i}" for i in range(n)]
    edges = [frozenset({f"c{i}", f"c{(i + 1) % n}"}) for i in range(n)]
    return CubeComplex.from_cells({0: [frozenset({v}) for v in verts], 1: edges})


def single_square():
    return grid_complex(1, 1)


def graph_distance(X, u, v):
    adj = {w: set() for w in X.cells(0)}
    for e in X.cells(1):
        a, b = X.vertices_of(e)
        adj[a].add(b)
        adj[b].add(a)
    seen = {u: 0}
    q = deque([u])
    while q:
        w = q.popleft()
        if w == v:
            return seen[w]
        for x in adj[w]:
            if x not in seen:
                seen[x] = seen[w] + 1
                q.append(x)
    return None


def pocsets_isomorphic(S: Pocset, X) -> bool:
    """Match each pair of S with the hyperplane of X crossing it and
    compare the halfspace orders element by element."""
    P = halfspace_pocset(X)
    uf_sets = {e: frozenset(u for u in X.cells(0) if e in u) for e in S.elements}
    phi = {}
    for hid_side, vs in P.sides.items():
        matches = [e for e, us in uf_sets.items() if us == vs]
        if len(matches) != 1:
            return False
        phi[matches[0]] = hid_side
    if len(phi) != len(S.elements):
        return False
    for x in S.elements:
        if phi[star(x)] != (phi[x][0], "-" if phi[x][1] == "+" else "+"):
            return False
    for x in S.elements:
        for y in S.elements:
            if ((x, y) in S.less) != ((phi[x], phi[y]) in P.less):
                return False
    return True


# -- hyperplanes ------------------------------------------------------------------


def test_hyperplanes_four_cycle():
    # no squares, so opposition closure never merges: four singleton
    # classes (a circle is not a CAT(0) complex and has no genuine
    # two-sided hyperplanes)
    hps = hyperplanes(_cycle_complex(4))
    assert len(hps) == 4
    assert all(len(h.edges) == 1 for h in hps)


def test_hyperplanes_torus(c4):
    X = build_clcc(c4, gen_cycle(2, prefix="b"))
    hps = hyperplanes(X)
    assert len(hps) == 8
    assert all(len(h.edges) == 4 for h in hps)


def test_hyperplanes_single_square():
    hps = hyperplanes(single_square())
    assert len(hps) == 2
    assert all(len(h.edges) == 2 for h in hps)


def test_hyperplane_classes_partition_edges(c4):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    hps = hyperplanes(X)
    all_edges = [e for h in hps for e in h.edges]
    assert len(all_edges) == len(set(all_edges)) == len(X.cells(1))
    owner = {e: h.hid for h in hps for e in h.edges}
    for sq in X.cells(2):
        edges = X.facets(sq)
        for e in edges:
            opposite = [f for f in edges if not (X.vertices_of(e) & X.vertices_of(f))]
            assert len(opposite) == 1 and owner[opposite[0]] == owner[e]
            adjacent = [f for f in edges if f != e and f not in opposite]
            assert all(owner[f] != owner[e] for f in adjacent)


# -- directions ---------------------------------------------------------------------


def test_directions_torus(c4):
    X = build_clcc(c4, gen_cycle(2, prefix="b"))
    dirs, valid = directions(X)
    assert valid
    assert sorted(dirs.values()) == [1, 1, 1, 1, 2, 2, 2, 2]


def test_directions_surface(c4):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    dirs, valid = directions(X)
    assert valid and set(dirs.values()) == {1, 2}


def test_directions_need_origin():
    with pytest.raises(DomainError):
        directions(single_square())


def test_crossing_graph_is_multipartite_by_direction(c4):
    X = build_clcc(c4, gen_cycle(3, prefix="b"))
    dirs, _ = directions(X)
    cg = crossing_graph(X)
    for e in cg.edges:
        h, k = sorted(e)
        assert dirs[h] != dirs[k]


# -- crossing graph -------------------------------------------------------------------


def test_crossing_single_square():
    cg = crossing_graph(single_square())
    assert len(cg.nodes) == 2 and len(cg.edges) == 1


def test_crossing_four_cycle():
    cg = crossing_graph(_cycle_complex(4))
    assert len(cg.nodes) == 4 and len(cg.edges) == 0


def test_crossing_torus_is_complete_bipartite(c4):
    X = build_clcc(c4, gen_cycle(2, prefix="b"))
    dirs, _ = directions(X)
    cg = crossing_graph(X)
    ones = [h for h in cg.nodes if dirs[h] == 1]
    twos = [h for h in cg.nodes if dirs[h] == 2]
    assert len(ones) == len(twos) == 4
    assert len(cg.edges) == 16
    for h in ones:
        assert {k for e in cg.edges if h in e for k in e - {h}} == set(twos)


# -- halfspace pocsets ------------------------------------------------------------------


def test_halfspaces_of_path_are_nested():
    P = halfspace_pocset(tree_complex([("v0", "v1"), ("v1", "v2")]))
    assert len(P.elements) == 4
    assert (("h0", "-"), ("h1", "-")) in P.less
    assert (("h1", "+"), ("h0", "+")) in P.less
    assert len(P.less) == 2


def test_halfspaces_of_square_are_incomparable():
    P = halfspace_pocset(single_square())
    assert len(P.elements) == 4 and not P.less


def assert_refused(X, message="hyperplane h0 separates the complex into 1 parts, not 2"):
    """The halfspace pocset and both duality checks refuse X."""
    for refuse in (halfspace_pocset, roller_duality_check, roller_duality_check_reference):
        with pytest.raises(NotTwoSidedError) as err:
            refuse(X)
        assert str(err.value) == message


def test_halfspaces_reject_torus(c4):
    assert_refused(build_clcc(c4, gen_cycle(2, prefix="b")))


def test_four_cycle_halfspaces_are_rejected():
    # removing a singleton class keeps the circle connected, which is the
    # documented signal for a non-CAT(0) input
    assert_refused(_cycle_complex(4))


def two_circles() -> CubeComplex:
    """The pair of two color-1 points and a 4-cycle: two disjoint 4-cycles."""
    ga = ColoredComplex.build(2, [("v0", 1), ("v1", 1)], [["v0"], ["v1"]])
    gb = ColoredComplex.build(
        2, [("s0", 1), ("s1", 2), ("s2", 1), ("s3", 2)],
        [["s0", "s1"], ["s0", "s3"], ["s2", "s1"], ["s2", "s3"]],
    )
    return build_clcc(ga, gb)


def test_halfspaces_of_a_disconnected_complex_are_refused():
    # each class's cut leaves two parts, the two circles, but no edge of
    # h0 joins them
    X = two_circles()
    assert len(X.cells(0)) == len(X.cells(1)) == 8 and not X.is_connected()
    assert halfspace_sides_reference(X) is None
    assert_refused(X, "the complex is not connected: no edge of h0 joins its sides")


def test_a_disconnected_complex_with_no_hyperplane_has_an_empty_pocset():
    X = CubeComplex.from_cells({0: [frozenset({"a"}), frozenset({"b"})]})
    assert halfspace_pocset(X) == Pocset((), ())
    assert halfspace_sides_reference(X) == {}
    assert roller_duality_check(X) == (False, None)


# -- pocset axioms / json -----------------------------------------------------------------


def test_pocset_axioms_enforced():
    h = (("h", "+"), ("h", "-"))
    with pytest.raises(PocsetError):
        Pocset(h, order_rows(h, {h}))
    with pytest.raises(PocsetError):
        Pocset.from_relations(["h"], [h])
    # missing conjugate
    with pytest.raises(PocsetError):
        Pocset(h[:1], order_rows(h[:1], ()))


def test_malformed_rows_are_refused():
    """Rows that do not fit the elements, and elements that are out of
    order or unpaired, raise PocsetError, never IndexError."""
    ab = (("a", "+"), ("a", "-"), ("b", "+"), ("b", "-"))
    for elements, rows in (
        (ab, (0, 0, 0, 1 << 4)),  # a bit beyond the elements
        (ab, (0, 0, 0, -1)),  # a negative row has every bit beyond them
        (ab, (0, 0, 0)),  # one row too few
        (ab[2:] + ab[:2], (0, 0, 0, 0)),  # unsorted elements
        (ab[:3], (0, 0, 0)),  # ("b", "+") without its conjugate
    ):
        with pytest.raises(PocsetError):
            Pocset(elements, rows)


def test_pocset_json_roundtrip():
    S = Pocset.from_relations(["a", "b"], [(("a", "+"), ("b", "-"))])
    doc = S.to_json_dict()
    back = Pocset.from_json_dict(doc)
    assert back.elements == S.elements and back.less == S.less
    assert back.to_json_dict() == doc


def test_pocset_json_rejects_bad_tokens():
    with pytest.raises(PocsetError):
        Pocset.from_json_dict({"pairs": [{"id": "a"}], "less": [["a", "a-"]]})


def test_pocset_json_rejects_malformed_pairs_and_entries():
    for entry in (["p+"], ["p+", "q+", "q-"], [], "p+q+", [["p"], "q+"], ["p+", 5]):
        with pytest.raises(PocsetError):
            Pocset.from_json_dict({"pairs": [{"id": "p"}, {"id": "q"}], "less": [entry]})
    for ids in ([["p"]], [1], ["p", "p"]):
        with pytest.raises(PocsetError):
            Pocset.from_json_dict({"pairs": [{"id": pid} for pid in ids], "less": []})


def test_pocset_rejects_non_transitive_order():
    a, b, c = (("a", "+"), ("a", "-")), (("b", "+"), ("b", "-")), (("c", "+"), ("c", "-"))
    less = frozenset({(a[0], b[0]), (b[1], a[1]), (b[0], c[0]), (c[1], b[1])})
    with pytest.raises(PocsetError, match="order not transitive"):
        Pocset(a + b + c, order_rows(a + b + c, less))


# -- ultrafilters and the rebuild ----------------------------------------------------------


def test_single_pair_gives_edge():
    S = Pocset.from_relations(["h"], [])
    Y = sageev(S)
    assert {d: len(Y.cells(d)) for d in (0, 1)} == {0: 2, 1: 1}


def test_two_incomparable_pairs_give_square():
    S = Pocset.from_relations(["h", "k"], [])
    Y = sageev(S)
    assert {d: len(Y.cells(d)) for d in (0, 1, 2)} == {0: 4, 1: 4, 2: 1}


def test_nested_pairs_give_path():
    S = Pocset.from_relations(["h", "k"], [(("h", "+"), ("k", "+"))])
    assert {frozenset(u) for u in ultrafilters(S)} == {
        frozenset({("h", "-"), ("k", "-")}),
        frozenset({("h", "-"), ("k", "+")}),
        frozenset({("h", "+"), ("k", "+")}),
    }
    Y = sageev(S)
    assert {d: len(Y.cells(d)) for d in (0, 1)} == {0: 3, 1: 2}
    assert Y.top_dim == 1


def count_mask_runs(monkeypatch) -> list:
    """Record each pocset whose ultrafilter masks are enumerated: a walk
    builds a new tuple, a read of the kept one returns it."""
    enumerate_masks = Pocset._ultrafilter_masks
    runs = []

    def counted(S, *limit):
        before = S.__dict__.get("_masks")
        masks = enumerate_masks(S, *limit)
        if masks is not before:
            runs.append(S)
        return masks

    monkeypatch.setattr(Pocset, "_ultrafilter_masks", counted)
    return runs


def test_ultrafilters_then_sageev_enumerate_once(monkeypatch):
    """The two readers share one cached enumeration per pocset."""
    runs = count_mask_runs(monkeypatch)
    S = Pocset.from_relations(["h", "k", "m"], [(("h", "+"), ("k", "+"))])
    U = ultrafilters(S)
    Y = sageev(S)
    assert runs == [S]
    assert len(U) == 6 and list(Y.cells(0)) == U


def test_the_ultrafilter_walk_stops_past_its_limit():
    """The free pocset of 40 pairs has 2^40 ultrafilters: the walk stops
    at the first past the limit.  A finished walk is kept on its pocset
    and checked again against a smaller limit."""
    for reader in (ultrafilters, sageev):
        with pytest.raises(DomainError) as err:
            reader(free_pocset(40), 1000)
        assert str(err.value) == (
            "the pocset has more than 1000 ultrafilters (max_ultrafilters=1000)")
    S = free_pocset(5)
    assert len(ultrafilters(S, 32)) == 32
    with pytest.raises(DomainError, match="more than 31 ultrafilters"):
        sageev(S, 31)
    Y = sageev(S)
    assert roller_duality_check(Y, 32)[0]
    with pytest.raises(DomainError, match="more than 31 ultrafilters"):
        roller_duality_check(Y, 31)


def test_sageev_stops_past_its_cube_limit():
    """The free 5-pair pocset has 3^5 = 243 cubes, its 32 vertices
    included: a limit of 243 keeps it, 242 refuses it, and so does a
    limit below the vertex count."""
    S = free_pocset(5)
    assert sum(len(sageev(S, max_cubes=243).cells(d)) for d in range(6)) == 243
    for limit in (242, 100, 31):
        with pytest.raises(DomainError) as err:
            sageev(S, max_cubes=limit)
        assert str(err.value) == (
            f"the ultrafilter complex has more than {limit} cubes (max_cubes={limit})")


def test_duality_on_small_complexes():
    for X in (
        tree_complex([("v0", "v1"), ("v1", "v2")]),
        tree_complex([("c", "l0"), ("c", "l1"), ("c", "l2")]),
        single_square(),
        grid_complex(2, 3),
    ):
        ok, mapping = roller_duality_check(X)
        assert ok
        assert len(mapping) == len(X.cells(0))


def hollow_cube() -> CubeComplex:
    """The boundary of a 3-cube: its halfspaces are fine, but the
    ultrafilter rebuild fills the missing 3-cell."""
    corners = [f"{i}{j}{k}" for i in "01" for j in "01" for k in "01"]
    edges = [
        frozenset({a, b})
        for a in corners
        for b in corners
        if a < b and sum(x != y for x, y in zip(a, b)) == 1
    ]
    squares = [
        frozenset({a for a in corners if a[pos] == val})
        for pos in range(3)
        for val in "01"
    ]
    return CubeComplex.from_cells({0: [frozenset({v}) for v in corners], 1: edges, 2: squares})


def test_hollow_cube_fails_duality():
    hollow = hollow_cube()
    assert len(hyperplanes(hollow)) == 3
    assert roller_duality_check(hollow) == roller_duality_check_reference(hollow) == (False, None)


def duality_hosts() -> list[CubeComplex]:
    """Pair-built complexes (the tree-like pair of a one-vertex gamma, as
    built and as loaded from JSON, and the subdivided square of an edge)
    and a sageev complex."""
    point = ColoredComplex.build(1, [("v1", 1)], [["v1"]])
    edge = ColoredComplex.build(2, [("v1", 1), ("v2", 2)], [["v1", "v2"]])
    tree = build_clcc(*gen_racg_pair(point))
    return [
        tree,
        CubeComplex.from_json_dict(tree.to_json_dict()),
        build_clcc(*gen_racg_pair(edge)),
        sageev(Pocset.from_relations(["h", "k", "m"], [(("h", "+"), ("k", "+"))])),
    ]


def test_duality_check_reads_no_vertex_sets(monkeypatch):
    """The check compares facet tables: no cube's vertex set is read."""
    hosts = duality_hosts()
    assert all(X.has_pair_origin for X in hosts[:3])
    calls = []
    vertices_of = CubeComplex.vertices_of
    monkeypatch.setattr(
        CubeComplex, "vertices_of", lambda X, cube: calls.append(cube) or vertices_of(X, cube)
    )
    verdicts = [roller_duality_check(X) for X in hosts]
    assert calls == []
    monkeypatch.undo()
    assert all(ok for ok, _ in verdicts)
    assert verdicts == [roller_duality_check_reference(X) for X in hosts]


def test_duality_check_builds_no_rebuild(monkeypatch):
    """The check reads the rebuild's facet tables: it constructs no
    CubeComplex and enumerates the ultrafilter masks once per call, and
    its verdict and mapping are the reference's, the hollow cube's
    (False, None) included."""
    hosts = duality_hosts() + [hollow_cube()]
    built = []
    init = CubeComplex.__init__
    monkeypatch.setattr(
        CubeComplex, "__init__", lambda X, *args, **kw: built.append(X) or init(X, *args, **kw)
    )
    runs = count_mask_runs(monkeypatch)
    verdicts = []
    for X in hosts:
        runs.clear()
        verdicts.append(roller_duality_check(X))
        assert len(runs) == 1
    assert built == []
    monkeypatch.undo()
    assert verdicts == [roller_duality_check_reference(X) for X in hosts]
    assert [ok for ok, _ in verdicts] == [True] * 4 + [False]


def test_pocset_roundtrip_small():
    for S in (
        Pocset.from_relations(["h"], []),
        Pocset.from_relations(["h", "k"], []),
        Pocset.from_relations(["h", "k"], [(("h", "+"), ("k", "+"))]),
    ):
        assert pocsets_isomorphic(S, sageev(S))


def test_pocset_roundtrip_random():
    r = rng(401)
    for _ in range(40):
        S = random_pocset(r, max_pairs=8)
        Y = sageev(S)
        assert pocsets_isomorphic(S, Y)


def test_l1_distance_is_half_symmetric_difference():
    r = rng(402)
    for _ in range(15):
        S = random_pocset(r, max_pairs=5)
        Y = sageev(S)
        verts = Y.cells(0)
        for _ in range(10):
            u = verts[r.randrange(len(verts))]
            v = verts[r.randrange(len(verts))]
            assert graph_distance(Y, u, v) == len(u ^ v) // 2
