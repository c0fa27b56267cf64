"""The cell store of pair-built complexes: cubes assembled on rank pairs,
vertex sets computed on demand, and CoordSimplex as a value with a
cached hash and color set.

Vertex sets are checked against an oracle that never calls
`_cube_vertices`: the 0-cells reached by following facets down.  The
missing-facet error is checked against a plain scan of the cube pairs in
canonical order, and the document reader's errors against the cube they
name.  Assembly on the colorset buckets hashes each side a bounded
number of times, not each cube; a counter on `CoordSimplex.__hash__`
checks that."""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcc import build_clcc, gen_cross_polytope, gen_cycle, gen_surface_pair
from clcc.canon import canonical_json, csorted
from clcc import clcc_core
from clcc.clcc_core import CubeComplex
from clcc.errors import ComplexError
from clcc.simplicial import ColoredComplex, CoordSimplex, SimplicialComplex

from conftest import grid_complex
from corpus import random_colored_complex, random_smart_pair, rng


def _pair_complexes():
    """The fixtures and the seeded pair corpus, each built and loaded back
    from its JSON form."""
    pairs = [
        (gen_cycle(2), gen_cycle(3, prefix="b")),
        (gen_cross_polytope(3), gen_cross_polytope(3)),
        gen_surface_pair(3, 4),
    ]
    r = rng(1101)
    while len(pairs) < 60:
        pair = random_smart_pair(r, max_vertices=7)
        if pair is not None:
            pairs.append(pair)
    for ga, gb in pairs:
        X = build_clcc(ga, gb)
        yield X
        yield CubeComplex.from_json_dict(X.to_json_dict())


def facet_walk_vertices(X: CubeComplex) -> dict:
    """Each cube's 0-cells, reached by following facets down."""
    out: dict = {}
    for d in range(X.top_dim + 1):
        for c in X.cells(d):
            out[c] = frozenset({c}) if d == 0 else frozenset().union(
                *(out[f] for f in X.facets(c))
            )
    return out


def test_vertex_sets_on_demand_equal_the_facet_oracle():
    checked = 0
    for X in _pair_complexes():
        ref = facet_walk_vertices(X)
        for d in range(X.top_dim + 1):
            for c in X.cells(d):
                assert X.vertices_of(c) == ref[c]
                assert len(ref[c]) == 2**d
                checked += 1
        for e in X.cells(1):
            assert set(X.facets(e)) == X.vertices_of(e)
    assert checked > 1000


def test_from_cells_keeps_its_vertex_sets():
    X = grid_complex(2, 3)
    ref = facet_walk_vertices(X)
    for d in range(1, X.top_dim + 1):
        for c in X.cells(d):
            assert X.vertices_of(c) is c  # a higher cell is its vertex set
            assert {v for v in ref[c]} == c


def test_vertices_of_a_cube_not_in_the_complex():
    X = build_clcc(gen_cycle(2), gen_cycle(2, prefix="b"))
    a, b = X.cells(2)[0]
    with pytest.raises(KeyError):
        X.vertices_of((b, a))


def first_missing_facet(pairs) -> tuple:
    """The first facet that a cube family lacks: cubes in canonical order,
    and for each overlap color i (ascending) first (a - i, b), then
    (a, b - i)."""
    present = set(pairs)
    for a, b in csorted(present):
        for i in sorted(a.colors & b.colors):
            for f in ((a.minus(i), b), (a, b.minus(i))):
                if f not in present:
                    return f
    return None


def _cube_of(item) -> tuple:
    return (
        CoordSimplex.of({int(c): v for c, v in item["a"].items()}),
        CoordSimplex.of({int(c): v for c, v in item["b"].items()}),
    )


def test_a_document_missing_a_facet_raises_the_same_error():
    docs = [
        build_clcc(gen_cycle(2), gen_cycle(3, prefix="b")).to_json_dict(),
        build_clcc(gen_cross_polytope(3), gen_cross_polytope(3)).to_json_dict(),
    ]
    raised = 0
    for doc in docs:
        cubes = doc["cubes"]
        # dropping one cube leaves its cofaces without it, while its sides
        # stay in use; dropping every cube on one side simplex leaves the
        # cubes above it with a face that no cube has as its side
        partial = [cubes[:k] + cubes[k + 1:] for k in range(0, len(cubes), 7)]
        for side in ("a", "b"):
            for drop in {canonical_json(item[side]) for item in cubes}:
                partial.append([c for c in cubes if canonical_json(c[side]) != drop])
        for kept in partial:
            missing = first_missing_facet([_cube_of(item) for item in kept])
            if missing is None:
                CubeComplex.from_json_dict({**doc, "cubes": kept})
                continue
            with pytest.raises(ComplexError) as info:
                CubeComplex.from_json_dict({**doc, "cubes": kept})
            assert str(info.value) == (
                f"facet {missing} missing; cube family not downward consistent"
            )
            raised += 1
    assert raised > 40


def count_side_hashes(monkeypatch) -> list:
    calls = []
    plain = CoordSimplex.__hash__

    def counted(self):
        calls.append(1)
        return plain(self)

    monkeypatch.setattr(CoordSimplex, "__hash__", counted)
    return calls


def test_assembly_hashes_each_side_a_bounded_number_of_times(monkeypatch):
    ga0, gb0 = gen_surface_pair(12, 12)
    ga, gb = (ColoredComplex(K.n, dict(K.vertices), K.simplices) for K in (ga0, gb0))
    doc = build_clcc(ga0, gb0).to_json_dict()
    sides = {canonical_json(c[k]) + k for c in doc["cubes"] for k in "ab"}
    budget = len(sides) * (doc["n"] + 1)
    assert budget < len(doc["cubes"]) / 4  # a bound per cube would not fit
    calls = count_side_hashes(monkeypatch)
    X = build_clcc(ga, gb)
    built = len(calls)
    Y = CubeComplex.from_json_dict(doc)
    loaded = len(calls) - built
    assert Y.defining_pair is not None and Y.cells(2) == X.cells(2)
    assert built <= budget and loaded <= budget, (built, loaded, budget)
    calls.clear()
    Y.facets(Y.cells(2)[0])  # the counter counts: the cube index hashes every cube
    assert len(calls) >= 2 * len(doc["cubes"])


def surface_document() -> dict:
    return build_clcc(*gen_surface_pair(3, 4)).to_json_dict()


def test_a_document_is_assembled_once_on_either_path(monkeypatch):
    doc = surface_document()
    top = next(k for k, c in enumerate(doc["cubes"]) if c["dim"] == 2)
    partial = {**doc, "cubes": doc["cubes"][:top] + doc["cubes"][top + 1:]}
    calls = []
    assemble = clcc_core._assemble_pair_cubes

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(clcc_core, "_assemble_pair_cubes", counted)
    for kept, pair in ((doc, True), (partial, False)):
        calls.clear()
        assert (CubeComplex.from_json_dict(kept).defining_pair is not None) == pair
        assert len(calls) == 1


def load_error(doc) -> str:
    with pytest.raises(ComplexError) as info:
        CubeComplex.from_json_dict(doc)
    return str(info.value)


def test_the_bad_cube_after_good_ones_on_its_colorsets_is_named():
    doc = surface_document()
    cubes = doc["cubes"]
    square = next(c for c in cubes if c["dim"] == 2)
    edge = next(c for c in cubes if c["dim"] == 1)
    # the good cubes before it have its colorsets and the dim that the bad
    # dim equals (True == 1, 1.0 == 1)
    bad = [
        (edge, True, "declares dim True, which is not an integer"),
        (edge, 1.0, "declares dim 1.0, which is not an integer"),
        (square, 2.0, "declares dim 2.0, which is not an integer"),
        (square, "2", "declares dim '2', which is not an integer"),
        (square, [2], "declares dim [2], which is not an integer"),
        (square, 1, "declares dim 1, but its colors overlap in 2"),
        (edge, 3, "declares dim 3, but its colors overlap in 1"),
    ]
    for cube, dim, text in bad:
        a, b = _cube_of(cube)
        got = load_error({**doc, "cubes": cubes + [{**cube, "dim": dim}]})
        assert got == f"cube ({a}, {b}) {text}", dim
    # a cube on the a-colorset of many good ones that does not cover
    short = {**edge, "b": {}, "dim": 0}
    ea = _cube_of(short)[0]
    assert load_error({**doc, "cubes": cubes + [short]}) == (
        f"cube ({ea}, <empty>) does not cover the colors 1..2"
    )
    # a vertex id that is not a string, on sides like the good ones
    for raw in ({"1": 5}, {"1": ["x"]}, {"1": None, "2": "b0"}):
        odd = {**edge, "a": raw}
        side = CoordSimplex.of({int(c): v for c, v in raw.items()})
        assert load_error({**doc, "cubes": cubes + [odd]}) == (
            f"cube ({side}, {_cube_of(edge)[1]}) has a vertex id that is not a string"
        )
    # the first bad cube in document order is the one named
    a, b = _cube_of(square)
    first = {**square, "dim": 0}
    assert load_error({**doc, "cubes": cubes[:5] + [first] + cubes[5:] + [{**edge, "dim": 5}]}) == (
        f"cube ({a}, {b}) declares dim 0, but its colors overlap in 2"
    )


def test_a_malformed_item_anywhere_wins_over_a_color_error():
    doc = surface_document()
    cubes = doc["cubes"]
    not_covering = {**cubes[0], "b": {}}
    assert "does not cover" in load_error({**doc, "cubes": [not_covering] + cubes})
    for item, text in (
        ({"a": {}}, "'b'"),
        ({"b": {}}, "'a'"),
        ({"a": [], "b": {}}, "'list' object has no attribute 'items'"),
        ({"a": {"x": "v"}, "b": {}}, "invalid literal for int() with base 10: 'x'"),
        ({"a": {"1": "v", "01": "w"}, "b": {}}, "duplicate color in simplex"),
        ("cube", "string indices must be integers"),
    ):
        got = load_error({**doc, "cubes": [not_covering] + cubes + [item]})
        assert got.startswith("malformed cube complex document: "), got
        assert text in got, (got, text)


def test_colored_lookups_return_the_stored_simplices():
    r = rng(1102)
    for _ in range(40):
        K = random_colored_complex(r, r.randint(1, 4))
        by_vertex_set = {s.vertex_ids: s for s in K.simplices}  # the plain lookup
        stored = {s: s for s in K.simplices}
        vids = list(K.vertex_ids)
        for s in K.simplices:
            assert K.simplex_with_vertices(s.vertex_ids) is stored[s]
            if s.dim >= 0:
                facets = K.boundary_of(s)
                assert facets == s.facets() and all(f is stored[f] for f in facets)
        for _ in range(20):
            pick = r.sample(vids, r.randint(0, len(vids))) + r.sample(["v0", "x"], 1)
            assert K.simplex_with_vertices(pick) == by_vertex_set.get(frozenset(pick))
    outside = CoordSimplex(((1, "x"), (2, "y")))
    with pytest.raises(KeyError):
        K.boundary_of(outside)


def test_a_cell_outside_the_complex_has_no_boundary_on_any_host():
    """Each outside cell but the last has all its facets in the complex."""
    path = SimplicialComplex.from_maximal("abc", ["ab", "bc"])
    K = ColoredComplex.build(3, [("a", 1), ("b", 2), ("c", 3)], ["ab", "bc"])
    X = build_clcc(gen_cycle(2), gen_cycle(2, prefix="b"))
    a, b = X.cells(2)[0]
    outside = [
        (path, frozenset("ac")),
        (K, CoordSimplex(((1, "a"), (3, "c")))),
        (X, (b, a)),
        (path, frozenset("ax")),
    ]
    for host, cell in outside:
        with pytest.raises(KeyError):
            host.boundary_of(cell)
    assert set(path.boundary_of(frozenset("ab"))) == {frozenset("a"), frozenset("b")}


# -- CoordSimplex is a value ----------------------------------------------------------

_entries = st.dictionaries(st.integers(1, 6), st.sampled_from(["a", "b", "v0", "v1"]),
                           max_size=5).map(lambda m: tuple(sorted(m.items())))


@given(entries=_entries)
@settings(max_examples=60, deadline=None)
def test_coord_simplex_value_contract(entries):
    s, t = CoordSimplex(entries), CoordSimplex.of(dict(entries))
    want = frozenset(c for c, _ in entries)
    assert s._hash is None and s._colors is None  # nothing cached yet
    assert s == t and repr(s) == repr(t)
    assert s.colors == want and s.colors is s.colors == want  # after caching
    assert s._colors is s.colors and s._hash is None
    assert hash(s) == hash(t) == hash(CoordSimplex(entries)) == hash(entries)
    assert s._hash == hash(entries) and t._hash == hash(entries)
    assert s == t and repr(s) == repr(t)  # s has cached both, t only its hash
    assert t._colors is None and t.colors == want
    assert t.colors is s.colors  # one shared frozenset per color tuple
    assert {s: 1}[CoordSimplex(entries)] == 1
    assert pickle.loads(pickle.dumps(s)) == s
    if entries:
        rebuilt = CoordSimplex.of([*s.minus(entries[0][0]).entries, entries[0]])
        assert rebuilt == s and hash(rebuilt) == hash(s)
        assert s != CoordSimplex(entries[1:])


def test_coord_simplex_is_immutable_and_has_no_dict():
    s = CoordSimplex(((1, "a"), (2, "b")))
    hash(s), s.colors
    for name, value in (("entries", ()), ("_hash", 0), ("_colors", frozenset())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del s.entries
    # no slot and no __dict__ for anything else (Python 3.11 reports a
    # TypeError here, from the frozen __setattr__ of a slotted class)
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        s.x = 1
    assert not hasattr(s, "__dict__") and not hasattr(s, "x")
    assert s.entries == ((1, "a"), (2, "b")) and s.colors == {1, 2}
    assert repr(s) == "<1:a, 2:b>"
    assert [f.name for f in dataclasses.fields(s) if f.compare] == ["entries"]
