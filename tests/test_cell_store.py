"""The cell store of pair-built complexes: cubes assembled on rank pairs,
vertex sets computed on demand, and CoordSimplex as a value with a
cached hash and color set.

Vertex sets are checked against an oracle that never calls
`_cube_vertices`: the 0-cells reached by following facets down.  The
missing-facet error is checked against a plain scan of the cube pairs in
canonical order."""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcc import build_clcc, gen_cross_polytope, gen_cycle, gen_surface_pair
from clcc.canon import canonical_json, csorted
from clcc.clcc_core import CubeComplex
from clcc.errors import ComplexError
from clcc.simplicial import CoordSimplex

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
    assert K.boundary_of(outside) == outside.facets()


# -- CoordSimplex is a value ----------------------------------------------------------

_entries = st.dictionaries(st.integers(1, 6), st.sampled_from(["a", "b", "v0", "v1"]),
                           max_size=5).map(lambda m: tuple(sorted(m.items())))


@given(entries=_entries)
@settings(max_examples=60, deadline=None)
def test_coord_simplex_value_contract(entries):
    s, t = CoordSimplex(entries), CoordSimplex.of(dict(entries))
    want = frozenset(c for c, _ in entries)
    assert not hasattr(s, "_hash") and not hasattr(s, "_colors")  # nothing cached yet
    assert s == t and repr(s) == repr(t)
    assert s.colors == want and s.colors is s.colors == want  # after caching
    assert hash(s) == hash(t) == hash(CoordSimplex(entries))
    assert s == t and repr(s) == repr(t)  # s has cached both, t only its hash
    assert not hasattr(t, "_colors") and t.colors == want
    assert t.colors is s.colors  # one shared frozenset per color tuple
    assert {s: 1}[CoordSimplex(entries)] == 1
    assert pickle.loads(pickle.dumps(s)) == s
    if entries:
        assert s.minus(entries[0][0]).plus(*entries[0]) == s
        assert hash(s.minus(entries[0][0]).plus(*entries[0])) == hash(s)
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
