"""Cube documents and vertex-link entries with one JSON form per side.

`CubeComplex.to_json_dict` and `vertex_links_json` make the JSON form of
each distinct cube side once per call, and every cube with that side
shares it.  Checked here: the documents equal `cube_document_reference`
(two new side dicts per cube) on a seeded corpus of pairs, the census
pairs, and documents loaded as given (no defining pair); each call makes
exactly one dict per distinct side and shares none with another call;
and the `invariants links` entries come in the order of their vertex
forms' canonical texts, on the corpus and on the command's documents
with and without a defining pair."""

from __future__ import annotations

import json
from functools import cache

from click.testing import CliRunner

from clcc import ColoredComplex, build_clcc, gen_racg_pair, gen_surface_pair
from clcc.canon import canonical_json
from clcc.clcc_core import CubeComplex, classify_vertex_links, vertex_links_json
from clcc.cli import main

from corpus import random_colored_complex, random_smart_pair, rng
from oracles import cube_document_reference
from test_facet_table import census_pairs, generator_pairs

POINT = ColoredComplex.build(1, [("v1", 1)], [["v1"]])


def corpus_pairs() -> list:
    r = rng(3401)
    pairs = []
    while len(pairs) < 40:
        pair = random_smart_pair(r, max_vertices=7)
        if pair is not None:
            pairs.append(pair)
    for _ in range(20):  # not smartly paired
        n = r.randint(1, 3)
        pairs.append((random_colored_complex(r, n, 6, 5), random_colored_complex(r, n, 6, 5)))
    return pairs + generator_pairs()


@cache
def corpus_complexes() -> list[CubeComplex]:
    """The built complexes of the corpus and the census pairs, and each
    non-empty one loaded from its document less its last cube: most of
    those are no longer every cube of a pair, so they load as given."""
    built = [build_clcc(ga, gb) for ga, gb in corpus_pairs() + census_pairs(60)]
    loaded = [CubeComplex.from_json_dict({**doc, "cubes": doc["cubes"][:-1]})
              for doc in (X.to_json_dict() for X in built) if doc["cubes"]]
    return built + loaded


def command_documents() -> dict:
    """The built 2x3 surface, that document less its last cube (no
    defining pair) and a tree from the RACG pair of a point."""
    built = build_clcc(*gen_surface_pair(2, 3)).to_json_dict()
    return {
        "built": built,
        "partial": {"n": built["n"], "cubes": built["cubes"][:-1]},
        "tree": build_clcc(*gen_racg_pair(POINT)).to_json_dict(),
    }


def sides_of(X: CubeComplex) -> set:
    return {side for d in range(X.top_dim + 1) for cube in X.cells(d) for side in cube}


def test_cube_documents_equal_the_reference():
    as_given = 0
    for X in corpus_complexes():
        assert canonical_json(X.to_json_dict()) == canonical_json(cube_document_reference(X))
        as_given += X.defining_pair is None
    assert as_given > 20


def test_one_side_dict_per_distinct_side():
    checked = 0
    for X in [*corpus_complexes(), build_clcc(*gen_surface_pair(12, 12))]:
        cubes = X.to_json_dict()["cubes"]
        forms = {id(cube[s]): cube[s] for cube in cubes for s in "ab"}
        assert len(forms) == len(sides_of(X))
        checked += len(cubes) > len(forms)
    assert checked > 50


def test_vertex_links_make_one_side_dict_per_distinct_side():
    for X in corpus_complexes():
        tags = classify_vertex_links(X)
        ids = {id(e["vertex"][s]) for e in vertex_links_json(tags) for s in "ab"}
        assert len(ids) == len({side for v in tags for side in v})


def test_two_calls_share_no_dict():
    X = build_clcc(*gen_surface_pair(3, 4))
    tags = classify_vertex_links(X)

    def dict_ids(cubes) -> set:
        return {id(c) for c in cubes} | {id(c[s]) for c in cubes for s in "ab"}
    # both results are kept alive, so no id is reused between the calls
    documents = [X.to_json_dict()["cubes"] for _ in range(2)]
    entries = [[e["vertex"] for e in vertex_links_json(tags)] for _ in range(2)]
    for first, second in (documents, entries):
        assert not dict_ids(first) & dict_ids(second)


def test_vertex_links_come_in_canonical_text_order():
    for X in corpus_complexes():
        links = vertex_links_json(classify_vertex_links(X))
        assert links == sorted(links, key=lambda e: canonical_json(e["vertex"]))


def test_invariants_links_come_in_canonical_text_order():
    runner = CliRunner()
    for name, doc in command_documents().items():
        text = canonical_json(doc)
        res = runner.invoke(main, ["invariants", "links", "-"], input=text)
        assert res.exit_code == 0, (name, res.output)
        links = json.loads(res.stdout)["links"]
        assert len(links) == len(CubeComplex.from_json_dict(doc).cells(0)) > 1, name
        assert links == sorted(links, key=lambda e: canonical_json(e["vertex"])), name
